"""Shared independent oracles for the test suite."""

import random
from functools import lru_cache

import numpy as np


def levenshtein_oracle(a, b):
    """Naive top-down recursion (memoized), independent of the DP version."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j) + 1,
            d(i, j - 1) + 1,
            d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return d(len(a), len(b))


def finite_difference(build_loss, param, idx, step=1e-5):
    """Central finite difference of a scalar loss wrt one parameter element."""
    orig = param.values.flat[idx]
    param.values.flat[idx] = orig + step
    lp = float(build_loss().values)
    param.values.flat[idx] = orig - step
    lm = float(build_loss().values)
    param.values.flat[idx] = orig
    return (lp - lm) / (2.0 * step)


def max_grad_rel_error(build_loss, params, step=1e-5, floor=1e-5, stride=1):
    """Max relative error between analytic grads and central differences.

    The denominator floor absorbs finite-difference roundoff on gradients
    that are themselves at noise level.
    """
    for p in params.values():
        p.clear_grad()
    from derivgen import numeric as nm

    nm.backward(build_loss())
    worst = 0.0
    for p in params.values():
        for idx in range(0, p.values.size, stride):
            num = finite_difference(build_loss, p, idx, step)
            ana = p.grad.flat[idx]
            rel = abs(ana - num) / max(floor, abs(ana) + abs(num))
            worst = max(worst, rel)
    for p in params.values():
        p.clear_grad()
    return worst


def all_strings(alphabet, max_len):
    """Every string over ``alphabet`` with length 0..max_len."""
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in alphabet]
        out.extend(frontier)
    return out


class ReferencePerceptron:
    """The averaged perceptron on (feature, action)-keyed dicts.

    One dict lookup per (feature, action) pair, and the same lazy averaging
    arithmetic as ``baseline.PerceptronModel``; ``averaged`` maps each pair to
    its nonzero averaged weight. ``action_set`` is sorted, and ties go to the
    first action in it.
    """

    def __init__(self, action_set):
        self.action_set = action_set
        self.weights, self.totals, self.last_update = {}, {}, {}
        self.update_count = 0
        self.averaged = None

    def _score(self, table, feats, action):
        s = 0.0
        for f in feats:
            s += table.get((f, action), 0.0)
        return s

    def _bump(self, feats, action, delta):
        tick = self.update_count
        for f in feats:
            key = (f, action)
            w = self.weights.get(key, 0.0)
            self.totals[key] = self.totals.get(key, 0.0) + w * (tick - 1 - self.last_update.get(key, 0))
            w += delta
            self.weights[key] = w
            self.totals[key] += w
            self.last_update[key] = tick

    def _best(self, table, feats, candidates):
        best, best_score = None, None
        for a in self.action_set:
            if a in candidates:
                s = self._score(table, feats, a)
                if best_score is None or s > best_score:
                    best, best_score = a, s
        return best, best_score

    def observe(self, feats, gold, candidates):
        self.update_count += 1
        gold_score = self._score(self.weights, feats, gold)
        rival, rival_score = self._best(self.weights, feats, [a for a in candidates if a != gold])
        if rival is None or gold_score >= rival_score + 1.0:
            return True
        self._bump(feats, gold, +1.0)
        self._bump(feats, rival, -1.0)
        return False

    def finalize(self):
        tick = self.update_count
        self.averaged = {}
        for key, w in self.weights.items():
            avg = (self.totals.get(key, 0.0) + w * (tick - self.last_update.get(key, 0))) / tick
            if avg != 0.0:
                self.averaged[key] = avg
        return self

    def legal(self, position, source_len, consecutive_ins, cap=5):
        """COPY/SUB/DEL with input left, STOP with none, INS below ``cap`` in a row."""
        out = []
        for a in self.action_set:
            kind = a[0]
            if kind in ("copy", "sub", "del"):
                ok = position < source_len
            elif kind == "ins":
                ok = consecutive_ins < cap
            else:
                ok = position == source_len
            if ok:
                out.append(a)
        return out


def reference_train(data, epochs, seed, window=3, history_len=2):
    """``baseline.train_perceptron`` on a :class:`ReferencePerceptron`."""
    from derivgen.baseline import _action_sort_key, _training_states

    prepared = [list(_training_states(t, window, history_len)) for t in data]
    ref = ReferencePerceptron(sorted({s[1] for states in prepared for s in states}, key=_action_sort_key))
    rng = random.Random(seed)
    order = list(range(len(data)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            for feats, gold, pos, inserts in prepared[idx]:
                cands = ref.legal(pos, len(data[idx].base), inserts)
                if gold not in cands:
                    cands.append(gold)
                ref.observe(feats, gold, cands)
    return ref.finalize()


def reference_decode(ref, base, tag, window=3, history_len=2, cap=5):
    """Greedy decoding with :class:`ReferencePerceptron` scores."""
    from derivgen.baseline import featurize

    out, pos, inserts = [], 0, 0
    while True:
        cands = ref.legal(pos, len(base), inserts, cap)
        if not cands:
            break
        feats = featurize(base, tag, pos, out, window, history_len, inserts)
        (kind, ch), _ = ref._best(ref.averaged, feats, cands)
        if kind == "stop":
            break
        if kind == "copy":
            out.append(base[pos])
        elif kind != "del":
            out.append(ch)
        if kind == "ins":
            inserts += 1
        else:
            pos += 1
            inserts = 0
    return "".join(out)


# Acceptance-criterion verdicts, printed in the terminal summary so they
# survive pytest's output capture (see test_acceptance.report).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
