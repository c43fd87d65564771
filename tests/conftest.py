"""Shared independent oracles for the test suite."""

import random
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from derivgen import numeric as nm


_oracle_columns = {}  # a -> {b: column of b}, for the last a only


def levenshtein_oracle(a, b):
    """Prefix DP, independent of the suffix DP behind ``corpus.levenshtein``.

    The column of ``b`` holds the distances from every prefix of ``a`` to
    ``b`` and is built from the column of ``b[:-1]``. The columns of the last
    ``a`` are kept, so a caller that runs over every ``b`` for one ``a``,
    shorter strings first, builds one column per pair.
    """
    if a not in _oracle_columns:
        _oracle_columns.clear()
        _oracle_columns[a] = {"": list(range(len(a) + 1))}
    columns = _oracle_columns[a]
    missing = []
    while b not in columns:  # back to the longest prefix with a column
        missing.append(b)
        b = b[:-1]
    col = columns[b]
    for b in reversed(missing):
        prev, c = col, b[-1]
        col = [len(b)]
        for i, ch in enumerate(a):
            col.append(min(col[i] + 1, prev[i + 1] + 1, prev[i] + (ch != c)))
        columns[b] = col
    return col[-1]


def levenshtein_recursive(a, b):
    """Naive top-down recursion (memoized), the reference for ``levenshtein_oracle``."""

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

    One dict lookup per (feature, action) pair, and averaging in its lazy
    form: an update first credits the old weight for the ticks it survived,
    and ``finalize`` divides the running totals by the number of ticks. It is
    independent of the closed form in ``baseline.PerceptronModel``, and the
    two agree bit for bit because every total is a whole number. ``averaged``
    maps each pair to its nonzero averaged weight. ``action_set`` is sorted,
    and ties go to the first action in it.
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


def reference_states(triple, window=3, history_len=2):
    """(features, gold action, position, inserts) for each state of the
    triple's alignment, then the final STOP state. The walk over the actions
    is its own, independent of the program's transducer step; a SUB of the
    current character is a COPY."""
    from derivgen.baseline import align, featurize

    base, out, pos, inserts, states = triple.base, [], 0, 0, []
    for kind, ch in align(base, triple.derived).actions:
        gold = ("copy", "") if kind == "sub" and ch == base[pos] else (kind, ch)
        states.append((featurize(base, triple.tag, pos, out, window, history_len, inserts), gold, pos, inserts))
        if kind == "ins":
            out.append(ch)
            inserts += 1
        else:
            if kind == "sub":
                out.append(ch)
            pos += 1
            inserts = 0
    states.append((featurize(base, triple.tag, pos, out, window, history_len, inserts), ("stop", ""), pos, inserts))
    return states


def reference_train(data, epochs, seed, window=3, history_len=2):
    """``baseline.train_perceptron`` on a :class:`ReferencePerceptron`."""
    from derivgen.baseline import _action_sort_key

    prepared = [reference_states(t, window, history_len) for t in data]
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


def reference_adadelta_step(params, state, clip_norm=None):
    """Adadelta as one expression per rule, each temporary a fresh array:
    the arithmetic that ``numeric.adadelta_step``, which divides and scales
    ``delta`` in place, must reproduce bit for bit."""
    if clip_norm is not None:
        norm = nm.global_grad_norm(params)
        if norm > clip_norm:
            factor = clip_norm / norm
            for p in params.values():
                p.grad *= factor
    rho, eps = state.rho, state.eps
    for name, p in params.items():
        g = p.grad
        eg = state.accum_grad_sq[name]
        ed = state.accum_update_sq[name]
        eg *= rho
        eg += (1.0 - rho) * g * g
        delta = -np.sqrt(ed + eps) / np.sqrt(eg + eps) * g
        ed *= rho
        ed += (1.0 - rho) * delta * delta
        p.values += delta
        p.grad[...] = 0.0


# --- The op-by-op seq2seq reference -----------------------------------------
# The encoder and the decoder step built one elementary op per tape node,
# from tensor ops that the program itself no longer needs: the program's
# tape has only ``numeric.scale`` and the fused nodes of ``seq2seq``. Those
# fused nodes, used in training, and the array functions ``encode`` and
# ``decode_step``, used in decoding, are checked against it.


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b):
    try:
        out = a.values + b.values
    except ValueError:
        raise ValueError(f"add: incompatible shapes {a.values.shape} and {b.values.shape}") from None
    return nm.Tensor(
        out,
        parents=(a, b),
        backward=lambda g: (_unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape)),
    )


def matmul(a, b):
    """``a @ b`` for a vector or matrix ``b``; ``a`` is a vector, a matrix or
    a stack of matrices (leading batch axes)."""
    av, bv = a.values, b.values
    if av.ndim == 0 or bv.ndim not in (1, 2) or av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")

    def bw(g):
        rows = av.reshape(-1, av.shape[-1])
        if bv.ndim == 1:
            return g[..., None] * bv, rows.T @ np.reshape(g, -1)
        return g @ bv.T, rows.T @ g.reshape(-1, bv.shape[1])

    return nm.Tensor(av @ bv, parents=(a, b), backward=bw)


def tanh(a):
    out = np.tanh(a.values)
    return nm.Tensor(out, parents=(a,), backward=lambda g: (g * (1.0 - out * out),))


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis``."""
    sizes = [t.values.shape[axis] for t in tensors]
    out = np.concatenate([t.values for t in tensors], axis=axis)

    def bw(g):
        grads = []
        off = 0
        index = [slice(None)] * g.ndim
        for n in sizes:
            index[axis] = slice(off, off + n)
            grads.append(g[tuple(index)])
            off += n
        return tuple(grads)

    return nm.Tensor(out, parents=tuple(tensors), backward=bw)


def pick(a, index):
    """``a.values[index]``: an element or a row for an int index, a block for
    a tuple of ints and slices such as ``(0, slice(n))``, or distinct
    elements for a tuple of index arrays."""
    if not isinstance(index, tuple):
        index = int(index)

    def bw(g):
        ga = np.zeros_like(a.values)
        ga[index] = g
        return (ga,)

    return nm.Tensor(a.values[index], parents=(a,), backward=bw)


def sub(a, b):
    """Elementwise ``a - b`` of equal-shape tensors."""
    return nm.Tensor(a.values - b.values, parents=(a, b), backward=lambda g: (g, -g))


def mul(a, b):
    """Elementwise ``a * b`` of equal-shape tensors."""
    return nm.Tensor(a.values * b.values, parents=(a, b),
                     backward=lambda g: (g * b.values, g * a.values))


def reference_sigmoid_array(x):
    """``numeric.sigmoid_array`` in its two-division ``np.where`` form, which
    the program's one-division form must equal bit for bit."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    out = nm.sigmoid_array(a.values)
    return nm.Tensor(out, parents=(a,), backward=lambda g: (g * out * (1.0 - out),))


def softmax(a):
    """Softmax over the last axis."""
    out = nm.softmax_array(a.values)
    return nm.Tensor(out, parents=(a,),
                     backward=lambda g: (out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def log_softmax(a):
    """Log-softmax over the last axis."""
    out = nm.log_softmax_array(a.values)
    return nm.Tensor(out, parents=(a,),
                     backward=lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),))


def sum_all(a):
    """The sum of every entry, as a scalar tensor."""
    return nm.Tensor(a.values.sum(), parents=(a,),
                     backward=lambda g: (np.full_like(a.values, float(g)),))


def stack(tensors):
    """Equal-length 1-D tensors as the rows of a matrix."""
    return nm.Tensor(np.stack([t.values for t in tensors]), parents=tuple(tensors),
                     backward=lambda g: tuple(g))


def row(table, index):
    """One row of a 2-D table as a 1-D tensor."""
    n = table.values.shape[0]
    if not 0 <= index < n:
        raise ValueError(f"row: index {index} out of range for table with {n} rows")

    def bw(g):
        gt = np.zeros_like(table.values)
        gt[index] = g
        return (gt,)

    return nm.Tensor(table.values[index], parents=(table,), backward=bw)


def gather(table, ids):
    """Embedding lookup: rows ``ids`` (any shape) of a 2-D table, repeats
    allowed, as an ``ids.shape + (columns,)`` tensor."""
    ids = np.asarray(ids, dtype=np.intp)
    n = table.values.shape[0]
    if ids.size and not (0 <= ids.min() and ids.max() < n):
        raise ValueError(f"gather: ids {ids.tolist()} out of range for table with {n} rows")

    def bw(g):
        gt = np.zeros_like(table.values)
        np.add.at(gt, ids, g)
        return (gt,)

    return nm.Tensor(table.values[ids], parents=(table,), backward=bw)


def gru_step(params, prefix, x, h):
    """Standard GRU cell: h' = (1 - z) * h + z * h_tilde, with each gate's
    weights picked as a row block of the stacked ``W``, ``U`` and ``b``."""
    n = len(h.values)

    def gate(i, state):
        w, u, b = (pick(params[f"{prefix}_{m}"], (slice(i * n, (i + 1) * n),)) for m in "WUb")
        return add(add(matmul(w, x), matmul(u, state)), b)

    z, r = sigmoid(gate(0, h)), sigmoid(gate(1, h))
    h_tilde = tanh(gate(2, mul(r, h)))
    one = nm.constant(np.ones_like(z.values))
    return add(mul(sub(one, z), h), mul(z, h_tilde))


def reference_encode(source_ids, params):
    """``seq2seq.encode`` of one source with one ``gru_step`` per source
    position and direction, as tape tensors without the batch axis."""
    embs = [row(params["src_emb"], i) for i in source_ids]
    runs = []
    for prefix, xs in (("enc_f", embs), ("enc_b", embs[::-1])):
        state, states = nm.constant(np.zeros(params.config.hidden)), []
        for x in xs:
            state = gru_step(params, prefix, x, state)
            states.append(state)
        runs.append(states)
    fwd, bwd = runs[0], runs[1][::-1]
    rows = [concat([f, b]) for f, b in zip(fwd, bwd)]
    annot_proj = stack([matmul(params["att_U"], r) for r in rows])
    init = tanh(add(matmul(params["init_W"], bwd[0]), params["init_b"]))
    return SimpleNamespace(hidden=stack(rows), annot_proj=annot_proj, init_state=init)


def attend(decoder_state_prev, enc, params):
    """Additive attention: weights over source positions and their context sum."""
    ws = matmul(params["att_W"], decoder_state_prev)
    scores = matmul(tanh(add(enc.annot_proj, ws)), params["att_v"])
    weights = softmax(scores)
    context = matmul(weights, enc.hidden)
    return context, weights


def reference_decode_step(prev_token, state, enc, params):
    """``seq2seq.decode_step`` of one hypothesis on the tape, built op by op:
    the next state, the log-distribution over outputs and the attention
    weights."""
    emb = row(params["tgt_emb"], prev_token)
    context, weights = attend(state, enc, params)
    next_state = gru_step(params, "dec", concat([emb, context]), state)
    features = concat([emb, next_state, context])
    mlp = tanh(add(matmul(params["out_W1"], features), params["out_b1"]))
    log_dist = log_softmax(add(matmul(params["out_W2"], mlp), params["out_b2"]))
    return next_state, log_dist, weights


# Acceptance-criterion verdicts, printed in the terminal summary so they
# survive pytest's output capture (see test_acceptance.report).
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
