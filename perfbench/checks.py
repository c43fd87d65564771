"""Correctness checks of the benchmark, each against a computation of its own.

Every function takes plain values and returns a list of problems (empty when
the check holds), so that a test can feed it a wrong answer and see it fail.
"""

from __future__ import annotations

import math


def central_difference(loss, values, index, step=1e-5):
    """d loss / d values.flat[index] from two forward evaluations of ``loss()``.

    The coordinate is perturbed in place and restored before returning.
    """
    orig = values.flat[index]
    values.flat[index] = orig + step
    plus = loss()
    values.flat[index] = orig - step
    minus = loss()
    values.flat[index] = orig
    return (plus - minus) / (2.0 * step)


def sampled_gradient_pairs(tensors, loss, rng):
    """(label, analytic, numeric) at sampled coordinates of every tensor.

    ``tensors`` maps names to objects with ``values`` and the gradient that
    backward left in ``grad``. Each tensor gives one uniformly drawn
    coordinate and one drawn among those with a nonzero gradient.
    """
    pairs = []
    for name in sorted(tensors):
        t = tensors[name]
        nonzero = t.grad.ravel().nonzero()[0]
        coords = [rng.randrange(t.values.size)]
        if len(nonzero):
            coords.append(int(nonzero[rng.randrange(len(nonzero))]))
        for idx in coords:
            pairs.append((f"{name}[{idx}]", float(t.grad.flat[idx]), central_difference(loss, t.values, idx)))
    return pairs


def gradient_mismatches(pairs, rel_tol=1e-4, abs_tol=1e-8):
    """``pairs``: (label, analytic, numeric); those that disagree.

    The absolute tolerance covers the rounding of a central difference on a
    loss of order 10 with step 1e-5 (about 1e-10); the relative one is far
    below any error a wrong backward rule makes.
    """
    return [
        f"{label}: backward {a:.10g} vs finite difference {n:.10g}"
        for label, a, n in pairs
        if not abs(a - n) <= abs_tol + rel_tol * max(abs(a), abs(n))
    ]


def probe_loss_problems(losses, target_lengths, vocab_size):
    """The summed loss must be finite and below that of a uniform predictor.

    A uniform predictor over ``vocab_size`` symbols pays ln|V| for each of
    the ``len(derived) + 1`` targets (EOS included) of every example.
    """
    total = sum(losses)
    uniform = sum((n + 1) * math.log(vocab_size) for n in target_lengths)
    if not math.isfinite(total):
        return [f"probe loss is not finite: {total}"]
    if not total < uniform:
        return [f"probe loss {total:.6f} is not below the uniform-predictor loss {uniform:.6f}"]
    return []


def kbest_problems(hyps, k):
    """``hyps``: [(text, log_prob)] for one query, best first."""
    problems = []
    if len(hyps) != k:
        problems.append(f"{len(hyps)} hypotheses, expected {k}")
    texts = [t for t, _ in hyps]
    if len(set(texts)) != len(texts):
        problems.append(f"duplicate hypotheses {texts}")
    logps = [lp for _, lp in hyps]
    if any(a < b for a, b in zip(logps, logps[1:])):
        problems.append(f"log-probs not sorted best first: {logps}")
    return problems


def logprob_mismatches(pairs, tol=1e-9):
    """``pairs``: (label, beam log-prob, teacher-forced log-prob)."""
    return [
        f"{label}: beam log-prob {b!r} vs -sequence_loss {t!r}"
        for label, b, t in pairs
        if not abs(b - t) <= tol * max(1.0, abs(t))
    ]


def accuracy_floor(matches, floor):
    """``matches``: whether each 1-best prediction was exact; accuracy and problems."""
    acc = sum(matches) / len(matches)
    return acc, ([] if acc >= floor else [f"1-best accuracy {acc:.4f} below the floor {floor}"])


def report_mismatches(report_accuracy, predictions, golds):
    """The evaluate command's accuracy must equal an exact-match count of our own."""
    own = sum(p == g for p, g in zip(predictions, golds)) / len(golds)
    if abs(report_accuracy - own) > 1e-12:
        return [f"evaluate reports accuracy {report_accuracy!r}, own count gives {own!r}"]
    return []


def concatenative_misses(rows, concatenative_tags):
    """``rows``: (base, tag, prediction, gold); misses on concatenative tags."""
    return [
        f"{base}+{tag}: predicted {pred!r}, expected {gold!r}"
        for base, tag, pred, gold in rows
        if tag in concatenative_tags and pred != gold
    ]
