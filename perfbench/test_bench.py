"""Tests of the benchmark's own checks and tracer.

Each check is fed a right answer, which it must pass, and a wrong one
(a perturbed gradient, a swapped log-prob, a miscounted accuracy), which it
must report.
"""

import json
import math
import os
import random
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

from derivgen import numeric as nm  # noqa: E402
from derivgen import seq2seq  # noqa: E402
from derivgen.corpus import Triple, build_vocab  # noqa: E402


@pytest.fixture(scope="module")
def tiny_model():
    triples = [Triple("abcde", "ADVERB", "abcdely"), Triple("edcba", "PATIENT", "edcbaee")]
    vocab = build_vocab(triples)
    params = seq2seq.Seq2SeqParams(len(vocab), seq2seq.Seq2SeqConfig(emb=4, hidden=3, seed=1,
                                                                       init_scale=0.5))
    params["out_b2"].values[vocab.eos_id] = 2.0  # so that hypotheses end at EOS
    return params, vocab, triples


def _gradient_pairs(params, vocab, triple):
    params.clear_grads()
    nm.backward(seq2seq.sequence_loss(triple, params, vocab))
    pairs = checks.sampled_gradient_pairs(
        params.tensors, lambda: float(seq2seq.sequence_loss(triple, params, vocab).values),
        random.Random(0))
    params.clear_grads()
    return pairs


def test_finite_differences_agree_with_backward(tiny_model):
    params, vocab, triples = tiny_model
    pairs = _gradient_pairs(params, vocab, triples[0])
    assert len(pairs) > len(params.tensors)
    assert checks.gradient_mismatches(pairs) == []


def test_perturbed_gradient_is_reported(tiny_model):
    params, vocab, triples = tiny_model
    pairs = _gradient_pairs(params, vocab, triples[0])
    label, analytic, numeric = max(pairs, key=lambda p: abs(p[1]))
    assert analytic != 0.0
    wrong = [(label, analytic * 1.001, numeric)]
    assert len(checks.gradient_mismatches(wrong)) == 1
    flipped = [(label, -analytic, numeric)]
    assert len(checks.gradient_mismatches(flipped)) == 1


def test_central_difference_restores_the_coordinate():
    values = np.array([0.3, -1.2])
    d = checks.central_difference(lambda: float(np.sin(values).sum()), values, 1)
    assert values.tolist() == [0.3, -1.2]
    assert abs(d - math.cos(-1.2)) < 1e-9


def test_probe_loss_against_uniform_predictor():
    lengths = [5, 7]
    uniform = (6 + 8) * math.log(30)
    assert checks.probe_loss_problems([uniform / 2 - 1, uniform / 2 - 1], lengths, 30) == []
    assert checks.probe_loss_problems([uniform / 2, uniform / 2], lengths, 30)
    assert checks.probe_loss_problems([float("nan"), 1.0], lengths, 30)
    assert checks.probe_loss_problems([float("inf"), 1.0], lengths, 30)


def test_kbest_shape():
    good = [("ab", -0.1), ("abc", -1.0), ("a", -1.0)]
    assert checks.kbest_problems(good, 3) == []
    swapped = [("ab", -1.0), ("abc", -0.1), ("a", -1.5)]
    assert checks.kbest_problems(swapped, 3)
    assert checks.kbest_problems(good[:2], 3)
    assert checks.kbest_problems([("ab", -0.1), ("ab", -1.0), ("a", -1.5)], 3)


def test_beam_logprobs_against_teacher_forcing(tiny_model):
    params, vocab, triples = tiny_model
    t = triples[0]
    hyps = seq2seq.beam_search(vocab.encode_source(t.base, t.tag), params, vocab, beam=4, k=4,
                               max_len=4)
    pairs = []
    for h in hyps:
        text = h.text(vocab)
        if h.tokens[-1] == vocab.eos_id and vocab.encode_target(text) == list(h.tokens):
            target = types.SimpleNamespace(base=t.base, tag=t.tag, derived=text)
            pairs.append((text, h.log_prob,
                          -float(seq2seq.sequence_loss(target, params, vocab).values)))
    assert len(pairs) >= 2
    assert checks.logprob_mismatches(pairs) == []
    (a, lpa, tfa), (b, lpb, tfb) = pairs[:2]
    assert lpa != lpb
    swapped = [(a, lpb, tfa), (b, lpa, tfb)]
    assert len(checks.logprob_mismatches(swapped)) == 2


def test_accuracy_floor_and_report_count():
    preds, golds = ["ab", "cd", "ef", "gh"], ["ab", "cd", "ef", "xx"]
    matches = [p == g for p, g in zip(preds, golds)]
    acc, problems = checks.accuracy_floor(matches, 0.75)
    assert acc == 0.75 and problems == []
    assert checks.accuracy_floor(matches, 0.8)[1]
    assert checks.report_mismatches(0.75, preds, golds) == []
    assert checks.report_mismatches(0.5, preds, golds)
    assert checks.report_mismatches(1.0, preds, golds)


def test_concatenative_misses():
    rows = [("abc", "ADVERB", "abcly", "abcly"), ("abc", "RESULT", "abcment", "ation")]
    assert checks.concatenative_misses(rows, ("ADVERB",)) == []
    rows.append(("abc", "ADVERB", "abcy", "abcly"))
    assert len(checks.concatenative_misses(rows, ("ADVERB",))) == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", new_item=True)
    outer()
    outer()
    st = tracer.stats()
    calls, total, own = st["outer"]
    assert calls == 2 and st["inner"][0] == 6
    assert own > 0.0
    assert own + st["inner"][1] == pytest.approx(total, rel=1e-9)
    assert st["inner"][2] == st["inner"][1]
    assert list(tracer.item) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(tracer.parent) == [-1, 0, 0, 0, -1, 4, 4, 4]
    first_round = tracer.stats(0, 4)
    assert first_round["outer"][0] == 1 and first_round["inner"][0] == 3


def test_install_patches_aliases_and_remove_restores():
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def f(x):
        return x + 1

    pkg.f = f
    sub.g = f  # an alias, as with ``from .corpus import levenshtein``
    sys.modules["fakepkg"], sys.modules["fakepkg.sub"] = pkg, sub
    try:
        tracer = Tracer()
        tracer.install(pkg, [(pkg, "f", "fakepkg.f", False, None),
                             (pkg, "missing", "fakepkg.missing", False, None)])
        assert pkg.f(1) == 2 and sub.g(2) == 3
        assert tracer.stats()["fakepkg.f"][0] == 2
        tracer.remove()
        assert pkg.f is f and sub.g is f
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.sub"]


def test_beam_steps_counted_from_outside(tiny_model):
    params, vocab, triples = tiny_model
    hooks = bench.Hooks()
    tracer = Tracer()
    import derivgen

    tracer.install(derivgen, bench.trace_targets(hooks))
    try:
        t = triples[1]
        source = vocab.encode_source(t.base, t.tag)
        hyps = seq2seq.beam_search(source, params, vocab, beam=3, k=2, max_len=6)
    finally:
        tracer.remove()
    assert seq2seq.beam_search.__name__ == "beam_search"
    (steps,), (longest,) = hooks.steps, hooks.longest
    assert longest == max(len(h.tokens) for h in hyps)
    assert longest <= steps <= 6
    assert tracer.stats()["seq2seq.decode_step"][0] >= steps


def test_printed_metrics_are_the_manifests():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert bench.END_TO_END == {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert bench.PER_LAYER == {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert set(manifest["paths"]) == {os.path.basename(HERE)}
