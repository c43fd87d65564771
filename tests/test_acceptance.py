"""Release gate. One PASS/FAIL line per criterion, written straight to
the terminal (bypassing capture) so the verdict is visible in any run.

The paper-corpus criteria need the external dataset; point
DERIVGEN_DATASET at its triple TSV to enable them. Without it they
skip, and the synthetic-grammar suite is the operative gate.
"""

import itertools
import os
import random

import numpy as np
import pytest

from derivgen import numeric as nm
from derivgen.baseline import align, train_baseline
from derivgen.cli import main as cli_main
from derivgen.corpus import (
    Triple,
    Vocab,
    build_vocab,
    filter_triples,
    levenshtein,
    read_triples,
    split_dataset,
)
from derivgen.metrics import accuracy, avg_edit_distance, evaluate, kbest_accuracy
from derivgen.seq2seq import (
    Seq2SeqConfig,
    Seq2SeqParams,
    beam_search,
    decode_step,
    encode,
    greedy_decode,
    predict_kbest,
    sequence_loss,
    train,
)
from derivgen.synthetic import CONCATENATIVE_TAGS, generate

import conftest
from conftest import levenshtein_oracle, max_grad_rel_error, reference_decode_step, reference_encode

DATASET_ENV = "DERIVGEN_DATASET"


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _require_dataset():
    path = os.environ.get(DATASET_ENV)
    if not path:
        pytest.skip(f"paper corpus not available; set {DATASET_ENV} to enable")
    return read_triples(path)


# ---------------------------------------------------------------------------
# Shared synthetic-corpus training run (used by several criteria)

@pytest.fixture(scope="module")
def synth_split():
    data = filter_triples(generate(2000, seed=7))
    return split_dataset(data, seed=7)


@pytest.fixture(scope="module")
def synth_baseline(synth_split):
    model = train_baseline(synth_split.train, epochs=10, seed=0)
    preds = [model.predict(t.base, t.tag) for t in synth_split.test]
    return model, preds


@pytest.fixture(scope="module")
def synth_seq2seq(synth_split):
    vocab = build_vocab(synth_split.train)
    cfg = Seq2SeqConfig(emb=32, hidden=64, batch=5, epochs=40, beam=4,
                        seed=0, stop_at_dev_acc=0.99)
    params, meta, log = train(synth_split, vocab, cfg)
    preds = [predict_kbest(params, vocab, t.base, t.tag, beam=4, k=1)[0][0]
             for t in synth_split.test]
    return params, vocab, preds


class TestPaperNumbers:
    """Reproduction against the original corpus (skipped without it)."""

    def test_seq2seq_matches_reported_numbers(self):
        data = _require_dataset()
        split = split_dataset(filter_triples(data), seed=0)
        vocab = build_vocab(split.train)
        params, _, _ = train(split, vocab, Seq2SeqConfig())
        kbest = [[p for p, _ in predict_kbest(params, vocab, t.base, t.tag, beam=12, k=10)]
                 for t in split.test]
        one_best = [hyps[0] for hyps in kbest]
        gold = [t.derived for t in split.test]
        acc = accuracy(one_best, gold)
        edit = avg_edit_distance(one_best, gold)
        acc10 = kbest_accuracy(kbest, gold)
        report("seq2seq 1-best accuracy within 5 points of 71.7%",
               abs(acc - 0.717) <= 0.05, f"acc={acc:.3f}")
        report("seq2seq avg edit distance within 0.3 of 0.97",
               abs(edit - 0.97) <= 0.3, f"edit={edit:.3f}")
        report("seq2seq 10-best accuracy within 5 points of 84.5%",
               abs(acc10 - 0.845) <= 0.05, f"acc10={acc10:.3f}")

    def test_baseline_matches_reported_number(self):
        data = _require_dataset()
        split = split_dataset(filter_triples(data), seed=0)
        model = train_baseline(split.train, epochs=10, seed=0)
        preds = [model.predict(t.base, t.tag) for t in split.test]
        acc = accuracy(preds, [t.derived for t in split.test])
        report("baseline accuracy within 8 points of 55.3%",
               abs(acc - 0.553) <= 0.08, f"acc={acc:.3f}")

    def test_smoke_gate_60_epochs(self):
        data = _require_dataset()
        split = split_dataset(filter_triples(data), seed=0)
        vocab = build_vocab(split.train)
        _, meta, _ = train(split, vocab, Seq2SeqConfig(epochs=60))
        report("reduced 60-epoch run reaches >= 60% dev accuracy",
               meta["best_dev_accuracy"] >= 0.60,
               f"dev_acc={meta['best_dev_accuracy']:.3f}")

    def test_affix_f1_ordering(self):
        data = _require_dataset()
        split = split_dataset(filter_triples(data), seed=0)
        vocab = build_vocab(split.train)
        params, _, _ = train(split, vocab, Seq2SeqConfig())
        kbest = [[p for p, _ in predict_kbest(params, vocab, t.base, t.tag, beam=12, k=10)]
                 for t in split.test]
        rep = evaluate(kbest, split.test)
        f1 = {row.affix: row.f1 for row in rep.affix_rows}
        report("affix F1 ordering ly > er > ee with F1(ly) >= 0.95",
               f1["ly"] > f1["er"] > f1["ee"] and f1["ly"] >= 0.95,
               f"ly={f1.get('ly')} er={f1.get('er')} ee={f1.get('ee')}")


class TestSyntheticSuite:
    """Substitute gate on the generated six-rule corpus."""

    def test_seq2seq_accuracy(self, synth_split, synth_seq2seq):
        _, _, preds = synth_seq2seq
        acc = accuracy(preds, [t.derived for t in synth_split.test])
        report("synthetic corpus: seq2seq test accuracy >= 95%",
               acc >= 0.95, f"acc={acc:.3f}")

    def test_seq2seq_beats_baseline(self, synth_split, synth_baseline, synth_seq2seq):
        gold = [t.derived for t in synth_split.test]
        _, base_preds = synth_baseline
        _, _, s2s_preds = synth_seq2seq
        b, s = accuracy(base_preds, gold), accuracy(s2s_preds, gold)
        report("synthetic corpus: seq2seq strictly beats the baseline",
               s > b, f"seq2seq={s:.3f} baseline={b:.3f}")

    def test_both_perfect_on_concatenative_subset(self, synth_split, synth_baseline,
                                                  synth_seq2seq):
        _, base_preds = synth_baseline
        _, _, s2s_preds = synth_seq2seq
        rows = [(t, bp, sp) for t, bp, sp in
                zip(synth_split.test, base_preds, s2s_preds)
                if t.tag in CONCATENATIVE_TAGS]
        b_ok = all(bp == t.derived for t, bp, _ in rows)
        s_ok = all(sp == t.derived for t, _, sp in rows)
        report("synthetic corpus: both models 100% on concatenative subset",
               b_ok and s_ok,
               f"baseline={'ok' if b_ok else 'miss'} seq2seq={'ok' if s_ok else 'miss'} "
               f"n={len(rows)}")


class TestGradientOracle:
    def test_end_to_end_micro_model(self):
        vocab = Vocab(["a"], ["T"])  # 6 symbols with the 4 reserved ids
        params = Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=4, hidden=3, seed=11))
        t = Triple("a", "T", "aa")  # source length 3: char + tag + eos
        err = max_grad_rel_error(
            lambda: sequence_loss(t, params, vocab), params.tensors, stride=3
        )
        report("end-to-end gradient check on micro model, rel err < 1e-4",
               err < 1e-4, f"max rel err={err:.2e}")


class TestBeamOracle:
    @staticmethod
    def _chain_scores(src, params, vocab, seqs):
        enc = reference_encode(src, params)
        scored = []
        for seq in seqs:
            state = enc.init_state
            prev = vocab.bos_id
            total = 0.0
            for tok in seq:
                state, log_dist, _ = reference_decode_step(prev, state, enc, params)
                total += float(log_dist.values[tok])
                prev = tok
            scored.append((total, seq))
        return scored

    @staticmethod
    def _enumerate(vocab, max_len):
        ids = list(range(len(vocab)))
        for length in range(1, max_len + 1):
            for seq in itertools.product(ids, repeat=length):
                if vocab.eos_id in seq[:-1]:
                    continue
                if length < max_len and seq[-1] != vocab.eos_id:
                    continue
                yield seq

    def test_fifty_random_micro_instances(self):
        rng = np.random.default_rng(2024)
        beam_ok = greedy_ok = True
        for _ in range(50):
            chars = list("abc"[: int(rng.integers(1, 4))])
            vocab = Vocab(chars, ["T"])
            params = Seq2SeqParams(
                len(vocab),
                Seq2SeqConfig(emb=3, hidden=2, seed=int(rng.integers(0, 10 ** 6))),
            )
            base = "".join(rng.choice(chars, size=int(rng.integers(1, 4))))
            src = vocab.encode_source(base, "T")
            max_len = int(rng.integers(2, 5))
            scored = self._chain_scores(src, params, vocab,
                                        list(self._enumerate(vocab, max_len)))
            scored.sort(key=lambda x: (-x[0], len(x[1]), x[1]))
            hyp = beam_search(src, params, vocab, beam=12, k=1, max_len=max_len)[0]
            beam_ok &= tuple(hyp.tokens) == scored[0][1]
            g = greedy_decode(src, params, vocab, max_len=max_len)
            b1 = beam_search(src, params, vocab, beam=1, k=1, max_len=max_len)[0]
            greedy_ok &= tuple(g.tokens) == tuple(b1.tokens)
        report("beam=12 1-best equals exhaustive argmax on 50 micro instances",
               beam_ok)
        report("beam=1 equals greedy on 50 micro instances", greedy_ok)


class TestAlignmentOracles:
    @staticmethod
    def _all_strings(max_len):
        strings = [""]
        for n in range(1, max_len + 1):
            strings += ["".join(p) for p in itertools.product("abc", repeat=n)]
        return strings

    def test_all_pairs_length_six(self):
        strings = self._all_strings(6)
        lev_ok = align_ok = True
        for a in strings:
            for b in strings:
                d = levenshtein(a, b)
                if levenshtein_oracle(a, b) != d:
                    lev_ok = False
                if a:  # align requires a non-empty source
                    script = align(a, b)
                    if script.cost != d or script.apply() != b:
                        align_ok = False
        report("levenshtein matches recursive oracle on all pairs len <= 6",
               lev_ok, f"{len(strings)}^2 pairs")
        report("align cost == levenshtein and scripts round-trip on the same set",
               align_ok)

    def test_round_trip_on_training_data(self, synth_split):
        pairs = synth_split.train + synth_split.dev + synth_split.test
        ok = all(align(t.base, t.derived).apply() == t.derived for t in pairs)
        report("edit-script round-trip on every pair of the synthetic corpus",
               ok, f"n={len(pairs)}")


class TestDeterminism:
    def _pipeline(self, root, kind):
        from derivgen.corpus import write_triples
        root.mkdir(exist_ok=True)
        data_path = root / "data.tsv"
        write_triples(data_path, generate(120, seed=3))
        splits = root / "splits"
        assert cli_main(["split", "--data", str(data_path), "--seed", "5",
                         "--out-dir", str(splits)]) == 0
        model = root / "model"
        args = ["train", "--kind", kind, "--splits", str(splits), "--model", str(model)]
        if kind == "seq2seq":
            args += ["--emb", "8", "--hidden", "8", "--epochs", "2", "--batch", "10"]
        assert cli_main(args) == 0
        queries = root / "queries.tsv"
        with open(splits / "test.tsv", encoding="utf-8") as fh:
            rows = [line.split("\t") for line in fh.read().splitlines()]
        queries.write_text("".join(f"{b}\t{t}\n" for b, t, _ in rows), encoding="utf-8")
        pred = root / "pred.tsv"
        k = [] if kind == "baseline" else ["--k", "3", "--beam", "4"]
        assert cli_main(["predict", "--model", str(model), "--input", str(queries),
                         "--output", str(pred)] + k) == 0
        return pred.read_bytes()

    def test_identical_seeds_identical_predictions(self, tmp_path):
        for kind in ("baseline", "seq2seq"):
            first = self._pipeline(tmp_path / f"{kind}_a", kind)
            second = self._pipeline(tmp_path / f"{kind}_b", kind)
            report(f"split+train+predict byte-identical across reruns ({kind})",
                   first == second)


class TestPropertySuites:
    """>= 1,000 randomized cases per named property (compact re-runs of
    the hypothesis suites in test_properties.py)."""

    N = 1000

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        ok = True
        for _ in range(self.N):
            x = rng.normal(scale=10, size=rng.integers(1, 12))
            shift = float(rng.normal(scale=50))
            a = nm.softmax_array(x)
            b = nm.softmax_array(x + shift)
            ok &= bool(np.max(np.abs(a - b)) < 1e-9)
        report("softmax shift-invariance, 1000 cases", ok)

    def test_attention_simplex(self):
        rng = random.Random(1)
        vocab = Vocab(list("ab"), ["T"])
        models = [Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=4, hidden=3, seed=s))
                  for s in range(4)]
        ok = True
        for _ in range(self.N):
            params = rng.choice(models)
            base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 7)))
            enc = encode([vocab.encode_source(base, "T")], params)
            w = decode_step(np.array([[vocab.bos_id]]), enc.init_state[:, None], enc, params)[2]
            ok &= bool(np.all(w >= 0)) and abs(w.sum() - 1.0) < 1e-9
        report("attention weights on the simplex, 1000 cases", ok)

    def test_kbest_sorted_and_prefix_consistent(self):
        rng = random.Random(2)
        vocab = Vocab(list("ab"), ["T"])
        models = [Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=4, hidden=3, seed=s))
                  for s in range(4)]
        ok = True
        for _ in range(self.N):
            params = rng.choice(models)
            base = "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
            k = rng.randint(1, 6)
            beam = k + rng.randint(1, 6)
            src = vocab.encode_source(base, "T")
            hyps = beam_search(src, params, vocab, beam=beam, k=k, max_len=4)
            lps = [h.log_prob for h in hyps]
            ok &= lps == sorted(lps, reverse=True)
            ok &= len({h.tokens for h in hyps}) == len(hyps)
            one = beam_search(src, params, vocab, beam=beam, k=1, max_len=4)
            ok &= one[0].tokens == hyps[0].tokens
        report("k-best sortedness and prefix consistency, 1000 cases", ok)

    def test_filter_idempotence(self):
        rng = random.Random(3)
        ok = True
        for _ in range(self.N):
            data = [
                Triple("".join(rng.choice("abcde") for _ in range(rng.randint(1, 8))),
                       "T",
                       "".join(rng.choice("abcde") for _ in range(rng.randint(1, 8))))
                for _ in range(rng.randint(0, 20))
            ]
            once = filter_triples(data)
            ok &= filter_triples(once) == once
        report("filter idempotence, 1000 cases", ok)

    def test_split_proportions(self):
        rng = random.Random(4)
        ok = True
        for _ in range(self.N):
            n = rng.randint(1, 300)
            data = [Triple(f"w{i}", "T", f"w{i}x") for i in range(n)]
            split = split_dataset(data, rng.randrange(2 ** 32))
            ok &= len(split.train) == (70 * n) // 100
            ok &= len(split.dev) == (85 * n) // 100 - (70 * n) // 100
            ok &= len(split.test) == n - (85 * n) // 100
            ok &= sorted(t.base for t in split.train + split.dev + split.test) == \
                sorted(t.base for t in data)
        report("split proportions, 1000 cases", ok)
