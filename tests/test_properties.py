"""Randomized invariants, run at high volume.

The five load-bearing properties (attention simplex, softmax shift
invariance, k-best sortedness/prefix consistency, filter idempotence,
split proportions) run with at least 1,000 cases each; cheaper
supporting invariants run at the hypothesis default.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from derivgen import numeric as nm
from derivgen.baseline import align
from derivgen.corpus import (
    Triple,
    Vocab,
    build_vocab,
    filter_triples,
    levenshtein,
    split_dataset,
)
from derivgen.seq2seq import Seq2SeqConfig, Seq2SeqParams, beam_search, decode_step, encode

BIG = settings(max_examples=1000, deadline=None)
SMALL = settings(max_examples=200, deadline=None)

words = st.text(alphabet="abcde", min_size=1, max_size=8)
tags = st.sampled_from(["AGENT", "RESULT", "ADVERB"])
triples = st.builds(Triple, words, tags, words)


# A small bank of fixed models keeps the per-example cost of the neural
# properties at a single forward pass instead of a fresh initialization.
_VOCAB = Vocab(list("ab"), ["T"])
_MODELS = [Seq2SeqParams(len(_VOCAB), Seq2SeqConfig(emb=4, hidden=3, seed=s))
           for s in range(4)]


class TestSoftmaxShiftInvariance:
    @BIG
    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        st.floats(-100, 100),
    )
    def test_shift_invariant(self, xs, shift):
        x = np.asarray(xs)
        a = nm.softmax_array(x)
        b = nm.softmax_array(x + shift)
        assert np.max(np.abs(a - b)) < 1e-9

    @BIG
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_simplex(self, xs):
        out = nm.softmax_array(np.asarray(xs))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9


class TestAttentionSimplex:
    @BIG
    @given(
        st.integers(0, len(_MODELS) - 1),
        st.text(alphabet="ab", min_size=1, max_size=7),
    )
    def test_weights_on_simplex(self, which, base):
        params = _MODELS[which]
        src = _VOCAB.encode_source(base, "T")
        enc = encode([src], params)
        weights = decode_step(np.array([[_VOCAB.bos_id]]), enc.init_state[:, None], enc, params)[2][0, 0]
        context = weights @ enc.hidden[0]
        assert weights.shape == (len(src),)
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) < 1e-9
        lo = enc.hidden[0].min(axis=0)
        hi = enc.hidden[0].max(axis=0)
        assert np.all(context >= lo - 1e-9)
        assert np.all(context <= hi + 1e-9)


class TestKBest:
    @BIG
    @given(
        st.integers(0, len(_MODELS) - 1),
        st.text(alphabet="ab", min_size=1, max_size=4),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_sorted_dedup_prefix_consistent(self, which, base, k, extra):
        params = _MODELS[which]
        beam = k + extra
        src = _VOCAB.encode_source(base, "T")
        hyps = beam_search(src, params, _VOCAB, beam=beam, k=k, max_len=4)
        assert 1 <= len(hyps) <= k
        lps = [h.log_prob for h in hyps]
        assert lps == sorted(lps, reverse=True)
        assert all(lp <= 1e-12 for lp in lps)
        assert len({h.tokens for h in hyps}) == len(hyps)
        # the 1-best of a smaller request must head the larger list
        one = beam_search(src, params, _VOCAB, beam=beam, k=1, max_len=4)
        assert one[0].tokens == hyps[0].tokens


class TestFilterIdempotence:
    @BIG
    @given(st.lists(triples, max_size=30))
    def test_idempotent(self, data):
        once = filter_triples(data)
        assert filter_triples(once) == once

    @BIG
    @given(st.lists(triples, max_size=30))
    def test_subset_order_and_rule(self, data):
        kept = filter_triples(data)
        it = iter(data)
        for t in kept:
            while next(it) is not t:
                pass  # order preserved: each kept item found in sequence
        for t in kept:
            assert 2 * levenshtein(t.base, t.derived) <= len(t.base) + len(t.derived)


class TestSplitProportions:
    @BIG
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_sizes_exact(self, n, seed):
        data = [Triple(f"w{i}", "T", f"w{i}x") for i in range(n)]
        split = split_dataset(data, seed)
        assert len(split.train) == (70 * n) // 100
        assert len(split.dev) == (85 * n) // 100 - (70 * n) // 100
        assert len(split.test) == n - (85 * n) // 100
        assert sorted(split.train + split.dev + split.test, key=lambda t: t.base) == \
            sorted(data, key=lambda t: t.base)

    @SMALL
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_stratified_partition(self, n, seed):
        data = [Triple(f"w{i}", f"T{i % 3}", f"w{i}x") for i in range(n)]
        split = split_dataset(data, seed, stratify_by_tag=True)
        combined = split.train + split.dev + split.test
        assert sorted(t.base for t in combined) == sorted(t.base for t in data)


class TestSupportingInvariants:
    @SMALL
    @given(words, words)
    def test_levenshtein_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @SMALL
    @given(words, words, words)
    def test_levenshtein_triangle(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @SMALL
    @given(words, words)
    def test_align_cost_and_round_trip(self, a, b):
        script = align(a, b)
        assert script.cost == levenshtein(a, b)
        assert script.apply() == b

    @SMALL
    @given(st.lists(triples, min_size=1, max_size=20))
    def test_vocab_covers_and_round_trips(self, data):
        vocab = build_vocab(data)
        for t in data:
            ids = vocab.encode_source(t.base, t.tag)
            assert len(ids) == len(t.base) + 2  # chars + tag + eos
            out = vocab.encode_target(t.derived)
            assert vocab.decode_output(out) == t.derived
        assert Vocab.from_dict(vocab.to_dict()).symbol_to_id == vocab.symbol_to_id
