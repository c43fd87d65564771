import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from derivgen import numeric as nm
from derivgen.corpus import Triple, Vocab, build_vocab, split_dataset
from derivgen.seq2seq import (
    EncodedSource,
    Seq2SeqConfig,
    Seq2SeqParams,
    _attention,
    _checkpoint_arrays,
    _encode,
    beam_batch,
    beam_search,
    decode_step,
    encode,
    greedy_decode,
    load_model,
    predict_kbest,
    save_model,
    sequence_loss,
    train,
)

from conftest import add, max_grad_rel_error, pick, reference_decode_step, reference_encode


def micro_vocab():
    return Vocab(list("ab"), ["T"])


def micro_params(seed=0, emb=4, hidden=3, vocab=None):
    vocab = vocab or micro_vocab()
    cfg = Seq2SeqConfig(emb=emb, hidden=hidden, seed=seed)
    return Seq2SeqParams(len(vocab), cfg), vocab


def first_step(enc, params, vocab):
    """The first decoder step of a one-source ``enc``: the next state, the
    log-distribution and the attention weights."""
    out = decode_step(np.array([[vocab.bos_id]]), enc.init_state[:, None], enc, params)
    return tuple(a[0, 0] for a in out)


def attention_at_start(enc, params):
    """The attention of a one-source ``enc``'s start state: the context and
    the weights over source positions."""
    v = params.arrays
    context, weights = _attention(enc.init_state[:, None], enc.annot_proj, enc.hidden, v["att_W"],
                                  v["att_v"])
    return context[0, 0], weights[0, 0]


class TestEncode:
    def test_shapes(self):
        params, vocab = micro_params()
        enc = encode([vocab.encode_source("ab", "T")], params)
        assert enc.hidden.shape == (1, 4, 6)  # 4 tokens, 2 * hidden
        assert enc.annot_proj.shape == (1, 4, 3)
        assert enc.init_state.shape == (1, 3)

    def test_length_one_input(self):
        params, vocab = micro_params(emb=300, hidden=100)
        enc = encode([[vocab.char_id("a")]], params)
        assert enc.hidden.shape == (1, 1, 200)

    def test_out_of_range_id(self):
        params, vocab = micro_params()
        with pytest.raises(ValueError, match="out of vocabulary range"):
            encode([[99]], params)

    def test_empty_errors(self):
        params, _ = micro_params()
        for sources in ([[]], []):
            with pytest.raises(ValueError, match="empty"):
                encode(sources, params)

    def test_zero_weights_give_zero_states(self):
        params, vocab = micro_params()
        for t in params.tensors.values():
            t.values[...] = 0.0
        enc = encode([vocab.encode_source("ab", "T")], params)
        assert np.all(enc.hidden == 0.0)

    def test_direction_symmetry_with_shared_weights(self):
        # with forward weights copied into the backward cell, the forward
        # half of the states for the reversed input equals the backward half
        # for the input, mirrored
        params, vocab = micro_params(seed=3)
        for m in "WUb":
            params.tensors[f"enc_b_{m}"].values[...] = params.tensors[f"enc_f_{m}"].values
        ids = vocab.encode_source("ab", "T")
        h = params.config.hidden
        fwd_of_reversed = encode([list(reversed(ids))], params).hidden[0, :, :h]
        bwd = encode([ids], params).hidden[0, :, h:]
        assert np.allclose(fwd_of_reversed, bwd[::-1])
        assert not np.allclose(bwd, bwd[::-1])  # the mirroring is not vacuous


class TestAttend:
    def test_single_position(self):
        params, vocab = micro_params()
        enc = encode([[vocab.char_id("a")]], params)
        context, weights = attention_at_start(enc, params)
        assert np.allclose(weights, [1.0])
        assert np.allclose(context, enc.hidden[0, 0])

    def test_identical_states_uniform(self):
        params, vocab = micro_params()
        one = encode([[vocab.char_id("a")]], params)
        h = one.hidden[0, 0]
        hidden = np.stack([h, h, h])[None]
        enc = EncodedSource(hidden, hidden @ params.arrays["att_U"].T, one.init_state)
        _, weights = attention_at_start(enc, params)
        assert np.allclose(weights, 1.0 / 3.0)

    def test_context_is_weighted_sum(self):
        # recomputed with direct numpy arithmetic, independent of the op graph
        params, vocab = micro_params(seed=9)
        enc = encode([vocab.encode_source("aba", "T")], params)
        s = enc.init_state[0]
        H = enc.hidden[0]
        scores = np.tanh(params["att_U"].values @ H.T + (params["att_W"].values @ s)[:, None]).T @ params["att_v"].values
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        context_ref = alpha @ H
        context, weights = attention_at_start(enc, params)
        assert np.allclose(weights, alpha, atol=1e-12)
        assert np.allclose(context, context_ref, atol=1e-12)
        assert np.allclose(first_step(enc, params, vocab)[2], alpha, atol=1e-12)

    def test_simplex(self):
        params, vocab = micro_params(seed=4)
        enc = encode([vocab.encode_source("abab", "T")], params)
        _, weights = attention_at_start(enc, params)
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) < 1e-9


class TestDecodeStep:
    def test_log_dist_normalized(self):
        params, vocab = micro_params(seed=5)
        enc = encode([vocab.encode_source("ab", "T")], params)
        _, log_dist, _ = first_step(enc, params, vocab)
        assert np.all(log_dist <= 0.0)
        assert abs(np.exp(log_dist).sum() - 1.0) < 1e-9

    def test_deterministic(self):
        params, vocab = micro_params(seed=6)
        enc = encode([vocab.encode_source("ab", "T")], params)
        a = first_step(enc, params, vocab)[1]
        b = first_step(enc, params, vocab)[1]
        assert np.array_equal(a, b)

    def test_loss_equals_forced_chain(self):
        # sequence_loss must equal the negated per-step log-prob sum of the
        # op-by-op reference chain
        params, vocab = micro_params(seed=7)
        t = Triple("ab", "T", "ba")
        loss = float(sequence_loss(t, params, vocab).values)
        enc = reference_encode(vocab.encode_source(t.base, t.tag), params)
        state = enc.init_state
        prev = vocab.bos_id
        total = 0.0
        for y in vocab.encode_target(t.derived):
            state, log_dist, _ = reference_decode_step(prev, state, enc, params)
            total -= float(log_dist.values[y])
            prev = y
        assert loss == pytest.approx(total, abs=1e-9)

    def test_chain_matches_reference_chain(self):
        # a chain of array steps against the op-by-op reference chain: the
        # states, log-distributions and attention weights of every step
        # (``TestSequenceLoss`` holds the training tape's gradients to the
        # reference chain's)
        for seed in range(3):
            params, vocab = TestArrayModel.random_model(seed)
            src = vocab.encode_source("abca", "U")
            enc, ref = encode([src], params), reference_encode(src, params)
            states, ref_state, prev = enc.init_state[:, None], ref.init_state, vocab.bos_id
            for y in vocab.encode_target("cab"):
                got = decode_step(np.array([[prev]]), states, enc, params)
                want = reference_decode_step(prev, ref_state, ref, params)
                for g, w in zip(got, want):
                    assert g[0, 0].shape == w.values.shape
                    assert np.max(np.abs(g[0, 0] - w.values)) < 1e-12
                states, ref_state, prev = got[0], want[0], y


class TestArrayModel:
    """The tape-free ``encode`` and ``decode_step`` against the op-by-op reference."""

    @staticmethod
    def random_model(seed):
        vocab = Vocab(list("abc"), ["T", "U"])
        params = Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=5, hidden=4, seed=seed,
                                                         init_scale=0.7))
        rng = np.random.default_rng(seed)
        for t in params.tensors.values():  # biases start at zero; make them count
            t.values[...] = rng.uniform(-0.7, 0.7, size=t.values.shape)
        return params, vocab

    def test_encode_matches_tape_encode(self):
        # both the training encoder, with its tape node of the hidden rows,
        # and the decoding one against the reference
        for seed in range(5):
            params, vocab = self.random_model(seed)
            for base, tag in (("a", "T"), ("abcab", "U"), ("cc", "T")):
                src = vocab.encode_source(base, tag)
                ref = reference_encode(src, params)
                tape, node = _encode(params, np.array([src]), None)
                got = encode([src], params)
                assert node.values is tape.hidden
                for field in ("hidden", "annot_proj", "init_state"):
                    want = getattr(ref, field).values
                    for value in (getattr(got, field)[0], getattr(tape, field)[0]):
                        assert value.shape == want.shape
                        assert np.max(np.abs(value - want)) < 1e-12

    @staticmethod
    def assert_rows_match(params, vocab, queries, prev):
        """One grouped step of W rows for each (base, tag) query against a
        reference step per row on that query's own source: the rows start
        from distinct states, the start state and the states after reference
        steps on different tokens, and take the previous tokens ``prev``."""
        sources = [vocab.encode_source(base, tag) for base, tag in queries]
        refs = [reference_encode(src, params) for src in sources]
        states = []
        for enc, toks in zip(refs, prev):
            states.append([enc.init_state])
            for tok in (vocab.bos_id, vocab.char_id("a"), vocab.char_id("c"))[:len(toks) - 1]:
                states[-1].append(reference_decode_step(tok, states[-1][-1], enc, params)[0])
        got_states, got_log_probs, got_weights = decode_step(
            np.array(prev), np.array([[s.values for s in row] for row in states]),
            encode(sources, params), params)
        q, w = len(queries), len(prev[0])
        assert got_states.shape == (q, w, 4) and got_log_probs.shape == (q, w, len(vocab))
        assert got_weights.shape == (q, w, max(len(src) for src in sources))
        for i, (enc, src) in enumerate(zip(refs, sources)):
            for j, (tok, state) in enumerate(zip(prev[i], states[i])):
                want = reference_decode_step(tok, state, enc, params)
                for got, ref in zip((got_states, got_log_probs), want):
                    assert np.max(np.abs(got[i, j] - ref.values)) < 1e-12
                # attention puts no weight on the padding after a shorter source
                assert np.max(np.abs(got_weights[i, j, :len(src)] - want[2].values)) < 1e-12
                assert not got_weights[i, j, len(src):].any()

    def test_batched_step_matches_decode_step_row_by_row(self):
        for seed in range(5):
            params, vocab = self.random_model(seed)
            # one query of four rows
            self.assert_rows_match(params, vocab, [("abca", "T")],
                                   [[vocab.bos_id, vocab.char_id("b"), vocab.char_id("c"),
                                     vocab.eos_id]])
            # two queries on different sources, two rows each
            self.assert_rows_match(params, vocab, [("abca", "T"), ("cb", "U")],
                                   [[vocab.bos_id, vocab.char_id("b")],
                                    [vocab.char_id("c"), vocab.eos_id]])


def stepwise_loss(triple, params, vocab):
    """``sequence_loss`` built op by op from the reference encoder and decoder
    step, one tape node per elementary op."""
    enc = reference_encode(vocab.encode_source(triple.base, triple.tag), params)
    state, prev, loss = enc.init_state, vocab.bos_id, None
    for y in vocab.encode_target(triple.derived):
        state, log_dist, _ = reference_decode_step(prev, state, enc, params)
        term = nm.scale(pick(log_dist, y), -1.0)
        loss = term if loss is None else add(loss, term)
        prev = y
    return loss


class TestSequenceLoss:
    def test_fused_nodes_match_stepwise_tape(self):
        # the hand-written backward passes of the fused encoder and decoder
        # nodes against the generic ops' backward passes, parameter by parameter
        for seed in range(4):
            params, vocab = TestArrayModel.random_model(seed)
            for triple in (Triple("abcab", "U", "cabbac"), Triple("a", "T", "b")):
                grads = []
                for loss_fn in (sequence_loss, stepwise_loss):
                    params.clear_grads()
                    loss = loss_fn(triple, params, vocab)
                    nm.backward(loss)
                    grads.append((float(loss.values),
                                  {n: t.grad.copy() for n, t in params.tensors.items()}))
                (fused_loss, fused), (ref_loss, ref) = grads
                assert fused_loss == pytest.approx(ref_loss, rel=1e-12)
                for name, g in ref.items():
                    assert np.any(g != 0.0), name
                    assert np.max(np.abs(fused[name] - g)) <= 1e-10 * max(1.0, np.max(np.abs(g))), name
            params.clear_grads()

    def test_uniform_distribution_analytic_value(self):
        params, vocab = micro_params()
        for t in params.tensors.values():
            t.values[...] = 0.0
        t = Triple("ab", "T", "aab")
        loss = float(sequence_loss(t, params, vocab).values)
        expected = (len("aab") + 1) * math.log(len(vocab))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_loss_nonnegative(self):
        params, vocab = micro_params(seed=8)
        assert float(sequence_loss(Triple("a", "T", "b"), params, vocab).values) >= 0.0

    def test_minibatch_tape_is_fused(self, monkeypatch):
        # a ragged minibatch's loss is four tape nodes: the encoder, the
        # target embeddings, the decoder run and the output layer with the loss
        params, vocab = TestArrayModel.random_model(0)
        built = []
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        nm.constant(0.0)
        assert len(built) == 1  # the count sees every tensor built
        built.clear()
        sequence_loss(list(TestMinibatch.BATCHES[1]), params, vocab)
        assert len(built) == 4

    def test_gradient_matches_finite_differences(self):
        # micro model: embedding 4, hidden 3, vocab 6 (one char, one tag)
        vocab = Vocab(["a"], ["T"])
        assert len(vocab) == 6
        cfg = Seq2SeqConfig(emb=4, hidden=3, seed=11)
        params = Seq2SeqParams(len(vocab), cfg)
        t = Triple("a", "T", "aa")

        err = max_grad_rel_error(
            lambda: sequence_loss(t, params, vocab), params.tensors, stride=3
        )
        assert err < 1e-4


class TestMinibatch:
    """``sequence_loss`` on a list runs the examples as one padded batch. Its
    value and every gradient must be the sum of the op-by-op reference's over
    the examples, which see no padding."""

    BATCHES = (
        (Triple("abcab", "U", "cabbac"),),
        # ragged sources and targets, in both orders
        (Triple("a", "T", "b"), Triple("abcab", "U", "cabbac"), Triple("cc", "T", "c"),
         Triple("bca", "U", "ab")),
        # one example much longer than the rest
        (Triple("ab", "T", "ba"), Triple("cabcabcabcab", "U", "abcabcabcabcabcab"),
         Triple("c", "U", "a")),
    )

    @staticmethod
    def loss_and_grads(build_loss, params):
        params.clear_grads()
        loss = build_loss()
        nm.backward(loss)
        grads = {n: t.grad.copy() for n, t in params.tensors.items()}
        params.clear_grads()
        return float(loss.values), grads

    def test_batch_equals_sum_of_stepwise_losses(self):
        for seed in range(3):
            params, vocab = TestArrayModel.random_model(seed)
            for batch in self.BATCHES:
                got_loss, got = self.loss_and_grads(
                    lambda: sequence_loss(list(batch), params, vocab), params)

                def reference():
                    total = stepwise_loss(batch[0], params, vocab)
                    for t in batch[1:]:
                        total = add(total, stepwise_loss(t, params, vocab))
                    return total

                ref_loss, ref = self.loss_and_grads(reference, params)
                assert got_loss == pytest.approx(ref_loss, rel=1e-10)
                for name, g in ref.items():
                    assert np.any(g != 0.0), name
                    assert np.max(np.abs(got[name] - g)) <= 1e-10 * max(1.0, np.max(np.abs(g))), name

    def test_one_triple_equals_batch_of_one(self):
        params, vocab = TestArrayModel.random_model(4)
        t = self.BATCHES[1][1]
        alone = self.loss_and_grads(lambda: sequence_loss(t, params, vocab), params)
        batch = self.loss_and_grads(lambda: sequence_loss([t], params, vocab), params)
        assert alone[0] == pytest.approx(batch[0], rel=1e-12)
        for name, g in alone[1].items():
            assert np.max(np.abs(batch[1][name] - g)) <= 1e-12 * max(1.0, np.max(np.abs(g))), name

    def test_batch_equals_decode_step_chain(self):
        # training and decoding share one decoder step: a ragged batch forced
        # through a chain of batched ``decode_step``s from ``encode`` scores
        # what the loss does
        for seed in range(3):
            params, vocab = TestArrayModel.random_model(seed)
            batch = list(self.BATCHES[2])
            targets = [vocab.encode_target(t.derived) for t in batch]
            lengths = np.array([len(y) for y in targets])
            steps = lengths.max()
            gold = np.array([y + [0] * (steps - len(y)) for y in targets])  # padded with id 0
            enc = encode([vocab.encode_source(t.base, t.tag) for t in batch], params)
            states, prev = enc.init_state[:, None], np.full((len(batch), 1), vocab.bos_id)
            picked = np.empty(gold.shape)
            for t in range(steps):
                states, log_probs, _ = decode_step(prev, states, enc, params)
                picked[:, t] = log_probs[np.arange(len(batch)), 0, gold[:, t]]
                prev = gold[:, t, None]
            want = -picked[np.arange(steps) < lengths[:, None]].sum()
            got = float(sequence_loss(batch, params, vocab).values)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_empty_list_errors(self):
        params, vocab = micro_params()
        with pytest.raises(ValueError, match="empty"):
            sequence_loss([], params, vocab)

    def test_gradient_matches_finite_differences_through_padding(self):
        params, vocab = TestArrayModel.random_model(5)
        batch = list(self.BATCHES[1])
        err = max_grad_rel_error(lambda: sequence_loss(batch, params, vocab), params.tensors,
                                 stride=2)
        assert err < 1e-4


class TestBeamSearch:
    def test_beam_one_equals_stepwise_argmax(self):
        params, vocab = micro_params(seed=13)
        src = vocab.encode_source("ab", "T")
        hyp = beam_search(src, params, vocab, beam=1, k=1)[0]
        enc = reference_encode(src, params)
        state = enc.init_state
        prev = vocab.bos_id
        tokens = []
        for _ in range(len(src) + params.config.max_extra):
            state, log_dist, _ = reference_decode_step(prev, state, enc, params)
            prev = int(np.argmax(log_dist.values))
            tokens.append(prev)
            if prev == vocab.eos_id:
                break
        assert list(hyp.tokens) == tokens

    def test_sorted_dedup_and_prefix_consistency(self):
        params, vocab = micro_params(seed=14)
        src = vocab.encode_source("ab", "T")
        ten = beam_search(src, params, vocab, beam=12, k=10, max_len=4)
        lps = [h.log_prob for h in ten]
        assert lps == sorted(lps, reverse=True)
        assert len({h.tokens for h in ten}) == len(ten)
        one = beam_search(src, params, vocab, beam=12, k=1, max_len=4)
        assert one[0].tokens == ten[0].tokens

    def test_log_probs_nonpositive(self):
        params, vocab = micro_params(seed=15)
        for h in beam_search(vocab.encode_source("a", "T"), params, vocab, beam=4, k=4):
            assert h.log_prob <= 0.0

    def test_invalid_args(self):
        params, vocab = micro_params()
        src = vocab.encode_source("a", "T")
        with pytest.raises(ValueError, match="beam >= k >= 1"):
            beam_search(src, params, vocab, beam=1, k=2)
        with pytest.raises(ValueError, match="max_len"):
            beam_search(src, params, vocab, beam=2, k=1, max_len=0)

    def test_finished_flag(self):
        # max_len 2 leaves a two-token cap: the 10-best mixes EOS-terminated
        # hypotheses with ones cut at the cap
        params, vocab = micro_params(seed=17)
        hyps = beam_search(vocab.encode_source("ab", "T"), params, vocab, beam=12, k=10,
                           max_len=2)
        assert {h.finished for h in hyps} == {True, False}
        for h in hyps:
            if h.finished:
                assert h.tokens[-1] == vocab.eos_id
            else:
                assert len(h.tokens) == 2 and vocab.eos_id not in h.tokens

    def test_inference_builds_no_tape(self, monkeypatch):
        params, vocab = micro_params(seed=18)
        built = []
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        nm.constant(0.0)
        assert len(built) == 1  # the count sees every tensor built
        built.clear()
        predict_kbest(params, vocab, "ab", "T", beam=4, k=3)
        greedy_decode(vocab.encode_source("ba", "T"), params, vocab)
        first_step(encode([vocab.encode_source("ab", "T")], params), params, vocab)
        assert len(built) == 0

    def test_hypothesis_log_prob_is_chain_sum(self):
        params, vocab = micro_params(seed=16)
        src = vocab.encode_source("ab", "T")
        hyp = beam_search(src, params, vocab, beam=3, k=1)[0]
        enc = reference_encode(src, params)
        state = enc.init_state
        prev = vocab.bos_id
        total = 0.0
        for tok in hyp.tokens:
            state, log_dist, _ = reference_decode_step(prev, state, enc, params)
            total += float(log_dist.values[tok])
            prev = tok
        assert hyp.log_prob == pytest.approx(total, abs=1e-9)


class TestBeamBatch:
    """``beam_batch`` runs the beams of many sources as one padded batch; each
    query's k-best list must be what ``beam_search`` gives for its source
    alone. ``TestGreedyBatch`` covers beam 1."""

    QUERIES = (("a", "T"), ("abcab", "U"), ("cc", "T"), ("bcabcabca", "U"), ("b", "U"))
    KBEST = ((3, 2), (12, 10))

    @staticmethod
    def assert_per_query(sources, params, vocab, beam, k, max_len=None):
        got = beam_batch(sources, params, vocab, beam=beam, k=k, max_len=max_len)
        assert len(got) == len(sources)
        for src, hyps in zip(sources, got):
            want = beam_search(src, params, vocab, beam=beam, k=k, max_len=max_len)
            assert [(h.tokens, h.finished) for h in hyps] == [(h.tokens, h.finished) for h in want]
            for hyp, alone in zip(hyps, want):
                assert hyp.log_prob == pytest.approx(alone.log_prob, rel=1e-12, abs=0.0)
        return got

    @classmethod
    def sources(cls, vocab):
        return [vocab.encode_source(base, tag) for base, tag in cls.QUERIES]

    @pytest.mark.parametrize("beam, k", KBEST)
    def test_ragged_batch(self, beam, k):
        for seed in range(8):
            params, vocab = TestArrayModel.random_model(seed)
            self.assert_per_query(self.sources(vocab), params, vocab, beam, k)

    @pytest.mark.parametrize("beam, k", KBEST)
    def test_queries_stopping_early_next_to_queries_at_their_caps(self, beam, k, monkeypatch):
        # with this model, alone, some queries stop before their caps and the
        # others run to them
        from derivgen import seq2seq

        params, vocab = TestArrayModel.random_model(1)
        steps, step = [], seq2seq.decode_step
        monkeypatch.setattr(seq2seq, "decode_step", lambda *a, **kw: steps.append(1) or step(*a, **kw))
        early = []
        for src in self.sources(vocab):
            steps.clear()
            beam_search(src, params, vocab, beam=beam, k=k)
            early.append(len(steps) < len(src) + params.config.max_extra)
        assert any(early) and not all(early)
        self.assert_per_query(self.sources(vocab), params, vocab, beam, k)

    @pytest.mark.parametrize("beam, k", KBEST)
    def test_explicit_max_len(self, beam, k):
        for seed in (0, 3, 5):
            params, vocab = TestArrayModel.random_model(seed)
            for max_len in (1, 2, 4):
                got = self.assert_per_query(self.sources(vocab), params, vocab, beam, k, max_len)
                assert all(len(h.tokens) <= max_len for hyps in got for h in hyps)
        with pytest.raises(ValueError, match="max_len"):
            beam_batch(self.sources(vocab), params, vocab, beam=beam, k=k, max_len=0)

    def test_more_sources_than_the_batch(self, monkeypatch):
        from derivgen import seq2seq

        params, vocab = TestArrayModel.random_model(2)
        params.config = replace(params.config, batch=3)
        sources = self.sources(vocab) + [vocab.encode_source(base, tag) for base, tag in
                                         (("ab", "T"), ("cabcab", "U"), ("bb", "T"))]
        chunks, enc = [], seq2seq.encode
        monkeypatch.setattr(seq2seq, "encode", lambda src, p: chunks.append(len(src)) or enc(src, p))
        self.assert_per_query(sources, params, vocab, 3, 2)
        assert chunks[:3] == [3, 3, 2]  # then one per query alone

    def test_empty_list_and_bad_source(self):
        params, vocab = TestArrayModel.random_model(0)
        for beam, k in self.KBEST:
            assert beam_batch([], params, vocab, beam=beam, k=k) == []
            with pytest.raises(ValueError, match="out of vocabulary range"):
                beam_batch([vocab.encode_source("ab", "T"), [99]], params, vocab, beam=beam, k=k)

    def test_sees_weights_updated_in_place(self):
        # the decoder step's per-token and per-source tables come from the
        # weights of the call: after an in-place update, as Adadelta makes,
        # decoding equals that of fresh parameters built from the new arrays
        params, vocab = TestArrayModel.random_model(4)
        sources = self.sources(vocab)
        before = beam_batch(sources, params, vocab, beam=3, k=2)
        rng = np.random.default_rng(4)
        for name in ("tgt_emb", "dec_W", "out_W1"):
            params[name].values += rng.uniform(-0.5, 0.5, size=params[name].values.shape)
        fresh = Seq2SeqParams(params.vocab_size, params.config,
                              {n: a.copy() for n, a in _checkpoint_arrays(params).items()})
        after = beam_batch(sources, params, vocab, beam=3, k=2)
        assert after == beam_batch(sources, fresh, vocab, beam=3, k=2)
        assert after != before  # the update is not vacuous

    def test_builds_no_tape(self, monkeypatch):
        params, vocab = TestArrayModel.random_model(1)
        built = []
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        nm.constant(0.0)
        assert len(built) == 1  # the count sees every tensor built
        built.clear()
        for beam, k in self.KBEST:
            beam_batch(self.sources(vocab), params, vocab, beam=beam, k=k)
        assert len(built) == 0


class TestGreedyBatch:
    """``beam_batch`` at beam 1 runs many sources as one padded batch; each
    row must decode as ``beam_search`` at beam 1 does for its source alone."""

    QUERIES = TestBeamBatch.QUERIES

    @staticmethod
    def assert_per_query(sources, params, vocab, max_len=None):
        return [hyps[0] for hyps in TestBeamBatch.assert_per_query(sources, params, vocab, 1, 1,
                                                                   max_len)]

    def sources(self, vocab):
        return TestBeamBatch.sources(vocab)

    def test_batch_of_one(self):
        for seed in range(4):
            params, vocab = TestArrayModel.random_model(seed)
            for src in self.sources(vocab):
                self.assert_per_query([src], params, vocab)

    def test_ragged_batch(self):
        for seed in range(8):
            params, vocab = TestArrayModel.random_model(seed)
            got = self.assert_per_query(self.sources(vocab), params, vocab)
            if seed == 0:  # every row runs to its own cap, each a different length
                assert [len(h.tokens) for h in got] == [len(s) + 10 for s in self.sources(vocab)]

    def test_rows_ending_at_eos_and_at_the_cap(self):
        # with this model, four rows end at EOS after one or two steps while
        # the last runs on to its cap
        params, vocab = TestArrayModel.random_model(3)
        got = self.assert_per_query(self.sources(vocab), params, vocab)
        assert [h.finished for h in got] == [True, True, True, True, False]
        assert max(len(h.tokens) for h in got if h.finished) < len(got[-1].tokens)

    def test_explicit_max_len(self):
        for seed in (0, 3, 5):
            params, vocab = TestArrayModel.random_model(seed)
            for max_len in (1, 2, 4):
                got = self.assert_per_query(self.sources(vocab), params, vocab, max_len=max_len)
                assert all(len(h.tokens) <= max_len for h in got)
        with pytest.raises(ValueError, match="max_len"):
            beam_batch(self.sources(vocab), params, vocab, beam=1, max_len=0)

    def test_empty_list_and_bad_source(self):
        params, vocab = TestArrayModel.random_model(0)
        assert beam_batch([], params, vocab, beam=1) == []
        with pytest.raises(ValueError, match="out of vocabulary range"):
            beam_batch([vocab.encode_source("ab", "T"), [99]], params, vocab, beam=1)

    def test_builds_no_tape(self, monkeypatch):
        params, vocab = TestArrayModel.random_model(3)
        built = []
        init = nm.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
        nm.constant(0.0)
        assert len(built) == 1  # the count sees every tensor built
        built.clear()
        beam_batch(self.sources(vocab), params, vocab, beam=1)
        assert len(built) == 0

    def test_training_log_equals_per_query_dev_scoring(self, monkeypatch):
        # dev scoring in batches of config.batch rows (here 4, 4 and 1 of a
        # nine-triple dev set) against decoding each dev query alone
        from derivgen import seq2seq
        from derivgen.corpus import DatasetSplit
        from derivgen.metrics import accuracy, avg_edit_distance
        from derivgen.synthetic import generate

        data = generate(40, seed=3)
        split = DatasetSplit(tuple(data[:30]), tuple(data[30:39]), (), 0)
        vocab = build_vocab(split.train + split.dev)
        cfg = Seq2SeqConfig(emb=6, hidden=5, batch=4, epochs=3, seed=2, init_scale=0.5)
        batched = train(split, vocab, cfg)

        def per_query(params, vocab, dev):
            preds = [beam_search(vocab.encode_source(t.base, t.tag), params, vocab,
                                 beam=1)[0].text(vocab) for t in dev]
            gold = [t.derived for t in dev]
            return accuracy(preds, gold), avg_edit_distance(preds, gold)

        monkeypatch.setattr(seq2seq, "_dev_scores", per_query)
        alone = train(split, vocab, cfg)
        assert batched[2] == alone[2] and batched[1] == alone[1]
        assert len({len(t.base) for t in split.dev}) > 1  # the dev batches are ragged
        for name, t in batched[0].tensors.items():
            assert np.array_equal(t.values, alone[0].tensors[name].values), name


class TestKBestOracle:
    """Every k-best list against exhaustive enumeration, with a beam wide
    enough to hold every prefix, so only the search's stopping rule and its
    candidate selection can make it differ.

    A step keeps expansions in rank order until it has ``beam`` live ones, so
    an EOS expansion ranked below all of them is dropped. The beam is one
    wider than the (|V| - 1) ** (max_len - 1) live prefixes of the step
    before the cap, so no step before the cap ever stops short.
    """

    MAX_LEN = 3

    @staticmethod
    def enumerate_scored(src, params, vocab, max_len):
        """(log_prob, tokens) of every complete output: EOS-terminated, or
        cut at ``max_len``; prefixes are scored once with the op-by-op
        reference step."""
        enc = reference_encode(src, params)
        out = []
        frontier = [((), 0.0, enc.init_state, vocab.bos_id)]
        for length in range(1, max_len + 1):
            nxt = []
            for tokens, logp, state, prev in frontier:
                state, log_dist, _ = reference_decode_step(prev, state, enc, params)
                for tok in range(len(vocab)):
                    item = (tokens + (tok,), logp + float(log_dist.values[tok]), state, tok)
                    if tok == vocab.eos_id or length == max_len:
                        out.append((item[1], item[0]))
                    else:
                        nxt.append(item)
            frontier = nxt
        return sorted(out, key=lambda h: (-h[0], len(h[1]), h[1]))

    def test_every_k_on_fifty_micro_instances(self):
        vocab = Vocab(["a"], ["T"])
        beam = (len(vocab) - 1) ** (self.MAX_LEN - 1) + 1
        rng = np.random.default_rng(7)
        for _ in range(50):
            params = Seq2SeqParams(len(vocab), Seq2SeqConfig(
                emb=3, hidden=2, seed=int(rng.integers(0, 10 ** 6)),
                init_scale=float(rng.uniform(0.1, 3.0))))
            src = vocab.encode_source("a" * int(rng.integers(1, 4)), "T")
            oracle = self.enumerate_scored(src, params, vocab, self.MAX_LEN)
            for k in range(1, 11):
                hyps = beam_search(src, params, vocab, beam=beam, k=k, max_len=self.MAX_LEN)
                assert [h.tokens for h in hyps] == [t for _, t in oracle[:k]]
                for h, (logp, _) in zip(hyps, oracle):
                    assert h.log_prob == pytest.approx(logp, abs=1e-12)
                    assert h.finished == (h.tokens[-1] == vocab.eos_id)


class TestTraining:
    def toy_data(self):
        # append "x" under tag T: purely concatenative toy grammar
        bases = ["ab", "ba", "aab", "bba", "abb", "baa", "aba", "bab"]
        return [Triple(b, "T", b + "x") for b in bases]

    def test_memorizes_toy_grammar(self):
        from derivgen.corpus import DatasetSplit
        data = tuple(Triple(b, "T", b + "x") for b in ("ab", "ba"))
        vocab = build_vocab(data)
        cfg = Seq2SeqConfig(emb=8, hidden=8, batch=2, epochs=500, seed=0)
        split = DatasetSplit(data, (), data, 0)
        params, meta, log = train(split, vocab, cfg)
        pred = greedy_decode(vocab.encode_source("ab", "T"), params, vocab).text(vocab)
        assert pred == "abx"
        assert float(sequence_loss(Triple("ab", "T", "abx"), params, vocab).values) < 0.3

    def test_deterministic_training(self):
        data = self.toy_data()
        vocab = build_vocab(data)
        split = split_dataset(data, seed=1)
        cfg = Seq2SeqConfig(emb=6, hidden=5, batch=4, epochs=3, seed=42)
        p1, _, log1 = train(split, vocab, cfg)
        p2, _, log2 = train(split, vocab, cfg)
        assert log1 == log2
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name].values, p2.tensors[name].values)

    def test_loss_decreases_on_toy_set(self):
        data = self.toy_data()
        vocab = build_vocab(data)
        split = split_dataset(data, seed=0)
        cfg = Seq2SeqConfig(emb=8, hidden=8, batch=4, epochs=15, seed=0)
        _, _, log = train(split, vocab, cfg)
        losses = [float(line.split("loss=")[1].split()[0])
                  for line in log if line.startswith("epoch=")]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("batch", 0), ("emb", 0), ("beam", 0),
                                              ("max_extra", -1), ("clip", -1.0), ("clip", 0.0),
                                              ("emb", 2.5), ("max_extra", 1.5)])
    def test_invalid_config_refused(self, field, value):
        with pytest.raises(ValueError, match="invalid seq2seq hyperparameters"):
            Seq2SeqConfig(**{"emb": 4, "hidden": 3, field: value})

    def test_empty_train_errors(self):
        from derivgen.corpus import DatasetSplit
        vocab = micro_vocab()
        with pytest.raises(ValueError, match="empty"):
            train(DatasetSplit((), (), (), 0), vocab, Seq2SeqConfig(emb=2, hidden=2))


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        data = [Triple(b, "T", b + "x") for b in ("ab", "ba", "aa", "bb")]
        vocab = build_vocab(data)
        cfg = Seq2SeqConfig(emb=6, hidden=5, batch=2, epochs=2, seed=1)
        split = split_dataset(data, seed=0)
        params, meta, _ = train(split, vocab, cfg)
        path = str(tmp_path / "model.ckpt")
        save_model(path, params, vocab, meta)
        params2, vocab2, meta2 = load_model(path)
        for name in params.tensors:
            assert np.array_equal(params.tensors[name].values, params2.tensors[name].values)
        assert vocab2.symbol_to_id == vocab.symbol_to_id
        q = predict_kbest(params, vocab, "ab", "T", beam=3, k=2)
        q2 = predict_kbest(params2, vocab2, "ab", "T", beam=3, k=2)
        assert q == q2

    def test_fresh_tiny_checkpoint_is_pinned(self, tmp_path):
        # the draw order of the initial values: a change to it changes the file
        vocab = Vocab(list("abc"), ["T", "U"])
        path = str(tmp_path / "m.ckpt")
        save_model(path, Seq2SeqParams(len(vocab), Seq2SeqConfig(emb=4, hidden=3, seed=0)), vocab)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "23cfd2bdae9d0a69ed22142d3758a5aefe2c268506a620c5936a1b1e1a215b73"

    def test_loading_and_predicting_leave_numpy_random_unimported(self):
        # numpy.random adds about 6 MB to a process that only predicts
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys\n"
            "from derivgen import seq2seq\n"
            "params, vocab, _ = seq2seq.load_model(sys.argv[1])\n"
            "assert seq2seq.predict_kbest(params, vocab, 'quick', 'ADVERB', beam=12, k=10)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run(
            [sys.executable, "-c", code, os.path.join(root, "perfbench", "checkpoint", "s2s-emb32-h64.ckpt")],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
