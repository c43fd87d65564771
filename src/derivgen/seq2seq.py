"""Attentional encoder-decoder over characters plus a derivation tag.

Bidirectional GRU encoder, single-layer GRU decoder with additive
attention, tanh output MLP, trained by teacher-forced negative
log-likelihood under Adadelta. The training loss runs each encoder
direction and the whole teacher-forced decoder as single tape nodes with
hand-written backward passes. Generation is beam search returning a
k-best list of hypotheses; it runs on plain arrays, batched over the live
beam, and builds no gradient tape.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from . import numeric as nm
from .corpus import Vocab
from .metrics import accuracy as _accuracy, avg_edit_distance as _avg_edit


@dataclass
class Seq2SeqConfig:
    emb: int = 300
    hidden: int = 100
    batch: int = 20
    epochs: int = 300
    beam: int = 12
    rho: float = 0.95
    eps: float = 1e-6
    clip: float | None = None
    seed: int = 0
    init_scale: float = 0.08
    max_extra: int = 10  # inference length cap: len(source) + max_extra
    stop_at_dev_acc: float | None = None

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d):
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)


def _gru_params(prefix, in_size, hidden, rng, scale):
    p = {}
    for gate in ("z", "r", "h"):
        p[f"{prefix}_W{gate}"] = nm.uniform_init((hidden, in_size), rng, scale)
        p[f"{prefix}_U{gate}"] = nm.uniform_init((hidden, hidden), rng, scale)
        p[f"{prefix}_b{gate}"] = nm.zeros_init((hidden,))
    return p


class Seq2SeqParams:
    """All learned tensors, addressable by name for checkpoints and Adadelta."""

    def __init__(self, vocab_size, config, rng=None):
        self.vocab_size = vocab_size
        self.config = config
        if rng is None:
            rng = np.random.default_rng(config.seed)
        e, h = config.emb, config.hidden
        s = config.init_scale
        p = {
            "src_emb": nm.uniform_init((vocab_size, e), rng, s),
            "tgt_emb": nm.uniform_init((vocab_size, e), rng, s),
            "att_W": nm.uniform_init((h, h), rng, s),
            "att_U": nm.uniform_init((h, 2 * h), rng, s),
            "att_v": nm.uniform_init((h,), rng, s),
            "init_W": nm.uniform_init((h, h), rng, s),
            "init_b": nm.zeros_init((h,)),
            "out_W1": nm.uniform_init((h, e + h + 2 * h), rng, s),
            "out_b1": nm.zeros_init((h,)),
            "out_W2": nm.uniform_init((vocab_size, h), rng, s),
            "out_b2": nm.zeros_init((vocab_size,)),
        }
        p.update(_gru_params("enc_f", e, h, rng, s))
        p.update(_gru_params("enc_b", e, h, rng, s))
        p.update(_gru_params("dec", e + 2 * h, h, rng, s))
        self.tensors = p

    def __getitem__(self, name):
        return self.tensors[name]

    def clear_grads(self):
        for t in self.tensors.values():
            t.clear_grad()

    def snapshot(self):
        return {name: t.values.copy() for name, t in self.tensors.items()}

    def restore(self, snap):
        for name, values in snap.items():
            self.tensors[name].values[...] = values


def _gru_names(prefix):
    """The nine gate tensors of a GRU: W then U then b, each for z, r, h."""
    return [f"{prefix}_{m}{g}" for m in "WUb" for g in "zrh"]


def _stack_gru(arrays):
    """(W (3H, in), b (3H,), U_zr (2H, H), U_h (H, H)) from the nine gate
    arrays in ``_gru_names`` order: one matmul then projects an input for
    all three gates, and one projects the state for z and r."""
    wz, wr, wh, uz, ur, uh, bz, br, bh = arrays
    return np.concatenate([wz, wr, wh]), np.concatenate([bz, br, bh]), np.concatenate([uz, ur]), uh


def _gru_cell(gx, h, u_zr, u_h):
    """GRU update on arrays from the input projection ``gx`` (rows of
    [z | r | h]); for one state (H,) or a batch (B, H). Returns the new
    state and the activations ``_gru_cell_back`` needs."""
    n = h.shape[-1]
    zr = nm.sigmoid_array(gx[..., :2 * n] + h @ u_zr.T)
    z, r = zr[..., :n], zr[..., n:]
    rh = r * h
    h_tilde = np.tanh(gx[..., 2 * n:] + rh @ u_h.T)
    return (1.0 - z) * h + z * h_tilde, (z, r, rh, h_tilde)


def _gru_cell_back(d, h, acts, u_zr, u_h):
    """Gradients of one ``_gru_cell`` step of state ``h`` from ``d``, the
    gradient of its new state: w.r.t. the input projection and w.r.t. ``h``."""
    z, r, _, h_tilde = acts
    n = h.shape[-1]
    da_h = d * z * (1.0 - h_tilde * h_tilde)
    d_rh = da_h @ u_h
    dgx = np.concatenate([d * (h_tilde - h) * z * (1.0 - z), d_rh * h * r * (1.0 - r), da_h])
    return dgx, d * (1.0 - z) + d_rh * r + dgx[:2 * n] @ u_zr


def _gru_param_grads(dgx, x, prev, rh):
    """Gradients of the nine gate tensors, in ``_gru_names`` order, from the
    per-step rows of the input-projection gradient ``dgx``, the inputs ``x``,
    the states stepped from ``prev`` and their reset-gated ``rh``."""
    n = prev.shape[1]
    dw, du_zr, db = dgx.T @ x, dgx[:, :2 * n].T @ prev, dgx.sum(axis=0)
    return (dw[:n], dw[n:2 * n], dw[2 * n:], du_zr[:n], du_zr[n:], dgx[:, 2 * n:].T @ rh,
            db[:n], db[n:2 * n], db[2 * n:])


def _attention(states, annot_proj, hidden, att_w, att_v):
    """Additive attention on arrays for one state (H,) or a batch (B, H):
    the contexts, the weights over source positions and the tanh activations."""
    u = np.tanh(annot_proj + (states @ att_w.T)[..., None, :])
    weights = nm.softmax_array(u @ att_v)
    return weights @ hidden, weights, u


def _gru_run(gx, u_zr, u_h, reverse=False):
    """A GRU run on arrays from a zero state over the input projections
    ``gx``, last row first if ``reverse``: the states, the states each step
    started from and each step's activations, all in the rows' order."""
    n, hid = len(gx), len(u_h)
    out, prev, acts = np.empty((n, hid)), np.empty((n, hid)), [None] * n
    h = np.zeros(hid)
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        prev[t] = h
        h, acts[t] = _gru_cell(gx[t], h, u_zr, u_h)
        out[t] = h
    return out, prev, acts


def _gru_layer(params, prefix, x, reverse=False):
    """A GRU run from a zero state over the rows of ``x`` (last row first if
    ``reverse``) as one tape node: the (n, H) states, in the rows' order.
    Its backward pass runs back through time by hand."""
    gates = [params[name] for name in _gru_names(prefix)]
    w, b, u_zr, u_h = _stack_gru([t.values for t in gates])
    xs = x.values
    gx = xs @ w.T + b
    out, prev, acts = _gru_run(gx, u_zr, u_h, reverse)

    def bw(g):
        dgx = np.empty_like(gx)
        dh = np.zeros(len(u_h))
        # back through time: the run's last step first
        for t in (range(len(gx)) if reverse else range(len(gx) - 1, -1, -1)):
            dgx[t], dh = _gru_cell_back(g[t] + dh, prev[t], acts[t], u_zr, u_h)
        rh = np.array([a[2] for a in acts])
        return (dgx @ w, *_gru_param_grads(dgx, xs, prev, rh))

    return nm.Tensor(out, parents=(x, *gates), backward=bw)


@dataclass
class EncodedSource:
    """Encoder output; Tensors from ``encode``, plain arrays from ``ArrayModel.encode``."""

    hidden: object          # (n, 2*hidden): concatenated [fwd; bwd] states
    annot_proj: object      # (n, hidden): attention key projection U @ h_i
    init_state: object      # (hidden,): decoder start state


def _check_source(source_ids, vocab_size):
    if not len(source_ids):
        raise ValueError("encode: empty source sequence")
    for i in source_ids:
        if not 0 <= int(i) < vocab_size:
            raise ValueError(f"encode: id {i} out of vocabulary range [0, {vocab_size})")


def encode(source_ids, params):
    """Run both encoder directions and precompute attention projections.

    With an ``ArrayModel`` for ``params`` it runs on plain arrays instead.
    """
    if isinstance(params, ArrayModel):
        return params.encode(source_ids)
    _check_source(source_ids, params.vocab_size)
    x = nm.gather(params["src_emb"], source_ids)
    fwd = _gru_layer(params, "enc_f", x)
    bwd = _gru_layer(params, "enc_b", x, reverse=True)
    hidden = nm.concat([fwd, bwd], axis=1)
    annot_proj = nm.matmul(hidden, _transpose(params["att_U"]))
    init_state = nm.tanh(nm.add(nm.matmul(params["init_W"], nm.pick(bwd, 0)), params["init_b"]))
    return EncodedSource(hidden, annot_proj, init_state)


def _transpose(t):
    return nm.Tensor(t.values.T, parents=(t,), backward=lambda g: (g.T,))


def attend(decoder_state_prev, enc, params):
    """Additive attention: weights over source positions and their context sum."""
    ws = nm.matmul(params["att_W"], decoder_state_prev)
    scores = nm.matmul(nm.tanh(nm.add(enc.annot_proj, ws)), params["att_v"])
    weights = nm.softmax(scores)
    context = nm.matmul(weights, enc.hidden)
    return context, weights


def _output_layer(params, features):
    """Log-distributions over outputs from [emb; state; context] rows."""
    mlp = nm.tanh(nm.add(nm.matmul(features, _transpose(params["out_W1"])), params["out_b1"]))
    return nm.log_softmax(nm.add(nm.matmul(mlp, _transpose(params["out_W2"])), params["out_b2"]))


def decode_step(prev_token, state, enc, params, rows=None):
    """One decoder step: attention, GRU update, log-distribution over outputs.

    On the tape it is a one-step ``_decoder_run`` and the output layer, so it
    computes what ``sequence_loss`` does for one step; the attention weights
    it returns are a constant that carries no gradient. With an
    ``ArrayModel`` for ``params`` it is the batched step on plain arrays
    instead: ``prev_token`` holds B token ids, ``state`` the states a step
    returned and ``rows`` the B rows of them to advance (all by default).
    """
    if isinstance(params, ArrayModel):
        return params.step(prev_token, state if rows is None else state[rows], enc)
    emb = nm.gather(params["tgt_emb"], [prev_token])
    out, weights = _decoder_run(params, enc, emb, state)
    log_probs = _output_layer(params, nm.concat([emb, out], axis=1))
    next_state = nm.pick(out, (0, slice(params.config.hidden)))
    return next_state, nm.pick(log_probs, 0), nm.constant(weights[0])


def _decoder_run(params, enc, emb, start):
    """T teacher-forced decoder steps from the state ``start`` as one tape
    node, where ``emb`` (T, emb) embeds each step's previous token: the node
    of the (T, 3H) rows [state; context] of the steps, and the (T, n)
    attention weights. Its backward pass runs back through time, attention
    included, by hand."""
    gates = [params[name] for name in _gru_names("dec")]
    att_w, att_v = params["att_W"], params["att_v"]
    w, b, u_zr, u_h = _stack_gru([t.values for t in gates])
    aw, av = att_w.values, att_v.values
    hidden, annot_proj = enc.hidden.values, enc.annot_proj.values
    e = emb.values
    steps, n_emb, hid = len(e), e.shape[1], len(av)
    prev, x = np.empty((steps, hid)), np.empty((steps, n_emb + 2 * hid))
    out = np.empty((steps, 3 * hid))
    weights, attn, acts = np.empty((steps, len(hidden))), [None] * steps, [None] * steps
    s = start.values
    for t in range(steps):
        prev[t] = s
        context, weights[t], attn[t] = _attention(s, annot_proj, hidden, aw, av)
        x[t, :n_emb], x[t, n_emb:] = e[t], context
        s, acts[t] = _gru_cell(x[t] @ w.T + b, s, u_zr, u_h)
        out[t, :hid], out[t, hid:] = s, context

    def bw(g):
        dgx, dx = np.empty((steps, 3 * hid)), np.empty_like(x)
        da = np.empty((steps, hid))
        d_proj, d_v = np.zeros_like(annot_proj), np.zeros(hid)
        ds = np.zeros(hid)
        for t in reversed(range(steps)):
            dgx[t], ds = _gru_cell_back(g[t, :hid] + ds, prev[t], acts[t], u_zr, u_h)
            dx[t] = dgx[t] @ w
            dx[t, n_emb:] += g[t, hid:]
            d_weights = hidden @ dx[t, n_emb:]
            d_scores = weights[t] * (d_weights - weights[t] @ d_weights)
            u = attn[t]
            d_pre = np.outer(d_scores, av) * (1.0 - u * u)
            d_v += d_scores @ u
            d_proj += d_pre
            da[t] = d_pre.sum(axis=0)
            ds = ds + da[t] @ aw
        rh = np.array([a[2] for a in acts])
        return (dx[:, :n_emb], weights.T @ dx[:, n_emb:], d_proj, ds, da.T @ prev, d_v,
                *_gru_param_grads(dgx, x, prev, rh))

    node = nm.Tensor(out, backward=bw, parents=(emb, enc.hidden, enc.annot_proj, start,
                                                 att_w, att_v, *gates))
    return node, weights


def sequence_loss(triple, params, vocab):
    """Teacher-forced negative log-likelihood of the derived form plus EOS.

    The decoder runs all steps in one node, and the output layer scores
    them in one batch.
    """
    source_ids = vocab.encode_source(triple.base, triple.tag)
    target_ids = vocab.encode_target(triple.derived)
    enc = encode(source_ids, params)
    emb = nm.gather(params["tgt_emb"], [vocab.bos_id] + target_ids[:-1])
    states, _ = _decoder_run(params, enc, emb, enc.init_state)
    log_probs = _output_layer(params, nm.concat([emb, states], axis=1))
    picked = nm.pick(log_probs, (np.arange(len(target_ids)), np.array(target_ids)))
    return nm.scale(nm.sum_all(picked), -1.0)


class ArrayModel:
    """The parameters as plain arrays, for decoding without a gradient tape.

    Each GRU's z/r/h gate matrices are stacked so that one matmul projects
    its input for all three gates; the biases are folded into that
    projection. The stacked matrices are copies, so a model built before
    the parameters change does not see the change.
    """

    def __init__(self, params):
        self.vocab_size = params.vocab_size
        self.v = v = {name: t.values for name, t in params.tensors.items()}
        self.enc_f, self.enc_b, self.dec = (
            _stack_gru([v[name] for name in _gru_names(prefix)])
            for prefix in ("enc_f", "enc_b", "dec"))

    @staticmethod
    def _run(gru, x, reverse=False):
        w, b, u_zr, u_h = gru
        return _gru_run(x @ w.T + b, u_zr, u_h, reverse)[0]

    def encode(self, source_ids):
        """``encode`` on arrays: both directions, one input matmul each."""
        _check_source(source_ids, self.vocab_size)
        v = self.v
        x = v["src_emb"][np.asarray(source_ids, dtype=np.intp)]
        fwd = self._run(self.enc_f, x)
        bwd = self._run(self.enc_b, x, reverse=True)
        hidden = np.concatenate([fwd, bwd], axis=1)
        init_state = np.tanh(v["init_W"] @ bwd[0] + v["init_b"])
        return EncodedSource(hidden, hidden @ v["att_U"].T, init_state)

    def step(self, prev_tokens, states, enc):
        """``decode_step`` for B hypotheses at once: token ids (B,) and decoder
        states (B, H) in; next states (B, H), log-distributions (B, |V|) and
        attention weights (B, n) out."""
        v = self.v
        emb = v["tgt_emb"][prev_tokens]
        context, weights, _ = _attention(states, enc.annot_proj, enc.hidden, v["att_W"], v["att_v"])
        w, b, u_zr, u_h = self.dec
        gx = np.concatenate([emb, context], axis=1) @ w.T + b
        next_states = _gru_cell(gx, states, u_zr, u_h)[0]
        mlp = np.tanh(np.concatenate([emb, next_states, context], axis=1) @ v["out_W1"].T
                      + v["out_b1"])
        return next_states, nm.log_softmax_array(mlp @ v["out_W2"].T + v["out_b2"]), weights


@dataclass
class Hypothesis:
    tokens: tuple          # output ids, ending in EOS iff it terminated
    log_prob: float
    finished: bool         # True if it ended at EOS, False if cut at the length cap

    def text(self, vocab):
        return vocab.decode_output(self.tokens)


def _rank(hyp):
    """Sort key of (log_prob, tokens, ...) tuples: best first, then shorter, then by ids."""
    return -hyp[0], len(hyp[1]), hyp[1]


def beam_search(source_ids, params, vocab, beam=12, k=1, max_len=None):
    """k-best decoding; hypotheses end at EOS or at the length cap.

    The returned list is sorted by descending log-probability, ties broken
    by shorter token sequence then lexicographic ids; no duplicates.

    Each step advances the whole live beam in one batched ``decode_step`` on
    an ``ArrayModel``.
    The search stops before the cap once k hypotheses have finished and no
    live one scores above the k-th of them: an extension never scores more
    than its prefix and is longer than every finished hypothesis, so it
    would rank below all k.
    """
    if not (beam >= k >= 1):
        raise ValueError(f"need beam >= k >= 1, got beam={beam}, k={k}")
    if max_len is None:
        max_len = len(source_ids) + params.config.max_extra
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    model = ArrayModel(params)
    enc = encode(source_ids, model)
    eos, size = vocab.eos_id, params.vocab_size
    live = [(0.0, ())]
    states, parents = enc.init_state[None, :], None
    prev = np.array([vocab.bos_id])
    done = []  # the best k finished hypotheses so far, in rank order
    for _ in range(max_len):
        states, log_probs, _ = decode_step(prev, states, enc, model, rows=parents)
        scores = (np.array([lp for lp, _ in live])[:, None] + log_probs).ravel()
        # Walking the ranked expansions below stops after `beam` live ones and
        # meets at most one EOS expansion per parent, so it never passes the
        # (beam + B)-th best score; all expansions tied with it are kept.
        m = min(beam + len(live), scores.size)
        cut = np.partition(scores, scores.size - m)[scores.size - m]
        candidates = []
        for i in np.flatnonzero(scores >= cut):
            parent, tok = divmod(int(i), size)
            candidates.append((float(scores[i]), live[parent][1] + (tok,), parent))
        candidates.sort(key=_rank)
        live, parents = [], []
        for logp, tokens, parent in candidates:
            if tokens[-1] == eos:
                done.append((logp, tokens))
            else:
                live.append((logp, tokens))
                parents.append(parent)
                if len(live) >= beam:
                    break
        done = sorted(done, key=_rank)[:k]
        if len(done) == k and live and live[0][0] <= done[-1][0]:
            live = []  # exact early stop: no live hypothesis can enter the k-best
        if not live:
            break
        prev = np.array([tokens[-1] for _, tokens in live])
    # live hypotheses left at the cap compete with the finished ones
    best = sorted(done + live, key=_rank)[:k]
    return [Hypothesis(tokens, logp, tokens[-1] == eos) for logp, tokens in best]


def greedy_decode(source_ids, params, vocab, max_len=None):
    return beam_search(source_ids, params, vocab, beam=1, k=1, max_len=max_len)[0]


def predict_kbest(params, vocab, base, tag, beam=12, k=1):
    """Ranked surface-form predictions for one (base, tag) query."""
    source_ids = vocab.encode_source(base, tag)
    hyps = beam_search(source_ids, params, vocab, beam=max(beam, k), k=k)
    return [(h.text(vocab), h.log_prob) for h in hyps]


def _dev_scores(params, vocab, dev):
    preds = [greedy_decode(vocab.encode_source(t.base, t.tag), params, vocab).text(vocab)
             for t in dev]
    gold = [t.derived for t in dev]
    return _accuracy(preds, gold), _avg_edit(preds, gold)


def train(split, vocab, config, log=None):
    """Adadelta training with per-epoch dev selection.

    Gradients are accumulated per minibatch (mean loss over the batch);
    the checkpoint with the best dev accuracy is returned, ties broken by
    lower dev edit distance then earlier epoch. Deterministic given the
    config seed.
    """
    if not split.train:
        raise ValueError("train: empty training split")
    lines = []

    def emit(msg):
        lines.append(msg)
        if log is not None:
            log(msg)

    params = Seq2SeqParams(len(vocab), config)
    state = nm.AdadeltaState(params.tensors, rho=config.rho, eps=config.eps)
    order_rng = random.Random(config.seed)
    emit(
        f"model=seq2seq emb={config.emb} hidden={config.hidden} batch={config.batch} "
        f"epochs={config.epochs} beam={config.beam} rho={config.rho} eps={config.eps} "
        f"seed={config.seed}"
    )
    best = None  # (acc, -edit, -epoch, snapshot)
    train_data = list(split.train)
    for epoch in range(1, config.epochs + 1):
        order_rng.shuffle(train_data)
        total_loss = 0.0
        for start in range(0, len(train_data), config.batch):
            batch = train_data[start:start + config.batch]
            for t in batch:
                loss = sequence_loss(t, params, vocab)
                total_loss += float(loss.values)
                nm.backward(nm.scale(loss, 1.0 / len(batch)))
            nm.adadelta_step(params.tensors, state, clip_norm=config.clip)
        dev_acc, dev_edit = _dev_scores(params, vocab, split.dev) if split.dev else (0.0, 0.0)
        emit(
            f"epoch={epoch} loss={total_loss / len(train_data):.6f} "
            f"dev_acc={dev_acc:.4f} dev_edit={dev_edit:.4f}"
        )
        # without a dev set there is nothing to select on: keep the last epoch
        key = (dev_acc, -dev_edit, -epoch) if split.dev else (0.0, 0.0, epoch)
        if best is None or key > best[0]:
            best = (key, params.snapshot(), epoch)
        if config.stop_at_dev_acc is not None and dev_acc >= config.stop_at_dev_acc:
            emit(f"early_stop=1 epoch={epoch} dev_acc={dev_acc:.4f}")
            break
    params.restore(best[1])
    meta = {
        "best_epoch": best[2],
        "best_dev_accuracy": best[0][0],
        "best_dev_edit": -best[0][1],
    }
    emit(f"best_epoch={meta['best_epoch']} best_dev_acc={meta['best_dev_accuracy']:.4f}")
    return params, meta, lines


def save_model(path, params, vocab, meta=None):
    """Checkpoint container plus a JSON sidecar with vocab/config/metrics."""
    nm.save_params(path, params.tensors, meta={"kind": "seq2seq"})
    sidecar = {
        "vocab": vocab.to_dict(),
        "config": params.config.to_dict(),
        "metrics": meta or {},
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _NoDraws:
    """Random-generator stand-in for building a model whose values are loaded.

    ``Seq2SeqParams`` still gives the names and shapes that the loaded
    tensors must have, but ``numpy.random`` is never imported: its extension
    modules would add about 6 MB to the memory of a process that only
    predicts.
    """

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def load_model(path):
    """Inverse of save_model.

    The tensors must have exactly the names and shapes that the sidecar's
    vocab and config give; anything else, or a file that cannot be read,
    raises ValueError naming the file.
    """
    tensors, _ = nm.load_params(path)
    sidecar_path = path + ".meta.json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        vocab = Vocab.from_dict(sidecar["vocab"])
        config = Seq2SeqConfig.from_dict(sidecar["config"])
        params = Seq2SeqParams(len(vocab), config, rng=_NoDraws)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{sidecar_path}: unreadable model sidecar: "
                         f"{type(e).__name__}: {e}") from None
    expected = {name: t.shape for name, t in params.tensors.items()}
    for name in sorted(expected.keys() | tensors.keys()):
        got = tensors[name].shape if name in tensors else "none (missing)"
        want = expected.get(name, "none (not a model tensor)")
        if got != want:
            raise ValueError(f"{path}: tensor {name} has shape {got}, but the vocab and "
                             f"config in {sidecar_path} give {want}")
    params.restore({name: t.values for name, t in tensors.items()})
    return params, vocab, sidecar.get("metrics", {})
