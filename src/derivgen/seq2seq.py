"""Attentional encoder-decoder over characters plus a derivation tag.

Bidirectional GRU encoder, single-layer GRU decoder with additive
attention, tanh output MLP, trained by teacher-forced negative
log-likelihood under Adadelta. One encoder forward and the parts of one
decoder step (attention scoring, GRU update, output MLP) on arrays serve
both training and decoding. The training loss scores a whole padded minibatch at
once: the encoder, the teacher-forced decoder, and the output layer with the
loss are single tape nodes with hand-written backward passes. Generation is
one beam search over a batch of sources, returning a k-best list of
hypotheses for each; it runs on plain arrays, batched over the live beams
of all the sources, and builds no gradient tape; ``encode`` computes the step's
products that depend only on the source or only on the previous token once per
batch. Greedy decoding, which scores the dev set after each epoch, is that
search at beam 1.
"""

from __future__ import annotations

import itertools
import json
import operator
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

    def __post_init__(self):
        # sizes must be integers: a sidecar's 3.0 would pass the shape check
        try:
            counts = (self.emb, self.hidden, self.batch, self.epochs, self.beam, self.max_extra + 1)
            valid = min(map(operator.index, counts)) >= 1 and (self.clip is None or self.clip > 0)
        except TypeError:  # a size that is not an integer, or a value of no number type
            valid = False
        if not valid:
            raise ValueError("invalid seq2seq hyperparameters: emb, hidden, batch, epochs and "
                             "beam must be integers >= 1, max_extra one >= 0, clip None or > 0")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d):
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)


_GRUS = ("enc_f", "enc_b", "dec")


def _layout(vocab_size, config):
    """Name and shape of each checkpoint tensor, in checkpoint order, with each
    GRU as its nine per-gate tensors ``<prefix>_{W,U,b}{z,r,h}``. Skipping the
    biases, which start at zero, it is also the order of the initial draws."""
    v, e, h = vocab_size, config.emb, config.hidden
    layout = {"src_emb": (v, e), "tgt_emb": (v, e), "att_W": (h, h), "att_U": (h, 2 * h),
              "att_v": (h,), "init_W": (h, h), "init_b": (h,), "out_W1": (h, e + 3 * h),
              "out_b1": (h,), "out_W2": (v, h), "out_b2": (v,)}
    for prefix, n_in in zip(_GRUS, (e, e, e + 2 * h)):
        for gate in "zrh":
            layout.update({f"{prefix}_W{gate}": (h, n_in), f"{prefix}_U{gate}": (h, h),
                           f"{prefix}_b{gate}": (h,)})
    return layout


class Seq2SeqParams:
    """All learned tensors, addressable by name for checkpoints and Adadelta.

    ``arrays`` holds the values of every ``_layout`` tensor; without it, all
    but the zero biases are drawn from U(-init_scale, init_scale) with
    ``config.seed``, in layout order. Each GRU's gate blocks are stacked in
    z, r, h order as ``<prefix>_W`` (3H, in), ``<prefix>_U`` (3H, H) and
    ``<prefix>_b`` (3H,).

    The ``arrays`` attribute maps each name to its tensor's own storage, for
    inference on plain arrays; Adadelta and ``restore`` write in place, so
    it never goes stale.
    """

    def __init__(self, vocab_size, config, arrays=None):
        self.vocab_size = vocab_size
        self.config = config
        layout = _layout(vocab_size, config)
        if arrays is None:
            rng, s = np.random.default_rng(config.seed), config.init_scale
            arrays = {name: np.zeros(shape) if name.rpartition("_")[2].startswith("b")  # a bias
                      else rng.uniform(-s, s, size=shape) for name, shape in layout.items()}
        p = {name: arrays[name] for name in layout if name.rpartition("_")[0] not in _GRUS}
        for prefix in _GRUS:
            for m in "WUb":
                p[f"{prefix}_{m}"] = np.concatenate([arrays[f"{prefix}_{m}{g}"] for g in "zrh"])
        self.tensors = {name: nm.parameter(a) for name, a in p.items()}
        self.arrays = {name: t.values for name, t in self.tensors.items()}

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


def _checkpoint_arrays(params):
    """The parameters under their checkpoint names, in checkpoint order: each
    GRU as the nine per-gate tensors ``<prefix>_{W,U,b}{z,r,h}``, which are
    views of its stacked tensors."""
    n = params.config.hidden
    out = {name: t.values for name, t in params.tensors.items()
           if name.rpartition("_")[0] not in _GRUS}
    for prefix in _GRUS:
        for i, gate in enumerate("zrh"):
            for m in "WUb":
                out[f"{prefix}_{m}{gate}"] = params[f"{prefix}_{m}"].values[i * n:(i + 1) * n]
    return out


def _rows(a):
    """``a`` as the matrix of its last axis: (..., k) to (-1, k)."""
    return a.reshape(-1, a.shape[-1])


def _project(a, w):
    """``a @ w.T`` for ``a`` with any leading axes, as one matrix product."""
    return (_rows(a) @ w.T).reshape(a.shape[:-1] + (len(w),))


def _gru_cell(gx, h, u):
    """GRU update on arrays from the input projection ``gx`` (rows of
    [z | r | h]) and the stacked state weights ``u``; for one state (H,) or a
    batch (B, H). Returns the new state and the activations
    ``_gru_cell_back`` needs."""
    n = h.shape[-1]
    zr = nm.sigmoid_array(gx[..., :2 * n] + h @ u[:2 * n].T)
    z, r = zr[..., :n], zr[..., n:]
    h_tilde = np.tanh(gx[..., 2 * n:] + (r * h) @ u[2 * n:].T)
    return (1.0 - z) * h + z * h_tilde, (z, r, h_tilde)


def _gru_cell_back(d, h, acts, u):
    """Gradients of one ``_gru_cell`` step of state ``h`` from ``d``, the
    gradient of its new state: w.r.t. the input projection and w.r.t. ``h``."""
    z, r, h_tilde = acts
    n = h.shape[-1]
    da_h = d * z * (1.0 - h_tilde * h_tilde)
    d_rh = da_h @ u[2 * n:]
    dgx = np.concatenate([d * (h_tilde - h) * z * (1.0 - z), d_rh * h * r * (1.0 - r), da_h],
                         axis=-1)
    return dgx, d * (1.0 - z) + d_rh * r + dgx[..., :2 * n] @ u[:2 * n]


def _weight_grad(d, inputs):
    """``d.T @ [inputs]`` for the rows ``d`` (N, k) of a layer's output
    gradient and the column blocks ``inputs`` (..., in_i) of its input rows.
    It is built transposed, block by block, so the blocks are never joined;
    the result is a (k, sum in_i) view."""
    d = _rows(d)
    grad = np.empty((sum(x.shape[-1] for x in inputs), d.shape[1]))
    start = 0
    for x in inputs:
        np.matmul(_rows(x).T, d, out=grad[start:start + x.shape[-1]])
        start += x.shape[-1]
    return grad.T


def _gru_param_grads(dgx, inputs, prev, acts):
    """Gradients of a GRU's stacked W, U and b from the input-projection
    gradients ``dgx`` (..., T, 3H) of its steps: ``inputs`` are the column
    blocks (..., T, in_i) of the steps' inputs, ``prev`` (..., T, H) the
    states they started from and ``acts`` their activations."""
    n = prev.shape[-1]
    dgx, prev = _rows(dgx), _rows(prev)
    rh = _rows(np.stack([a[1] for a in acts], axis=-2)) * prev
    du = np.empty((3 * n, n))
    du[:2 * n], du[2 * n:] = dgx[:, :2 * n].T @ prev, dgx[:, 2 * n:].T @ rh
    return _weight_grad(dgx, inputs), du, dgx.sum(axis=0)


def _attention_tanh(states, keys, att_w):
    """The additive attention's tanh activations (B, W, n, H) for the states
    (B, W, H) over each source's keys (B, n, H)."""
    return np.tanh(keys[:, None] + _project(states, att_w)[..., None, :])


def _attention_weights(states, keys, att_w, att_v, neg=None):
    """Additive attention weights (B, W, n) on arrays for the states (B, W, H)
    of B sources, each over its own source's keys (B, n, H). ``neg`` (B, n)
    is -inf at padded source positions and 0 elsewhere."""
    scores = _attention_tanh(states, keys, att_w) @ att_v
    if neg is not None:
        scores += neg[:, None]
    return nm.softmax_array(scores)


def _gru_run(gx, u, mask=None, reverse=False):
    """A GRU run on arrays from a zero state over the input projections
    ``gx`` (..., T, 3H), last step first if ``reverse``; where ``mask``
    (..., T) is False, a step keeps the state it started from. The states
    (..., T, H), the states each step started from and each step's
    activations, all in step order."""
    steps, hid = gx.shape[-2], u.shape[1]
    out = np.empty(gx.shape[:-1] + (hid,))
    prev, acts = np.empty_like(out), [None] * steps
    h = np.zeros(gx.shape[:-2] + (hid,))
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        prev[..., t, :] = h
        new, acts[t] = _gru_cell(gx[..., t, :], h, u)
        h = new if mask is None else np.where(mask[..., t, None], new, h)
        out[..., t, :] = h
    return out, prev, acts


def _gru_run_back(g, x, w, u, run, mask, reverse):
    """Back through time from ``g``, the gradient of the states of ``run``, a
    ``_gru_run`` over the inputs ``x`` (..., T, in) with stacked weights ``w``
    and ``u``: the gradients w.r.t. ``x`` and the GRU's W, U and b."""
    _, prev, acts = run
    dgx = np.empty(g.shape[:-1] + (len(w),))
    dh = np.zeros(g.shape[:-2] + g.shape[-1:])
    # back through time: the run's last step first
    for t in (range(len(acts)) if reverse else range(len(acts) - 1, -1, -1)):
        d = g[..., t, :] + dh
        dgx_t, dh = _gru_cell_back(d, prev[..., t, :], acts[t], u)
        if mask is not None:  # a step that kept its state passes the gradient on
            keep = mask[..., t, None]
            dgx_t, dh = np.where(keep, dgx_t, 0.0), np.where(keep, dh, d)
        dgx[..., t, :] = dgx_t
    return ((_rows(dgx) @ w).reshape(x.shape), *_gru_param_grads(dgx, (x,), prev, acts))


@dataclass
class EncodedSource:
    """Encoder output for a padded batch of B sources, on plain arrays; ``neg``
    marks the padding, and is None for a batch without any. ``encode`` also
    fills the products of the decoder step that depend only on the source,
    ``values``, or only on the previous token, ``tokens``; the training
    encoder leaves them None."""

    hidden: np.ndarray      # (B, n, 2*hidden): concatenated [fwd; bwd] states
    annot_proj: np.ndarray  # (B, n, hidden): attention keys, hidden @ att_U.T
    init_state: np.ndarray  # (B, hidden): decoder start state
    neg: np.ndarray = None  # (B, n): -inf at padded source positions, 0 elsewhere
    values: np.ndarray = None  # (B, n, 4*hidden): hidden's part of [GRU input | output MLP]
    tokens: np.ndarray = None  # (|V|, 4*hidden): each token's part of them, GRU bias included


_DIRECTIONS = (("enc_f", False), ("enc_b", True))  # (GRU prefix, reverse?)


def _encoder(ids, mask, v):
    """The encoder on the parameter arrays ``v`` over source ids (B, n), where
    ``mask``, if not None, marks each row's own positions: the
    ``EncodedSource``, the embedded sources and both ``_gru_run``s. Only the
    reverse run needs the mask: the forward run meets the padding last."""
    x = v["src_emb"][ids]
    runs = [_gru_run(_project(x, v[f"{p}_W"]) + v[f"{p}_b"], v[f"{p}_U"], mask if reverse else None,
                     reverse) for p, reverse in _DIRECTIONS]
    bwd = runs[1][0]
    hidden = np.concatenate([runs[0][0], bwd], axis=-1)
    init_state = np.tanh(bwd[:, 0] @ v["init_W"].T + v["init_b"])
    neg = None if mask is None else np.where(mask, 0.0, -np.inf)
    return EncodedSource(hidden, hidden @ v["att_U"].T, init_state, neg), x, runs


def encode(sources, params):
    """Run the encoder over a list of sources as one padded batch, on plain
    arrays, and precompute the decoder step's ``values`` and ``tokens``
    tables for the current weights; each field but ``tokens`` gets a leading
    (B,) axis."""
    if not len(sources):
        raise ValueError("encode: empty list of sources")
    for ids in sources:
        if not len(ids):
            raise ValueError("encode: empty source sequence")
        for i in ids:
            if not 0 <= int(i) < params.vocab_size:
                raise ValueError(f"encode: id {i} out of vocabulary range [0, {params.vocab_size})")
    ids, mask = _pad(sources, 0)  # any id pads: the masks skip padding
    v, e, h = params.arrays, params.config.emb, params.config.hidden
    enc = _encoder(ids, mask, v)[0]
    # columns for the context and the embedding; dec_W is [emb | context], out_W1 [emb | state | context]
    enc.values = _project(enc.hidden, np.concatenate([v["dec_W"][:, e:], v["out_W1"][:, e + h:]]))
    enc.tokens = v["tgt_emb"] @ np.concatenate([v["dec_W"][:, :e], v["out_W1"][:, :e]]).T
    enc.tokens[:, :3 * h] += v["dec_b"]
    return enc


def _encode(params, ids, mask):
    """The encoder for training: the ``EncodedSource`` of ``_encoder`` and one
    tape node of its (B, n, 2H) hidden rows. The node's backward pass runs
    both directions back through time by hand; ``_decoder_run`` carries the
    gradients of the keys and the start state into it."""
    v, hid = params.arrays, params.config.hidden
    enc, x, runs = _encoder(ids, mask, v)

    def bw(g):
        (dx_f, *grads_f), (dx_b, *grads_b) = (
            _gru_run_back(g[..., i * hid:(i + 1) * hid], x, v[f"{p}_W"], v[f"{p}_U"], run,
                          mask if reverse else None, reverse)
            for i, ((p, reverse), run) in enumerate(zip(_DIRECTIONS, runs)))
        d_emb = np.zeros_like(v["src_emb"])
        np.add.at(d_emb, ids, dx_f + dx_b)
        return (d_emb, *grads_f, *grads_b)

    names = ["src_emb"] + [f"{p}_{m}" for p, _ in _DIRECTIONS for m in "WUb"]
    return enc, nm.Tensor(enc.hidden, parents=[params[n] for n in names], backward=bw)


def _output_mlp(a, d, v):
    """The output MLP on the arrays ``v`` for the rows ``a`` (N, H) of the embedding part of its
    pre-activation and ``d`` (N, k) of the features after the embedding, [state; context] or the
    state alone: its tanh activations and log-distributions."""
    n = v["tgt_emb"].shape[-1]
    mlp = np.tanh(a + d @ v["out_W1"][:, n:n + d.shape[-1]].T + v["out_b1"])
    return mlp, nm.log_softmax_array(mlp @ v["out_W2"].T + v["out_b2"])


def decode_step(prev_tokens, states, enc, params, rows=None):
    """One decoder step on plain arrays, for W hypotheses of each of Q
    queries at once: attention, GRU update, log-distribution over outputs.

    ``prev_tokens`` holds (Q, W) token ids and ``states`` the decoder states
    that ``encode`` or a step returned; ``rows``, the (query, parent) index
    of the (Q, W) rows of them to advance, defaults to all of them, (Q, W,
    H). ``enc`` is a batch of Q sources, one per query, from ``encode``: the
    context enters as the weights times its ``values``, and the previous
    token as a row of its ``tokens``. Returns the next states (Q, W, H), the
    log-distributions (Q, W, |V|) and the attention weights (Q, W, n).
    """
    if rows is not None:
        states = states[rows]
    v, n = params.arrays, 3 * states.shape[-1]
    weights = _attention_weights(states, enc.annot_proj, v["att_W"], v["att_v"], enc.neg)
    x = enc.tokens[prev_tokens.ravel()] + _rows(weights @ enc.values)  # [GRU input | MLP part]
    new = _gru_cell(x[:, :n], _rows(states), v["dec_U"])[0]
    log_probs = _output_mlp(x[:, n:], new, v)[1]
    return new.reshape(states.shape), log_probs.reshape(states.shape[:2] + (-1,)), weights


def _output_layer(params, feats, rows, targets):
    """The output MLP on the features [emb; state; context] of the steps
    ``rows`` (flat indices over the leading axes) of the decoder node
    ``feats`` (..., e + 3H), as one tape node: the summed negative
    log-likelihood of ``targets`` (N,). The backward pass gathers the
    features again rather than keeping them."""
    w1, b1, w2, b2 = (params[name] for name in ("out_W1", "out_b1", "out_W2", "out_b2"))
    n_emb = params.config.emb
    w1_emb, w1_dec = w1.values[:, :n_emb], w1.values[:, n_emb:]

    def features():
        return np.split(_rows(feats.values)[rows], [n_emb], axis=-1)

    e_rows, d_rows = features()
    mlp, log_probs = _output_mlp(e_rows @ w1_emb.T, d_rows, params.arrays)
    picked = (np.arange(len(targets)), targets)

    def bw(g):
        d_logits = np.exp(log_probs)
        d_logits[picked] -= 1.0
        d_logits *= g
        d_pre = (d_logits @ w2.values) * (1.0 - mlp * mlp)
        d_feats = np.zeros_like(feats.values)
        _rows(d_feats)[rows, :n_emb] = d_pre @ w1_emb
        _rows(d_feats)[rows, n_emb:] = d_pre @ w1_dec
        return (d_feats, _weight_grad(d_pre, features()), d_pre.sum(axis=0),
                d_logits.T @ mlp, d_logits.sum(axis=0))

    return nm.Tensor(-log_probs[picked].sum(), backward=bw, parents=(feats, w1, b1, w2, b2))


def _decoder_run(params, enc, hidden, prev_ids):
    """Teacher-forced decoder steps from the start states of ``enc`` as one
    tape node of the output layer's features [emb; state; context] (B, S,
    e + 3H), where ``hidden`` is ``_encode``'s node, ``prev_ids`` (B, S)
    holds each step's previous token and attention skips the padding that
    ``enc.neg`` marks. Its backward pass runs back through time by hand,
    recomputing the attention's tanh activations, and on through the keys
    and the start states into the source rows."""
    names = ("tgt_emb", "dec_W", "dec_U", "dec_b", "att_W", "att_v", "att_U", "init_W", "init_b")
    table, w, uv, b, aw, av, au, init_w, _ = (params.arrays[n] for n in names)
    src, keys = enc.hidden, enc.annot_proj
    n_emb, hid, steps = table.shape[-1], len(av), prev_ids.shape[-1]
    w_emb, w_ctx = w[:, :n_emb], w[:, n_emb:]
    feats = np.empty(prev_ids.shape + (n_emb + 3 * hid,))
    feats[..., :n_emb] = table[prev_ids]
    e, out = feats[..., :n_emb], feats[..., n_emb:]  # out: [state; context]
    # the embedding part of every step's input projection, in one product
    ge = _project(e, w_emb) + b
    prev = np.empty(prev_ids.shape + (hid,))
    weights, acts = np.empty(prev_ids.shape + src.shape[1:2]), [None] * steps
    s = enc.init_state
    for t in range(steps):
        prev[:, t] = s
        w_t = _attention_weights(s[:, None], keys, aw, av, enc.neg)
        context = w_t @ src
        s, acts[t] = _gru_cell(ge[:, t] + context[:, 0] @ w_ctx.T, s, uv)
        weights[:, t], out[:, t, :hid], out[:, t, hid:] = w_t[:, 0], s, context[:, 0]

    def bw(g):
        g_emb, g = g[..., :n_emb], g[..., n_emb:]
        dgx, d_ctx = np.empty(out.shape), np.empty(out.shape[:-1] + (2 * hid,))
        da = np.empty_like(prev)
        d_keys, d_v = np.zeros_like(keys), np.zeros(hid)
        ds = np.zeros_like(s)
        for t in reversed(range(steps)):
            p, w_t = prev[:, t], weights[:, t]
            dgx[:, t], ds = _gru_cell_back(g[:, t, :hid] + ds, p, acts[t], uv)
            d_ctx[:, t] = dc = dgx[:, t] @ w_ctx + g[:, t, hid:]
            d_weights = (src @ dc[..., None])[..., 0]
            d_scores = w_t * (d_weights - (w_t * d_weights).sum(axis=-1, keepdims=True))
            act = _attention_tanh(p[:, None], keys, aw)[:, 0]
            d_v += d_scores.reshape(-1) @ _rows(act)
            # the gradient before the tanh, (1 - act^2) * (d_scores * att_v), in place of act
            np.multiply(act, act, out=act)
            np.subtract(1.0, act, out=act)
            act *= d_scores[..., None] * av
            d_keys += act
            da[:, t] = act.sum(axis=-2)
            ds = ds + da[:, t] @ aw
        d_table = np.zeros_like(table)  # the output layer's embedding gradient plus the steps'
        np.add.at(d_table, prev_ids, g_emb + (_rows(dgx) @ w_emb).reshape(e.shape))
        d_src = np.swapaxes(weights, -1, -2) @ d_ctx
        d_src += d_keys @ au
        # the start state is tanh(first @ init_W.T + init_b), where first is the
        # reverse run's state at position 0
        d_init = ds * (1.0 - enc.init_state * enc.init_state)
        first = src[:, 0, hid:]
        d_src[:, 0, hid:] += d_init @ init_w
        return (d_src, d_table, *_gru_param_grads(dgx, (e, out[..., hid:]), prev, acts),
                _rows(da).T @ _rows(prev), d_v, (_rows(src).T @ _rows(d_keys)).T,
                (first.T @ d_init).T, d_init.sum(axis=0))

    return nm.Tensor(feats, backward=bw, parents=(hidden, *(params[n] for n in names)))


def _pad(seqs, pad_id):
    """Id sequences as the rows of a (B, T) array, padded at the end with
    ``pad_id``, and the (B, T) mask of each row's own positions; the mask is
    None when no row is padded."""
    lengths = np.array([len(s) for s in seqs])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(mask.shape, pad_id, dtype=np.intp)
    ids[mask] = np.concatenate(seqs)
    return ids, (None if mask.all() else mask)


def sequence_loss(triples, params, vocab):
    """Teacher-forced negative log-likelihood of the derived form plus EOS,
    for one triple or summed over a list of them.

    A list runs as one batch, padded to its longest source and target, and
    one triple as a batch of one. The masks keep each example's score what
    it is alone: the reverse encoder run starts at the example's own last
    position, attention skips padded positions and the loss skips padded
    steps.
    """
    batch = triples if isinstance(triples, (list, tuple)) else [triples]
    if not batch:
        raise ValueError("sequence_loss: empty list of triples")
    targets = [vocab.encode_target(t.derived) for t in batch]
    src, src_mask = _pad([vocab.encode_source(t.base, t.tag) for t in batch], vocab.pad_id)
    prev, tgt_mask = _pad([[vocab.bos_id] + y[:-1] for y in targets], vocab.pad_id)
    enc, hidden = _encode(params, src, src_mask)
    feats = _decoder_run(params, enc, hidden, prev)
    rows = slice(None) if tgt_mask is None else np.flatnonzero(tgt_mask)
    return _output_layer(params, feats, rows, np.concatenate(targets))


@dataclass
class Hypothesis:
    tokens: tuple          # output ids, ending in EOS iff it terminated
    log_prob: float
    finished: bool         # True if it ended at EOS, False if cut at the length cap

    def text(self, vocab):
        return vocab.decode_output(self.tokens)


def beam_batch(sources, params, vocab, beam=12, k=1, max_len=None):
    """k-best decoding of a list of sources at once: for each, up to k
    hypotheses that end at EOS or at its length cap, ``len(source) +
    max_extra``, or ``max_len`` when given.

    Each list is sorted by descending log-probability, ties broken by
    shorter token sequence then lexicographic ids; no duplicates.

    The sources run in chunks of ``config.batch``, each as one padded batch
    on plain arrays. Each step advances the live hypotheses of every
    unfinished query of the chunk in one batched ``decode_step``, as
    (Q, W, H) states: up to ``beam`` rows per query, padded to the widest
    with rows that score -inf, each query attending over its own source.
    Each query then takes its candidates from the scores of its own rows
    alone, and leaves the batch when it is done.
    A query stops before its cap once k hypotheses have finished and no
    live one scores above the k-th of them: an extension never scores more
    than its prefix and is longer than every finished hypothesis, so it
    would rank below all k.
    """
    if not (beam >= k >= 1):
        raise ValueError(f"need beam >= k >= 1, got beam={beam}, k={k}")
    chunk = params.config.batch
    if len(sources) > chunk:
        return [hyps for start in range(0, len(sources), chunk)
                for hyps in beam_batch(sources[start:start + chunk], params, vocab, beam, k, max_len)]
    if not sources:
        return []
    caps = [len(s) + params.config.max_extra if max_len is None else max_len for s in sources]
    if min(caps) < 1:
        raise ValueError("max_len must be >= 1")
    enc = encode(sources, params)
    eos, size = vocab.eos_id, params.vocab_size
    # A hypothesis is (-log_prob, length, tokens, parent row), so that tuple
    # order is rank order: best first, then shorter, then by ids.
    queries = list(range(len(sources)))  # the unfinished queries, as indices into sources
    live = [[(0.0, 0, (), 0)]] * len(sources)  # their live hypotheses, in rank order
    done = [[] for _ in sources]  # each query's best k finished so far; at its end, its k-best
    states, rows = enc.init_state, np.arange(len(sources))[:, None]
    prev, totals = np.full((len(sources), 1), vocab.bos_id), np.zeros((len(sources), 1))
    for length in itertools.count(1):
        states, log_probs, _ = decode_step(prev, states, enc, params, rows=rows)
        scores = (totals[..., None] + log_probs).reshape(len(queries), -1)
        keep, going_on = [], []  # the queries that go on, as indices into queries; their beams
        for i, (q, hyps) in enumerate(zip(queries, live)):
            # Walking the ranked expansions below stops after `beam` live ones
            # and meets at most one EOS expansion per live hypothesis, so it
            # never passes the (beam + live)-th best score of the query's own
            # rows; all expansions tied with it are kept.
            own = scores[i, :len(hyps) * size]
            at = len(own) - min(beam + len(hyps), len(own))
            hit = np.flatnonzero(own >= np.partition(own, at)[at])
            candidates = sorted((neg, length, hyps[j // size][2] + (j % size,), j // size)
                                for j, neg in zip(hit.tolist(), (-own[hit]).tolist()))
            going = []
            for hyp in candidates:
                if hyp[2][-1] == eos:
                    done[q].append(hyp)
                else:
                    going.append(hyp)
                    if len(going) >= beam:
                        break
            done[q] = sorted(done[q])[:k]
            if len(done[q]) == k and going and going[0][0] >= done[q][-1][0]:
                going = []  # exact early stop: no live hypothesis can enter the k-best
            if going and length < caps[q]:
                keep.append(i)
                going_on.append(going)
            else:  # live hypotheses left at the cap compete with the finished ones
                done[q] = sorted(done[q] + going)[:k]
        if not keep:
            break
        live, width = going_on, max(map(len, going_on))
        # padding rows start from row 0 with token 0 and never score
        negs, _, seqs, parents = zip(*[hyp for hyps in live
                                       for hyp in hyps + [(np.inf, 0, (0,), 0)] * (width - len(hyps))])
        totals = -np.array(negs).reshape(-1, width)
        prev = np.array([seq[-1] for seq in seqs]).reshape(-1, width)
        rows = (np.array(keep)[:, None], np.array(parents).reshape(-1, width))
        if len(keep) < len(queries):  # drop the finished queries, sources and all
            queries = [queries[i] for i in keep]
            enc = EncodedSource(None, enc.annot_proj[keep], None,  # the step reads no hidden
                                None if enc.neg is None else enc.neg[keep], enc.values[keep],
                                enc.tokens)
    return [[Hypothesis(seq, -neg, seq[-1] == eos) for neg, _, seq, _ in hyps] for hyps in done]


def beam_search(source_ids, params, vocab, beam=12, k=1, max_len=None):
    """k-best decoding of one source: a one-query ``beam_batch``."""
    return beam_batch([source_ids], params, vocab, beam, k, max_len)[0]


def greedy_decode(source_ids, params, vocab, max_len=None):
    """Greedy decoding of one source: ``beam_search`` at beam 1."""
    return beam_batch([source_ids], params, vocab, beam=1, max_len=max_len)[0][0]


def predict_kbest(params, vocab, base, tag, beam=12, k=1):
    """Ranked surface-form predictions for one (base, tag) query."""
    source_ids = vocab.encode_source(base, tag)
    hyps = beam_search(source_ids, params, vocab, beam=max(beam, k), k=k)
    return [(h.text(vocab), h.log_prob) for h in hyps]


def _dev_scores(params, vocab, dev):
    """Greedy accuracy and mean edit distance on ``dev``, decoded at beam 1."""
    sources = [vocab.encode_source(t.base, t.tag) for t in dev]
    preds = [hyps[0].text(vocab) for hyps in beam_batch(sources, params, vocab, beam=1)]
    gold = [t.derived for t in dev]
    return _accuracy(preds, gold), _avg_edit(preds, gold)


def train(split, vocab, config):
    """Adadelta training with per-epoch dev selection.

    Each minibatch is one ``sequence_loss`` call, and its gradient is that
    of the mean loss over the batch; the checkpoint with the best dev
    accuracy is returned, ties broken by lower dev edit distance then
    earlier epoch. Deterministic given the config seed.
    """
    if not split.train:
        raise ValueError("train: empty training split")
    for t in split.dev:  # dev scoring would fail on it after a whole epoch
        if t.tag not in vocab.tag_to_id:
            raise ValueError(f"train: dev triple {t.base}\t{t.tag}\t{t.derived} has "
                             f"tag {t.tag!r}, which no training triple has")
    lines = []
    params = Seq2SeqParams(len(vocab), config)
    state = nm.AdadeltaState(params.tensors, rho=config.rho, eps=config.eps)
    order_rng = random.Random(config.seed)
    lines.append(
        f"model=seq2seq emb={config.emb} hidden={config.hidden} batch={config.batch} "
        f"epochs={config.epochs} beam={config.beam} rho={config.rho} eps={config.eps} "
        f"seed={config.seed}"
    )
    best = None  # (key, snapshot, epoch)
    train_data = list(split.train)
    for epoch in range(1, config.epochs + 1):
        order_rng.shuffle(train_data)
        total_loss = 0.0
        for start in range(0, len(train_data), config.batch):
            batch = train_data[start:start + config.batch]
            loss = sequence_loss(batch, params, vocab)
            total_loss += float(loss.values)
            nm.backward(nm.scale(loss, 1.0 / len(batch)))
            del loss  # frees this batch's tape before the next one is built
            nm.adadelta_step(params.tensors, state, clip_norm=config.clip)
        dev_acc, dev_edit = _dev_scores(params, vocab, split.dev) if split.dev else (0.0, 0.0)
        lines.append(
            f"epoch={epoch} loss={total_loss / len(train_data):.6f} "
            f"dev_acc={dev_acc:.4f} dev_edit={dev_edit:.4f}"
        )
        # without a dev set there is nothing to select on: keep the last epoch
        key = (dev_acc, -dev_edit, -epoch) if split.dev else (0.0, 0.0, epoch)
        if best is None or key > best[0]:
            best = (key, params.snapshot(), epoch)
        if config.stop_at_dev_acc is not None and dev_acc >= config.stop_at_dev_acc:
            lines.append(f"early_stop=1 epoch={epoch} dev_acc={dev_acc:.4f}")
            break
    params.restore(best[1])
    meta = {
        "best_epoch": best[2],
        "best_dev_accuracy": best[0][0],
        "best_dev_edit": -best[0][1],
    }
    lines.append(f"best_epoch={meta['best_epoch']} best_dev_acc={meta['best_dev_accuracy']:.4f}")
    return params, meta, lines


def save_model(path, params, vocab, meta=None):
    """Checkpoint container plus a JSON sidecar with vocab/config/metrics.

    The container holds each GRU as its nine per-gate tensors."""
    nm.save_params(path, _checkpoint_arrays(params), meta={"kind": "seq2seq"})
    sidecar = {
        "vocab": vocab.to_dict(),
        "config": params.config.to_dict(),
        "metrics": meta or {},
    }
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Inverse of save_model.

    The tensors must have exactly the names and shapes that the sidecar's
    vocab and config give, with each GRU as its nine per-gate tensors, which
    are stacked again; they must hold only finite values, and the config
    must be a valid ``Seq2SeqConfig``. Anything else, or a file that cannot
    be read, raises ValueError naming the file.
    """
    arrays, _ = nm.load_params(path)
    sidecar_path = path + ".meta.json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        vocab = Vocab.from_dict(sidecar["vocab"])
        config = Seq2SeqConfig.from_dict(sidecar["config"])
        expected = _layout(len(vocab), config)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{sidecar_path}: unreadable model sidecar: "
                         f"{type(e).__name__}: {e}") from None
    for name in sorted(expected.keys() | arrays.keys()):
        got = arrays[name].shape if name in arrays else "none (missing)"
        want = expected.get(name, "none (not a model tensor)")
        if got != want:
            raise ValueError(f"{path}: tensor {name} has shape {got}, but the vocab and "
                             f"config in {sidecar_path} give {want}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: tensor {name} holds a non-finite value")
    params = Seq2SeqParams(len(vocab), config, arrays)
    return params, vocab, sidecar.get("metrics", {})
