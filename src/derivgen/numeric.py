"""Dense-tensor core: reverse-mode gradients and the Adadelta update.

Everything runs on numpy float64 arrays. A ``Tensor`` wraps one array and,
when produced by an op, remembers its parents and a backward closure, so
``backward`` on a scalar loss can push gradients down to the parameters by
a reverse topological walk. The tape's only generic op is ``scale``: the
sequence model's layers are fused nodes of their own. No broadcasting, no
GPU, no other optimizers.
"""

from __future__ import annotations

import base64
import json

import numpy as np


class Tensor:
    """A float64 array plus an optional gradient buffer.

    Parameters (``param=True``) own a persistent ``grad`` array that
    ``backward`` accumulates into until it is cleared. Intermediate
    tensors only carry the bookkeeping needed for the reverse pass.
    """

    __slots__ = ("values", "grad", "param", "_parents", "_backward")

    def __init__(self, values, parents=(), backward=None, param=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.param = param
        self.grad = np.zeros_like(self.values) if param else None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.values.shape

    def clear_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, param={self.param})"


def parameter(values):
    return Tensor(values, param=True)


def constant(values):
    return Tensor(values)


def scale(a, c):
    c = float(c)
    return Tensor(a.values * c, parents=(a,), backward=lambda g: (g * c,))


def sigmoid_array(x):
    """Logistic function of a plain array, stable for large |x|, in one division."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_array(x):
    """Softmax of a plain array over its last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_array(x):
    """Log-softmax of a plain array over its last axis; every entry is <= 0."""
    shifted = x - x.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - logz


def backward(loss):
    """Populate parameter gradients with d(loss)/d(param).

    Gradients accumulate into ``param.grad`` across calls until cleared.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.values.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.param:
            node.grad += g
        if node._backward is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if p.param:  # a parameter is a leaf: accumulate now, so pg is not kept
                p.grad += pg
            elif id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


class AdadeltaState:
    """Per-parameter running averages of squared gradients and updates."""

    def __init__(self, params, rho=0.95, eps=1e-6):
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0,1), got {rho}")
        if not 0.0 < eps < np.inf:  # NaN fails both comparisons
            raise ValueError(f"eps must be positive and finite, got {eps}")
        self.rho = rho
        self.eps = eps
        self.accum_grad_sq = {name: np.zeros_like(p.values) for name, p in params.items()}
        self.accum_update_sq = {name: np.zeros_like(p.values) for name, p in params.items()}


def global_grad_norm(params):
    return float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params.values())))


def adadelta_step(params, state, clip_norm=None):
    """One Adadelta update over all parameters; clears gradients afterwards.

    Per tensor, Zeiler's three rules:
    ``eg = rho * eg + (1 - rho) * g * g``,
    ``delta = -sqrt(ed + eps) / sqrt(eg + eps) * g`` and
    ``ed = rho * ed + (1 - rho) * delta * delta``; then ``p += delta``.
    """
    if clip_norm is not None:
        norm = global_grad_norm(params)
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
        delta = np.sqrt(ed + eps)
        delta /= -np.sqrt(eg + eps)
        delta *= g
        ed *= rho
        ed += (1.0 - rho) * delta * delta
        p.values += delta
        g[...] = 0.0


CHECKPOINT_VERSION = 1


def save_params(path, arrays, meta=None):
    """Write named arrays to a JSON container with base64 little-endian float64 data."""
    payload = {
        "format": "derivgen-checkpoint",
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "params": {
            name: {
                "shape": list(a.shape),
                "dtype": "<f8",
                "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii"),
            }
            for name, a in arrays.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path):
    """Inverse of save_params; returns (arrays dict, meta dict). Bit-exact.

    A file that cannot be read as a checkpoint raises ValueError naming the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:  # malformed JSON or text that is not UTF-8
            raise ValueError(f"{path}: unreadable checkpoint: {e}") from None
    if not isinstance(payload, dict) or payload.get("format") != "derivgen-checkpoint":
        raise ValueError(f"{path}: not a derivgen checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    arrays = {}
    try:
        for name, entry in payload["params"].items():
            raw = base64.b64decode(entry["data"])
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: corrupt tensor data: {type(e).__name__}: {e}") from None
    return arrays, payload.get("meta", {})
