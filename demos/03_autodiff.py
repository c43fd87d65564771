"""Peek inside the numeric core: tape autodiff and Adadelta.

Fits a tiny logistic regressor on the package's tape, and cross-checks
one gradient by finite differences. The package's tape has only ``scale``
as a generic op, since the sequence model's layers are fused nodes of
their own, so the ops this regressor needs are written here as ``Tensor``
nodes with their own backward closures.
"""

import numpy as np

from derivgen import numeric as nm


def affine(x, w, b):
    """``x @ w + b`` for rows ``x`` (N, k), weights ``w`` (k, m) and a bias ``b`` (m,)."""
    return nm.Tensor(x.values @ w.values + b.values, parents=(x, w, b),
                     backward=lambda g: (g @ w.values.T, x.values.T @ g, g.sum(axis=0)))


def columns(a, b):
    """The columns of ``a`` then those of ``b``."""
    n = a.values.shape[1]
    return nm.Tensor(np.concatenate([a.values, b.values], axis=1), parents=(a, b),
                     backward=lambda g: (g[:, :n], g[:, n:]))


def pick(a, index):
    """The entries ``a.values[index]`` for a tuple of index arrays."""
    def bw(g):
        ga = np.zeros_like(a.values)
        ga[index] = g
        return (ga,)

    return nm.Tensor(a.values[index], parents=(a,), backward=bw)


def log_softmax(a):
    out = nm.log_softmax_array(a.values)
    return nm.Tensor(out, parents=(a,),
                     backward=lambda g: (g - np.exp(out) * g.sum(axis=-1, keepdims=True),))


def sum_all(a):
    return nm.Tensor(a.values.sum(), parents=(a,),
                     backward=lambda g: (np.full_like(a.values, float(g)),))


rng = np.random.default_rng(0)

# Separable 2-class data in the plane.
X = np.vstack([rng.normal(loc=-1.5, size=(40, 2)), rng.normal(loc=1.5, size=(40, 2))])
y = np.array([0.0] * 40 + [1.0] * 40)

w = nm.parameter(np.zeros((2, 1)))
b = nm.parameter(np.zeros(1))
params = {"w": w, "b": b}

inputs = nm.constant(X)
zeros = nm.constant(np.zeros((len(y), 1)))
labels = (np.arange(len(y)), y.astype(int))


def loss_fn():
    # One logit per example; the cross-entropy is the stable log-softmax of
    # [0, z], picked at each example's label.
    z = affine(inputs, w, b)
    log_probs = log_softmax(columns(zeros, z))
    return nm.scale(sum_all(pick(log_probs, labels)), -1.0 / len(y))


# One gradient entry vs central finite differences.
nm.backward(loss_fn())
analytic = w.grad[0, 0]
h = 1e-6
w.values[0, 0] += h
up = float(loss_fn().values)
w.values[0, 0] -= 2 * h
down = float(loss_fn().values)
w.values[0, 0] += h
print(f"dL/dw0: analytic {analytic:.8f}  numeric {(up - down) / (2 * h):.8f}")
for p in params.values():
    p.clear_grad()

state = nm.AdadeltaState(params)
for step in range(200):
    loss = loss_fn()
    nm.backward(loss)
    nm.adadelta_step(params, state)
    if step % 50 == 0:
        print(f"step {step:3d}  loss {float(loss.values):.4f}")

z = X @ w.values[:, 0] + b.values[0]
acc = np.mean((z > 0) == (y == 1.0))
print(f"final training accuracy: {acc:.3f}")
