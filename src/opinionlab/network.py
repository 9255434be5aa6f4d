"""Feedforward approximator of latent opinion trajectories.

The network maps a (time, user, profile-vector) triple to a scalar in
(-1, 1) through L hidden tanh layers plus a tanh output layer.  Its first
weight matrix W_0 has one row for the scaled time, one row per user and
one row per profile component, in that order; a user enters as its row of
W_0, gathered, so no one-hot input is ever built.  Besides the plain
forward pass it exposes an exact derivative of the output with respect to
time, computed by propagating a tangent alongside the value.  Either
evaluation is recorded as a single autodiff node whose backward is the
hand-derived vector-Jacobian product, so the derivative itself stays
differentiable with respect to the weights and the profile rows.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class FnnParams:
    """Weights and biases of the tanh MLP, kept as autodiff leaves."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ValueError("mismatched weight/bias lists")
        self.weights = [w if isinstance(w, Tensor) else Tensor(w, requires_grad=True) for w in weights]
        self.biases = [b if isinstance(b, Tensor) else Tensor(b, requires_grad=True) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def parameters(self) -> list[Tensor]:
        return self.weights + self.biases


def init_params(num_hidden_layers: int, width: int, input_dim: int, seed: int) -> FnnParams:
    """Glorot-uniform weights, zero biases, scalar output."""
    if num_hidden_layers < 1:
        raise ValueError("need at least one hidden layer")
    rng = np.random.default_rng(seed)
    dims = [input_dim] + [width] * num_hidden_layers + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return FnnParams(weights, biases)


def _mlp(params: FnnParams, t, users, profiles, time_scale: float, tangent: bool) -> Tensor:
    """The MLP as one tape node, with its closed-form vector-Jacobian product.

    Row r of the batch is (t[r], users[r], profiles[r]).  The first layer's
    pre-activation is [t * time_scale, profile] @ W_0[[0, 1+U:]] plus the
    gathered user row W_0[1 + user].  Without `tangent` the node's value is
    the (batch,) output a_L; with it, the value is the (2, batch) stack of
    a_L and da_L/dt.  Backward maps the gradients on both rows to the
    weights, the biases and the profile rows (when they are a Tensor):
    the forward-over-reverse product written out per layer.
    """
    ids = np.atleast_1d(np.asarray(users))
    rows = ids.shape[0]
    x = profiles if isinstance(profiles, Tensor) else None
    prof = np.atleast_2d(np.asarray(profiles.data if x is not None else profiles, dtype=np.float64))
    num_users = params.input_dim - 1 - prof.shape[1]
    if prof.ndim != 2 or prof.shape[0] != rows:
        raise ValueError(f"{rows} user ids but profile rows of shape {prof.shape}")
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValueError(f"user ids must be a 1-D array of integers, got {ids.dtype} shape {ids.shape}")
    if rows and (ids.min() < 0 or ids.max() >= num_users):
        raise ValueError(f"user id out of range [0, {num_users})")
    dense = np.empty((rows, 1 + prof.shape[1]))  # the time column, then the profile columns
    dense[:, 0] = np.asarray(t, dtype=np.float64) * time_scale
    dense[:, 1:] = prof
    if not np.all(np.isfinite(dense)):
        raise ValueError("non-finite network input")
    weights = [w.data for w in params.weights]
    dense_rows = np.arange(num_users, params.input_dim)
    dense_rows[0] = 0  # W_0's time row, then its profile rows 1+U..
    acts = [dense]  # a_0 (its dense block) .. a_L
    slopes = []     # tanh'(z_l) = 1 - a_l**2
    dzs = []        # tangents of the pre-activations, da_{l-1} @ W_l
    tangs = []      # da_1 .. da_L
    z = dense @ weights[0][dense_rows] + weights[0][1 + ids]
    for layer, (w, b) in enumerate(zip(weights, (b.data for b in params.biases))):
        if layer:
            z = a @ w
        a = np.tanh(z + b)
        acts.append(a)
        slopes.append(1.0 - a * a)
        if tangent:
            # The input tangent is time_scale in the time column and zero elsewhere.
            dzs.append(time_scale * w[0] if not tangs else tangs[-1] @ w)
            tangs.append(slopes[-1] * dzs[-1])
    value = np.stack([a.reshape(-1), tangs[-1].reshape(-1)]) if tangent else a.reshape(-1)
    parents = ((x,) if x is not None else ()) + tuple(params.weights) + tuple(params.biases)
    out = Tensor(value, parents)
    profile_grad = x is not None and x.requires_grad

    def _backward(grad):
        ga = (grad[0] if tangent else grad).reshape(-1, 1)
        gda = grad[1].reshape(-1, 1) if tangent else None
        for layer in reversed(range(len(weights))):
            w, slope = weights[layer], slopes[layer]
            if tangent:
                # da_l = slope_l * dz_l, and slope_l depends on a_l too.
                gdz = gda * slope
                ga = ga - 2.0 * acts[layer + 1] * (gda * dzs[layer])
            gz = ga * slope
            if layer > 0:
                gw = acts[layer].T @ gz
                if tangent:
                    gw += tangs[layer - 1].T @ gdz
                    gda = gdz @ w.T
                ga = gz @ w.T
            else:
                # The user rows add up in row order (a flat bincount), the
                # time and profile rows come from one dense product (the
                # time row alone, t.T @ gz, rounds differently from the
                # one-hot matmul).
                cells = (1 + ids)[:, None] * w.shape[1] + np.arange(w.shape[1])
                gw = np.bincount(cells.ravel(), gz.ravel(), minlength=w.size).reshape(w.shape)
                gw[dense_rows] = dense.T @ gz
                if tangent:
                    gw[0] += time_scale * gdz.sum(axis=0)
                if profile_grad:
                    x._accumulate(gz @ w[1 + num_users :].T)
            if params.weights[layer].requires_grad:
                params.weights[layer]._accumulate(gw)
            if params.biases[layer].requires_grad:
                params.biases[layer]._accumulate(gz.sum(axis=0))

    out._backward = _backward
    return out


def forward(params: FnnParams, t, users, profiles, time_scale: float = 1.0) -> Tensor:
    """Latent opinion of each row (t[r], users[r], profiles[r]) as a (batch,) Tensor.

    `t` is one time per row (or a scalar for all of them), `users` holds
    integer ids in [0, U) and `profiles` is a (batch, E) ndarray or Tensor;
    a Tensor gets the gradient of its rows.  An id outside [0, U) or a
    non-integer id raises ValueError.
    """
    return _mlp(params, t, users, profiles, time_scale, tangent=False)


def forward_with_time_derivative(params: FnnParams, t, users, profiles, time_scale: float = 1.0):
    """Network output and its exact partial derivative in time, per row.

    Takes the arguments of `forward`.  Both come from one tape node (see
    `_mlp`), so both returned (batch,) Tensors are differentiable in the
    weights and in the profile rows.
    """
    both = _mlp(params, t, users, profiles, time_scale, tangent=True)
    return both[0], both[1]

