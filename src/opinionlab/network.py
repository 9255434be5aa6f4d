"""Feedforward approximator of latent opinion trajectories.

The network maps ``[t, one-hot(user), profile-vector]`` to a scalar in
(-1, 1) through L hidden tanh layers plus a tanh output layer.  Besides the
plain forward pass it exposes an exact derivative of the output with
respect to the time input, computed by propagating a tangent alongside the
value.  Either evaluation is recorded as a single autodiff node whose
backward is the hand-derived vector-Jacobian product, so the derivative
itself stays differentiable with respect to the weights and the inputs.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat


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


def build_inputs(t, user_onehot, profile_vec, time_scale: float = 1.0):
    """Assemble the (batch, D) input matrix [t * time_scale, e_u, h_u].

    `t` may be a scalar or a length-B vector; `user_onehot` and
    `profile_vec` may be 1-D (single example) or 2-D (batch).  Returns a
    Tensor when `profile_vec` is one (so encoder gradients flow), else an
    ndarray, which the forward pass treats as a constant.
    """
    onehot = np.atleast_2d(np.asarray(user_onehot, dtype=float))
    batch = onehot.shape[0]
    t_col = np.broadcast_to(np.asarray(t, dtype=float).reshape(-1, 1), (batch, 1)) * time_scale
    if isinstance(profile_vec, Tensor):
        prof = profile_vec.reshape(batch, -1)
        return concat([t_col, onehot, prof], axis=1)
    prof = np.atleast_2d(np.asarray(profile_vec, dtype=float))
    return np.concatenate([t_col, onehot, prof], axis=1)


def _mlp(params: FnnParams, inputs, time_scale: float | None = None) -> Tensor:
    """The MLP as one tape node, with its closed-form vector-Jacobian product.

    Without `time_scale` the node's value is the (batch,) output a_L.  With
    it, the value is the (2, batch) stack of a_L and da_L/dt, the tangent
    of the output when the time column (column 0) of the input moves at
    rate `time_scale`.  Backward maps the gradients on both rows to the
    input matrix (when it is a Tensor), the weights and the biases: the
    forward-over-reverse product written out per layer.
    """
    x = inputs if isinstance(inputs, Tensor) else None
    a = np.asarray(inputs.data if x is not None else inputs, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite network input")
    weights = [w.data for w in params.weights]
    tangent = time_scale is not None
    acts = [a]     # a_0 .. a_L
    slopes = []    # tanh'(z_l) = 1 - a_l**2
    dzs = []       # tangents of the pre-activations, da_{l-1} @ W_l
    tangs = []     # da_1 .. da_L
    for w, b in zip(weights, (b.data for b in params.biases)):
        a = np.tanh(a @ w + b)
        acts.append(a)
        slopes.append(1.0 - a * a)
        if tangent:
            # The input tangent is time_scale in column 0 and zero elsewhere.
            dzs.append(time_scale * w[0] if not tangs else tangs[-1] @ w)
            tangs.append(slopes[-1] * dzs[-1])
    value = np.stack([a.reshape(-1), tangs[-1].reshape(-1)]) if tangent else a.reshape(-1)
    parents = ((x,) if x is not None else ()) + tuple(params.weights) + tuple(params.biases)
    out = Tensor(value, parents)
    input_grad = x is not None and x.requires_grad

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
            gw = acts[layer].T @ gz
            if tangent and layer > 0:
                gw += tangs[layer - 1].T @ gdz
                gda = gdz @ w.T
            elif tangent:
                gw[0] += time_scale * gdz.sum(axis=0)
            if params.weights[layer].requires_grad:
                params.weights[layer]._accumulate(gw)
            if params.biases[layer].requires_grad:
                params.biases[layer]._accumulate(gz.sum(axis=0))
            if layer > 0 or input_grad:
                ga = gz @ w.T
        if input_grad:
            x._accumulate(ga)

    out._backward = _backward
    return out


def forward_inputs(params: FnnParams, inputs):
    """Run the MLP on a prebuilt (batch, D) input matrix; returns (batch,) Tensor."""
    return _mlp(params, inputs)


def forward(params: FnnParams, t, user_onehot, profile_vec, time_scale: float = 1.0):
    """Latent opinion for one (t, user, profile) triple or a batch of them."""
    return forward_inputs(params, build_inputs(t, user_onehot, profile_vec, time_scale))


def forward_with_time_derivative(params: FnnParams, inputs, time_scale: float = 1.0):
    """Network output and its exact partial derivative in the time input.

    The tangent of the input with respect to raw time is `time_scale` in
    column 0 and zero elsewhere.  Both come from one tape node (see
    `_mlp`), so both returned (batch,) Tensors are differentiable in the
    weights and in the input matrix.
    """
    both = _mlp(params, inputs, time_scale)
    return both[0], both[1]


def value_and_time_derivative(params: FnnParams, t, user_onehot, profile_vec, time_scale: float = 1.0):
    """(x_hat, dx_hat/dt) for a single example or batch, as Tensors."""
    inputs = build_inputs(t, user_onehot, profile_vec, time_scale)
    return forward_with_time_derivative(params, inputs, time_scale)


# ----- checkpoint IO ---------------------------------------------------------


def params_to_dict(params: FnnParams) -> dict:
    return {
        "weights": [w.data.tolist() for w in params.weights],
        "biases": [b.data.tolist() for b in params.biases],
    }
