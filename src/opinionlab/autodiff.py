"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied to
it.  Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every reachable
leaf.  Only the handful of ops the rest of the package needs are provided.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "softmax",
    "Adam",
]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph holding a float64 array."""

    # `_backward(grad)` receives this node's gradient and pushes it to the
    # parents.  It must not capture the node itself: a closure over its own
    # output would put every node in a reference cycle, and a step's graph
    # would then outlive the step until the cyclic collector ran.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "__weakref__")

    # Make `ndarray <op> Tensor` defer to the Tensor's reflected methods.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._backward = None
        self._parents = parents

    # ----- graph plumbing -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray):
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is not None:
            self.grad += grad
        elif np.shape(grad) == self.data.shape:
            # A fresh array equal to zeros + grad (-0.0 becomes 0.0 alike);
            # `grad` itself may be a view or shared with another node.
            self.grad = np.asarray(grad + 0.0)
        else:
            self.grad = np.zeros_like(self.data) + grad

    def backward(self):
        """Backpropagate from this node, which must hold a single value."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        if len(topo) == 1 and self._backward is None:
            raise ValueError("backward() on a graph with no recorded operations")
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ----- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / other.data**2)

        out._backward = _backward
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def _backward(grad):
            a, b, g = self.data, other.data, grad
            if self.requires_grad:
                if b.ndim == 1:
                    ga = np.multiply.outer(g, b) if g.ndim else g * b
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
                self._accumulate(np.asarray(ga))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.multiply.outer(a, g) if g.ndim else a * g
                elif b.ndim == 1:
                    gb = (np.swapaxes(a, -1, -2) @ g[..., :, None])[..., 0]
                else:
                    gb = np.swapaxes(a, -1, -2) @ g
                other._accumulate(np.asarray(gb))

        out._backward = _backward
        return out

    # ----- elementwise functions -------------------------------------------

    def tanh(self):
        value = np.tanh(self.data)
        out = Tensor(value, (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - value**2))

        out._backward = _backward
        return out

    def exp(self):
        value = np.exp(self.data)
        out = Tensor(value, (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad * value)

        out._backward = _backward
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        out._backward = _backward
        return out

    def abs(self):
        out = Tensor(np.abs(self.data), (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        out._backward = _backward
        return out

    def maximum(self, other):
        other = as_tensor(other)
        out = Tensor(np.maximum(self.data, other.data), (self, other))

        def _backward(grad):
            # Ties route the gradient to the left operand.
            left = self.data >= other.data
            if self.requires_grad:
                self._accumulate(grad * left)
            if other.requires_grad:
                other._accumulate(grad * ~left)

        out._backward = _backward
        return out

    # ----- shape ops --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._backward = _backward
        return out

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        out._backward = _backward
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))

        def _backward(grad):
            if self.requires_grad:
                self._accumulate(grad.T)

        out._backward = _backward
        return out

    def __getitem__(self, index):
        out = Tensor(self.data[index], (self,))
        parts = index if isinstance(index, tuple) else (index,)
        # Basic indexing selects each element at most once, so a plain
        # assignment scatters the gradient; fancy indexing may repeat one.
        basic = all(isinstance(i, (int, slice)) for i in parts)

        def _backward(grad):
            if self.requires_grad:
                g = np.zeros_like(self.data)
                if basic:
                    g[index] = grad
                else:
                    np.add.at(g, index, grad)
                self._accumulate(g)

        out._backward = _backward
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Softmax along `axis`, shifted by the row maximum for stability."""
    shift = np.max(x.data, axis=axis, keepdims=True)  # constant offset
    e = (x - shift).exp()
    return e / e.sum(axis=axis, keepdims=True)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator floor


class Adam:
    """Bias-corrected Adam over a list of leaf Tensors."""

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g**2
            m_hat = self.m[i] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
