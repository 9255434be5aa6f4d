"""Reverse-mode autodiff checked against central finite differences."""

import numpy as np
import pytest

from opinionlab import autodiff as ad
from opinionlab.autodiff import Adam, Tensor


def finite_diff(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of `x`."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol: float = 1e-7, rtol: float = 1e-5):
    """Compare backward() gradient against finite differences of `build`."""
    leaf = Tensor(x.copy(), requires_grad=True)
    loss = build(leaf)
    loss.backward()
    fd = finite_diff(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(leaf.grad, fd, atol=atol, rtol=rtol)


def square_sum(t: Tensor) -> Tensor:
    return (t * t).sum()


RNG = np.random.default_rng(7)


class TestElementwiseOps:
    def test_add_mul_chain(self):
        x = RNG.standard_normal((3, 4))
        check_grad(lambda t: ((t * 2.0 + 1.5) * t).sum(), x)

    def test_sub_div(self):
        x = RNG.standard_normal((5,)) + 3.0
        check_grad(lambda t: ((t - 0.5) / (t * t)).sum(), x)

    def test_tanh_exp_log(self):
        x = np.abs(RNG.standard_normal((6,))) + 0.2
        check_grad(lambda t: (t.tanh() + t.exp() * 0.01 + t.log()).sum(), x)

    def test_abs(self):
        x = RNG.standard_normal((8,))
        x[np.abs(x) < 0.1] = 0.5  # stay away from the kink
        check_grad(lambda t: t.abs().sum(), x)

    def test_maximum(self):
        x = RNG.standard_normal((6,))
        other = RNG.standard_normal((6,))
        other[np.abs(other - x) < 0.1] += 0.5
        check_grad(lambda t: t.maximum(other).sum(), x)

    def test_maximum_tie_goes_left(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 3.0]), requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_array_equal(a.grad, [1.0, 0.0])
        np.testing.assert_array_equal(b.grad, [0.0, 1.0])


class TestBroadcastingAndShapes:
    def test_broadcast_row_vector(self):
        x = RNG.standard_normal((3,))
        other = RNG.standard_normal((4, 3))
        check_grad(lambda t: (t * other).sum(), x)

    def test_broadcast_scalar(self):
        x = np.array(1.3)
        other = RNG.standard_normal((2, 5))
        check_grad(lambda t: (other - t).sum(), x)

    def test_broadcast_keepdims_column(self):
        x = RNG.standard_normal((4, 1))
        other = RNG.standard_normal((4, 5))
        check_grad(lambda t: (other / (t + 3.0)).sum(), x)

    def test_sum_axis(self):
        x = RNG.standard_normal((3, 4, 2))
        check_grad(lambda t: square_sum(t.sum(axis=1)), x)

    def test_sum_keepdims(self):
        x = RNG.standard_normal((3, 4))
        check_grad(lambda t: (t / t.exp().sum(axis=1, keepdims=True)).sum(), x)

    def test_reshape_transpose(self):
        x = RNG.standard_normal((3, 4))
        check_grad(lambda t: (t.reshape(4, 3).T * t).sum(), x)

    def test_getitem_scatter(self):
        x = RNG.standard_normal((5,))
        idx = np.array([0, 2, 2, 4])  # repeated index must accumulate
        check_grad(lambda t: square_sum(t[idx]), x)


class TestMatmul:
    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)),
                                       ((4,), (4,)), ((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_matmul_left(self, sa, sb):
        a = RNG.standard_normal(sa)
        b = RNG.standard_normal(sb)
        check_grad(lambda t: (t @ Tensor(b)).sum() if (t.data @ b).ndim else (t @ Tensor(b)), a)

    @pytest.mark.parametrize("sa,sb", [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)),
                                       ((4,), (4,)), ((2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))])
    def test_matmul_right(self, sa, sb):
        a = RNG.standard_normal(sa)
        b = RNG.standard_normal(sb)
        check_grad(lambda t: (Tensor(a) @ t).sum() if (a @ t.data).ndim else (Tensor(a) @ t), b)


class TestDispatchHelpers:
    """The module-level softmax, and numpy handing mixed ndarray/Tensor
    arithmetic to the Tensor."""

    def test_softmax_matches_direct(self):
        x = RNG.standard_normal((3, 5)) * 10
        expected = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(ad.softmax(Tensor(x)).data, expected, atol=1e-12)

    def test_softmax_gradient(self):
        x = RNG.standard_normal((4,))
        target = np.array([0.1, 0.2, 0.3, 0.4])
        check_grad(lambda t: (ad.softmax(t) * target).sum(), x)

    def test_ndarray_times_tensor_defers(self):
        arr = np.array([1.0, 2.0])
        t = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = arr * t
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, [3.0, 8.0])
        out = arr - t
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, [-2.0, -2.0])


class TestBackwardContract:
    def test_scalar_required_without_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_empty_tape_raises(self):
        t = Tensor(np.array(1.0), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * t + t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [2 * 2.0 + 3.0])

    def test_no_grad_without_requires(self):
        t = Tensor(np.ones(3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None


class TestAdam:
    def test_matches_reference_implementation(self):
        """Two steps of Adam against an independent transcription of the
        update rule (bias-corrected first/second moments)."""
        x0 = np.array([1.0, -2.0, 3.0])
        grads = [np.array([0.1, -0.2, 0.3]), np.array([-0.05, 0.4, 0.1])]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

        x_ref = x0.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            x_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = Tensor(x0.copy(), requires_grad=True)
        opt = Adam([p], lr=lr)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(p.data, x_ref, atol=1e-12)

    def test_skips_missing_grad(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_rejects_shape_mismatch(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(3)
        with pytest.raises(ValueError):
            Adam([p]).step()

    def test_minimizes_quadratic(self):
        p = Tensor(np.array([5.0, -4.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            ((p * p).sum()).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-2
