"""Tanh MLP forward pass and its exact time-derivative path."""

import numpy as np
import pytest

from opinionlab import network
from opinionlab.autodiff import Tensor, as_tensor


def make_net(num_layers=3, width=8, input_dim=6, seed=0):
    return network.init_params(num_layers, width, input_dim, seed=seed)


class TestInit:
    def test_shapes(self):
        params = make_net(num_layers=2, width=5, input_dim=7)
        dims = [(7, 5), (5, 5), (5, 1)]
        assert [w.shape for w in params.weights] == dims
        assert [b.shape for b in params.biases] == [(5,), (5,), (1,)]

    def test_zero_biases_and_bounded_weights(self):
        params = make_net()
        for w, b in zip(params.weights, params.biases):
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w.data).max() <= bound
            assert np.all(b.data == 0.0)

    def test_deterministic(self):
        a, b = make_net(seed=3), make_net(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa.data, wb.data)

    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            network.init_params(0, 4, 3, seed=0)


class TestForward:
    def test_output_in_open_interval(self):
        params = make_net(input_dim=6)  # 1 time + 4 one-hot + 1 profile
        out = network.forward(params, np.zeros(10), np.eye(4)[np.arange(10) % 4], np.ones((10, 1)))
        assert out.shape == (10,)
        assert np.all(np.abs(out.data) < 1.0)  # final tanh bounds the output

    def test_matches_manual_rollout(self):
        params = make_net(num_layers=1, width=3, input_dim=4, seed=1)
        x = np.array([[0.1, 0.2, -0.3, 0.4]])
        a = x
        for w, b in zip(params.weights, params.biases):
            a = np.tanh(a @ w.data + b.data)
        out = network.forward_inputs(params, x)
        np.testing.assert_allclose(out.data, a.reshape(-1), atol=1e-12)

    def test_time_scale_applied(self):
        params = make_net(input_dim=3)
        a = network.forward(params, 10.0, np.array([1.0]), np.array([0.5]), time_scale=0.1)
        b = network.forward(params, 1.0, np.array([1.0]), np.array([0.5]), time_scale=1.0)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_nonfinite_input_rejected(self):
        params = make_net(input_dim=3)
        with pytest.raises(ValueError):
            network.forward_inputs(params, np.array([[np.nan, 0.0, 0.0]]))

    def test_tensor_profile_keeps_graph(self):
        params = make_net(input_dim=4)
        prof = Tensor(np.ones((2, 1)), requires_grad=True)
        out = network.forward(params, np.array([0.1, 0.2]), np.eye(2), prof)
        out.sum().backward()
        assert prof.grad is not None
        assert prof.grad.shape == (2, 1)


class TestTimeDerivative:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        for case in range(20):
            params = make_net(num_layers=int(rng.integers(1, 4)), width=int(rng.integers(2, 9)),
                              input_dim=6, seed=case)  # 1 time + 3 one-hot + 2 profile
            onehot = np.eye(3)[rng.integers(0, 3, size=4)]
            prof = rng.standard_normal((4, 2))
            t = rng.uniform(0, 10, size=4)
            scale = float(rng.uniform(0.05, 1.0))
            _, deriv = network.value_and_time_derivative(params, t, onehot, prof, scale)
            eps = 1e-6
            up = network.forward(params, t + eps, onehot, prof, scale).data
            down = network.forward(params, t - eps, onehot, prof, scale).data
            fd = (up - down) / (2 * eps)
            np.testing.assert_allclose(deriv.data, fd, rtol=1e-4, atol=1e-8)

    def test_derivative_differentiable_in_weights(self):
        params = make_net(num_layers=2, width=4, input_dim=3, seed=2)
        _, deriv = network.value_and_time_derivative(
            params, np.array([0.3]), np.array([[1.0]]), np.array([[0.2]]), 0.5)
        (deriv * deriv).sum().backward()
        assert all(w.grad is not None for w in params.weights)

    def test_value_agrees_with_plain_forward(self):
        params = make_net(input_dim=4)
        t = np.array([0.1, 0.9])
        onehot = np.eye(2)
        prof = np.full((2, 1), 0.3)
        value, _ = network.value_and_time_derivative(params, t, onehot, prof, 0.2)
        plain = network.forward(params, t, onehot, prof, 0.2)
        np.testing.assert_allclose(value.data, plain.data, atol=1e-12)


def layered_forward(params, inputs, time_scale=None):
    """The network as a chain of elementary tape ops, one node per op.

    This is the composition the fused node replaced; it stays here as the
    oracle for the fused value, tangent and gradients.
    """
    a = as_tensor(inputs)
    da = None
    if time_scale is not None:
        tang = np.zeros(a.shape)
        tang[:, 0] = time_scale
        da = Tensor(tang)
    for w, b in zip(params.weights, params.biases):
        a = (a @ w + b).tanh()
        if da is not None:
            da = (1.0 - a * a) * (da @ w)
    return a.reshape(-1), None if da is None else da.reshape(-1)


def assert_rel_close(got, want, rel=1e-12):
    """Max abs difference within `rel` of the oracle's largest entry."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


class TestFusedNodeParity:
    """The one-node MLP against the layer-by-layer composition: bitwise
    values and tangents, gradients within 1e-12 relative."""

    def random_case(self, rng, case):
        params = make_net(num_layers=int(rng.integers(1, 5)), width=int(rng.integers(2, 12)),
                          input_dim=int(rng.integers(2, 9)), seed=case)
        for p in params.parameters():  # nonzero biases exercise their gradient path
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        batch = int(rng.integers(1, 20))
        x = rng.standard_normal((batch, params.input_dim))
        return params, x, batch, float(rng.uniform(0.05, 1.0))

    def grads(self, params, x):
        out = [p.grad.copy() for p in params.parameters()]
        return out + ([x.grad.copy()] if isinstance(x, Tensor) else [])

    def run(self, fn, params, x, coef):
        for p in params.parameters():
            p.grad = None
        outs = fn(params, x)
        loss = sum((o * c).sum() for o, c in zip(outs, coef))
        loss.backward()
        return [o.data for o in outs], self.grads(params, x)

    @pytest.mark.parametrize("tensor_input", [False, True])
    def test_value_only(self, tensor_input):
        rng = np.random.default_rng(10)
        for case in range(30):
            params, x, batch, _ = self.random_case(rng, case)
            coef = [rng.standard_normal(batch)]

            def make_input():
                return Tensor(x, requires_grad=True) if tensor_input else x

            got, g_got = self.run(lambda p, i: [network.forward_inputs(p, i)], params, make_input(), coef)
            want, g_want = self.run(lambda p, i: [layered_forward(p, i)[0]], params, make_input(), coef)
            np.testing.assert_array_equal(got[0], want[0])
            assert len(g_got) == len(g_want)
            for a, b in zip(g_got, g_want):
                assert_rel_close(a, b)

    @pytest.mark.parametrize("tensor_input", [False, True])
    def test_value_and_tangent(self, tensor_input):
        rng = np.random.default_rng(11)
        for case in range(30):
            params, x, batch, scale = self.random_case(rng, case)
            coef = [rng.standard_normal(batch), rng.standard_normal(batch)]

            def make_input():
                return Tensor(x, requires_grad=True) if tensor_input else x

            got, g_got = self.run(
                lambda p, i: network.forward_with_time_derivative(p, i, scale), params, make_input(), coef)
            want, g_want = self.run(
                lambda p, i: layered_forward(p, i, scale), params, make_input(), coef)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            for a, b in zip(g_got, g_want):
                assert_rel_close(a, b)

    def test_one_tape_node(self):
        params = make_net(num_layers=3, input_dim=4)
        x = Tensor(np.ones((5, 4)), requires_grad=True)
        out = network.forward_inputs(params, x)
        assert set(map(id, out._parents)) == set(map(id, [x] + params.parameters()))
        assert all(p._parents == () for p in out._parents)


class TestCheckpointIO:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            network.FnnParams([np.ones((3, 4))], [np.ones(5)])
        with pytest.raises(ValueError):
            network.FnnParams([np.ones((3, 4))], [])
