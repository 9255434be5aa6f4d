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
        params = make_net(input_dim=6)  # 1 time + 4 users + 1 profile
        out = network.forward(params, np.zeros(10), np.arange(10) % 4, np.ones((10, 1)))
        assert out.shape == (10,)
        assert np.all(np.abs(out.data) < 1.0)  # final tanh bounds the output

    def test_matches_manual_rollout(self):
        params = make_net(num_layers=1, width=3, input_dim=4, seed=1)  # 1 time + 2 users + 1 profile
        a = np.array([[0.1 * 0.5, 0.0, 1.0, 0.4]])  # [t * scale, one-hot(user 1), profile]
        for w, b in zip(params.weights, params.biases):
            a = np.tanh(a @ w.data + b.data)
        out = network.forward(params, [0.1], [1], [[0.4]], time_scale=0.5)
        np.testing.assert_allclose(out.data, a.reshape(-1), atol=1e-12)

    def test_time_scale_applied(self):
        params = make_net(input_dim=3)
        a = network.forward(params, 10.0, [0], [[0.5]], time_scale=0.1)
        b = network.forward(params, 1.0, [0], [[0.5]], time_scale=1.0)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_nonfinite_input_rejected(self):
        params = make_net(input_dim=3)
        with pytest.raises(ValueError, match="non-finite"):
            network.forward(params, [np.nan], [0], [[0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            network.forward_with_time_derivative(params, [0.0], [0], [[np.inf]])

    def test_profile_rows_must_match_user_ids(self):
        params = make_net(input_dim=6)  # 1 time + 3 users + 2 profile
        with pytest.raises(ValueError, match="profile rows"):
            network.forward(params, np.zeros(4), np.zeros(4, dtype=int), np.zeros((2, 2)))

    def test_tensor_profile_keeps_graph(self):
        params = make_net(input_dim=4)
        prof = Tensor(np.ones((2, 1)), requires_grad=True)
        out = network.forward(params, np.array([0.1, 0.2]), [0, 1], prof)
        out.sum().backward()
        assert prof.grad is not None
        assert prof.grad.shape == (2, 1)


class TestUserIds:
    """A user id selects a row of W_0, so one outside [0, U) would read the
    time row (id -1) or a profile row (id U); both are refused, as is an id
    that is not an integer."""

    @pytest.mark.parametrize("fn", [network.forward, network.forward_with_time_derivative])
    @pytest.mark.parametrize("user", [-1, 2, 1.5])
    def test_bad_user_id_raises(self, fn, user):
        params = make_net(input_dim=5)  # 1 time + 2 users + 2 profile
        with pytest.raises(ValueError, match="user id"):
            fn(params, np.array([0.5, 0.5]), np.array([0, user]), np.zeros((2, 2)))

    def test_unsigned_ids_accepted(self):
        params = make_net(input_dim=5)
        out = network.forward(params, np.zeros(2), np.array([0, 1], dtype=np.uint8), np.zeros((2, 2)))
        assert out.shape == (2,)


class TestTimeDerivative:
    def test_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        for case in range(20):
            params = make_net(num_layers=int(rng.integers(1, 4)), width=int(rng.integers(2, 9)),
                              input_dim=6, seed=case)  # 1 time + 3 users + 2 profile
            users = rng.integers(0, 3, size=4)
            prof = rng.standard_normal((4, 2))
            t = rng.uniform(0, 10, size=4)
            scale = float(rng.uniform(0.05, 1.0))
            _, deriv = network.forward_with_time_derivative(params, t, users, prof, scale)
            eps = 1e-6
            up = network.forward(params, t + eps, users, prof, scale).data
            down = network.forward(params, t - eps, users, prof, scale).data
            fd = (up - down) / (2 * eps)
            np.testing.assert_allclose(deriv.data, fd, rtol=1e-4, atol=1e-8)

    def test_derivative_differentiable_in_weights(self):
        params = make_net(num_layers=2, width=4, input_dim=3, seed=2)
        _, deriv = network.forward_with_time_derivative(
            params, np.array([0.3]), np.array([0]), np.array([[0.2]]), 0.5)
        (deriv * deriv).sum().backward()
        assert all(w.grad is not None for w in params.weights)

    def test_value_agrees_with_plain_forward(self):
        params = make_net(input_dim=4)
        t = np.array([0.1, 0.9])
        users = np.array([0, 1])
        prof = np.full((2, 1), 0.3)
        value, _ = network.forward_with_time_derivative(params, t, users, prof, 0.2)
        plain = network.forward(params, t, users, prof, 0.2)
        np.testing.assert_array_equal(value.data, plain.data)


def onehot_inputs(t, users, profiles, num_users, time_scale):
    """The dense (batch, 1+U+E) input [t * time_scale, one-hot(user), profile]."""
    return np.concatenate([np.reshape(t, (-1, 1)) * time_scale, np.eye(num_users)[users], profiles], axis=1)


def layered_forward(params, inputs, time_scale=None):
    """The network as a chain of elementary tape ops, one node per op, on
    the dense one-hot input matrix.

    This is the composition the fused node replaced; it stays here as the
    oracle for the fused value, tangent and gradients, and for the row
    order [time, users, profile] of the first weight matrix.
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
    """The one-node MLP with gathered user rows against the layer-by-layer
    composition on the one-hot input: values and tangents bitwise when the
    profile rows are zero and within 1e-12 relative otherwise; every
    gradient (W_0's time, user and profile rows apart, the other layers,
    the profile rows) within 1e-12 relative."""

    def random_case(self, rng, case, batch=None):
        num_users, embed = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        params = make_net(num_layers=int(rng.integers(1, 5)), width=int(rng.integers(2, 12)),
                          input_dim=1 + num_users + embed, seed=case)
        for p in params.parameters():  # nonzero biases exercise their gradient path
            p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
        batch = int(rng.integers(1, 20)) if batch is None else batch
        users = rng.integers(0, num_users, size=batch)  # repeats are likely
        t = rng.uniform(0, 10, size=batch)
        prof = rng.standard_normal((batch, embed))
        return params, num_users, t, users, prof, float(rng.uniform(0.05, 1.0))

    def run(self, fn, params, x, coef):
        for p in params.parameters():
            p.grad = None
        outs = fn(params, x)
        loss = sum((o * c).sum() for o, c in zip(outs, coef))
        loss.backward()
        grads = [p.grad.copy() for p in params.parameters()]
        return [o.data for o in outs], grads, x.grad if isinstance(x, Tensor) else None

    def check(self, fused, oracle, params, num_users, t, users, prof, scale, coef, tensor_profiles):
        def profiles():
            return Tensor(prof, requires_grad=True) if tensor_profiles else prof

        def dense():
            x = onehot_inputs(t, users, prof, num_users, scale)
            return Tensor(x, requires_grad=True) if tensor_profiles else x

        got, g_got, p_got = self.run(lambda p, x: fused(p, t, users, x, scale), params, profiles(), coef)
        want, g_want, x_want = self.run(lambda p, x: oracle(p, x, scale), params, dense(), coef)
        for a, b in zip(got, want):
            if np.any(prof):
                assert_rel_close(a, b)
            else:
                np.testing.assert_array_equal(a, b)
        blocks = [slice(0, 1), slice(1, 1 + num_users), slice(1 + num_users, None)]
        for block in blocks:  # W_0's time, user and profile rows
            assert_rel_close(g_got[0][block], g_want[0][block])
        for a, b in zip(g_got[1:], g_want[1:]):
            assert_rel_close(a, b)
        if tensor_profiles:
            assert_rel_close(p_got, x_want[:, 1 + num_users:])

    def value_only(self, params, t, users, x, scale):
        return [network.forward(params, t, users, x, scale)]

    def layered_value(self, params, x, scale):
        return [layered_forward(params, x)[0]]

    def value_and_tangent(self, params, t, users, x, scale):
        return network.forward_with_time_derivative(params, t, users, x, scale)

    def layered_both(self, params, x, scale):
        return layered_forward(params, x, scale)

    @pytest.mark.parametrize("tensor_profiles", [False, True])
    def test_value_only(self, tensor_profiles):
        rng = np.random.default_rng(10)
        for case in range(30):
            params, num_users, t, users, prof, scale = self.random_case(rng, case)
            coef = [rng.standard_normal(len(users))]
            for rows in (prof, np.zeros_like(prof)):
                self.check(self.value_only, self.layered_value, params, num_users, t, users, rows, scale,
                           coef, tensor_profiles)

    @pytest.mark.parametrize("tensor_profiles", [False, True])
    def test_value_and_tangent(self, tensor_profiles):
        rng = np.random.default_rng(11)
        for case in range(30):
            params, num_users, t, users, prof, scale = self.random_case(rng, case)
            coef = [rng.standard_normal(len(users)), rng.standard_normal(len(users))]
            for rows in (prof, np.zeros_like(prof)):
                self.check(self.value_and_tangent, self.layered_both, params, num_users, t, users, rows,
                           scale, coef, tensor_profiles)

    @pytest.mark.parametrize("tensor_profiles", [False, True])
    def test_batch_beyond_matmul_block(self, tensor_profiles):
        """600 rows over a few users: the user rows' scatter-add runs in row
        order, unlike the one-hot matmul's blocked sum."""
        rng = np.random.default_rng(12)
        params, num_users, t, users, prof, scale = self.random_case(rng, 0, batch=600)
        coef = [rng.standard_normal(600), rng.standard_normal(600)]
        for rows in (prof, np.zeros_like(prof)):
            self.check(self.value_and_tangent, self.layered_both, params, num_users, t, users, rows,
                       scale, coef, tensor_profiles)

    def test_one_tape_node(self):
        params = make_net(num_layers=3, input_dim=4)
        x = Tensor(np.ones((5, 1)), requires_grad=True)
        out = network.forward(params, np.zeros(5), np.array([0, 1, 1, 0, 1]), x)
        assert set(map(id, out._parents)) == set(map(id, [x] + params.parameters()))
        assert all(p._parents == () for p in out._parents)


class TestCheckpointIO:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            network.FnnParams([np.ones((3, 4))], [np.ones(5)])
        with pytest.raises(ValueError):
            network.FnnParams([np.ones((3, 4))], [])
