"""ODE residuals, Gumbel-Softmax relaxation, losses, and training loop."""

import copy
import gc
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import weakref
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionlab import encoder, model as model_mod, network
from opinionlab.autodiff import Adam, Tensor
from opinionlab.data import OpinionDataset, ProfileCorpus, chronological_split, SplitSpec
from opinionlab.simulate import (generate_degroot_dataset, generate_sbcm_dataset, preset_config,
                                 sbcm_partner_probs)
from opinionlab.model import (
    VARIANTS,
    TrainConfig,
    TrainingDiverged,
    bcm_rhs_all,
    build_model,
    data_loss,
    degroot_rhs_all,
    fj_rhs_all,
    gumbel_noise,
    gumbel_softmax,
    init_ode_leaves,
    load_model,
    ode_loss,
    ode_rhs_all,
    save_model,
    sbcm_partner_matrix,
    sbcm_rhs_all,
    total_loss,
    train,
)


def tiny_dataset(num_users=4, num_steps=6, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    posts = [(u, float(t), int(rng.integers(0, num_classes)))
             for t in range(num_steps) for u in range(num_users)]
    return OpinionDataset(*zip(*posts), num_users, num_classes, float(num_steps))


def tiny_profiles(num_users=4):
    return ProfileCorpus({u: f"profile text number {u}" for u in range(num_users)})


def tiny_model():
    return build_model(tiny_dataset(), tiny_profiles(), TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0))


class TestConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.variant == "sbcm"

    def test_round_trip(self):
        cfg = TrainConfig(variant="bcm", alpha=2.0, width=12)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="magnetic")

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.5)
        with pytest.raises(ValueError):
            TrainConfig(beta=-1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        pytest.param("epochs", 2.5, id="epochs_fraction"),
        pytest.param("width", 2.0, id="width_float"),
        pytest.param("num_layers", True, id="num_layers_bool"),
        pytest.param("batch_size", np.int64(8), id="batch_size_numpy"),
        pytest.param("embed_dim", 0, id="embed_dim_zero"),
        pytest.param("seed", -1, id="seed_negative"),
        pytest.param("seed", "0", id="seed_text"),
        pytest.param("alpha", float("nan"), id="alpha_nan"),
        pytest.param("beta", float("inf"), id="beta_inf"),
        pytest.param("alpha", 10**400, id="alpha_huge_int"),
        pytest.param("beta", False, id="beta_bool"),
        pytest.param("learning_rate", -1.0, id="learning_rate_negative"),
        pytest.param("learning_rate", 0, id="learning_rate_zero"),
        pytest.param("learning_rate", [0.1], id="learning_rate_list"),
    ])
    def test_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_accepts_boundary_values(self):
        cfg = TrainConfig(seed=0, alpha=0, beta=0.0, learning_rate=1, collocation=1)
        assert (cfg.alpha, cfg.learning_rate) == (0, 1)


# ----- scalar ODE right-hand sides ---------------------------------------------
#
# The per-user contracts in plain numpy: the oracles that the vectorized
# *_rhs_all forms of the training graph are checked against.


def degroot_rhs(x_all, m_factors, q_factors, u: int) -> float:
    """sum over v != u of (m_u . q_v) * x_v."""
    x = np.asarray(x_all, dtype=float)
    weights = np.asarray(q_factors) @ np.asarray(m_factors)[u]
    weights[u] = 0.0
    return float(weights @ x)


def fj_rhs(x_all, innate, susceptibility, u: int) -> float:
    """s_u * sum_{v != u} x_v + (1 - s_u) * x_u(0) - x_u."""
    x = np.asarray(x_all, dtype=float)
    s = float(np.asarray(susceptibility).reshape(-1)[u]) if np.ndim(susceptibility) else float(susceptibility)
    return s * (x.sum() - x[u]) + (1.0 - s) * float(np.asarray(innate)[u]) - x[u]


def bcm_rhs(x_all, delta: float, gamma: float, u: int) -> float:
    """sum over v of sigmoid(gamma * (delta - |x_u - x_v|)) * (x_v - x_u)."""
    x = np.asarray(x_all, dtype=float)
    diff = x - x[u]
    gate = 0.5 * (np.tanh(0.5 * gamma * (delta - np.abs(diff))) + 1.0)
    return float((gate * diff).sum())


def sbcm_rhs(x_all, z_tilde, u: int) -> float:
    """sum over v of z_uv * (x_v - x_u)."""
    x = np.asarray(x_all, dtype=float)
    z = np.asarray(z_tilde, dtype=float)
    return float((z * (x - x[u])).sum())


class TestRhsContracts:
    """Scalar per-user forms against hand arithmetic, and the vectorized
    forms against the scalar ones."""

    def test_degroot_hand_value(self):
        # weights w_uv = m_u . q_v; u=0 with x=[0.5, -1, 2]:
        # w_01 = 1*0 + 0*1 = 0; w_02 = 1*1 + 0*0 = 1 -> rhs = 0*(-1) + 1*2 = 2
        m = np.array([[1.0, 0.0], [0.2, 0.3], [0.5, 0.5]])
        q = np.array([[9.0, 9.0], [0.0, 1.0], [1.0, 0.0]])
        x = np.array([0.5, -1.0, 2.0])
        assert degroot_rhs(x, m, q, 0) == pytest.approx(2.0)

    def test_fj_hand_value(self):
        # s=0.25, innate_0=0.6, x=[0.2, 0.4, -0.8]:
        # 0.25*(0.4-0.8) + 0.75*0.6 - 0.2 = -0.1 + 0.45 - 0.2 = 0.15
        x = np.array([0.2, 0.4, -0.8])
        assert fj_rhs(x, np.array([0.6, 0, 0]), np.array([0.25, 0, 0]), 0) == pytest.approx(0.15)

    def test_bcm_hand_value(self):
        # gamma -> huge turns the sigmoid into a hard threshold at delta
        x = np.array([0.0, 0.3, 0.9])
        val = bcm_rhs(x, delta=0.5, gamma=1e6, u=0)
        assert val == pytest.approx(0.3 + 0.0, abs=1e-6)  # only the 0.3 neighbor passes

    def test_sbcm_hand_value(self):
        x = np.array([0.1, 0.5, -0.3])
        z = np.array([0.0, 0.75, 0.25])
        expected = 0.75 * (0.5 - 0.1) + 0.25 * (-0.3 - 0.1)
        assert sbcm_rhs(x, z, 0) == pytest.approx(expected)

    def test_vectorized_degroot_matches_scalar(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 7)
        m = rng.standard_normal((7, 3))
        q = rng.standard_normal((7, 3))
        all_vals = degroot_rhs_all(x, m, q)
        for u in range(7):
            assert all_vals[u] == pytest.approx(degroot_rhs(x, m, q, u))

    def test_vectorized_fj_matches_scalar(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 6)
        innate = rng.uniform(-1, 1, 6)
        s = rng.uniform(0, 1, 6)
        all_vals = fj_rhs_all(x, innate, s)
        for u in range(6):
            assert all_vals[u] == pytest.approx(fj_rhs(x, innate, s, u))

    def test_vectorized_bcm_matches_scalar(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 5)
        all_vals = bcm_rhs_all(Tensor(x), 0.4, 8.0).data
        for u in range(5):
            assert all_vals[u] == pytest.approx(bcm_rhs(x, 0.4, 8.0, u))

    def test_vectorized_sbcm_matches_scalar(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 5)
        z = rng.dirichlet(np.ones(5), size=5)
        all_vals = sbcm_rhs_all(x, z)
        for u in range(5):
            assert all_vals[u] == pytest.approx(sbcm_rhs(x, z[u], u))


class TestGumbelSoftmax:
    def test_samples_on_simplex(self):
        rng = np.random.default_rng(0)
        p = np.array([0.2, 0.3, 0.5])
        for _ in range(100):
            z = gumbel_softmax(Tensor(p), 0.5, gumbel_noise(rng, p.shape)).data
            assert np.all(z >= 0)
            assert z.sum() == pytest.approx(1.0)

    def test_low_temperature_matches_gumbel_max_oracle(self):
        """At tau -> 0 the argmax of the relaxed sample must have the same
        distribution as argmax(log p + g) computed directly."""
        rng = np.random.default_rng(1)
        p = np.array([0.2, 0.3, 0.5])
        n = 20_000
        noise = gumbel_noise(rng, (n, 3))
        relaxed = gumbel_softmax(Tensor(np.tile(p, (n, 1))), tau=0.1, noise=noise).data
        oracle_pick = np.argmax(np.log(p) + noise, axis=1)
        np.testing.assert_array_equal(relaxed.argmax(axis=1), oracle_pick)
        freq = np.bincount(oracle_pick, minlength=3) / n
        assert np.abs(freq - p).max() < 0.02

    def test_differentiable_in_probabilities(self):
        p = Tensor(np.array([0.2, 0.3, 0.5]), requires_grad=True)
        noise = gumbel_noise(np.random.default_rng(2), (3,))
        z = gumbel_softmax(p, tau=0.5, noise=noise)
        (z * np.array([1.0, 2.0, 3.0])).sum().backward()
        assert p.grad is not None
        assert np.all(np.isfinite(p.grad))

    def test_zero_probability_floored(self):
        z = gumbel_softmax(Tensor(np.array([0.0, 1.0])), tau=0.5, noise=np.zeros(2)).data
        assert np.all(np.isfinite(z))
        assert z[1] > z[0]

    def test_batched_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(4), size=6)
        noise = gumbel_noise(rng, (6, 4))
        z = gumbel_softmax(Tensor(p), tau=0.3, noise=noise).data
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)


class TestPartnerMatrix:
    """The trainer's differentiable partner matrix against the simulator's
    per-user probabilities."""

    def test_matrix_matches_per_user(self):
        x = np.array([[0.1, -0.4, 0.7, 0.3], [0.15, -0.3, 0.6, -0.9]])
        rho = Tensor(np.array(0.8))
        expected = np.array([[sbcm_partner_probs(row, u, rho=0.8) for u in range(4)] for row in x])
        np.testing.assert_allclose(sbcm_partner_matrix(Tensor(x[0]), rho).data, expected[0], atol=1e-12)
        np.testing.assert_allclose(sbcm_partner_matrix(Tensor(x), rho).data, expected, atol=1e-12)

    def test_gradient_in_rho_and_opinions(self):
        x0 = np.array([[0.15, -0.3, 0.6, 0.05, -0.9], [0.4, -0.1, 0.8, -0.6, 0.2]])
        rho0 = np.array(0.7)
        target = np.random.default_rng(4).standard_normal((2, 5, 5))

        def loss(x, rho):
            return (sbcm_partner_matrix(x, rho) * target).sum()

        def central_difference(f, base, eps=1e-6):
            grad = np.zeros(base.shape)
            for i in np.ndindex(base.shape):
                up, down = base.copy(), base.copy()
                up[i] += eps
                down[i] -= eps
                grad[i] = (f(up) - f(down)) / (2 * eps)
            return grad

        x, rho = Tensor(x0, requires_grad=True), Tensor(rho0, requires_grad=True)
        loss(x, rho).backward()
        fd_x = central_difference(lambda v: loss(Tensor(v), Tensor(rho0)).item(), x0)
        fd_rho = central_difference(lambda v: loss(Tensor(x0), Tensor(v)).item(), rho0)
        np.testing.assert_allclose(x.grad, fd_x, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(rho.grad, fd_rho, rtol=1e-5, atol=1e-8)


LANDSCAPE_RHOS = (-2.0, -1.0, 0.0, 0.05, 0.5, 1.0, 2.0, 4.0, 8.0)


@cache
def consensus_steps():
    """Opinions and one-step differences of the first 15 steps of the
    consensus generator (U=50, T=100, k=5, so mu*k/U = 0.01), seeds 0-2,
    stacked as (45, U) rows."""
    xs, dxs = [], []
    for seed in range(3):
        config = preset_config("consensus", num_users=50, num_steps=100, initiators_per_step=5, seed=seed)
        traj = generate_sbcm_dataset(config)[2]
        xs.append(traj[:, :15].T)
        dxs.append(np.diff(traj[:, :16]).T)
    return np.concatenate(xs), np.concatenate(dxs)


LANDSCAPE_SCALES = (0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0)


def euler_rollout(rhs, x0, num_steps: int, step: float):
    """Explicit Euler rollout of the scalar oracle `rhs(x, u)` from `x0`:
    the opinions before each step, (num_steps, U), and the one-step
    differences divided by `step` as dx/dt."""
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(num_steps):
        xs.append(xs[-1] + step * np.array([rhs(xs[-1], u) for u in range(len(x0))]))
    return np.array(xs[:-1]), np.diff(xs, axis=0) / step


def model_residual(variant: str, raw_leaves: dict, x, dx, innate=None) -> float:
    """Summed squared residual dx - ode_rhs_all of a `variant` model whose
    raw ODE leaves (and `fj` anchors) are set to the given values."""
    num_users = x.shape[1]
    m = build_model(tiny_dataset(num_users=num_users), tiny_profiles(num_users),
                    TrainConfig(variant=variant, num_layers=1, width=3, embed_dim=4))
    m.innate = innate
    for name, value in raw_leaves.items():
        m.ode[name].data = np.asarray(value, dtype=float)
    r = dx - ode_rhs_all(m, Tensor(x)).data
    return float((r * r).sum())


class TestResidualLandscape:
    """The ODE residual on a generator's own trajectory, with one-step
    differences as dx/dt, must be smallest at the generating parameters.
    Nothing is trained."""

    @pytest.mark.parametrize("rate", [
        pytest.param(0.01, id="rate-mu-k-over-U"),
        pytest.param(1.0, id="unit-rate", marks=pytest.mark.xfail(
            strict=True, reason="the sbcm right-hand side has no rate, so the slow data favour "
                                "the largest rho (ROADMAP item 13)")),
    ])
    def test_sbcm_residual_smallest_at_generating_rho(self, rate):
        x, dx = consensus_steps()
        residuals = []
        for rho in LANDSCAPE_RHOS:
            r = dx - rate * sbcm_rhs_all(x, sbcm_partner_matrix(Tensor(x), rho).data)
            residuals.append(float((r * r).sum()))
        assert LANDSCAPE_RHOS[int(np.argmin(residuals))] == -1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degroot_residual_smallest_at_generating_factors(self, seed):
        """DeGroot rollout from a = M Q^T (U=20, K=2, 30 steps): over scales
        c of M the residual is smallest at c = 1, where only rounding is
        left, and the swapped factors (a^T) do worse than predicting no
        change at all, so the model's orientation of a is the generator's."""
        rng = np.random.default_rng(seed)
        m, q = (rng.standard_normal((20, 2)) * 0.1 for _ in range(2))
        trajectory = generate_degroot_dataset(20, 31, m @ q.T, seed=seed)[1]
        x, dx = trajectory[:, :-1].T, np.diff(trajectory).T
        residuals = [float(((dx - degroot_rhs_all(x, c * m, q)) ** 2).sum()) for c in LANDSCAPE_SCALES]
        assert LANDSCAPE_SCALES[int(np.argmin(residuals))] == 1.0
        assert residuals[LANDSCAPE_SCALES.index(1.0)] < 1e-20
        assert ((dx - degroot_rhs_all(x, q, m)) ** 2).sum() > (dx * dx).sum()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fj_residual_smallest_at_generating_susceptibility(self, seed):
        """FJ rollout (U=6, step 0.1, 40 steps, s_u in [0.05, 0.15],
        anchored at the initial opinions): over scales c of s, with
        raw_s = logit(c s), the residual is smallest at c = 1, where only
        rounding is left."""
        rng = np.random.default_rng(seed)
        x0, s = rng.uniform(-1.0, 1.0, 6), rng.uniform(0.05, 0.15, 6)
        x, dx = euler_rollout(lambda x, u: fj_rhs(x, x0, s, u), x0, 40, 0.1)
        residuals = [model_residual("fj", {"raw_s": np.log(c * s) - np.log1p(-c * s)}, x, dx, innate=x0)
                     for c in LANDSCAPE_SCALES]
        assert LANDSCAPE_SCALES[int(np.argmin(residuals))] == 1.0
        assert residuals[LANDSCAPE_SCALES.index(1.0)] < 1e-20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scaled", ["raw_delta", "raw_gamma"])
    def test_bcm_residual_smallest_at_generating_bound_and_slope(self, seed, scaled):
        """BCM rollout (U=8, step 0.05, 40 steps, delta in [0.3, 0.8], gamma
        in [2, 8]): scaling one of delta and gamma by c, with each raw leaf
        the inverse softplus of its value, the residual is smallest at
        c = 1, where only rounding is left."""
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0, 8)
        truth = {"raw_delta": rng.uniform(0.3, 0.8), "raw_gamma": rng.uniform(2.0, 8.0)}
        x, dx = euler_rollout(lambda x, u: bcm_rhs(x, truth["raw_delta"], truth["raw_gamma"], u), x0, 40, 0.05)
        residuals = [model_residual("bcm", {name: np.log(np.expm1(c * value if name == scaled else value))
                                            for name, value in truth.items()}, x, dx)
                     for c in LANDSCAPE_SCALES]
        assert LANDSCAPE_SCALES[int(np.argmin(residuals))] == 1.0
        assert residuals[LANDSCAPE_SCALES.index(1.0)] < 1e-20


class TestSigmoid:
    def test_matches_logistic(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(model_mod._sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)), atol=1e-12)

    def test_extreme_inputs_finite(self):
        with np.errstate(over="raise"):
            assert np.isfinite(model_mod._sigmoid(Tensor(np.array([-1e4, 1e4]))).data).all()


class TestSoftplus:
    POINTS = [-800.0, -3.0, 0.0, 0.3, 3.0, 800.0]

    @pytest.mark.parametrize("x", POINTS)
    def test_value_finite_and_exact(self, x):
        with np.errstate(over="raise"):
            got = model_mod._softplus(Tensor(x)).item()
        assert got == pytest.approx(np.logaddexp(0.0, x), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("x", POINTS)
    def test_gradient_matches_finite_difference(self, x):
        leaf = Tensor(x, requires_grad=True)
        model_mod._softplus(leaf).backward()
        eps = 1e-6
        fd = (np.logaddexp(0.0, x + eps) - np.logaddexp(0.0, x - eps)) / (2 * eps)
        assert leaf.grad == pytest.approx(fd, rel=1e-8, abs=1e-12)
        assert leaf.grad == pytest.approx(0.5 * (1.0 + np.tanh(x / 2)), rel=1e-14, abs=1e-300)


class TestOdeParams:
    def test_reparameterized_initial_values(self):
        leaves = init_ode_leaves("bcm", 4, 2, np.random.default_rng(0))
        assert list(leaves) == ["raw_delta", "raw_gamma"]
        assert model_mod._softplus(leaves["raw_delta"]).item() == pytest.approx(0.5)
        assert model_mod._softplus(leaves["raw_gamma"]).item() == pytest.approx(10.0)

    def test_susceptibility_in_unit_interval(self):
        leaves = init_ode_leaves("fj", 5, 2, np.random.default_rng(0))
        leaves["raw_s"].data = np.array([-50.0, -1.0, 0.0, 1.0, 50.0])
        s = model_mod._sigmoid(leaves["raw_s"]).data
        assert np.all((s >= 0) & (s <= 1))
        assert s[2] == pytest.approx(0.5)

    def test_dict_round_trip(self, tmp_path):
        """A checkpoint gives back the saved factors, not ones drawn afresh."""
        m = build_model(tiny_dataset(num_users=3), tiny_profiles(3),
                        TrainConfig(variant="degroot", latent_dim=2, num_layers=1, width=3, embed_dim=4, seed=1))
        save_model(m, tmp_path / "checkpoint.json")
        loaded = load_model(tmp_path / "checkpoint.json", tiny_profiles(3))
        assert list(loaded.ode) == ["m_factors", "q_factors"]
        for name in ("m_factors", "q_factors"):
            np.testing.assert_array_equal(loaded.ode[name].data, m.ode[name].data)
            assert loaded.ode[name].requires_grad


class TestLosses:
    def setup_method(self):
        self.ds = tiny_dataset()
        self.profiles = tiny_profiles()

    def test_data_loss_matches_hand_cross_entropy(self):
        cfg = TrainConfig(variant="sbcm", num_layers=1, width=3, embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        loss = data_loss(m, users, times, labels, m.encoding.encode_all(m.context))
        probs = m.predict_proba(users, times)
        expected = -np.mean(np.log(probs[np.arange(len(labels)), labels]))
        assert loss.item() == pytest.approx(expected, rel=1e-10)

    def test_alpha_zero_reduces_to_data_loss(self):
        """With both loss weights at zero the composite loss is bit-identical
        to the plain cross-entropy term."""
        cfg = TrainConfig(variant="sbcm", alpha=0.0, beta=0.0, num_layers=1,
                          width=3, embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        prof = m.encoding.encode_all(m.context)
        composite, parts = total_loss(m, users, times, labels, np.array([1.0]))
        plain = data_loss(m, users, times, labels, prof)
        assert composite.item() == plain.item()
        assert parts["ode"] == 0.0
        assert parts["reg"] == 0.0

    def test_ode_term_increases_loss(self):
        cfg = TrainConfig(variant="fj", alpha=5.0, beta=0.0, num_layers=1,
                          width=3, embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        composite, parts = total_loss(m, users, times, labels, np.array([1.0, 3.0]))
        assert composite.item() == pytest.approx(parts["data"] + 5.0 * parts["ode"])
        assert parts["ode"] > 0

    def test_l1_term_only_for_factorized_variant(self):
        cfg = TrainConfig(variant="degroot", alpha=0.0, beta=1.0, num_layers=1,
                          width=3, embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        _, parts = total_loss(m, users, times, labels, np.array([1.0]))
        expected = np.abs(m.ode["m_factors"].data).sum() + np.abs(m.ode["q_factors"].data).sum()
        assert parts["reg"] == pytest.approx(expected)

    def test_sbcm_requires_noise(self):
        cfg = TrainConfig(variant="sbcm", alpha=1.0, num_layers=1, width=3,
                          embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        with pytest.raises(ValueError):
            total_loss(m, users, times, labels, np.array([1.0]), noise_per_point=None)

    @pytest.mark.parametrize("user, label", [(-1, 0), (2, 0), (1.5, 0), (0, -1), (0, 3)],
                             ids=["user-1", "user-U", "user-1.5", "label-1", "label-C"])
    def test_data_loss_refuses_bad_user_or_label(self, user, label):
        """A user id or label outside the model's range (or not an integer)
        raises instead of being scored: -1 would read the last class or, for
        a user, W_0's time row."""
        ds = tiny_dataset(num_users=2)
        m = build_model(ds, tiny_profiles(2), TrainConfig(variant="fj", num_layers=1, width=3,
                                                          embed_dim=4, seed=0))
        with pytest.raises(ValueError, match="out of range"):
            data_loss(m, np.array([0, user]), np.array([1.0, 2.0]), np.array([1, label]),
                      m.encoding.encode_all(m.context))

    def test_divergence_detected(self):
        cfg = TrainConfig(variant="fj", alpha=1.0, num_layers=1, width=3,
                          embed_dim=4, seed=0)
        m = build_model(self.ds, self.profiles, cfg)
        m.head_w.data = np.full_like(m.head_w.data, np.nan)
        users, times, labels = self.ds.users(), self.ds.times(), self.ds.labels()
        with pytest.raises(TrainingDiverged):
            total_loss(m, users, times, labels, np.array([1.0]))


def per_point_ode_loss(m, times, profile_matrix, noise):
    """ode_loss as a loop over collocation points on (U,) opinion vectors."""
    total = 0.0
    for j, t in enumerate(times):
        x_hat, dx_dt = network.forward_with_time_derivative(
            m.fnn, np.full(m.num_users, t), np.arange(m.num_users), profile_matrix, m.time_scale)
        residual = dx_dt - ode_rhs_all(m, x_hat, noise[j])
        total = (residual * residual).sum() + total
    return total / float(len(times))


class TestBatchedOdeLoss:
    """All collocation points in one pass against the per-point loop: loss
    and every parameter gradient within 1e-12 relative, for one step."""

    @pytest.mark.parametrize("variant", ["degroot", "fj", "bcm", "sbcm"])
    @pytest.mark.parametrize("num_points", [1, 3])
    def test_matches_per_point_loop(self, variant, num_points):
        rng = np.random.default_rng(num_points)
        ds = tiny_dataset(num_users=5)
        cfg = TrainConfig(variant=variant, num_layers=2, width=6, embed_dim=4, seed=1)
        m = build_model(ds, tiny_profiles(5), cfg)
        for p in m.parameters():
            p.data = np.asarray(p.data + rng.normal(scale=0.1, size=p.data.shape))
        times = rng.uniform(0, ds.horizon, size=num_points)
        noise = model_mod.gumbel_noise(rng, (num_points, 5, 5))

        results = []
        for loss_fn in (ode_loss, per_point_ode_loss):
            for p in m.parameters():
                p.grad = None
            loss = loss_fn(m, times, m.encoding.encode_all(m.context), noise)
            loss.backward()
            results.append((loss.item(), [p.grad for p in m.parameters()]))
        (batched, g_batched), (looped, g_looped) = results
        assert batched == pytest.approx(looped, rel=1e-12, abs=0)
        for i, (a, b) in enumerate(zip(g_batched, g_looped)):
            if b is None:  # parameters the ODE term does not touch
                assert a is None, i
                continue
            assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1e-300), i


class TestTapeLifetime:
    @pytest.mark.parametrize("variant", ["degroot", "fj", "bcm", "sbcm"])
    def test_step_graph_freed_without_cycle_collector(self, variant):
        """Dropping the loss frees the whole tape by reference counting."""
        ds = tiny_dataset()
        m = build_model(ds, tiny_profiles(), TrainConfig(variant=variant, num_layers=2, width=4,
                                                         embed_dim=4, seed=0))
        opt = Adam(m.parameters())
        noise = model_mod.gumbel_noise(np.random.default_rng(0), (2, 4, 4))
        gc.disable()
        try:
            loss, _ = total_loss(m, ds.users(), ds.times(), ds.labels(), np.array([1.0, 2.5]), noise)
            opt.zero_grad()
            loss.backward()
            opt.step()
            interior = [weakref.ref(loss)]
            todo = list(loss._parents)
            while todo:
                node = todo.pop()
                if node._parents:
                    interior.append(weakref.ref(node))
                    todo.extend(node._parents)
            del node
            assert len(interior) > 10
            assert all(r() is not None for r in interior)
            del loss
            assert [r for r in interior if r() is not None] == []
        finally:
            gc.enable()


class TestEmptyCorpusSkip:
    def test_zero_profiles_without_encoder(self):
        ds = tiny_dataset()
        m = build_model(ds, ProfileCorpus({}), TrainConfig(num_layers=1, width=3, embed_dim=4))
        assert m.encoding.empty
        h = m.encoding.encode_all(m.context)
        assert isinstance(h, np.ndarray)
        np.testing.assert_array_equal(h, np.zeros((4, 4)))

    def test_training_bitwise_identical_to_encoder_path(self, monkeypatch):
        ds = tiny_dataset()
        splits = chronological_split(ds, SplitSpec(0.6, 0.4, 0.0))
        cfg = TrainConfig(variant="sbcm", epochs=4, num_layers=2, width=4, embed_dim=4,
                          batch_size=8, seed=3)
        skipped, h_skipped = train(splits, ProfileCorpus({}), cfg)
        fresh = build_model(splits[0], ProfileCorpus({}), cfg)
        monkeypatch.setattr(encoder.CorpusEncoding, "encode_all",
                            lambda self, context: encoder.attention_pool(self.word_vectors, self.masks, context))
        encoded, h_encoded = train(splits, ProfileCorpus({}), cfg)
        assert h_skipped == h_encoded
        for a, b in zip(skipped.parameters(), encoded.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(skipped.context.data, fresh.context.data)


class TestTraining:
    def test_loss_decreases_on_separable_problem(self):
        """Users with fixed opposite labels: the data loss must fall."""
        posts = [(u, float(t), 0 if u < 2 else 2) for t in range(8) for u in range(4)]
        ds = OpinionDataset(*zip(*posts), 4, 3, 8.0)
        splits = chronological_split(ds, SplitSpec(0.7, 0.3, 0.0))
        cfg = TrainConfig(variant="sbcm", alpha=0.5, beta=0.0, epochs=300,
                          learning_rate=0.01, num_layers=1, width=6, embed_dim=4,
                          batch_size=16, seed=0)
        m, history = train(splits, tiny_profiles(), cfg)
        assert history[-1].data_loss < 0.5 * history[0].data_loss
        preds = m.predict_proba(splits[0].users(), splits[0].times()).argmax(axis=1)
        assert (preds == splits[0].labels()).mean() > 0.9

    def test_history_structure(self):
        ds = tiny_dataset()
        splits = chronological_split(ds, SplitSpec(0.6, 0.4, 0.0))
        cfg = TrainConfig(epochs=3, num_layers=1, width=3, embed_dim=4, seed=0)
        _, history = train(splits, tiny_profiles(), cfg)
        assert [h.epoch for h in history] == [1, 2, 3]
        assert all(np.isfinite(h.total) for h in history)

    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        splits = chronological_split(ds, SplitSpec(0.6, 0.4, 0.0))
        cfg = TrainConfig(epochs=3, num_layers=1, width=3, embed_dim=4, seed=5)
        m1, h1 = train(splits, tiny_profiles(), cfg)
        m2, h2 = train(splits, tiny_profiles(), cfg)
        assert h1 == h2
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_empty_validation_keeps_last_epoch(self):
        """With no validation posts there is no F1 to select on: the run
        returns its last epoch, not its first."""
        ds = tiny_dataset()
        splits = chronological_split(ds, SplitSpec(0.7, 0.0, 0.3))
        assert len(splits[1]) == 0
        assert model_mod.selection_rule(splits[1]) == "last_epoch"
        cfg = TrainConfig(variant="fj", epochs=1, num_layers=1, width=3, embed_dim=4, seed=0)
        short, _ = train(splits, tiny_profiles(), cfg)
        long, _ = train(splits, tiny_profiles(), TrainConfig.from_dict({**cfg.to_dict(), "epochs": 30}))
        assert any(not np.array_equal(a.data, b.data)
                   for a, b in zip(short.parameters(), long.parameters()))


def assert_load_names_field(tmp_path, variant, edit, field):
    """A saved checkpoint changed by `edit` fails to load with ValueError naming `field`."""
    cfg = TrainConfig(variant=variant, num_layers=1, width=3, embed_dim=4, seed=0)
    path = tmp_path / "checkpoint.json"
    save_model(build_model(tiny_dataset(), tiny_profiles(), cfg), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"'{field}'")):
        load_model(path, tiny_profiles())


class TestPredictAndCheckpoint:
    def test_predict_returns_distribution(self):
        ds = tiny_dataset()
        cfg = TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0)
        m = build_model(ds, tiny_profiles(), cfg)
        probs = m.predict_proba([2], [3.5])[0]
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)

    def test_predict_unknown_user(self):
        ds = tiny_dataset()
        m = build_model(ds, tiny_profiles(), TrainConfig(num_layers=1, width=3,
                                                         embed_dim=4, seed=0))
        with pytest.raises(ValueError):
            m.predict_proba([99], [1.0])

    def test_predict_unknown_user_with_profiles(self, tmp_path):
        ds = tiny_dataset()
        m = build_model(ds, tiny_profiles(), TrainConfig(num_layers=1, width=3,
                                                         embed_dim=4, seed=0))
        save_model(m, tmp_path / "checkpoint.json")
        loaded = load_model(tmp_path / "checkpoint.json", tiny_profiles())
        for user in (99, -1):
            with pytest.raises(ValueError):
                loaded.predict_proba([user], [1.0])

    @pytest.mark.parametrize("users", [[1.5], [True], [1.0], ["1"], [-1], [4]],
                             ids=["float", "bool", "integral-float", "str", "negative", "U"])
    def test_predict_proba_refuses_non_integer_or_unknown_id(self, users):
        """An id that is not an integer in [0, U) raises instead of being
        truncated or cast to another user's id."""
        m = tiny_model()
        with pytest.raises(ValueError, match="user id out of range"):
            m.predict_proba(users, [1.0])

    def test_predict_refuses_float_id(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="user id out of range"):
            m.predict_proba([2.7], [1.0])

    @pytest.mark.parametrize("users, times", [([0, 1], [1.0]), ([0], [1.0, 2.0]), ([[0, 1]], [[1.0, 2.0]])],
                             ids=["more-ids", "more-times", "2-d"])
    def test_predict_proba_refuses_mismatched_shapes(self, users, times):
        m = tiny_model()
        with pytest.raises(ValueError, match="equal length"):
            m.predict_proba(users, times)

    def test_predict_proba_accepts_any_integer_dtype(self):
        m = tiny_model()
        want = m.predict_proba([0, 3, 1], [1.0, 2.0, 0.5])
        for dtype in (np.int32, np.uint8, np.int64):
            np.testing.assert_array_equal(
                m.predict_proba(np.array([0, 3, 1], dtype=dtype), [1.0, 2.0, 0.5]), want)
        np.testing.assert_array_equal(m.predict_proba(3, 2.0), want[1:2])

    def test_profile_override_matches_predict_proba(self, tmp_path):
        """Reloading with the profiles the model was built with predicts bit for bit alike."""
        ds = tiny_dataset()
        profiles = tiny_profiles()
        m = build_model(ds, profiles, TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0))
        save_model(m, tmp_path / "checkpoint.json")
        loaded = load_model(tmp_path / "checkpoint.json", profiles)
        np.testing.assert_array_equal(loaded.predict_proba([1], [2.0]), m.predict_proba([1], [2.0]))

    def test_profile_override_changes_output(self, tmp_path):
        ds = tiny_dataset()
        m = build_model(ds, tiny_profiles(), TrainConfig(num_layers=1, width=3,
                                                         embed_dim=4, seed=0))
        save_model(m, tmp_path / "checkpoint.json")
        swapped = load_model(tmp_path / "checkpoint.json", ProfileCorpus({0: "completely different words"}))
        assert not np.allclose(m.predict_proba([0], [2.0]), swapped.predict_proba([0], [2.0]))

    def test_save_load_round_trip(self, tmp_path):
        ds = tiny_dataset()
        profiles = tiny_profiles()
        for variant in ("degroot", "fj", "bcm", "sbcm"):
            cfg = TrainConfig(variant=variant, num_layers=1, width=3, embed_dim=4, seed=0)
            m = build_model(ds, profiles, cfg)
            path = tmp_path / f"{variant}.json"
            save_model(m, path)
            loaded = load_model(path, profiles)
            users, times = ds.users(), ds.times()
            np.testing.assert_allclose(loaded.predict_proba(users, times),
                                       m.predict_proba(users, times), atol=1e-12)

    def test_checkpoint_weight_rows_are_time_users_profile(self, tmp_path):
        """The raw checkpoint's first weight matrix, applied to the one-hot
        input [t / horizon, one-hot(user), profile], gives what the loaded
        model predicts: checkpoints keep W_0's row order."""
        ds = tiny_dataset(num_users=5)
        profiles = tiny_profiles(5)
        m, _ = train((ds, ds), profiles, TrainConfig(variant="bcm", num_layers=2, width=4, embed_dim=3,
                                                     epochs=3, seed=4))
        save_model(m, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        loaded = load_model(tmp_path / "model.json", profiles)
        users, times = ds.users(), ds.times()
        pooled = loaded.encoding.encode_all(loaded.context).data
        a = np.concatenate([times[:, None] / doc["horizon"], np.eye(doc["num_users"])[users], pooled[users]],
                           axis=1)
        for w, b in zip(doc["fnn"]["weights"], doc["fnn"]["biases"]):
            a = np.tanh(a @ np.array(w) + np.array(b))
        logits = a * np.array(doc["head_w"]) + np.array(doc["head_b"])
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(loaded.predict_proba(users, times), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant, edit, field", [
        pytest.param("sbcm", lambda d: d.update(num_users=6), "fnn.weights", id="num_users"),
        pytest.param("sbcm", lambda d: d.update(num_classes=4), "head_w", id="num_classes"),
        pytest.param("sbcm", lambda d: d["head_b"].append(0.0), "head_b", id="head_b"),
        pytest.param("sbcm", lambda d: d["config"].update(embed_dim=5), "context", id="embed_dim"),
        pytest.param("sbcm", lambda d: d["config"].update(width=4), "fnn.weights", id="width"),
        pytest.param("sbcm", lambda d: d["config"].update(num_layers=2), "fnn.weights", id="num_layers"),
        pytest.param("sbcm", lambda d: d["fnn"]["biases"][0].append(0.0), "fnn.biases", id="fnn_bias"),
        pytest.param("sbcm", lambda d: d["ode"].update(rho=[0.0, 1.0]), "ode.rho", id="rho"),
        pytest.param("degroot", lambda d: d["config"].update(latent_dim=3), "ode.m_factors", id="latent_dim"),
        pytest.param("degroot", lambda d: d["ode"]["q_factors"].pop(), "ode.q_factors", id="q_factors"),
        pytest.param("fj", lambda d: d["ode"]["raw_s"].pop(), "ode.raw_s", id="raw_s"),
        pytest.param("fj", lambda d: d["ode"]["innate"].append(0.0), "ode.innate", id="innate"),
        pytest.param("bcm", lambda d: d["ode"].update(raw_gamma=[1.0]), "ode.raw_gamma", id="raw_gamma"),
    ])
    def test_load_rejects_shape_mismatch(self, tmp_path, variant, edit, field):
        assert_load_names_field(tmp_path, variant, edit, field)

    @pytest.mark.parametrize("variant, edit, field", [
        pytest.param("sbcm", lambda d: d.update(ode=[0.0]), "ode", id="ode_list"),
        pytest.param("sbcm", lambda d: d["ode"].pop("rho"), "ode.rho", id="ode_lacks_rho"),
        pytest.param("fj", lambda d: d["ode"].pop("innate"), "ode.innate", id="ode_lacks_innate"),
        pytest.param("degroot", lambda d: d["ode"].pop("q_factors"), "ode.q_factors", id="ode_lacks_q"),
        *[pytest.param("sbcm", lambda d, key=key: d.pop(key), key, id=f"lacks_{key}")
          for key in ("config", "num_users", "num_classes", "horizon", "fnn", "head_w", "head_b",
                      "context", "ode", "vocabulary")],
        pytest.param("sbcm", lambda d: d["vocabulary"].reverse(), "vocabulary", id="vocabulary_unsorted"),
        pytest.param("sbcm", lambda d: d["vocabulary"].append(7), "vocabulary", id="vocabulary_number"),
        pytest.param("sbcm", lambda d: d.update(vocabulary="text"), "vocabulary", id="vocabulary_text"),
        pytest.param("sbcm", lambda d: d["fnn"].pop("biases"), "fnn.biases", id="fnn_lacks_biases"),
        pytest.param("sbcm", lambda d: d.update(fnn=[]), "fnn", id="fnn_list"),
        pytest.param("sbcm", lambda d: d["config"].update(warp_speed=True), "config", id="config_unknown_key"),
        pytest.param("sbcm", lambda d: d["config"].pop("seed"), "config.seed", id="config_lacks_seed"),
        pytest.param("sbcm", lambda d: d["config"].update(variant="magnetic"), "config", id="config_bad_value"),
        pytest.param("sbcm", lambda d: d.update(config=[]), "config", id="config_list"),
        pytest.param("sbcm", lambda d: d.update(num_users="4"), "num_users", id="num_users_text"),
        pytest.param("sbcm", lambda d: d.update(num_classes=0), "num_classes", id="num_classes_zero"),
        pytest.param("sbcm", lambda d: d.update(horizon=-1.0), "horizon", id="horizon_negative"),
        pytest.param("sbcm", lambda d: d.update(head_w=["a", "b", "c"]), "head_w", id="head_w_text"),
        pytest.param("sbcm", lambda d: d["head_w"].__setitem__(0, float("nan")), "head_w", id="head_w_nan"),
        pytest.param("sbcm", lambda d: d["fnn"]["weights"][0][0].__setitem__(0, float("inf")), "fnn.weights",
                     id="fnn_inf"),
        pytest.param("sbcm", lambda d: d["fnn"].update(weights=[[1.0], [1.0, 2.0]]), "fnn.weights",
                     id="fnn_ragged"),
        # 10**400 is valid JSON beyond any float; sizes that large must fail before any allocation.
        pytest.param("sbcm", lambda d: d.update(horizon=10 ** 400), "horizon", id="horizon_huge"),
        pytest.param("sbcm", lambda d: d["head_w"].__setitem__(0, 10 ** 400), "head_w", id="head_w_huge"),
        pytest.param("sbcm", lambda d: d["config"].update(width=10 ** 400), "fnn.weights", id="width_huge"),
        pytest.param("sbcm", lambda d: d["config"].update(embed_dim=10 ** 400), "context", id="embed_dim_huge"),
        pytest.param("sbcm", lambda d: d.update(num_users=10 ** 400), "fnn.weights", id="num_users_huge"),
    ])
    def test_load_rejects_malformed(self, tmp_path, variant, edit, field):
        assert_load_names_field(tmp_path, variant, edit, field)

    def test_load_keeps_saved_vocabulary(self, tmp_path):
        """Editing one user's profile after saving changes only that user's
        predictions: the checkpoint pins the embedding table."""
        ds = tiny_dataset()
        m = build_model(ds, tiny_profiles(), TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0))
        path = tmp_path / "checkpoint.json"
        save_model(m, path)
        edited = ProfileCorpus({**tiny_profiles().descriptions, 0: "aardvark text"})
        loaded = load_model(path, edited)
        others = ds.users() != 0
        users, times = ds.users()[others], ds.times()[others]
        np.testing.assert_array_equal(loaded.predict_proba(users, times), m.predict_proba(users, times))
        assert not np.array_equal(loaded.predict_proba([0], [1.0]), m.predict_proba([0], [1.0]))

    def test_load_checks_degroot_factors_before_sizing_them(self, tmp_path):
        """A `latent_dim` of 10**9 would size factors of about 30 GB; the
        saved arrays are compared first, so loading under a 4 GB
        address-space limit raises ValueError instead of MemoryError."""
        cfg = TrainConfig(variant="degroot", num_layers=1, width=3, embed_dim=4, seed=0)
        path = tmp_path / "checkpoint.json"
        save_model(build_model(tiny_dataset(), tiny_profiles(), cfg), path)
        doc = json.loads(path.read_text())
        doc["config"]["latent_dim"] = 10 ** 9
        path.write_text(json.dumps(doc))
        script = textwrap.dedent("""
            import resource, sys
            from opinionlab.data import ProfileCorpus
            from opinionlab.model import load_model
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
            try:
                load_model(sys.argv[1], ProfileCorpus({}))
            except ValueError as err:
                print(err)
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "'ode.m_factors' has shape (4, 2), expected (4, 1000000000)" in done.stdout

    def test_load_rejects_context_that_overflows_pooling(self, tmp_path):
        """Finite context entries near the float limit overflow the attention
        scores; loading raises ValueError rather than a model whose every
        prediction fails."""
        cfg = TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0)
        path = tmp_path / "checkpoint.json"
        save_model(build_model(tiny_dataset(), tiny_profiles(), cfg), path)
        doc = json.loads(path.read_text())
        doc["context"] = [-1.4e308, 0.08, -1.4e308, -0.13]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'context' gives non-finite"):
            load_model(path, tiny_profiles())

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_model(path, tiny_profiles())

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        ds = tiny_dataset()
        cfg = TrainConfig(num_layers=1, width=3, embed_dim=4, seed=0)
        m = build_model(ds, tiny_profiles(), cfg)
        save_model(m, tmp_path / "a.json")
        save_model(m, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_fj_innate_uses_first_train_posts(self):
        ds = OpinionDataset([0, 1, 0, 1], [0.0, 0.0, 1.0, 1.0], [0, 4, 2, 2], 2, 5, 2.0)
        m = build_model(ds, ProfileCorpus({}), TrainConfig(variant="fj", num_layers=1,
                                                           width=3, embed_dim=4, seed=0))
        np.testing.assert_allclose(m.innate, [-0.8, 0.8])


FUZZ_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10 ** 12) | st.sampled_from([2 ** 63, 10 ** 400])
                | st.floats() | st.text(max_size=4))
FUZZ_VALUES = st.recursive(FUZZ_SCALARS, lambda inner: st.lists(inner, max_size=4)
                           | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=8)


@cache
def saved_checkpoint(variant):
    cfg = TrainConfig(variant=variant, num_layers=1, width=3, embed_dim=4, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        save_model(build_model(tiny_dataset(), tiny_profiles(), cfg), path)
        return json.loads(path.read_text())


@st.composite
def edited_checkpoints(draw):
    """A saved checkpoint with one to three values replaced or deleted."""
    doc = copy.deepcopy(saved_checkpoint(draw(st.sampled_from(VARIANTS))))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.integers(0, 3)):
                node = node[key]
                continue
            if draw(st.integers(0, 3)):
                node[key] = draw(FUZZ_SCALARS | FUZZ_VALUES)
            else:
                del node[key]
            break
    return doc


class TestLoadModelProperty:
    @settings(max_examples=500, deadline=None)
    @given(edited_checkpoints() | FUZZ_VALUES)
    def test_any_json_loads_or_raises_value_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                loaded = load_model(path, tiny_profiles())
            except ValueError:
                return
        assert loaded.predict_proba([0], [1.0]).shape == (1, loaded.num_classes)
