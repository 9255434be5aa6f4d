"""Opinion simulators: partner sampling, update rules, and regime behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionlab import simulate
from opinionlab.data import discretize_opinion
from opinionlab.simulate import (
    SbcmGenConfig,
    cluster_summary,
    generate_degroot_dataset,
    generate_sbcm_dataset,
    preset_config,
    sbcm_partner_probs,
    step_sbcm,
)


def step_sbcm_choice(x, rng, config):
    """The generator step with its partner drawn by rng.choice: the oracle
    for step_sbcm's direct inverse-CDF draw.  Updates `x` in place and
    returns the (initiator, partner) pairs."""
    pairs = []
    initiators = rng.choice(config.num_users, size=config.initiators_per_step, replace=False)
    for u in initiators:
        v = int(rng.choice(config.num_users, p=sbcm_partner_probs(x, int(u), config.rho)))
        pairs.append((int(u), v))
        if config.update_rule == "attractive":
            x[u] = x[u] + config.mu * (x[v] - x[u])
        else:
            x[u] = x[u] + config.mu * x[v]
    return pairs


def run_generator(config, step):
    """generate_sbcm_dataset's loop with a given step function: (trajectory, log)."""
    rng = np.random.default_rng(config.seed)
    x = rng.uniform(*config.init_range, size=config.num_users)
    log = []
    trajectory = np.empty((config.num_users, config.num_steps))
    for t in range(config.num_steps):
        trajectory[:, t] = x
        log.append(step(x, rng, config))
    return trajectory, np.array(log, dtype=np.int64)


def assert_log_matches(gen_log, log, config):
    """The generator's log equals the oracle's, has the documented shape and
    dtype, and pairs no initiator with itself."""
    assert gen_log.dtype == np.int64
    assert gen_log.shape == (config.num_steps, config.initiators_per_step, 2)
    np.testing.assert_array_equal(gen_log, log)
    assert not np.any(gen_log[..., 0] == gen_log[..., 1])


class TestPartnerProbs:
    def test_rho_zero_is_uniform(self):
        p = sbcm_partner_probs(np.array([0.1, 0.4, -0.2, 0.9]), 0, rho=0.0)
        np.testing.assert_allclose(p, [0.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_hand_example_positive_rho(self):
        # x=[0, 0.5, 1.0], u=0, rho=1: weights 1/0.5=2 and 1/1=1 -> [2/3, 1/3]
        p = sbcm_partner_probs(np.array([0.0, 0.5, 1.0]), 0, rho=1.0)
        np.testing.assert_allclose(p, [0.0, 2 / 3, 1 / 3], atol=1e-12)

    def test_hand_example_negative_rho(self):
        # weights 0.5 and 1.0: the distant partner is favored
        p = sbcm_partner_probs(np.array([0.0, 0.5, 1.0]), 0, rho=-1.0)
        np.testing.assert_allclose(p, [0.0, 1 / 3, 2 / 3], atol=1e-12)

    @pytest.mark.parametrize("rho", [-5.0, -1.0, -0.1, 0.0, 0.5, 2.0, 5.0])
    def test_simplex_property(self, rho):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=int(rng.integers(2, 12)))
            u = int(rng.integers(0, x.size))
            p = sbcm_partner_probs(x, u, rho)
            assert p[u] == 0.0
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_coincident_opinions_no_singularity(self):
        p = sbcm_partner_probs(np.array([0.3, 0.3, 0.9]), 0, rho=2.0)
        assert np.all(np.isfinite(p))
        assert p[1] > p[2]  # the coincident partner is overwhelmingly preferred

    def test_sampled_frequencies_match(self):
        """Empirical partner frequencies over 50,000 draws track the stated
        distribution for a fixed 4-user state."""
        x = np.array([0.0, 0.2, 0.5, -0.8])
        p = sbcm_partner_probs(x, 0, rho=1.0)
        rng = np.random.default_rng(123)
        draws = rng.choice(4, size=50_000, p=p)
        freq = np.bincount(draws, minlength=4) / 50_000
        assert np.abs(freq - p).max() < 0.01

    def test_needs_two_users(self):
        with pytest.raises(ValueError):
            sbcm_partner_probs(np.array([0.5]), 0, rho=1.0)


class TestSbcmStep:
    def test_additive_update_example(self):
        # mu=0.1, x_u=0.5, partner at 1.0 -> 0.6
        cfg = SbcmGenConfig(num_users=2, initiators_per_step=1, mu=0.1,
                            rho=0.0, update_rule="additive", seed=0)
        before = np.array([0.5, 1.0])
        x = before.copy()
        pairs = step_sbcm(x, np.random.default_rng(1), cfg)
        moved = x != before
        assert moved.sum() == 1
        u = int(np.flatnonzero(moved)[0])
        assert pairs.tolist() == [[u, 1 - u]]
        assert x[u] == pytest.approx(before[u] + 0.1 * before[1 - u])

    def test_attractive_full_step_lands_on_partner(self):
        cfg = SbcmGenConfig(num_users=2, initiators_per_step=1, mu=1.0,
                            rho=0.0, update_rule="attractive", seed=0)
        x = np.array([0.0, 0.8])
        step_sbcm(x, np.random.default_rng(0), cfg)
        # whichever user initiated landed exactly on the other's opinion
        assert list(x) in ([0.8, 0.8], [0.0, 0.0])

    def test_attractive_equal_opinions_unchanged(self):
        cfg = SbcmGenConfig(num_users=3, initiators_per_step=2, mu=0.5, rho=1.0)
        x = np.full(3, 0.4)
        step_sbcm(x, np.random.default_rng(0), cfg)
        np.testing.assert_array_equal(x, 0.4)

    def test_attractive_convex_hull_invariant(self):
        cfg = SbcmGenConfig(num_users=30, initiators_per_step=10, mu=0.8, rho=0.5)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 30)
        lo, hi = x.min(), x.max()
        for _ in range(50):
            step_sbcm(x, rng, cfg)
            assert x.min() >= lo - 1e-12
            assert x.max() <= hi + 1e-12

    def test_log_records_initiators(self):
        cfg = SbcmGenConfig(num_users=10, initiators_per_step=4, rho=0.0)
        pairs = step_sbcm(np.linspace(-1, 1, 10), np.random.default_rng(0), cfg)
        assert pairs.shape == (4, 2)
        assert pairs.dtype == np.int64
        assert len(set(pairs[:, 0].tolist())) == 4
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_integer_opinions_refused(self):
        """The in-place update would truncate integer opinions."""
        cfg = SbcmGenConfig(num_users=3, initiators_per_step=1, mu=0.5, rho=0.0)
        with pytest.raises(TypeError, match="floats"):
            step_sbcm(np.array([0, 1, 2]), np.random.default_rng(0), cfg)

    @pytest.mark.parametrize("preset, rho", [
        *[pytest.param(name, None, id=name) for name in sorted(simulate.PRESETS)],
        pytest.param("polarization", 1.0, id="polarization-rho1.0"),
        pytest.param("clustering", 0.1, id="clustering-rho0.1"),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 13])
    def test_partner_draw_matches_rng_choice(self, preset, rho, seed):
        """The direct draw consumes the same stream as rng.choice: equal
        trajectories and interaction logs, bit for bit."""
        config = preset_config(preset, num_users=60, num_steps=80, initiators_per_step=8,
                               seed=seed, **({} if rho is None else {"rho": rho}))
        trajectory, log = run_generator(config, step_sbcm_choice)
        _, gen_log, gen_trajectory = generate_sbcm_dataset(config)
        np.testing.assert_array_equal(gen_trajectory, trajectory)
        assert_log_matches(gen_log, log, config)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_generator_matches_rng_choice_property(self, data):
        """Any size, initiator count up to U, update rule and exponent: the
        generator's trajectory and log equal the rng.choice oracle's."""
        num_users = data.draw(st.integers(2, 60), label="num_users")
        initiators = data.draw(st.one_of(st.just(num_users), st.integers(1, num_users)),
                               label="initiators")
        config = SbcmGenConfig(
            num_users=num_users, initiators_per_step=initiators,
            num_steps=data.draw(st.integers(1, 8), label="num_steps"),
            rho=data.draw(st.floats(-3.0, 20.0), label="rho"),
            mu=data.draw(st.floats(0.01, 1.0), label="mu"),
            update_rule=data.draw(st.sampled_from(["attractive", "additive"]), label="rule"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        trajectory, log = run_generator(config, step_sbcm_choice)
        _, gen_log, gen_trajectory = generate_sbcm_dataset(config)
        np.testing.assert_array_equal(gen_trajectory, trajectory)
        assert_log_matches(gen_log, log, config)

    def test_overflowing_rho_raises(self):
        """rho = 1000 overflows the partner weights to inf and the
        probabilities to NaN; the step raises as rng.choice does, under either
        rule and with one, some or all users initiating."""
        for rule in ("attractive", "additive"):
            for initiators in (1, 3, 10):
                config = SbcmGenConfig(num_users=10, initiators_per_step=initiators, rho=1000.0,
                                       update_rule=rule, seed=0)
                with np.errstate(over="ignore", invalid="ignore"):
                    with pytest.raises(ValueError):
                        run_generator(config, step_sbcm_choice)
                    with pytest.raises(ValueError, match="non-finite partner probabilities"):
                        generate_sbcm_dataset(config)

    def test_overflowing_opinions_raise(self):
        """Opinions that overflow to inf under the additive rule raise, even
        in the last step, whose result the trajectory does not hold."""
        config = SbcmGenConfig(num_users=2, num_steps=1, initiators_per_step=1, mu=1.0, rho=0.0,
                               update_rule="additive", init_range=(1e308, 1.7e308), seed=0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite opinions"):
                generate_sbcm_dataset(config)


class TestClassicSteppers:
    """The synchronous DeGroot generator."""

    def test_degroot_zero_weights_identity(self):
        ds, traj = generate_degroot_dataset(3, 4, np.zeros((3, 3)), seed=2)
        np.testing.assert_array_equal(traj, np.repeat(traj[:, :1], 4, axis=1))
        assert (len(ds), ds.num_classes) == (12, 5)

    def test_degroot_diagonal_ignored(self):
        w = np.array([[5.0, 0.1], [0.2, -3.0]])
        _, traj = generate_degroot_dataset(2, 3, w, seed=0)
        for t in range(2):
            x = traj[:, t]
            np.testing.assert_array_equal(traj[:, t + 1], [x[0] + 0.1 * x[1], x[1] + 0.2 * x[0]])
        np.testing.assert_array_equal(traj, generate_degroot_dataset(2, 3, w - np.diag([5.0, -3.0]))[1])

    def test_degroot_nonfinite_opinions_rejected(self):
        """Weights that overflow the opinions raise instead of returning an
        inf trajectory."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite opinions"):
                generate_degroot_dataset(3, 10, np.full((3, 3), 1e200))


class TestGenerator:
    def test_post_count(self):
        cfg = SbcmGenConfig(num_users=20, num_steps=10, initiators_per_step=3, rho=-1.0, seed=0)
        ds, log, traj = generate_sbcm_dataset(cfg)
        assert len(ds) == 20 * 10
        assert traj.shape == (20, 10)
        assert log.shape == (10, 3, 2)

    def test_single_step_labels_initial_state(self):
        cfg = SbcmGenConfig(num_users=2, num_steps=1, initiators_per_step=1, rho=0.0, seed=1)
        ds, _, traj = generate_sbcm_dataset(cfg)
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.times(), 0.0)
        for user, label in zip(ds.users(), ds.labels()):
            assert label == discretize_opinion(traj[user, 0])

    def test_deterministic(self):
        cfg = SbcmGenConfig(num_users=15, num_steps=8, initiators_per_step=4, rho=0.5, seed=7)
        a = generate_sbcm_dataset(cfg)
        b = generate_sbcm_dataset(cfg)
        for column in ("users", "times", "labels"):
            np.testing.assert_array_equal(getattr(a[0], column)(), getattr(b[0], column)())
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[1], b[1])

    def test_init_range_respected(self):
        cfg = SbcmGenConfig(num_users=50, num_steps=1, initiators_per_step=1,
                            rho=0.0, init_range=(0.0, 1.0), seed=0)
        _, _, traj = generate_sbcm_dataset(cfg)
        assert traj.min() >= 0.0
        assert traj.max() <= 1.0

    @pytest.mark.parametrize("num_classes", [3, 5])
    def test_dataset_matches_per_post_loop(self, num_classes):
        """The dataset holds the posts, in order and with int64 labels, that
        discretizing each opinion on its own gives."""
        edges = [-1.5, -1.0, -0.6, -0.2, 0.0, 0.2, 0.6, 1.0, 1.5, np.nan]
        rng = np.random.default_rng(4)
        traj = np.concatenate([np.tile(edges, (3, 1)), rng.uniform(-1.2, 1.2, (3, 10))])
        with np.errstate(invalid="ignore"):
            expected = [(u, float(t), discretize_opinion(traj[u, t], num_classes))
                        for t in range(traj.shape[1]) for u in range(traj.shape[0])]
            ds = simulate.trajectory_to_dataset(traj, num_classes)
        for column, values, dtype in zip((ds.users(), ds.times(), ds.labels()), zip(*expected),
                                         (np.int64, np.float64, np.int64)):
            assert column.dtype == dtype
            np.testing.assert_array_equal(column, values)
        assert (ds.num_users, ds.num_classes, ds.horizon) == (6, num_classes, 10.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SbcmGenConfig(num_users=1)
        with pytest.raises(ValueError):
            SbcmGenConfig(num_users=5, initiators_per_step=6)
        with pytest.raises(ValueError):
            SbcmGenConfig(mu=0.0)
        with pytest.raises(ValueError):
            SbcmGenConfig(update_rule="repulsive")


class TestPresets:
    def test_preset_values(self):
        assert preset_config("consensus").rho == -1.0
        assert preset_config("consensus").update_rule == "attractive"
        assert preset_config("polarization").rho == 0.5
        assert preset_config("clustering").rho == 0.05
        assert sorted(simulate.PRESETS) == ["clustering", "consensus", "polarization"]

    def test_preset_overrides(self):
        cfg = preset_config("consensus", num_users=30, seed=3)
        assert cfg.num_users == 30
        assert cfg.seed == 3
        assert cfg.rho == -1.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("anarchy")

    def test_consensus_contracts(self):
        cfg = preset_config("consensus", num_users=60, num_steps=120,
                            initiators_per_step=8, seed=0)
        _, _, traj = generate_sbcm_dataset(cfg)
        assert traj[:, -1].std() < 0.5 * traj[:, 0].std()


class TestClusterSummary:
    def test_single_tight_cluster(self):
        centers, gap = cluster_summary(np.full(100, 0.31) + np.linspace(0, 0.01, 100))
        assert len(centers) == 1
        assert centers[0] == pytest.approx(0.315, abs=0.06)
        assert gap == 0.0

    def test_two_separated_clusters(self):
        x = np.concatenate([np.full(50, -0.7), np.full(50, 0.7)])
        centers, gap = cluster_summary(x)
        assert len(centers) == 2
        assert gap == pytest.approx(1.4, abs=0.1)

    def test_sparse_outliers_ignored(self):
        x = np.concatenate([np.full(98, 0.0), [0.9, -0.9]])
        centers, _ = cluster_summary(x)
        assert len(centers) == 1

    def test_handles_out_of_range_values(self):
        x = np.concatenate([np.full(50, -2.4), np.full(50, 2.4)])
        centers, gap = cluster_summary(x)
        assert len(centers) == 2
        assert gap > 4.0


class TestExports:
    def test_trajectory_csv(self, tmp_path):
        traj = np.array([[0.1, 0.2], [0.3, 0.4]])
        path = tmp_path / "traj.csv"
        simulate.save_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,u0,u1"
        assert lines[1] == "0,0.1,0.3"
        assert lines[2] == "1,0.2,0.4"

    def test_interactions_csv(self, tmp_path):
        log = np.array([[[1, 2], [4, 0]], [[3, 0], [0, 3]]], dtype=np.int64)
        path = tmp_path / "log.csv"
        simulate.save_interactions_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["step,initiator,partner", "0,1,2", "0,4,0", "1,3,0", "1,0,3"]
