"""Voter, linear-influence, and one-step linear regression baselines."""

from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionlab import baselines, simulate
from opinionlab.baselines import (
    RegularSeries,
    aslm_predict,
    default_grid_dt,
    degroot_predict,
    fit_aslm,
    fit_degroot,
    persistence_predict,
    regularize_series,
    voter_predict,
)
from opinionlab.data import (OpinionDataset, SplitSpec, chronological_split, discretize_opinion,
                             label_to_continuous)

# One post, as the reference loops below walk them.
Post = namedtuple("Post", "user_id time label")


def make_dataset(posts, num_users, num_classes=5):
    users, times, labels = zip(*posts)
    return OpinionDataset(users, times, labels, num_users, num_classes, max(times) + 1)


def posts_of(dataset):
    columns = (dataset.users().tolist(), dataset.times().tolist(), dataset.labels().tolist())
    return [Post(*post) for post in zip(*columns)]


# ----- per-post reference loops ------------------------------------------------
#
# The baselines work on whole arrays; these loops walk one post at a time
# and are the oracles the array forms must match exactly.


def regularize_series_loop(dataset, grid_dt=None):
    if grid_dt is None:
        grid_dt = default_grid_dt(dataset)
    times = dataset.times()
    t_start, t_last = float(times[0]), float(times[-1])
    num_steps = int(np.floor((t_last - t_start) / grid_dt + 1e-9)) + 1
    grid = t_start + grid_dt * np.arange(num_steps)
    values = np.zeros((dataset.num_users, num_steps))
    seen = np.zeros(dataset.num_users, dtype=bool)
    last_value = np.zeros(dataset.num_users)
    last_index = np.zeros(dataset.num_users, dtype=int)
    for post in posts_of(dataset):
        value = label_to_continuous(post.label, dataset.num_classes)
        idx = max(int(np.searchsorted(grid, post.time + 1e-12) - 1), 0)
        u = post.user_id
        if not seen[u]:
            values[u, : idx + 1] = value
            seen[u] = True
        else:
            values[u, last_index[u] : idx + 1] = last_value[u]
            values[u, idx] = value
        last_value[u] = value
        last_index[u] = idx
    for u in range(dataset.num_users):
        if seen[u]:
            values[u, last_index[u] :] = last_value[u]
    return RegularSeries(values, t_start, float(grid_dt))


def voter_predict_loop(train, test_posts, repeats=10, seed=0):
    series = regularize_series_loop(train)
    x_end = series.values[:, -1]
    num_users = train.num_users
    rng = np.random.default_rng(seed)
    test_times = np.array([p.time for p in test_posts])
    test_users = np.array([p.user_id for p in test_posts], dtype=int)
    horizon_steps = max(0, int(np.ceil((test_times.max() - series.t_end) / series.dt)))
    preds = np.zeros((repeats, len(test_posts)), dtype=int)
    for r in range(repeats):
        states = np.empty((horizon_steps + 1, num_users))
        states[0] = x_end
        x = x_end
        for k in range(1, horizon_steps + 1):
            x = x[rng.integers(0, num_users, size=num_users)]
            states[k] = x
        steps = np.clip(np.round((test_times - series.t_end) / series.dt).astype(int), 0, horizon_steps)
        continuous = states[steps, test_users]
        preds[r] = [discretize_opinion(v, train.num_classes) for v in continuous]
    return preds


def fit_degroot_loop(series, ridge=1e-6):
    """One primal regression per user on the other users' opinions, with
    the ridge added when the system is underdetermined or ill-conditioned."""
    x = series.values
    num_users, num_steps = x.shape
    x0 = x[:, :-1]
    rates = (x[:, 1:] - x[:, :-1]) / series.dt
    interaction = np.zeros((num_users, num_users))
    for u in range(num_users):
        others = np.delete(np.arange(num_users), u)
        design = x0[others].T                      # (S-1, U-1)
        gram = design.T @ design
        if num_steps - 1 < num_users - 1 or np.linalg.cond(gram) > 1e12:
            gram = gram + ridge * np.eye(num_users - 1)
        interaction[u, others] = np.linalg.solve(gram, design.T @ rates[u])
    return baselines.DegrootFit(interaction, x[:, -1].copy(), series.t_end, series.dt)


def integrate_linear_loop(a, x0, t_span, step):
    """Fixed-step RK4 for dx/dt = A x over t_span (may be zero), one
    substep at a time; a span off the step grid ends on a shortened step."""
    if t_span <= 0:
        return x0.copy()
    steps = max(1, int(np.ceil(t_span / step)))
    h = t_span / steps
    x = x0.copy()
    for _ in range(steps):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def degroot_predict_loop(fit, test_posts, num_classes):
    order = np.argsort([p.time for p in test_posts], kind="stable")
    preds = np.zeros(len(test_posts), dtype=int)
    x = fit.x_end.copy()
    t = fit.t_end
    for i in order:
        post = test_posts[i]
        x = integrate_linear_loop(fit.interaction, x, post.time - t, fit.grid_dt / 4.0)
        t = max(t, post.time)
        preds[i] = discretize_opinion(x[post.user_id], num_classes)
    return preds


def aslm_step(fit, x):
    return fit.weights @ x + fit.bias


def aslm_predict_loop(fit, test_posts, num_classes):
    times = np.array([p.time for p in test_posts])
    max_steps = max(0, int(np.ceil((times.max() - fit.t_end) / fit.grid_dt)))
    states = np.empty((max_steps + 1, fit.x_end.shape[0]))
    states[0] = fit.x_end
    for k in range(1, max_steps + 1):
        states[k] = aslm_step(fit, states[k - 1])
    steps = np.clip(np.round((times - fit.t_end) / fit.grid_dt).astype(int), 0, max_steps)
    return np.array([discretize_opinion(states[k, p.user_id], num_classes)
                     for k, p in zip(steps, test_posts)])


def random_posts(rng, num_users, num_steps, num_classes=5, t0=0.0):
    """Posts by a random subset of users at random times on a 0.5 grid,
    including several posts per time."""
    times = np.sort(t0 + 0.5 * rng.integers(0, 2 * num_steps, size=4 * num_steps))
    users = rng.integers(0, num_users - 1, size=times.size)  # the last user never posts
    labels = rng.integers(0, num_classes, size=times.size)
    return [Post(int(u), float(t), int(c)) for u, t, c in zip(users, times, labels)]


def assert_series_equal(actual, expected):
    assert actual.values.dtype == expected.values.dtype
    np.testing.assert_array_equal(actual.values, expected.values)
    assert (actual.t_start, actual.dt) == (expected.t_start, expected.dt)


class TestArrayFormsMatchLoops:
    """Each baseline's array form against its per-post loop, compared exactly."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_regularize_series(self, data):
        num_users = data.draw(st.integers(1, 6), label="num_users")
        num_classes = data.draw(st.integers(2, 6), label="num_classes")
        times = sorted(data.draw(st.lists(
            st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5])),
            min_size=1, max_size=40), label="times"))
        posts = [Post(data.draw(st.integers(0, num_users - 1)), t,
                      data.draw(st.integers(0, num_classes - 1))) for t in times]
        grid_dt = data.draw(st.one_of(st.none(), st.floats(0.15, 4.0)), label="grid_dt")
        dataset = make_dataset(posts, num_users, num_classes)
        assert_series_equal(regularize_series(dataset, grid_dt),
                            regularize_series_loop(dataset, grid_dt))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_voter_same_seed(self, seed):
        rng = np.random.default_rng(seed)
        train = make_dataset(random_posts(rng, 7, 20), 7)
        test_posts = random_posts(rng, 7, 10, t0=21.0)
        preds = voter_predict(regularize_series(train), make_dataset(test_posts, 7), repeats=4,
                              seed=seed)
        np.testing.assert_array_equal(preds,
                                      voter_predict_loop(train, test_posts, repeats=4, seed=seed))

    @pytest.mark.parametrize("num_users", [6, 7])
    @pytest.mark.parametrize("repeats", [1, 10])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_voter_batched_draws_match_per_step_calls(self, num_users, repeats, seed):
        """The array form draws a repeat's copy sources in one call; the
        loop draws one step at a time.  Odd and even user counts, horizons
        of at least 5 steps and test posts before the end of training pin
        the generator's stream property that makes the two equal."""
        rng = np.random.default_rng(seed)
        train = make_dataset(random_posts(rng, num_users, 20), num_users)
        series = regularize_series(train)
        test_posts = random_posts(rng, num_users, 10, t0=series.t_end - 3.0)
        test = make_dataset(test_posts, num_users)
        assert test.times().min() < series.t_end
        assert np.ceil((test.times().max() - series.t_end) / series.dt) >= 5
        preds = voter_predict(series, test, repeats=repeats, seed=seed)
        np.testing.assert_array_equal(
            preds, voter_predict_loop(train, test_posts, repeats=repeats, seed=seed))

    @pytest.mark.parametrize("num_users", [1, 2, 5, 200, 201])
    def test_one_integers_call_equals_per_row_calls(self, num_users):
        """The stream property itself: one (rows, U) draw of integers equals
        `rows` draws of U, for odd and even U."""
        batched, stepped = np.random.default_rng(9), np.random.default_rng(9)
        for rows in (1, 5, 6):
            np.testing.assert_array_equal(
                batched.integers(0, num_users, size=(rows, num_users)),
                [stepped.integers(0, num_users, size=num_users) for _ in range(rows)])

    def test_degroot_repeated_times(self):
        """Several test posts per time, some before the end of training."""
        rng = np.random.default_rng(5)
        series = regularize_series(make_dataset(random_posts(rng, 6, 30), 6))
        fit = fit_degroot(series)
        test_posts = random_posts(rng, 6, 12, t0=series.t_end - 2.0)
        preds = degroot_predict(fit, make_dataset(test_posts, 6))
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, degroot_predict_loop(fit, test_posts, 5))

    def test_degroot_diverging_fit_gives_nan(self):
        """A fit whose rollout overflows: its NaN opinions map to class 0
        in both forms."""
        a = np.array([[0.0, 40.0, -40.0], [-40.0, 0.0, 40.0], [40.0, -40.0, 0.0]])
        fit = baselines.DegrootFit(a, np.array([0.5, -0.2, 0.9]), 0.0, 1.0)
        test_posts = [Post(u, t, 0) for t in (30.0, 30.0, 31.0, 31.0) for u in range(3)]
        with np.errstate(all="ignore"):
            assert np.isnan(integrate_linear_loop(a, fit.x_end, 30.0, 0.25)).all()
            preds = degroot_predict(fit, make_dataset(test_posts, 3))
            expected = degroot_predict_loop(fit, test_posts, 5)
        np.testing.assert_array_equal(preds, expected)
        np.testing.assert_array_equal(preds, 0)

    def test_degroot_reads_nearest_substep(self):
        """A post between quarter-grid substeps is read at the nearest one,
        and a post before the end of training reads the end-of-train state;
        integrating to the exact time would give other labels."""
        a = np.array([[0.0, -1.0], [1.0, 0.0]])   # a rotation: substeps of 1 turn it by ~1 rad
        fit = baselines.DegrootFit(a, np.array([0.6, 0.1]), 10.0, 4.0)
        num_classes = 100
        # t_end - 1.5 and t_end + 0.4 read substep 0; the others substeps 1, 4 and 5.
        offsets = {-1.5: 0, 0.4: 0, 1.2: 1, 3.7: 4, 5.4: 5}
        test_posts = [Post(u, fit.t_end + dt, 0) for dt in offsets for u in range(2)]
        preds = degroot_predict(fit, make_dataset(test_posts, 2, num_classes))
        expected = [discretize_opinion(integrate_linear_loop(a, fit.x_end, float(k), 1.0)[u],
                                       num_classes) for k in offsets.values() for u in range(2)]
        np.testing.assert_array_equal(preds, expected)
        assert not np.array_equal(preds, degroot_predict_loop(fit, test_posts, num_classes))

    def test_aslm(self):
        rng = np.random.default_rng(6)
        fit = fit_aslm(regularize_series(make_dataset(random_posts(rng, 5, 25), 5)))
        test_posts = random_posts(rng, 5, 10, t0=fit.t_end)
        preds = aslm_predict(fit, make_dataset(test_posts, 5))
        assert preds.dtype == np.int64
        np.testing.assert_array_equal(preds, aslm_predict_loop(fit, test_posts, 5))


# With fewer steps than users the fit solves the same ridge problem in step
# space, which reorders the floating-point work; it agrees with the primal
# loop to this fraction of max|A| (about 1e-7 at the lab size).
DUAL_FORM_TOL = 1e-6


class TestDegrootFitMatchesLoop:
    """`fit_degroot` against the per-user primal loop: within DUAL_FORM_TOL
    when S-1 < U-1, exactly otherwise."""

    @staticmethod
    def assert_dual_form_close(series):
        expected = fit_degroot_loop(series).interaction
        actual = fit_degroot(series).interaction
        np.testing.assert_allclose(actual, expected, rtol=0,
                                   atol=DUAL_FORM_TOL * np.abs(expected).max())
        np.testing.assert_array_equal(np.diag(actual), 0.0)

    @pytest.mark.parametrize("num_users, num_steps", [(7, 4), (12, 11), (40, 9)])
    def test_underdetermined_random(self, num_users, num_steps):
        """(12, 11) is one step short of the boundary."""
        rng = np.random.default_rng(num_users)
        series = RegularSeries(rng.uniform(-1, 1, (num_users, num_steps)), 0.0, 0.5)
        self.assert_dual_form_close(series)

    @pytest.mark.parametrize("preset", list(simulate.PRESETS))
    def test_underdetermined_lab(self, preset):
        """A lab-size split: 200 users on 100 train steps, most of them
        holding one opinion for many steps, so the ridge decides.  The
        Sherman–Morrison denominators lie in (0, 1], and the rollout gives
        the RK4 loop's labels."""
        config = replace(simulate.preset_config(preset), seed=3)
        dataset, _, _ = simulate.generate_sbcm_dataset(config)
        train, _, test = chronological_split(dataset, SplitSpec(0.5, 0.2, 0.3))
        series = regularize_series(train)
        assert series.values.shape == (200, 100)
        self.assert_dual_form_close(series)

        x0 = series.values[:, :-1]
        step_gram = x0.T @ x0 + 1e-6 * np.eye(x0.shape[1])
        denominators = 1.0 - np.einsum("us,su->u", x0, np.linalg.solve(step_gram, x0.T))
        assert ((denominators > 0) & (denominators <= 1)).all()

        fit = fit_degroot(series)
        np.testing.assert_array_equal(degroot_predict(fit, test),
                                      degroot_predict_loop(fit, posts_of(test), test.num_classes))

    @pytest.mark.parametrize("num_users, num_steps", [(6, 6), (5, 40)])
    def test_primal_exact(self, num_users, num_steps):
        """S-1 = U-1 (the boundary) and S-1 > U-1 take the primal form."""
        rng = np.random.default_rng(num_steps)
        series = RegularSeries(rng.uniform(-1, 1, (num_users, num_steps)), 0.0, 0.5)
        np.testing.assert_array_equal(fit_degroot(series).interaction,
                                      fit_degroot_loop(series).interaction)

    def test_primal_ill_conditioned_exact(self):
        """Two users with the same series make the primal Gram singular, so
        both forms add the ridge."""
        rng = np.random.default_rng(4)
        values = rng.uniform(-1, 1, (4, 30))
        values[1] = values[0]
        series = RegularSeries(values, 0.0, 1.0)
        np.testing.assert_array_equal(fit_degroot(series).interaction,
                                      fit_degroot_loop(series).interaction)


class TestRegularize:
    def test_exact_on_grid_aligned_posts(self):
        posts = [Post(0, 0.0, 0), Post(1, 0.0, 4), Post(0, 1.0, 2), Post(1, 1.0, 2)]
        series = regularize_series(make_dataset(posts, 2), grid_dt=1.0)
        assert series.values.shape == (2, 2)
        np.testing.assert_allclose(series.values[0], [-0.8, 0.0])
        np.testing.assert_allclose(series.values[1], [0.8, 0.0])

    def test_forward_fill_between_posts(self):
        posts = [Post(0, 0.0, 4), Post(0, 3.0, 0)]
        series = regularize_series(make_dataset(posts, 1), grid_dt=1.0)
        np.testing.assert_allclose(series.values[0], [0.8, 0.8, 0.8, -0.8])

    def test_backfill_before_first_post(self):
        posts = [Post(0, 0.0, 2), Post(1, 2.0, 4), Post(0, 3.0, 2)]
        series = regularize_series(make_dataset(posts, 2), grid_dt=1.0)
        np.testing.assert_allclose(series.values[1], [0.8, 0.8, 0.8, 0.8])

    def test_tail_fill(self):
        posts = [Post(0, 0.0, 0), Post(1, 4.0, 2)]
        series = regularize_series(make_dataset(posts, 2), grid_dt=1.0)
        np.testing.assert_allclose(series.values[0], [-0.8] * 5)

    def test_default_grid_dt_median_gap(self):
        posts = [Post(0, 0.0, 2), Post(0, 2.0, 2), Post(0, 4.0, 2), Post(0, 10.0, 2)]
        assert default_grid_dt(make_dataset(posts, 1)) == 2.0

    def test_default_grid_dt_degenerate(self):
        posts = [Post(0, 1.0, 2), Post(1, 1.0, 3)]
        assert default_grid_dt(make_dataset(posts, 2)) == 1.0

    def test_default_grid_dt_bounded_by_post_count(self):
        """Near-coincident times make a median gap of 1e-9; the grid stays
        at most four steps per post."""
        posts = [Post(0, 0.0, 2), Post(1, 3e-269, 2), Post(0, 1e-9, 2), Post(1, 11.0, 2)]
        dataset = make_dataset(posts, 2)
        assert default_grid_dt(dataset) == 11.0 / 16
        assert regularize_series(dataset).values.shape == (2, 17)

    def test_latest_post_wins_within_cell(self):
        posts = [Post(0, 0.0, 0), Post(0, 0.4, 4)]
        series = regularize_series(make_dataset(posts, 1), grid_dt=1.0)
        assert series.values[0, 0] == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            regularize_series(OpinionDataset([], [], [], 1, 5, 1.0))


class TestDegrootFit:
    def test_recovers_interaction_matrix(self):
        """Noiseless synthetic rates from a known zero-diagonal matrix are
        recovered almost exactly."""
        rng = np.random.default_rng(0)
        num_users, num_steps = 6, 120
        a = rng.uniform(-0.05, 0.05, size=(num_users, num_users))
        np.fill_diagonal(a, 0.0)
        dt = 0.5
        x = np.empty((num_users, num_steps))
        x[:, 0] = rng.uniform(-1, 1, num_users)
        for k in range(1, num_steps):
            x[:, k] = x[:, k - 1] + dt * (a @ x[:, k - 1])
        series = RegularSeries(x, 0.0, dt)
        fit = fit_degroot(series)
        assert np.abs(fit.interaction - a).max() < 1e-6
        np.testing.assert_array_equal(np.diag(fit.interaction), 0.0)

    def test_constant_series_gives_zero_matrix(self):
        series = RegularSeries(np.tile([[0.4], [-0.2], [0.1]], 10), 0.0, 1.0)
        fit = fit_degroot(series)
        assert np.abs(fit.interaction).max() < 1e-6

    def test_prediction_discretizes_trajectory(self):
        # A = 0: opinions frozen at end-of-train values
        series = RegularSeries(np.array([[0.8, 0.8], [-0.8, -0.8]]), 0.0, 1.0)
        fit = baselines.DegrootFit(np.zeros((2, 2)), series.values[:, -1], 1.0, 1.0)
        preds = degroot_predict(fit, make_dataset([Post(0, 5.0, 0), Post(1, 5.0, 0)], 2))
        np.testing.assert_array_equal(preds, [4, 0])

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            fit_degroot(RegularSeries(np.zeros((2, 1)), 0.0, 1.0))


class TestAslmFit:
    def test_identity_dynamics_recover_identity(self):
        """A constant series (x(t+1) = x(t)) must fit to W = I, b = 0."""
        rng = np.random.default_rng(1)
        x = np.tile(rng.uniform(-1, 1, size=(8, 1)), 20)
        fit = fit_aslm(RegularSeries(x, 0.0, 1.0))
        assert np.abs(fit.weights - np.eye(8)).max() < 0.05
        assert np.abs(fit.bias).max() < 0.05

    def test_recovers_linear_map(self):
        rng = np.random.default_rng(2)
        num_users, num_steps = 5, 80
        w = np.eye(num_users) + rng.uniform(-0.05, 0.05, (num_users, num_users))
        b = rng.uniform(-0.02, 0.02, num_users)
        x = np.empty((num_users, num_steps))
        x[:, 0] = rng.uniform(-1, 1, num_users)
        for k in range(1, num_steps):
            x[:, k] = w @ x[:, k - 1] + b
        fit = fit_aslm(RegularSeries(x, 0.0, 1.0))
        assert np.abs(fit.weights - w).max() < 1e-4
        assert np.abs(fit.bias - b).max() < 1e-4

    def test_predict_iterates_step(self):
        rng = np.random.default_rng(3)
        w = np.eye(3) * 0.9
        fit = baselines.AslmFit(w, np.zeros(3), rng.uniform(-1, 1, 3), 0.0, 1.0)
        x = fit.x_end.copy()
        for _ in range(4):
            x = aslm_step(fit, x)
        preds = aslm_predict(fit, make_dataset([Post(u, 4.0, 0) for u in range(3)], 3))
        from opinionlab.data import discretize_opinion
        np.testing.assert_array_equal(preds, [discretize_opinion(v) for v in x])

    def test_empty_test_posts(self):
        fit = baselines.AslmFit(np.eye(2), np.zeros(2), np.zeros(2), 0.0, 1.0)
        assert aslm_predict(fit, OpinionDataset([], [], [], 2, 5, 0.0)).shape == (0,)


class TestVoter:
    def test_shape_and_determinism(self):
        posts = [Post(u, float(t), (u + t) % 5) for t in range(10) for u in range(4)]
        train = make_dataset(posts, 4)
        test_posts = [Post(0, 12.0, 2), Post(3, 14.0, 1)]
        series, test = regularize_series(train), make_dataset(test_posts, 4)
        a = voter_predict(series, test, repeats=5, seed=42)
        b = voter_predict(series, test, repeats=5, seed=42)
        assert a.shape == (5, 2)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(0)
        posts = sorted(
            [Post(u, float(t), int(rng.integers(0, 5))) for t in range(20) for u in range(6)],
            key=lambda p: p.time,
        )
        train = make_dataset(posts, 6)
        series, test = regularize_series(train), make_dataset([Post(u, 30.0, 0) for u in range(6)], 6)
        a = voter_predict(series, test, repeats=3, seed=0)
        b = voter_predict(series, test, repeats=3, seed=1)
        assert not np.array_equal(a, b)

    def test_predictions_come_from_train_labels(self):
        """Copying can only ever produce opinions present at the train end."""
        posts = [Post(0, 0.0, 0), Post(1, 0.0, 4), Post(0, 1.0, 0), Post(1, 1.0, 4)]
        train = make_dataset(posts, 2)
        test = make_dataset([Post(0, 6.0, 0), Post(1, 6.0, 0)], 2)
        preds = voter_predict(regularize_series(train), test, repeats=8, seed=0)
        assert set(np.unique(preds)) <= {0, 4}

    def test_test_time_at_train_end(self):
        posts = [Post(0, 0.0, 3), Post(0, 1.0, 3)]
        train = make_dataset(posts, 1)
        preds = voter_predict(regularize_series(train), make_dataset([Post(0, 1.0, 3)], 1),
                              repeats=2, seed=0)
        np.testing.assert_array_equal(preds, [[3], [3]])


class TestPersistence:
    def test_last_train_label_per_user(self):
        """Each user keeps their last train label; a user with no train post
        holds the neutral opinion."""
        posts = [Post(0, 0.0, 0), Post(1, 0.0, 1), Post(0, 1.0, 4), Post(0, 2.0, 3),
                 Post(1, 2.0, 1)]
        series = regularize_series(make_dataset(posts, 3), grid_dt=1.0)
        test = make_dataset([Post(2, 5.0, 0), Post(0, 5.0, 0), Post(1, 6.0, 0), Post(0, 9.0, 0)], 3)
        np.testing.assert_array_equal(persistence_predict(series, test), [2, 3, 1, 3])
