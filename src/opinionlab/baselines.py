"""Comparison methods: voter copying, a fitted linear-influence model, and
one-step linear regression.

All three operate on a regularized series: post labels are mapped to bin
midpoints in [-1, 1] and carried forward onto a uniform time grid (last
observation carried forward; a user's first value is back-filled before
their first post).  Long-horizon predictions roll the fitted dynamics
forward from the end of training and are discretized back to labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OpinionDataset, discretize_opinion, label_to_continuous


@dataclass
class RegularSeries:
    """Continuous opinions resampled onto a uniform grid."""

    values: np.ndarray      # (U, S)
    t_start: float
    dt: float

    @property
    def t_end(self) -> float:
        return self.t_start + (self.values.shape[1] - 1) * self.dt


@dataclass
class DegrootFit:
    """Linear influence matrix (zero diagonal) plus the end-of-train state."""

    interaction: np.ndarray   # (U, U)
    x_end: np.ndarray         # (U,)
    t_end: float
    grid_dt: float


@dataclass
class AslmFit:
    """One-step linear map x(t+1) = weights @ x(t) + bias."""

    weights: np.ndarray
    bias: np.ndarray
    x_end: np.ndarray
    t_end: float
    grid_dt: float
    ridge: float


def default_grid_dt(dataset: OpinionDataset) -> float:
    """Median gap between consecutive post times (1.0 if degenerate), but at
    most four grid steps per post: near-coincident times would otherwise ask
    for a grid of billions of steps."""
    times = dataset.times()
    gaps = np.diff(times)
    gaps = gaps[gaps > 0]
    return float(max(np.median(gaps), (times[-1] - times[0]) / (4 * len(times)))) if gaps.size else 1.0


def regularize_series(dataset: OpinionDataset, grid_dt: float | None = None) -> RegularSeries:
    """Forward-fill label midpoints onto a uniform grid over the data span.

    Users with no posts are kept in the matrix at opinion 0, so the
    baselines score them as holding the neutral opinion.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if grid_dt is None:
        grid_dt = default_grid_dt(dataset)
    times = dataset.times()
    t_start, t_last = float(times[0]), float(times[-1])
    num_steps = int(np.floor((t_last - t_start) / grid_dt + 1e-9)) + 1
    grid = t_start + grid_dt * np.arange(num_steps)

    # Index of the latest post at or before each (user, grid step); a
    # user's cells before their first post take that first post.
    users = dataset.users()
    cells = np.maximum(np.searchsorted(grid, times + 1e-12) - 1, 0)
    latest = np.full((dataset.num_users, num_steps), -1)
    np.maximum.at(latest, (users, cells), np.arange(len(users)))
    np.maximum.accumulate(latest, axis=1, out=latest)
    seen_users, first_post = np.unique(users, return_index=True)
    first = np.full(dataset.num_users, -1)
    first[seen_users] = first_post
    latest = np.where(latest < 0, first[:, None], latest)
    post_values = label_to_continuous(dataset.labels(), dataset.num_classes)
    values = np.where(latest >= 0, post_values[latest], 0.0)
    return RegularSeries(values, t_start, float(grid_dt))


# ----- voter ---------------------------------------------------------------------


def voter_predict(series: RegularSeries, test: OpinionDataset, repeats: int = 10,
                  seed: int = 0) -> np.ndarray:
    """Simulate uniform-random opinion copying forward from the end of the
    train series to each test post.

    Returns an (repeats, n_test) array of predicted labels; callers score
    each run and average the metrics.
    """
    x_end = series.values[:, -1]
    num_users = x_end.shape[0]
    rng = np.random.default_rng(seed)
    test_times, test_users = test.times(), test.users()
    horizon_steps = int(np.ceil((test_times.max(initial=series.t_end) - series.t_end) / series.dt))
    steps = np.clip(np.round((test_times - series.t_end) / series.dt).astype(int), 0, horizon_steps)

    preds = np.zeros((repeats, len(test)), dtype=int)
    for r in range(repeats):
        states = np.empty((horizon_steps + 1, num_users))
        states[0] = x_end
        x = x_end
        for k in range(1, horizon_steps + 1):
            x = x[rng.integers(0, num_users, size=num_users)]
            states[k] = x
        preds[r] = discretize_opinion(states[steps, test_users], test.num_classes)
    return preds


# ----- linear-influence fit --------------------------------------------------------


def fit_degroot(series: RegularSeries, ridge: float = 1e-6) -> DegrootFit:
    """Least-squares fit of dx/dt = A x with a zero diagonal.

    Row u of A regresses user u's rates on the other users' opinions, with
    the S-1 grid steps as rows of the design D (S-1, U-1).  Two forms:

    - at least as many steps as other users (S-1 >= U-1): the primal normal
      equations (DᵀD) a = Dᵀr, one (U-1, U-1) solve per user, with the
      ridge added only when DᵀD is ill-conditioned;
    - fewer steps than other users (S-1 < U-1): the problem is
      underdetermined, so the ridge always applies, and the push-through
      identity (DᵀD + λI)⁻¹Dᵀ = Dᵀ(DDᵀ + λI)⁻¹ solves it in step space.
      DDᵀ is the all-user step Gram x0ᵀx0 less user u's own outer product,
      so the Gram is formed once and each user costs one (S-1, S-1) solve.
    """
    x = series.values
    num_users, num_steps = x.shape
    if num_steps < 2:
        raise ValueError("need a grid with at least two steps")
    x0 = x[:, :-1]
    rates = (x[:, 1:] - x[:, :-1]) / series.dt
    if num_steps - 1 < num_users - 1:
        step_gram = x0.T @ x0 + ridge * np.eye(num_steps - 1)
        duals = np.array([np.linalg.solve(step_gram - np.outer(x0[u], x0[u]), rates[u])
                          for u in range(num_users)])             # (U, S-1)
        interaction = duals @ x0.T
        np.fill_diagonal(interaction, 0.0)
    else:
        interaction = np.zeros((num_users, num_users))
        for u in range(num_users):
            others = np.delete(np.arange(num_users), u)
            design = x0[others].T                      # (S-1, U-1)
            gram = design.T @ design
            if np.linalg.cond(gram) > 1e12:
                gram = gram + ridge * np.eye(num_users - 1)
            interaction[u, others] = np.linalg.solve(gram, design.T @ rates[u])
    return DegrootFit(interaction, x[:, -1].copy(), series.t_end, series.dt)


def _integrate_linear(a: np.ndarray, x0: np.ndarray, t_span: float, step: float) -> np.ndarray:
    """Fixed-step RK4 for dx/dt = A x over t_span (may be zero)."""
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


def degroot_predict(fit: DegrootFit, test: OpinionDataset) -> np.ndarray:
    """Integrate the fitted linear system to each distinct test time, in
    time order, and discretize the posts at that time (a run of the sorted
    test posts)."""
    users = test.users()
    group_times, starts = np.unique(test.times(), return_index=True)
    preds = np.zeros(len(test), dtype=int)
    x = fit.x_end.copy()
    t = fit.t_end
    step = fit.grid_dt / 4.0
    for t_next, start, stop in zip(group_times, starts, [*starts[1:], len(test)]):
        x = _integrate_linear(fit.interaction, x, t_next - t, step)
        t = max(t, t_next)
        preds[start:stop] = discretize_opinion(x[users[start:stop]], test.num_classes)
    return preds


# ----- one-step linear regression ---------------------------------------------------


def fit_aslm(series: RegularSeries, ridge: float = 1e-6) -> AslmFit:
    """Ridge regression of each step on the previous one.

    The map is fit in difference form, x(t+1) = x(t) + G x(t) + b, so the
    ridge prior shrinks toward the identity map rather than toward zero;
    the returned weights are I + G.
    """
    x = series.values
    num_users, num_steps = x.shape
    if num_steps < 2:
        raise ValueError("need a grid with at least two steps")
    design = np.hstack([x[:, :-1].T, np.ones((num_steps - 1, 1))])  # (S-1, U+1)
    target = (x[:, 1:] - x[:, :-1]).T                                # (S-1, U)
    gram = design.T @ design + ridge * np.eye(num_users + 1)
    coef = np.linalg.solve(gram, design.T @ target)                  # (U+1, U)
    weights = np.eye(num_users) + coef[:-1].T
    bias = coef[-1]
    return AslmFit(weights, bias, x[:, -1].copy(), series.t_end, series.dt, ridge)


def aslm_step(fit: AslmFit, x: np.ndarray) -> np.ndarray:
    return fit.weights @ x + fit.bias


def aslm_predict(fit: AslmFit, test: OpinionDataset) -> np.ndarray:
    """Iterate the one-step map to each test time and discretize."""
    times = test.times()
    max_steps = int(np.ceil((times.max(initial=fit.t_end) - fit.t_end) / fit.grid_dt))
    states = np.empty((max_steps + 1, fit.x_end.shape[0]))
    states[0] = fit.x_end
    for k in range(1, max_steps + 1):
        states[k] = aslm_step(fit, states[k - 1])
    steps = np.clip(np.round((times - fit.t_end) / fit.grid_dt).astype(int), 0, max_steps)
    return discretize_opinion(states[steps, test.users()], test.num_classes)
