"""Comparison methods: persistence, voter copying, a fitted linear-influence
model, and one-step linear regression.

All four operate on a regularized series: post labels are mapped to bin
midpoints in [-1, 1] and carried forward onto a uniform time grid (last
observation carried forward; a user's first value is back-filled before
their first post).  Predictions hold or roll the dynamics forward from the
end of training in fixed steps, read each test post at its nearest step,
and are discretized back to labels.
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


def persistence_predict(series: RegularSeries, test: OpinionDataset) -> np.ndarray:
    """Each test post's user keeps their last train opinion."""
    return discretize_opinion(series.values[test.users(), -1], test.num_classes)


# ----- voter ---------------------------------------------------------------------


def voter_predict(series: RegularSeries, test: OpinionDataset, repeats: int = 10,
                  seed: int = 0) -> np.ndarray:
    """Simulate uniform-random opinion copying forward from the end of the
    train series to each test post.

    One rng.integers call per repeat draws the same sources as one per step.

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
        sources = rng.integers(0, num_users, size=(horizon_steps, num_users))
        for k in range(1, horizon_steps + 1):
            x = x[sources[k - 1]]
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
      DDᵀ + λI is the step Gram K = x0ᵀx0 + λI less user u's outer product
      a aᵀ, so one solve of K for all users' rates and opinions and the
      Sherman–Morrison correction y = K⁻¹r + K⁻¹a (aᵀK⁻¹r) / (1 - aᵀK⁻¹a)
      solve every user at once; the denominator lies in (0, 1].
    """
    x = series.values
    num_users, num_steps = x.shape
    if num_steps < 2:
        raise ValueError("need a grid with at least two steps")
    x0 = x[:, :-1]
    rates = (x[:, 1:] - x[:, :-1]) / series.dt
    if num_steps - 1 < num_users - 1:
        step_gram = x0.T @ x0 + ridge * np.eye(num_steps - 1)
        solved = np.linalg.solve(step_gram, np.hstack([rates.T, x0.T]))   # (S-1, 2U)
        k_rates, k_opinions = solved[:, :num_users], solved[:, num_users:]
        gain = np.einsum("us,su->u", x0, k_rates) / (1.0 - np.einsum("us,su->u", x0, k_opinions))
        interaction = (x0 @ (k_rates + k_opinions * gain)).T
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


def degroot_predict(fit: DegrootFit, test: OpinionDataset) -> np.ndarray:
    """Roll dx/dt = A x forward in RK4 substeps of a quarter grid step and
    discretize each test post at its nearest substep.  One RK4 step of size
    h is the matrix I + hA + (hA)²/2 + (hA)³/6 + (hA)⁴/24, formed once by
    Horner's rule."""
    h = fit.grid_dt / 4.0
    ha = h * fit.interaction
    identity = np.eye(ha.shape[0])
    step = identity + ha / 4.0
    for order in (3.0, 2.0, 1.0):
        step = identity + (ha @ step) / order
    return _roll_out(step, 0.0, fit.x_end, fit.t_end, h, test)


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


def aslm_predict(fit: AslmFit, test: OpinionDataset) -> np.ndarray:
    """Iterate the one-step map to each test time and discretize."""
    return _roll_out(fit.weights, fit.bias, fit.x_end, fit.t_end, fit.grid_dt, test)


def _roll_out(step: np.ndarray, bias: np.ndarray | float, x_end: np.ndarray, t_end: float,
              dt: float, test: OpinionDataset) -> np.ndarray:
    """Iterate x <- step @ x + bias from x_end every dt and discretize each
    test post's user at the nearest iterate (x_end for posts before t_end)."""
    times = test.times()
    max_steps = int(np.ceil((times.max(initial=t_end) - t_end) / dt))
    states = np.empty((max_steps + 1, x_end.shape[0]))
    states[0] = x_end
    for k in range(1, max_steps + 1):
        states[k] = step @ states[k - 1] + bias
    steps = np.clip(np.round((times - t_end) / dt).astype(int), 0, max_steps)
    return discretize_opinion(states[steps, test.users()], test.num_classes)
