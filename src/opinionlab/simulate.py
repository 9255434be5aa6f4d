"""Difference-equation opinion simulators and the synthetic data generator.

The stochastic bounded-confidence generator picks a batch of initiators per
step; each initiator samples an interaction partner with probability
proportional to ``max(|x_u - x_v|, eps) ** -rho`` and moves toward (or, with
the literal additive rule, by a multiple of) the partner's opinion.  Run
long enough, different exponents produce consensus, polarization, or
clustering of the population.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import OpinionDataset, discretize_opinion

DISTANCE_EPS = 1e-6

# Regime presets: exponent plus the update rule that realizes the regime.
# Consensus needs the attractive pull toward the partner; polarization and
# clustering rely on the additive rule, which is sign-reinforcing under
# homophily (like-minded partners push each other further out) when the
# initial opinions straddle zero.
PRESETS = {
    "consensus": {"rho": -1.0, "update_rule": "attractive"},
    "polarization": {"rho": 0.5, "update_rule": "additive"},
    "clustering": {"rho": 0.05, "update_rule": "additive"},
}

CLUSTER_BIN_WIDTH = 0.1  # cluster_summary's histogram bin width on the opinion axis
CLUSTER_MIN_FRAC = 0.02  # share of users that makes a bin occupied


def preset_config(name: str, **overrides) -> "SbcmGenConfig":
    """SbcmGenConfig for a named regime preset, with optional overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    merged = {**PRESETS[name], **overrides}
    return SbcmGenConfig(**merged)


@dataclass(frozen=True)
class SbcmGenConfig:
    num_users: int = 200
    num_steps: int = 200
    initiators_per_step: int = 15
    mu: float = 0.1
    rho: float = -1.0
    update_rule: str = "attractive"  # or "additive"
    init_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_users", 2), ("num_steps", 1), ("initiators_per_step", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.initiators_per_step > self.num_users:
            raise ValueError("more initiators than users")
        if not (_finite(self.mu) and 0 < self.mu <= 1):
            raise ValueError(f"mu must be a number in (0, 1], got {self.mu!r}")
        if not _finite(self.rho):
            raise ValueError(f"rho must be a finite number, got {self.rho!r}")
        if self.update_rule not in ("attractive", "additive"):
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        pair = self.init_range
        if not (type(pair) is tuple and len(pair) == 2 and all(map(_finite, pair)) and pair[0] < pair[1]):
            raise ValueError(f"init_range must be a finite pair (low, high) with low < high, got {pair!r}")


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def sbcm_partner_probs(opinions, u: int, rho):
    """Probability of user `u` picking each partner; entry u is zero.

    The weights are max(|x_u - x_v|, DISTANCE_EPS)^(-rho), normalized.
    """
    opinions = np.asarray(opinions, dtype=float)
    if opinions.size < 2:
        raise ValueError("need at least two users")
    w = np.abs(opinions[u] - opinions)
    np.log(np.maximum(w, DISTANCE_EPS, out=w), out=w)
    np.exp(np.multiply(w, -1.0 * rho, out=w), out=w)
    w[u] = 0.0
    return w / np.add.reduce(w)


def step_sbcm(opinions: np.ndarray, rng: np.random.Generator, config: SbcmGenConfig) -> np.ndarray:
    """One generator step, in place on float `opinions`; returns the (k, 2) int64
    (initiator, partner) pairs in draw order.  Partners are drawn as rng.choice
    would draw them, without its checks; one rng.random(k) equals k calls."""
    if np.asarray(opinions).dtype.kind != "f":
        raise TypeError("opinions must be floats: step_sbcm updates them in place")
    pairs = np.empty((config.initiators_per_step, 2), dtype=np.int64)
    pairs[:, 0] = rng.choice(config.num_users, size=config.initiators_per_step, replace=False)
    uniforms = rng.random(config.initiators_per_step)
    for i, (u, r) in enumerate(zip(pairs[:, 0].tolist(), uniforms.tolist())):
        cdf = np.add.accumulate(sbcm_partner_probs(opinions, u, config.rho))
        if not math.isfinite(cdf[-1]):
            raise ValueError(f"non-finite partner probabilities (rho={config.rho})")
        cdf /= cdf[-1]
        v = int(cdf.searchsorted(r, side="right"))
        pairs[i, 1] = v
        if config.update_rule == "attractive":
            opinions[u] = opinions[u] + config.mu * (opinions[v] - opinions[u])
        else:
            opinions[u] = opinions[u] + config.mu * opinions[v]
    return pairs


def _check_finite(opinions: np.ndarray):
    if not np.isfinite(opinions).all():
        raise ValueError("non-finite opinions")


def trajectory_to_dataset(trajectory: np.ndarray, num_classes: int = 5) -> OpinionDataset:
    """One post per user per step; label = discretized opinion, time = step."""
    num_users, num_steps = trajectory.shape
    labels = discretize_opinion(trajectory, num_classes).T.reshape(-1)
    users = np.tile(np.arange(num_users), num_steps)
    times = np.repeat(np.arange(num_steps, dtype=float), num_users)
    return OpinionDataset(users, times, labels, num_users, num_classes, float(num_steps))


def generate_sbcm_dataset(config: SbcmGenConfig):
    """Run the generator: (dataset, log, U x T trajectory), where the log is
    a (num_steps, k, 2) int64 array of each step's step_sbcm pairs."""
    rng = np.random.default_rng(config.seed)
    opinions = rng.uniform(*config.init_range, size=config.num_users)
    log = np.empty((config.num_steps, config.initiators_per_step, 2), dtype=np.int64)
    trajectory = np.empty((config.num_users, config.num_steps))
    for t in range(config.num_steps):
        trajectory[:, t] = opinions
        log[t] = step_sbcm(opinions, rng, config)
        _check_finite(opinions)
    return trajectory_to_dataset(trajectory), log, trajectory


def generate_degroot_dataset(num_users: int, num_steps: int, weights: np.ndarray, seed: int = 0):
    """Synchronous rollout x_u += sum_{v != u} a_uv x_v from uniform opinions
    in [-1, 1], discretized like the SBCM generator (diagonal of `weights` ignored)."""
    opinions = np.random.default_rng(seed).uniform(-1.0, 1.0, size=num_users)
    a = np.array(weights, dtype=float)
    np.fill_diagonal(a, 0.0)
    trajectory = np.empty((num_users, num_steps))
    for t in range(num_steps):
        trajectory[:, t] = opinions
        opinions = opinions + a @ opinions
        _check_finite(opinions)
    return trajectory_to_dataset(trajectory), trajectory


# ----- regime diagnostics and file export -------------------------------------


def cluster_summary(opinions: np.ndarray):
    """Locate opinion clusters as runs of occupied histogram bins.

    Returns (cluster centers, max gap between adjacent centers).  A bin
    counts as occupied when it holds at least CLUSTER_MIN_FRAC of the users.
    """
    opinions = np.asarray(opinions)
    lo = min(-1.0, opinions.min())
    hi = max(1.0, opinions.max())
    nbins = int(np.ceil((hi - lo) / CLUSTER_BIN_WIDTH))
    counts, edges = np.histogram(opinions, bins=nbins, range=(lo, lo + nbins * CLUSTER_BIN_WIDTH))
    occupied = counts >= max(1, int(np.ceil(CLUSTER_MIN_FRAC * opinions.size)))
    centers = []
    run_idx = []
    for i, occ in enumerate(occupied):
        if occ:
            run_idx.append(i)
        elif run_idx:
            centers.append(_run_center(run_idx, counts, edges))
            run_idx = []
    if run_idx:
        centers.append(_run_center(run_idx, counts, edges))
    gaps = np.diff(centers) if len(centers) > 1 else np.array([0.0])
    return np.array(centers), float(gaps.max())


def _run_center(run_idx, counts, edges):
    mids = (edges[:-1] + edges[1:]) / 2.0
    w = counts[run_idx]
    return float(np.average(mids[run_idx], weights=w))


def save_trajectory_csv(trajectory: np.ndarray, path):
    num_users = trajectory.shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"u{u}" for u in range(num_users)])
        for t in range(trajectory.shape[1]):
            writer.writerow([t] + [repr(float(v)) for v in trajectory[:, t]])


def save_interactions_csv(log: np.ndarray, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "initiator", "partner"])
        for t, pairs in enumerate(log.tolist()):
            writer.writerows([t, u, v] for u, v in pairs)
