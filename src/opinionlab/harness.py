"""Grid search, ablation runner, and comparison-table generation.

Grid cells and ablation arms train in one process pool, one worker per
usable core.  Grid cells are cached on disk under a hash of their
configuration, so an interrupted search resumes without retraining.
Ranking is by validation macro-F1 with ties broken by cell index.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from . import baselines, model as model_mod
from .data import OpinionDataset, ProfileCorpus
from .metrics import Metrics, compute_metrics
from .model import TrainConfig, train

DEFAULT_AXES = {
    "num_layers": [3, 5, 7],
    "width": [8, 12, 16],
    "alpha": [0.1, 1.0, 5.0],
    "beta": [0.1, 1.0, 5.0],
    "latent_dim": [1, 2, 3],
    "variant": ["degroot", "fj", "bcm", "sbcm"],
}


class AllCellsFailed(RuntimeError):
    """Every cell of a grid search raised; the message lists each one's error."""


@dataclass(frozen=True)
class GridSpec:
    axes: dict[str, list] = field(default_factory=lambda: dict(DEFAULT_AXES))

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid must have at least one axis")

    def cells(self) -> list[dict]:
        names = list(self.axes)
        return [dict(zip(names, combo)) for combo in product(*(self.axes[n] for n in names))]


def config_hash(config: TrainConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class CellResult:
    index: int
    config: TrainConfig
    hash: str
    val_acc: float
    val_f1: float
    test_acc: float | None = None
    test_f1: float | None = None


def evaluate_model(trained, dataset_split: OpinionDataset) -> Metrics:
    preds = trained.predict_proba(dataset_split.users(), dataset_split.times()).argmax(axis=1)
    return compute_metrics(dataset_split.labels(), preds, trained.num_classes)


def run_cell(splits, profiles: ProfileCorpus, config: TrainConfig, cache_dir: Path | None = None):
    """Train one configuration and score it on each non-empty split of
    (val, test), reading/writing the on-disk cache when `cache_dir` is set."""
    h = config_hash(config)
    run_dir = None if cache_dir is None else Path(cache_dir) / h
    if run_dir is not None and (run_dir / "metrics.json").exists():
        with open(run_dir / "metrics.json", encoding="utf-8") as fh:
            return json.load(fh)

    trained, history = train(splits, profiles, config)
    result = {"hash": h}
    for name, split in (("val", splits[1]), ("test", splits[2])):
        if len(split) > 0:
            metrics = evaluate_model(trained, split)
            result.update({f"{name}_acc": metrics.accuracy, f"{name}_f1": metrics.macro_f1})
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        model_mod.save_model(trained, run_dir / "checkpoint.json")
        model_mod.history_to_csv(history, run_dir / "history.csv")
        with open(run_dir / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
    return result


def _run_job(job):
    """(run_cell(*job), None), or (None, the exception it raised)."""
    try:
        return run_cell(*job), None
    except Exception as err:  # the caller decides whether a failure stops the set
        return None, err


def _run_jobs(jobs):
    """`_run_job` over `jobs` in a pool of one worker per job, at most one per usable core."""
    with ProcessPoolExecutor(max_workers=min(len(jobs), len(os.sched_getaffinity(0))) or 1) as pool:
        return list(pool.map(_run_job, jobs))


def grid_search(splits, profiles: ProfileCorpus, spec: GridSpec, base_config: TrainConfig,
                cache_dir=None):
    """Train every grid cell; returns (leaderboard, failed).

    The leaderboard holds the scored cells ordered by validation macro-F1
    descending, with the cell index as the deterministic tie-break; its
    first entry is the best cell.  `failed` maps the config hash of each
    cell that raised to its "{Type}: {message}".
    """
    if len(splits[1]) == 0:
        raise ValueError("grid search ranks cells by validation F1, but the validation split is empty")
    configs = [TrainConfig.from_dict({**base_config.to_dict(), **overrides}) for overrides in spec.cells()]
    outcomes = _run_jobs([(splits, profiles, c, cache_dir) for c in configs])
    scored = [CellResult(i, config, **res)
              for i, (config, (res, err)) in enumerate(zip(configs, outcomes)) if err is None]
    failed = {config_hash(config): f"{type(err).__name__}: {err}"
              for config, (_, err) in zip(configs, outcomes) if err is not None}
    if not scored:
        raise AllCellsFailed(f"every grid cell failed: {failed}")
    return sorted(scored, key=lambda r: (-r.val_f1, r.index)), failed


def leaderboard_to_csv(leaderboard, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_hash", "variant", "L", "width", "alpha", "beta", "K",
                         "val_f1", "val_acc"])
        for r in leaderboard:
            c = r.config
            writer.writerow([r.hash, c.variant, c.num_layers, c.width, repr(c.alpha),
                             repr(c.beta), c.latent_dim, repr(r.val_f1), repr(r.val_acc)])


# ----- gradient check ---------------------------------------------------------------


FD_EPSILON = 1e-6  # step of gradient_check's central finite differences


def gradient_check(variant: str = "sbcm", seed: int = 0):
    """Backpropagated vs central-finite-difference gradients on a tiny model.

    Builds a small synthetic problem, evaluates the full composite loss with
    frozen collocation times and noise, and compares every coordinate of
    every parameter.  Returns {group: max relative error}.
    """
    rng = np.random.default_rng(seed)
    num_users, num_classes = 4, 3
    labels = [int(rng.integers(0, num_classes)) for _ in range(6 * num_users)]
    train_ds = OpinionDataset(np.tile(np.arange(num_users), 6), np.repeat(np.arange(6.0), num_users),
                              labels, num_users, num_classes, 6.0)
    profiles = ProfileCorpus({u: f"user {u} talks about topic {u % 2}" for u in range(num_users)})
    config = TrainConfig(variant=variant, num_layers=2, width=5, latent_dim=2,
                         alpha=0.7, beta=0.3, collocation=2, seed=seed, embed_dim=6)
    trained = model_mod.build_model(train_ds, profiles, config)

    colloc = rng.uniform(0.0, train_ds.horizon, size=config.collocation)
    noise = model_mod.gumbel_noise(rng, (config.collocation, num_users, num_users))
    users, times, labels = train_ds.users(), train_ds.times(), train_ds.labels()

    def loss_value() -> float:
        loss, _ = model_mod.total_loss(trained, users, times, labels, colloc, noise)
        return loss.item()

    loss, _ = model_mod.total_loss(trained, users, times, labels, colloc, noise)
    for p in trained.parameters():
        p.grad = None
    loss.backward()

    errors = {}
    for name, params in trained.groups().items():
        worst = 0.0
        for p in params:
            grad = np.zeros_like(p.data) if p.grad is None else p.grad
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + FD_EPSILON
                up = loss_value()
                flat[i] = orig - FD_EPSILON
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2.0 * FD_EPSILON)
                g = grad.reshape(-1)[i]
                denom = max(abs(fd) + abs(g), 1e-8)
                worst = max(worst, float(abs(fd - g) / denom))
        errors[name] = worst
    return errors


# ----- ablation --------------------------------------------------------------------


def ablation_sinn_vs_nn(splits, profiles: ProfileCorpus, config: TrainConfig, seeds):
    """Paired runs: full model vs the alpha=beta=0 arm with matched seeds,
    both scored on the test split.  Returns rows of per-seed test metrics
    plus a median row; an arm that raised raises here."""
    if len(splits[2]) == 0:
        raise ValueError("the ablation scores the test split, which is empty")
    rows = [{"seed": int(seed)} for seed in seeds]
    arms = {"sinn": {}, "nn": {"alpha": 0.0, "beta": 0.0}}
    jobs = [(splits, profiles, TrainConfig.from_dict({**config.to_dict(), "seed": row["seed"], **overrides}),
             None) for row in rows for overrides in arms.values()]
    for (row, arm), (res, err) in zip(product(rows, arms), _run_jobs(jobs)):
        if err is not None:
            raise err
        row.update({f"{arm}_acc": res["test_acc"], f"{arm}_f1": res["test_f1"]})
    return rows + [{"seed": "median", **{key: float(np.median([row[key] for row in rows]))
                                         for key in ("sinn_acc", "sinn_f1", "nn_acc", "nn_f1")}}]


# ----- baselines + comparison table --------------------------------------------------


BASELINES = ("voter", "degroot", "aslm", "persistence")


def run_baselines(train_ds: OpinionDataset, test_ds: OpinionDataset, methods, seed: int = 0):
    """Score the named baselines (from BASELINES) on the test posts.

    Returns {method: {"acc", "f1", "predictions"}}: the metrics' mean over
    the method's runs (ten for the voter model, one otherwise) and the first
    run's predictions.  The train series is regularized once for all methods.
    """
    out = {}
    series = baselines.regularize_series(train_ds)
    for method in methods:
        if method == "voter":
            runs = baselines.voter_predict(series, test_ds, repeats=10, seed=seed)
        elif method == "degroot":
            runs = [baselines.degroot_predict(baselines.fit_degroot(series), test_ds)]
        elif method == "aslm":
            runs = [baselines.aslm_predict(baselines.fit_aslm(series), test_ds)]
        elif method == "persistence":
            runs = [baselines.persistence_predict(series, test_ds)]
        else:
            raise ValueError(f"unknown baseline {method!r}; choose from {BASELINES}")
        scores = [compute_metrics(test_ds.labels(), p, test_ds.num_classes) for p in runs]
        out[method] = {"acc": float(np.mean([s.accuracy for s in scores])),
                       "f1": float(np.mean([s.macro_f1 for s in scores])), "predictions": runs[0]}
    return out


COMPARISON_ROWS = [*BASELINES, "proposed"]


def comparison_table(rows: dict) -> list[list[str]]:
    """Methods x {ACC, F1} table; methods without results get blank cells."""
    table = [["method", "acc", "f1"]]
    for name in COMPARISON_ROWS:
        if name in rows:
            table.append([name, repr(rows[name]["acc"]), repr(rows[name]["f1"])])
        else:
            table.append([name, "", ""])
    return table


def save_predictions_csv(test_ds: OpinionDataset, pred_labels, method: str, path):
    columns = (test_ds.users().tolist(), test_ds.times().tolist(), test_ds.labels().tolist(),
               np.asarray(pred_labels).tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "time", "true_label", "pred_label", "method"])
        for user, time, true, pred in zip(*columns):
            writer.writerow([user, repr(time), true, pred, method])
