"""Command-line entry point.

Subcommands: simulate, train, evaluate, baseline, gridsearch, ablate,
gradcheck, report.  Run configuration is a JSON file with up to four
sections -- "data", "model", "train", "sim" -- validated strictly: unknown
sections or keys are errors.  All artifacts are deterministic for a fixed
seed (stable key order, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import harness, model as model_mod, simulate
from .data import (
    DatasetError,
    ProfileCorpus,
    SplitSpec,
    chronological_split,
    load_dataset,
    load_profiles,
    save_dataset,
)
from .harness import evaluate_model, run_baselines
from .model import TrainConfig, train

DATA_KEYS = {"dataset", "profiles", "split"}
MODEL_KEYS = {"variant", "num_layers", "width", "latent_dim", "embed_dim"}
TRAIN_KEYS = {"alpha", "beta", "collocation", "epochs", "batch_size",
              "learning_rate", "seed"}
SIM_KEYS = {"preset", "num_users", "num_steps", "initiators_per_step", "mu",
            "rho", "update_rule", "init_range", "seed", "num_classes"}
SECTION_KEYS = {"data": DATA_KEYS, "model": MODEL_KEYS, "train": TRAIN_KEYS, "sim": SIM_KEYS}


class CliError(Exception):
    """User-facing configuration or usage error."""


def load_run_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: run config must be a JSON object")
    for section, content in doc.items():
        if section not in SECTION_KEYS:
            raise CliError(f"{path}: unknown section {section!r}")
        if not isinstance(content, dict):
            raise CliError(f"{path}: section {section!r} must be an object")
        unknown = set(content) - SECTION_KEYS[section]
        if unknown:
            raise CliError(f"{path}: unknown keys in {section!r}: {sorted(unknown)}")
    return doc


def _train_config(doc: dict, seed_override=None) -> TrainConfig:
    merged = {}
    merged.update(doc.get("model", {}))
    merged.update(doc.get("train", {}))
    if seed_override is not None:
        merged["seed"] = seed_override
    try:
        return TrainConfig.from_dict(merged)
    except (TypeError, ValueError) as err:
        raise CliError(f"bad model/train configuration: {err}") from err


def _sim_config(doc: dict, preset=None, seed=None):
    """(preset, SbcmGenConfig, num_classes) from the "sim" section; a preset
    or seed given on the command line overrides the section's.  A preset
    sets rho and update_rule, so the section may not set them beside one."""
    sim = dict(doc.get("sim", {}))
    preset = preset or sim.get("preset")
    sim.pop("preset", None)
    num_classes = sim.pop("num_classes", 5)
    if preset is not None:
        if preset not in sorted(simulate.PRESETS):  # a list: the section's preset may be unhashable
            raise CliError(f"unknown preset {preset!r}; choose from {sorted(simulate.PRESETS)}")
        clash = sorted(set(sim) & set(simulate.PRESETS[preset]))
        if clash:
            raise CliError(f"preset {preset!r} sets {clash}; set them without a preset, or drop them")
        sim.update(simulate.PRESETS[preset])
    if seed is not None:
        sim["seed"] = seed
    if isinstance(sim.get("init_range"), list):
        sim["init_range"] = tuple(sim["init_range"])
    try:
        if type(num_classes) is not int or num_classes < 2:
            raise ValueError(f"num_classes must be an integer >= 2, got {num_classes!r}")
        return preset, simulate.SbcmGenConfig(**sim), num_classes
    except (TypeError, ValueError) as err:
        raise CliError(f"bad sim configuration: {err}") from err


def _load_data(doc: dict):
    data = doc.get("data", {})
    if "dataset" not in data:
        raise CliError('run config needs a "data" section with a "dataset" path')
    for key in ("dataset", "profiles"):
        if not isinstance(data.get(key, ""), str):
            raise CliError(f"bad data configuration: {key} must be a path string, got {data[key]!r}")
    frac = data.get("split", [0.5, 0.2, 0.3])
    if not (isinstance(frac, list) and len(frac) == 3
            and all(type(f) in (int, float) and abs(f) <= sys.float_info.max for f in frac)):
        raise CliError(f"bad data configuration: split must be [train, val, test] fractions, got {frac!r}")
    profiles = load_profiles(data["profiles"]) if "profiles" in data else ProfileCorpus({})
    splits = chronological_split(load_dataset(data["dataset"]), SplitSpec(*[float(f) for f in frac]))
    return profiles, splits


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----- subcommands --------------------------------------------------------------


def cmd_simulate(args) -> int:
    doc = load_run_config(args.config) if args.config else {}
    preset, config, num_classes = _sim_config(doc, args.preset, args.seed)
    _, log, trajectory = simulate.generate_sbcm_dataset(config)
    dataset = simulate.trajectory_to_dataset(trajectory, num_classes)
    out = _out_dir(args)
    save_dataset(dataset, out / "dataset.jsonl")
    simulate.save_trajectory_csv(trajectory, out / "trajectory.csv")
    simulate.save_interactions_csv(log, out / "interactions.csv")

    final = trajectory[:, -1]
    centers, max_gap = simulate.cluster_summary(final)
    summary = {
        "preset": preset,
        "rho": config.rho,
        "num_users": config.num_users,
        "num_steps": config.num_steps,
        "final_std": float(final.std()),
        "num_clusters": len(centers),
        "cluster_centers": [float(c) for c in centers],
        "max_cluster_gap": max_gap,
    }
    _write_json(out / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    doc = load_run_config(args.config)
    profiles, splits = _load_data(doc)
    config = _train_config(doc, args.seed)
    trained, history = train(splits, profiles, config)
    out = _out_dir(args)
    model_mod.save_model(trained, out / "checkpoint.json")
    model_mod.history_to_csv(history, out / "history.csv")

    result = {"config": config.to_dict(), "selection": model_mod.selection_rule(splits[1])}
    scores = {}
    for name, split in (("val", splits[1]), ("test", splits[2])):
        if len(split) > 0:
            metrics = evaluate_model(trained, split)
            result[name] = {**asdict(metrics), "confusion": metrics.confusion.tolist()}
            scores.update({f"{name}_acc": result[name]["accuracy"],
                           f"{name}_f1": result[name]["macro_f1"]})
    _write_json(out / "metrics.json", result)
    print(json.dumps(scores, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    doc = load_run_config(args.config)
    profiles, splits = _load_data(doc)
    trained = model_mod.load_model(args.checkpoint, profiles)
    split = {"train": 0, "val": 1, "test": 2}[args.split]
    metrics = evaluate_model(trained, splits[split])
    result = {"split": args.split, **asdict(metrics), "confusion": metrics.confusion.tolist()}
    if args.out:
        _write_json(_out_dir(args) / "metrics.json", result)
    print(json.dumps({"split": args.split, "acc": metrics.accuracy, "f1": metrics.macro_f1},
                     sort_keys=True))
    return 0


def cmd_baseline(args) -> int:
    doc = load_run_config(args.config)
    _, splits = _load_data(doc)
    test_ds = splits[2]
    methods = harness.BASELINES if args.method == "all" else [args.method]
    results = run_baselines(splits[0], test_ds, methods, seed=args.seed)
    out = _out_dir(args)
    summary = {}
    for method, res in results.items():
        summary[method] = {"acc": res["acc"], "f1": res["f1"]}
        harness.save_predictions_csv(test_ds, res["predictions"], method,
                                     out / f"predictions_{method}.csv")
    _write_json(out / "metrics.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def parse_axes(text: str) -> dict:
    """Parse 'alpha=0.1,1.0;width=8,16' into typed axis lists."""
    axes = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"bad axis spec {part!r}; expected name=v1,v2,...")
        name, values = part.split("=", 1)
        name = name.strip()
        if name not in harness.DEFAULT_AXES:
            raise CliError(f"unknown grid axis {name!r}; choose from {sorted(harness.DEFAULT_AXES)}")
        cast = type(harness.DEFAULT_AXES[name][0])
        axes[name] = [cast(v.strip()) for v in values.split(",") if v.strip()]
        if not axes[name]:
            raise CliError(f"axis {name!r} has no values")
    if not axes:
        raise CliError("empty grid specification")
    return axes


def cmd_gridsearch(args) -> int:
    doc = load_run_config(args.config)
    profiles, splits = _load_data(doc)
    base = _train_config(doc, args.seed)
    axes = parse_axes(args.axes) if args.axes else dict(harness.DEFAULT_AXES)
    try:
        leaderboard, failed = harness.grid_search(splits, profiles, harness.GridSpec(axes), base,
                                                  cache_dir=Path(args.out) / "runs")
    except harness.AllCellsFailed as err:
        raise CliError(str(err)) from err
    harness.leaderboard_to_csv(leaderboard, _out_dir(args) / "leaderboard.csv")
    best = leaderboard[0]
    print(json.dumps({"best_hash": best.hash, "best_val_f1": best.val_f1,
                      "best_val_acc": best.val_acc,
                      **({"best_test_f1": best.test_f1, "best_test_acc": best.test_acc}
                         if best.test_f1 is not None else {}),
                      "cells": len(leaderboard), "failed": failed}, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    doc = load_run_config(args.config)
    profiles, splits = _load_data(doc)
    config = _train_config(doc)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise CliError("no seeds given")
    rows = harness.ablation_sinn_vs_nn(splits, profiles, config, seeds)
    out = _out_dir(args)
    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "sinn_acc", "sinn_f1", "nn_acc", "nn_f1"])
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps(rows[-1], sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    variants = [args.variant] if args.variant else list(model_mod.VARIANTS)
    worst = 0.0
    for variant in variants:
        errors = harness.gradient_check(variant, seed=args.seed)
        for group, err in errors.items():
            print(f"{variant}/{group}: max rel err {err:.3e}")
            worst = max(worst, err)
    print(json.dumps({"worst": worst, "ok": worst < args.tolerance}, sort_keys=True))
    return 0 if worst < args.tolerance else 1


def cmd_report(args) -> int:
    doc = load_run_config(args.config)
    profiles, splits = _load_data(doc)
    test_ds = splits[2]
    rows = run_baselines(splits[0], test_ds, harness.BASELINES, seed=args.seed)
    if args.checkpoint:
        trained = model_mod.load_model(args.checkpoint, profiles)
        m = evaluate_model(trained, test_ds)
        rows["proposed"] = {"acc": m.accuracy, "f1": m.macro_f1}
    table = harness.comparison_table(rows)
    out = _out_dir(args)
    with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(table)
    widths = [max(len(row[i]) for row in table) for i in range(3)]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


# ----- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opinionlab",
                                     description="opinion-dynamics simulation, training, and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="run-config JSON with a 'sim' section")
    p.add_argument("--preset", choices=sorted(simulate.PRESETS),
                   help="regime preset setting the partner-choice exponent")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the ODE-regularized model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved checkpoint on a split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="fit and score the classical baselines")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=[*harness.BASELINES, "all"], default="all")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("gridsearch", help="train every cell of a hyperparameter grid")
    p.add_argument("--config", required=True)
    p.add_argument("--axes", help="e.g. 'alpha=0.1,1.0;width=8,16' (default: full grid)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("ablate", help="paired runs with and without the ODE loss")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--variant", choices=list(model_mod.VARIANTS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="comparison table of baselines and the model")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="include a trained model in the table")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DatasetError, OSError, ValueError, model_mod.TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
