"""Grid search, caching, ablation, gradient check, and the comparison table."""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from opinionlab import harness
from opinionlab.data import OpinionDataset, ProfileCorpus, SplitSpec, chronological_split
from opinionlab.harness import (
    BASELINES,
    CellResult,
    GridSpec,
    ablation_sinn_vs_nn,
    comparison_table,
    config_hash,
    evaluate_model,
    gradient_check,
    grid_search,
    leaderboard_to_csv,
    run_baselines,
    run_cell,
)
from opinionlab.model import TrainConfig, TrainingDiverged, train


def tiny_splits(num_users=4, num_steps=10, seed=0, fractions=(0.5, 0.2, 0.3)):
    rng = np.random.default_rng(seed)
    posts = [(u, float(t), int(rng.integers(0, 3))) for t in range(num_steps) for u in range(num_users)]
    ds = OpinionDataset(*zip(*posts), num_users, 3, float(num_steps))
    return chronological_split(ds, SplitSpec(*fractions))


PROFILES = ProfileCorpus({u: f"user number {u}" for u in range(4)})
FAST = dict(epochs=2, num_layers=1, width=3, embed_dim=4, batch_size=16, seed=0)


def pin_cores(monkeypatch, cores):
    """Size the runner's pool as if `cores` cores were usable; returns the
    list of pool sizes it then asks for."""
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return sizes


def exact(values):
    return [float.hex(float(v)) for v in values]


class TestGridSpec:
    def test_cells_cartesian_product(self):
        spec = GridSpec({"alpha": [0.1, 1.0], "width": [8, 16], "variant": ["fj"]})
        cells = spec.cells()
        assert len(cells) == 4
        assert {"alpha": 0.1, "width": 16, "variant": "fj"} in cells

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            GridSpec({})

    def test_default_grid_size(self):
        assert len(GridSpec().cells()) == 3 * 3 * 3 * 3 * 3 * 4


class TestConfigHash:
    def test_stable_and_distinct(self):
        a = config_hash(TrainConfig(alpha=1.0))
        b = config_hash(TrainConfig(alpha=1.0))
        c = config_hash(TrainConfig(alpha=2.0))
        assert a == b
        assert a != c
        assert len(a) == 16


class TestGridSearch:
    def test_leaderboard_sorted_and_best(self, tmp_path):
        splits = tiny_splits()
        base = TrainConfig(**FAST)
        spec = GridSpec({"variant": ["fj", "sbcm"], "alpha": [0.0, 0.5]})
        leaderboard, failed = grid_search(splits, PROFILES, spec, base, cache_dir=tmp_path)
        assert len(leaderboard) == 4
        assert failed == {}
        f1s = [r.val_f1 for r in leaderboard]
        assert f1s == sorted(f1s, reverse=True)
        assert leaderboard[0].test_f1 is not None

    def test_cache_reused(self, tmp_path):
        splits = tiny_splits()
        base = TrainConfig(**FAST)
        spec = GridSpec({"variant": ["fj"], "alpha": [0.5]})
        lb1, _ = grid_search(splits, PROFILES, spec, base, cache_dir=tmp_path)
        run_dir = tmp_path / lb1[0].hash
        stamp = (run_dir / "metrics.json").read_bytes()
        lb2, _ = grid_search(splits, PROFILES, spec, base, cache_dir=tmp_path)
        assert (run_dir / "metrics.json").read_bytes() == stamp
        assert lb1[0].val_f1 == lb2[0].val_f1

    def test_tie_break_by_index(self):
        rows = [
            CellResult(1, TrainConfig(**FAST), "b", 0.5, 0.7),
            CellResult(0, TrainConfig(**FAST), "a", 0.5, 0.7),
        ]
        ordered = sorted(rows, key=lambda r: (-r.val_f1, r.index))
        assert [r.hash for r in ordered] == ["a", "b"]

    def test_failed_cell_recorded_search_continues(self, tmp_path, monkeypatch):
        # One worker, forked after the patch, so it runs the patched run_cell.
        pin_cores(monkeypatch, 1)
        splits = tiny_splits()
        base = TrainConfig(**FAST)
        real_run = harness.run_cell

        def flaky(splits_, profiles_, config, cache_dir=None):
            if config.variant == "bcm":
                raise RuntimeError("boom")
            return real_run(splits_, profiles_, config, cache_dir)

        monkeypatch.setattr(harness, "run_cell", flaky)
        spec = GridSpec({"variant": ["bcm", "fj"]})
        leaderboard, failed = grid_search(splits, PROFILES, spec, base, cache_dir=tmp_path)
        assert [r.config.variant for r in leaderboard] == ["fj"]
        bcm_hash = config_hash(TrainConfig(**{**FAST, "variant": "bcm"}))
        assert failed == {bcm_hash: "RuntimeError: boom"}

    def test_pool_matches_serial(self, monkeypatch):
        """One worker or two, the pooled scores equal in-process run_cell
        calls bitwise."""
        splits = tiny_splits()
        variants = ["fj", "sbcm", "bcm"]
        expected = {}
        for variant in variants:
            res = run_cell(splits, PROFILES, TrainConfig(**{**FAST, "variant": variant}))
            expected[res["hash"]] = exact([res["val_f1"], res["val_acc"],
                                           res["test_f1"], res["test_acc"]])
        for cores in (1, 2):
            sizes = pin_cores(monkeypatch, cores)
            board, failed = grid_search(splits, PROFILES, GridSpec({"variant": variants}),
                                        TrainConfig(**FAST))
            assert sizes == [cores] and failed == {}
            assert {r.hash: exact([r.val_f1, r.val_acc, r.test_f1, r.test_acc])
                    for r in board} == expected

    def test_pool_never_larger_than_the_job_list(self, monkeypatch):
        sizes = pin_cores(monkeypatch, 8)
        grid_search(tiny_splits(), PROFILES, GridSpec({"variant": ["fj", "sbcm"]}),
                    TrainConfig(**FAST))
        assert sizes == [2]

    def test_empty_validation_split_refused_before_training(self, monkeypatch):
        splits = tiny_splits(fractions=(0.7, 0.0, 0.3))
        monkeypatch.setattr(harness, "_run_jobs", lambda jobs: pytest.fail("trained"))
        with pytest.raises(ValueError, match="validation split is empty"):
            grid_search(splits, PROFILES, GridSpec({"variant": ["fj"]}), TrainConfig(**FAST))

    def test_all_cells_failed_raises(self, monkeypatch):
        pin_cores(monkeypatch, 1)
        splits = tiny_splits()
        monkeypatch.setattr(harness, "run_cell",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError, match="every grid cell failed"):
            grid_search(splits, PROFILES, GridSpec({"variant": ["fj"]}), TrainConfig(**FAST))

    def test_leaderboard_csv(self, tmp_path):
        rows = [CellResult(0, TrainConfig(**FAST), "abc", 0.25, 0.5)]
        path = tmp_path / "lb.csv"
        leaderboard_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config_hash,variant,L,width,alpha,beta,K,val_f1,val_acc"
        assert lines[1].startswith("abc,sbcm,1,3,")


class TestGradientCheck:
    @pytest.mark.parametrize("variant", ["degroot", "fj", "bcm", "sbcm"])
    def test_all_groups_accurate(self, variant):
        errors = gradient_check(variant, seed=0)
        assert set(errors) == {"fnn", "head", "attention", "ode"}
        for group, err in errors.items():
            assert err < 1e-4, f"{variant}/{group}: {err}"


class TestAblation:
    def test_rows_and_median(self):
        splits = tiny_splits()
        cfg = TrainConfig(**FAST)
        rows = ablation_sinn_vs_nn(splits, PROFILES, cfg, seeds=[0, 1])
        assert len(rows) == 3
        assert rows[-1]["seed"] == "median"
        assert rows[-1]["sinn_f1"] == pytest.approx(
            float(np.median([rows[0]["sinn_f1"], rows[1]["sinn_f1"]])))

    def test_pool_matches_in_process_training(self, monkeypatch):
        """One worker or two, every arm's test scores equal an in-process
        train-and-evaluate bitwise."""
        splits = tiny_splits()
        expected = []
        for seed in (0, 1):
            for overrides in ({}, {"alpha": 0.0, "beta": 0.0}):
                trained, _ = train(splits, PROFILES, TrainConfig(**{**FAST, "seed": seed, **overrides}))
                metrics = evaluate_model(trained, splits[2])
                expected += [metrics.accuracy, metrics.macro_f1]
        for cores in (1, 2):
            sizes = pin_cores(monkeypatch, cores)
            rows = ablation_sinn_vs_nn(splits, PROFILES, TrainConfig(**FAST), seeds=[0, 1])
            assert sizes == [cores]
            assert exact(row[key] for row in rows[:2]
                         for key in ("sinn_acc", "sinn_f1", "nn_acc", "nn_f1")) == exact(expected)

    def test_failed_arm_raises(self, monkeypatch):
        pin_cores(monkeypatch, 1)
        real_run = harness.run_cell

        def diverging(splits_, profiles_, config, cache_dir=None):
            if config.alpha == 0.0:
                raise TrainingDiverged("non-finite data loss")
            return real_run(splits_, profiles_, config, cache_dir)

        monkeypatch.setattr(harness, "run_cell", diverging)
        with pytest.raises(TrainingDiverged, match="non-finite data loss"):
            ablation_sinn_vs_nn(tiny_splits(), PROFILES, TrainConfig(**FAST), seeds=[0])

    def test_empty_test_split_refused_before_training(self, monkeypatch):
        splits = tiny_splits(fractions=(0.7, 0.3, 0.0))
        monkeypatch.setattr(harness, "_run_jobs", lambda jobs: pytest.fail("trained"))
        with pytest.raises(ValueError, match="test split, which is empty"):
            ablation_sinn_vs_nn(splits, PROFILES, TrainConfig(**FAST), seeds=[0])


class TestBaselinesAndReport:
    def test_run_baselines_all_methods(self):
        splits = tiny_splits(num_steps=20)
        results = run_baselines(splits[0], splits[2], BASELINES, seed=0)
        for method in ("voter", "degroot", "aslm", "persistence"):
            assert 0.0 <= results[method]["acc"] <= 1.0
            assert 0.0 <= results[method]["f1"] <= 1.0
            assert len(results[method]["predictions"]) == len(splits[2])

    def test_unknown_method(self):
        splits = tiny_splits()
        with pytest.raises(ValueError):
            run_baselines(splits[0], splits[2], ["oracle"])

    def test_comparison_table_blank_rows(self):
        table = comparison_table({"voter": {"acc": 0.5, "f1": 0.25}})
        header, *rows = table
        assert header == ["method", "acc", "f1"]
        by_name = {r[0]: r for r in rows}
        assert by_name["voter"] == ["voter", "0.5", "0.25"]
        assert [r[0] for r in rows] == ["voter", "degroot", "aslm", "persistence", "proposed"]
        assert by_name["persistence"] == ["persistence", "", ""]
        assert by_name["proposed"] == ["proposed", "", ""]
