"""End-to-end command-line interface behavior."""

import itertools
import json
import math
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opinionlab import cli, simulate
from opinionlab.cli import CliError, load_run_config, main, parse_axes
from opinionlab.data import OpinionDataset, ProfileCorpus, save_dataset, save_profiles
from opinionlab.harness import config_hash
from opinionlab.model import VARIANTS, TrainConfig, TrainingDiverged

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def workspace(tmp_path):
    """A small dataset + profiles + run config on disk."""
    rng = np.random.default_rng(0)
    posts = [(u, float(t), int(rng.integers(0, 3))) for t in range(12) for u in range(4)]
    ds = OpinionDataset(*zip(*posts), 4, 3, 12.0)
    save_dataset(ds, tmp_path / "dataset.jsonl")
    save_profiles(ProfileCorpus({u: f"user number {u}" for u in range(4)}),
                  tmp_path / "profiles.json")
    config = {
        "data": {"dataset": str(tmp_path / "dataset.jsonl"),
                 "profiles": str(tmp_path / "profiles.json"),
                 "split": [0.5, 0.2, 0.3]},
        "model": {"variant": "sbcm", "num_layers": 1, "width": 3, "embed_dim": 4},
        "train": {"epochs": 2, "batch_size": 16, "seed": 0},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path


class TestRunConfig:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"datums": {}}))
        with pytest.raises(CliError, match="unknown section"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"epochs": 5, "warp_speed": True}}))
        with pytest.raises(CliError, match="warp_speed"):
            load_run_config(path)

    def test_non_object_section_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": [1, 2]}))
        with pytest.raises(CliError):
            load_run_config(path)

    def test_valid_config_loads(self, workspace):
        _, cfg_path = workspace
        doc = load_run_config(cfg_path)
        assert doc["train"]["epochs"] == 2

    def test_key_lists_match_train_config(self):
        assert not cli.MODEL_KEYS & cli.TRAIN_KEYS
        assert cli.MODEL_KEYS | cli.TRAIN_KEYS == {f.name for f in fields(TrainConfig)}

    def test_readme_table_lists_the_accepted_keys(self, tmp_path):
        """README's run-config table names, section by section, exactly the
        keys that load_run_config accepts."""
        lines = README.read_text(encoding="utf-8").splitlines()
        start = lines.index("| section | key | type and range (default) |") + 2
        documented = {}
        for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
            _, section, keys, *_ = line.split("|")
            documented.setdefault(section.strip().strip("`"), set()).update(re.findall(r"`(\w+)`", keys))
        assert documented == cli.SECTION_KEYS
        path = tmp_path / "run.json"
        path.write_text(json.dumps({s: dict.fromkeys(keys) for s, keys in documented.items()}))
        load_run_config(path)


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=5)
CONFIG_KEYS = st.sampled_from(sorted(cli.MODEL_KEYS | cli.TRAIN_KEYS)) | st.text(max_size=4)
SECTIONS = st.dictionaries(CONFIG_KEYS, st.integers(-2, 4) | st.floats() | st.sampled_from(VARIANTS)
                           | JSON_VALUES, max_size=8)
RUN_CONFIGS = JSON_VALUES | st.dictionaries(st.sampled_from(["model", "train"]) | st.text(max_size=4),
                                            SECTIONS | JSON_VALUES, max_size=3)


def assert_valid_config(config):
    """Every TrainConfig field within the range the README documents."""
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if f.type == "int":
            assert type(value) is int and value >= (0 if f.name == "seed" else 1), f.name
        elif f.type == "float":
            assert type(value) in (int, float) and math.isfinite(value) and value >= 0, f.name
            assert f.name != "learning_rate" or value > 0
        else:
            assert value in VARIANTS


class TestRunConfigProperty:
    @settings(max_examples=400, deadline=None)
    @given(RUN_CONFIGS)
    def test_loads_valid_config_or_raises_cli_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                config = cli._train_config(load_run_config(path))
            except CliError:
                return
        assert_valid_config(config)


SIM_INTEGERS = ("num_users", "num_steps", "initiators_per_step", "seed")
SIM_SECTIONS = st.dictionaries(
    st.sampled_from(sorted(cli.SIM_KEYS) + ["bogus"]),
    st.integers(-2, 20) | st.floats() | st.sampled_from([*simulate.PRESETS, "attractive", "additive"])
    | st.lists(st.integers(-2, 2) | st.floats(), max_size=3) | JSON_VALUES, max_size=6)
SIM_CONFIGS = st.fixed_dictionaries({"sim": SIM_SECTIONS | JSON_VALUES}) | JSON_VALUES


def assert_valid_sim_config(preset, config, num_classes):
    """Every simulator setting within the range the README documents."""
    assert preset is None or preset in simulate.PRESETS
    assert type(num_classes) is int and num_classes >= 2
    for name in SIM_INTEGERS:
        value = getattr(config, name)
        assert type(value) is int and value >= (2 if name == "num_users" else 0 if name == "seed" else 1)
    assert config.initiators_per_step <= config.num_users
    for name in ("mu", "rho"):
        assert type(getattr(config, name)) in (int, float) and math.isfinite(getattr(config, name))
    assert 0 < config.mu <= 1
    assert config.update_rule in ("attractive", "additive")
    low, high = config.init_range
    assert all(type(v) in (int, float) and math.isfinite(v) for v in (low, high)) and low < high


class TestSimConfigProperty:
    @settings(max_examples=400, deadline=None)
    @given(SIM_CONFIGS)
    def test_builds_valid_sim_config_or_raises_cli_error(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                built = cli._sim_config(load_run_config(path))
            except CliError:
                return
        assert_valid_sim_config(*built)


class TestParseAxes:
    def test_typed_values(self):
        axes = parse_axes("alpha=0.1,1.0;width=8,16;variant=fj,sbcm")
        assert axes == {"alpha": [0.1, 1.0], "width": [8, 16], "variant": ["fj", "sbcm"]}

    def test_unknown_axis(self):
        with pytest.raises(CliError):
            parse_axes("flux=1,2")

    def test_malformed(self):
        with pytest.raises(CliError):
            parse_axes("alpha")
        with pytest.raises(CliError):
            parse_axes("")


class TestSimulateCommand:
    def test_preset_writes_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--preset", "consensus", "--out", str(out), "--seed", "0",
                     "--config", str(_sim_config(tmp_path, num_users=30, num_steps=20))])
        assert code == 0
        for name in ("dataset.jsonl", "trajectory.csv", "interactions.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["preset"] == "consensus"
        assert summary["rho"] == -1.0
        assert "final_std" in summary
        assert "num_clusters" in summary

    def test_unknown_preset_fails(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x"),
                     "--config", str(_bad_preset_config(tmp_path))])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("num_steps", 0, id="no_steps"),
        pytest.param("num_classes", 1, id="one_class"),
        pytest.param("num_classes", 2.5, id="fractional_classes"),
        pytest.param("initiators_per_step", -2, id="negative_initiators"),
        pytest.param("mu", "x", id="mu_text"),
        pytest.param("rho", None, id="rho_null"),
        pytest.param("num_users", True, id="users_bool"),
        pytest.param("init_range", [1.0, -1.0], id="init_range_reversed"),
        pytest.param("init_range", 3, id="init_range_scalar"),
    ])
    def test_invalid_sim_value_is_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "sim"
        cfg = _sim_config(tmp_path, **{"num_users": 10, "num_steps": 5, key: value})
        assert main(["simulate", "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad sim configuration") and key in err
        assert not out.exists()

    def test_command_line_preset_overrides_section(self, tmp_path, capsys):
        cfg = _sim_config(tmp_path, num_users=10, num_steps=5, preset="polarization")
        assert main(["simulate", "--preset", "consensus", "--out", str(tmp_path / "sim"),
                     "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out.strip())["preset"] == "consensus"

    @pytest.mark.parametrize("preset, sim, keys", [
        pytest.param(None, {"preset": "consensus", "rho": 0.7, "update_rule": "additive"},
                     "['rho', 'update_rule']", id="section_preset"),
        pytest.param("consensus", {"rho": 0.7}, "['rho']", id="command_line_preset"),
        pytest.param("polarization", {"preset": "clustering", "update_rule": "additive"},
                     "['update_rule']", id="same_rule"),
    ])
    def test_preset_refuses_explicit_rho_or_rule(self, tmp_path, capsys, preset, sim, keys):
        """A preset sets rho and the update rule, so setting either beside
        it is an error naming the keys, not a silent override."""
        out = tmp_path / "sim"
        cfg = _sim_config(tmp_path, num_users=10, num_steps=5, **sim)
        argv = ["simulate", "--out", str(out), "--config", str(cfg)] + (["--preset", preset] if preset else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: preset") and keys in err
        assert not out.exists()

    def test_deterministic_artifacts(self, tmp_path):
        cfg = _sim_config(tmp_path, num_users=20, num_steps=10)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--preset", "clustering", "--out", str(a),
                     "--seed", "3", "--config", str(cfg)]) == 0
        assert main(["simulate", "--preset", "clustering", "--out", str(b),
                     "--seed", "3", "--config", str(cfg)]) == 0
        for name in ("dataset.jsonl", "trajectory.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainCommand:
    def test_writes_artifacts(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        for name in ("checkpoint.json", "history.csv", "metrics.json"):
            assert (out / name).exists()
        printed = json.loads(capsys.readouterr().out.strip())
        assert {"val_acc", "val_f1", "test_acc", "test_f1"} <= set(printed)

    def test_metrics_record_selection_rule(self, workspace):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        doc["data"]["split"] = [0.7, 0.0, 0.3]
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
        rules = [json.loads((tmp_path / d / "metrics.json").read_text())["selection"] for d in "ab"]
        assert rules == ["best_val_macro_f1", "last_epoch"]

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("train", "alpha", float("nan"), id="alpha_nan"),
        pytest.param("train", "learning_rate", -1.0, id="learning_rate_negative"),
        pytest.param("train", "epochs", 2.5, id="epochs_fraction"),
        pytest.param("train", "batch_size", 1.5, id="batch_size_fraction"),
        pytest.param("model", "width", 2.0, id="width_float"),
    ])
    def test_invalid_value_is_error(self, workspace, capsys, section, key, value):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad model/train configuration") and key in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key, value", [
        pytest.param("split", 5, id="split_number"),
        pytest.param("split", [None, 0.2, 0.8], id="split_null_entry"),
        pytest.param("split", "abc", id="split_string"),
        pytest.param("split", [True, 0, 0], id="split_bool_entry"),
        pytest.param("split", [float("nan"), 0.5, 0.5], id="split_nan_entry"),
        pytest.param("dataset", None, id="dataset_null"),
        pytest.param("dataset", [1], id="dataset_list"),
        pytest.param("dataset", {"a": 1}, id="dataset_object"),
        pytest.param("profiles", 3, id="profiles_number"),
    ])
    def test_invalid_data_value_is_error(self, workspace, capsys, key, value):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["data"][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["baseline", "--config", str(cfg_path), "--out", str(tmp_path / "bl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad data configuration") and key in err
        assert not (tmp_path / "bl").exists()

    def test_profile_ids_outside_users_are_error(self, workspace, capsys):
        """A profile file keyed 1..U for users 0..U-1 is refused rather than
        training a model that never reads the profile of id U."""
        tmp_path, cfg_path = workspace
        save_profiles(ProfileCorpus({u + 1: f"user number {u}" for u in range(4)}), tmp_path / "profiles.json")
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: profile id 4 is not a user id in [0, 4)")
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"dataset": str(tmp_path / "nope.jsonl")}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_saved_checkpoint(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(out / "checkpoint.json"), "--split", "val"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["split"] == "val"
        assert 0.0 <= printed["acc"] <= 1.0

    def test_malformed_checkpoint_is_error(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out)])
        doc = json.loads((out / "checkpoint.json").read_text())
        del doc["horizon"]
        (out / "checkpoint.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(out / "checkpoint.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'horizon'" in err


class TestBaselineCommand:
    def test_all_methods(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "bl"
        assert main(["baseline", "--config", str(cfg_path), "--method", "all",
                     "--out", str(out), "--seed", "0"]) == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert set(summary) == {"voter", "degroot", "aslm", "persistence"}
        for method in summary:
            assert (out / f"predictions_{method}.csv").exists()


@pytest.mark.parametrize("command", ["baseline", "report"])
def test_empty_test_split_is_error(workspace, capsys, command):
    """`run_baselines` refuses an empty test split before fitting, and the
    command writes nothing."""
    tmp_path, cfg_path = workspace
    doc = json.loads(cfg_path.read_text())
    doc["data"]["split"] = [0.75, 0.25, 0.0]
    cfg_path.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: the test split is empty\n"
    assert not (tmp_path / "out").exists()


class TestGradcheckCommand:
    def test_single_variant_passes(self, capsys):
        assert main(["gradcheck", "--variant", "fj", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fj/fnn" in out
        assert json.loads(out.strip().splitlines()[-1])["ok"] is True


class TestGridsearchCommand:
    def test_small_grid(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "grid"
        code = main(["gridsearch", "--config", str(cfg_path),
                     "--axes", "variant=fj,sbcm", "--out", str(out)])
        assert code == 0
        assert (out / "leaderboard.csv").exists()
        printed = json.loads(capsys.readouterr().out.strip())
        assert printed["cells"] == 2
        assert printed["failed"] == {}

    def test_failed_cell_reported(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace
        real_run = cli.harness.run_cell

        def flaky(splits, profiles, config, cache_dir=None):
            if config.variant == "bcm":
                raise RuntimeError("boom")
            return real_run(splits, profiles, config, cache_dir)

        monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0})  # forked after the patch
        monkeypatch.setattr(cli.harness, "run_cell", flaky)
        code = main(["gridsearch", "--config", str(cfg_path),
                     "--axes", "variant=bcm,fj", "--out", str(tmp_path / "grid")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out.strip())
        doc = load_run_config(cfg_path)
        bcm = cli._train_config({**doc, "model": {**doc["model"], "variant": "bcm"}})
        assert printed["cells"] == 1
        assert printed["failed"] == {config_hash(bcm): "RuntimeError: boom"}

    def test_all_cells_failed_is_error(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace
        monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(cli.harness, "run_cell",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        code = main(["gridsearch", "--config", str(cfg_path),
                     "--axes", "variant=fj", "--out", str(tmp_path / "grid")])
        assert code == 2
        err = capsys.readouterr().err
        assert "every grid cell failed" in err and "RuntimeError: boom" in err
        assert not (tmp_path / "grid").exists()

    def test_empty_validation_split_refused_before_training(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["data"]["split"] = [0.7, 0.0, 0.3]
        cfg_path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli.harness, "_run_jobs", lambda *a, **k: pytest.fail("trained"))
        code = main(["gridsearch", "--config", str(cfg_path), "--axes", "variant=fj",
                     "--out", str(tmp_path / "grid")])
        assert code == 2
        assert "validation split is empty" in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    def test_jobs_option_removed(self, workspace):
        tmp_path, cfg_path = workspace
        with pytest.raises(SystemExit):
            main(["gridsearch", "--config", str(cfg_path), "--axes", "variant=fj",
                  "--jobs", "2", "--out", str(tmp_path / "grid")])


class TestAblateCommand:
    def test_writes_csv(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(cfg_path), "--seeds", "0,1",
                     "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,sinn_acc,sinn_f1,nn_acc,nn_f1"
        assert len(lines) == 4  # header + 2 seeds + median
        assert lines[-1].startswith("median,")

    def test_empty_test_split_refused_before_training(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["data"]["split"] = [0.75, 0.25, 0.0]
        cfg_path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli.harness, "_run_jobs", lambda *a, **k: pytest.fail("trained"))
        code = main(["ablate", "--config", str(cfg_path), "--seeds", "0", "--out", str(tmp_path / "abl")])
        assert code == 2
        assert "test split, which is empty" in capsys.readouterr().err

    def test_diverged_arm_is_error(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace
        monkeypatch.setattr(cli.harness.os, "sched_getaffinity", lambda pid: {0})  # forked after the patch
        monkeypatch.setattr(cli.harness, "run_cell",
                            lambda *a, **k: (_ for _ in ()).throw(TrainingDiverged("non-finite data loss")))
        code = main(["ablate", "--config", str(cfg_path), "--seeds", "0", "--out", str(tmp_path / "abl")])
        assert code == 2
        assert "error: non-finite data loss" in capsys.readouterr().err


class TestReportCommand:
    def test_table_with_model(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        run = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(run)])
        capsys.readouterr()
        out = tmp_path / "rep"
        assert main(["report", "--config", str(cfg_path),
                     "--checkpoint", str(run / "checkpoint.json"),
                     "--out", str(out), "--seed", "0"]) == 0
        table = (out / "comparison.csv").read_text().strip().splitlines()
        assert table[0] == "method,acc,f1"
        names = [line.split(",")[0] for line in table[1:]]
        assert names == ["voter", "degroot", "aslm", "persistence", "proposed"]
        by_name = {line.split(",")[0]: line for line in table[1:]}
        assert by_name["persistence"].count(",") == 2
        assert by_name["persistence"] != "persistence,,"
        assert by_name["proposed"].count(",") == 2
        assert by_name["proposed"] != "proposed,,"


class TestDeterminism:
    def test_train_artifacts_byte_identical(self, workspace):
        tmp_path, cfg_path = workspace
        a, b = tmp_path / "r1", tmp_path / "r2"
        main(["train", "--config", str(cfg_path), "--out", str(a)])
        main(["train", "--config", str(cfg_path), "--out", str(b)])
        for name in ("metrics.json", "history.csv", "checkpoint.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def _sim_config(tmp_path, **sim):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"sim": {"initiators_per_step": 5, **sim}}))
    return path


def _bad_preset_config(tmp_path):
    path = tmp_path / "badsim.json"
    path.write_text(json.dumps({"sim": {"preset": "anarchy"}}))
    return path
