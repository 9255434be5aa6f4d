"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single `[PASS]`/`[FAIL]` line (visible with `pytest -s`
or on failure) in addition to asserting.
"""

import json

import numpy as np
import pytest

from opinionlab import baselines, harness, model as model_mod, network, simulate
from opinionlab.autodiff import Tensor
from opinionlab.cli import main as cli_main
from opinionlab.data import (
    OpinionDataset,
    ProfileCorpus,
    SplitSpec,
    chronological_split,
    discretize_opinion,
    label_to_continuous,
    load_dataset,
    save_dataset,
)
from opinionlab.metrics import compute_metrics
from opinionlab.model import TrainConfig, build_model, gumbel_noise, gumbel_softmax, total_loss, train


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def persistence_f1(splits) -> float:
    """Test macro-F1 of each user keeping their last train opinion; criteria
    5 and 6 report it beside their own comparison."""
    train_ds, test_ds = splits[0], splits[2]
    preds = baselines.persistence_predict(baselines.regularize_series(train_ds), test_ds)
    return compute_metrics(test_ds.labels(), preds, test_ds.num_classes).macro_f1


def random_dataset(rng, num_users, num_classes, n, horizon):
    times = np.sort(rng.uniform(0, horizon, size=n))
    posts = [(int(rng.integers(0, num_users)), float(t), int(rng.integers(0, num_classes)))
             for t in times]
    return OpinionDataset(*zip(*posts), num_users, num_classes, horizon)


def assert_same_columns(actual, expected):
    for a, e in zip((actual.users(), actual.times(), actual.labels()),
                    (expected.users(), expected.times(), expected.labels())):
        assert a.dtype == e.dtype
        np.testing.assert_array_equal(a, e)


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the composite loss match central finite
    differences for every parameter group, each dynamics variant, 100
    random cases (rel err < 1e-4; abs < 1e-8 for near-zero gradients)."""
    num_users, num_classes, horizon = 10, 3, 10.0
    profiles = ProfileCorpus({u: f"user {u} writes about topic {u % 3}" for u in range(num_users)})
    worst = 0.0
    for case in range(100):
        variant = ("degroot", "fj", "bcm", "sbcm")[case % 4]
        rng = np.random.default_rng(1000 + case)
        ds = random_dataset(rng, num_users, num_classes, 20, horizon)
        cfg = TrainConfig(variant=variant, num_layers=3, width=8, latent_dim=2,
                          alpha=0.7, beta=0.3, collocation=2, embed_dim=8, seed=case)
        model = build_model(ds, profiles, cfg)
        for p in model.parameters():
            # keep an ndarray: 0-d + 0-d would collapse to an immutable scalar
            p.data = np.asarray(p.data + rng.normal(scale=0.1, size=p.data.shape))

        colloc = rng.uniform(0, horizon, size=2)
        noise = gumbel_noise(rng, (2, num_users, num_users))
        users, times, labels = ds.users(), ds.times(), ds.labels()

        def loss_value():
            return total_loss(model, users, times, labels, colloc, noise)[0].item()

        loss, _ = total_loss(model, users, times, labels, colloc, noise)
        for p in model.parameters():
            p.grad = None
        loss.backward()

        eps = 1e-6
        for group, params in model.groups().items():
            leaf = params[int(rng.integers(0, len(params)))]
            grad = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
            flat = leaf.data.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss_value()
                flat[i] = orig - eps
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                g = float(grad.reshape(-1)[i])
                scale = max(abs(fd), abs(g))
                if scale < 1e-6:
                    assert abs(fd - g) < 1e-8, f"case {case} {variant}/{group}: {fd} vs {g}"
                else:
                    rel = abs(fd - g) / scale
                    worst = max(worst, rel)
                    assert rel < 1e-4, f"case {case} {variant}/{group}: rel err {rel}"
    report("criterion 1 (gradient correctness, 100 cases, 4 variants)", True,
           f"worst rel err {worst:.2e}")


def test_criterion_2_time_derivative_path():
    """The network's exact time derivative matches finite differences on 100
    random networks (rel err < 1e-4)."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for case in range(100):
        num_layers = int(rng.integers(1, 5))
        width = int(rng.integers(2, 17))
        num_users = int(rng.integers(1, 6))
        embed = int(rng.integers(1, 5))
        params = network.init_params(num_layers, width, 1 + num_users + embed, seed=case)
        batch = int(rng.integers(1, 6))
        users = rng.integers(0, num_users, size=batch)
        prof = rng.standard_normal((batch, embed))
        t = rng.uniform(0, 10, size=batch)
        scale = float(rng.uniform(0.05, 1.0))
        _, deriv = network.forward_with_time_derivative(params, t, users, prof, scale)
        eps = 1e-5
        fd = (network.forward(params, t + eps, users, prof, scale).data
              - network.forward(params, t - eps, users, prof, scale).data) / (2 * eps)
        denom = np.maximum(np.abs(fd), np.abs(deriv.data))
        err = np.abs(deriv.data - fd)
        rel = np.where(denom < 1e-6, 0.0, err / np.maximum(denom, 1e-300))
        assert np.all(err[denom < 1e-6] < 1e-8)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"case {case}: rel err {rel.max()}"
    report("criterion 2 (exact time-derivative path, 100 nets)", True,
           f"worst rel err {worst:.2e}")


def test_criterion_3_gumbel_softmax_fidelity():
    """Relaxed samples at tau=0.1 stay on the simplex and their argmax
    frequencies match the target distribution within 0.02 over 20,000
    samples, cross-checked against direct argmax(log p + noise)."""
    p = np.array([0.2, 0.3, 0.5])
    n = 20_000
    rng = np.random.default_rng(3)
    noise = gumbel_noise(rng, (n, 3))
    z = gumbel_softmax(Tensor(np.tile(p, (n, 1))), tau=0.1, noise=noise).data
    assert np.all(z >= 0)
    np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-9)
    picks = z.argmax(axis=1)
    oracle = np.argmax(np.log(p) + noise, axis=1)
    np.testing.assert_array_equal(picks, oracle)
    freq = np.bincount(picks, minlength=3) / n
    dev = np.abs(freq - p).max()
    report("criterion 3 (relaxed categorical sampling fidelity)", dev < 0.02,
           f"max frequency deviation {dev:.4f}")


def test_criterion_4_synthetic_regimes():
    """Consensus preset contracts the opinion spread at least 5x; the
    polarization preset produces >= 2 opinion clusters separated by more
    than 0.5.  Three seeds each."""
    for seed in (0, 1, 2):
        cfg = simulate.preset_config("consensus", seed=seed)
        _, _, traj = simulate.generate_sbcm_dataset(cfg)
        ratio = traj[:, -1].std() / traj[:, 0].std()
        assert ratio < 0.2, f"consensus seed {seed}: std ratio {ratio}"
    for seed in (0, 1, 2):
        cfg = simulate.preset_config("polarization", seed=seed)
        _, _, traj = simulate.generate_sbcm_dataset(cfg)
        centers, gap = simulate.cluster_summary(traj[:, -1])
        assert len(centers) >= 2, f"polarization seed {seed}: {len(centers)} cluster(s)"
        assert gap > 0.5, f"polarization seed {seed}: max gap {gap}"
    report("criterion 4 (consensus contraction and polarization split, 3 seeds)", True)


def test_criterion_7_baseline_self_consistency():
    """The linear-influence fit recovers a known interaction matrix from
    noiseless data (max abs err < 0.05) and predicts held-out labels with
    accuracy > 0.9; the one-step regression recovers W ~ I on identity
    dynamics (max abs deviation < 0.05)."""
    rng = np.random.default_rng(7)
    num_users = 10
    a = rng.uniform(-0.04, 0.04, size=(num_users, num_users))
    np.fill_diagonal(a, 0.0)
    ds, traj = simulate.generate_degroot_dataset(num_users, 100, a, seed=7)
    splits = chronological_split(ds, SplitSpec(0.7, 0.0, 0.3))
    train_steps = int(np.floor(splits[0].times()[-1])) + 1
    series = baselines.RegularSeries(traj[:, :train_steps], t_start=0.0, dt=1.0)
    fit = baselines.fit_degroot(series)
    max_err = np.abs(fit.interaction - a).max()
    assert max_err < 0.05, f"interaction matrix error {max_err}"
    preds = baselines.degroot_predict(fit, splits[2])
    acc = float((preds == splits[2].labels()).mean())
    assert acc > 0.9, f"test accuracy {acc}"

    x = np.tile(rng.uniform(-1, 1, size=(8, 1)), 30)
    aslm = baselines.fit_aslm(baselines.RegularSeries(x, 0.0, 1.0))
    dev = np.abs(aslm.weights - np.eye(8)).max()
    assert dev < 0.05, f"weights deviate from identity by {dev}"
    report("criterion 7 (baseline self-consistency)", True,
           f"matrix err {max_err:.2e}, acc {acc:.3f}, identity dev {dev:.2e}")


def test_criterion_8_metrics_oracle():
    """compute_metrics equals a brute-force re-computation on 1,000 random
    vectors, and the hand example (accuracy 0.75, macro-F1 11/15) is exact."""
    from test_metrics import brute_force_metrics

    rng = np.random.default_rng(8)
    for _ in range(1000):
        num_classes = int(rng.choice([2, 4, 5]))
        n = int(rng.integers(1, 30))
        true = rng.integers(0, num_classes, size=n)
        pred = rng.integers(0, num_classes, size=n)
        got = compute_metrics(true, pred, num_classes)
        matrix, acc, macro = brute_force_metrics(true.tolist(), pred.tolist(), num_classes)
        np.testing.assert_array_equal(got.confusion, matrix)
        assert got.accuracy == pytest.approx(acc, abs=1e-12)
        assert got.macro_f1 == pytest.approx(macro, abs=1e-12)
    hand = compute_metrics([0, 0, 0, 1], [0, 0, 1, 1], 2)
    assert hand.accuracy == 0.75
    assert hand.macro_f1 == pytest.approx(11 / 15, abs=1e-15)
    report("criterion 8 (metrics vs brute-force oracle, 1000 vectors)", True)


def test_criterion_9_round_trip_and_split_invariants(tmp_path):
    """Label scaling round-trips exactly; chronological splits partition and
    preserve order on 1,000 random datasets; dataset files round-trip."""
    for num_classes in (2, 3, 4, 5, 7):
        for c in range(num_classes):
            assert discretize_opinion(label_to_continuous(c, num_classes), num_classes) == c

    rng = np.random.default_rng(9)
    for _ in range(1000):
        num_users = int(rng.integers(1, 6))
        num_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 50))
        ds = random_dataset(rng, num_users, num_classes, n, 50.0)
        fr = rng.dirichlet([1.0, 1.0, 1.0])
        parts = chronological_split(ds, SplitSpec(fr[0], fr[1], 1.0 - fr[0] - fr[1]))
        for whole, *pieces in zip(*((d.users(), d.times(), d.labels()) for d in (ds, *parts))):
            recombined = np.concatenate(pieces)
            assert recombined.dtype == whole.dtype
            np.testing.assert_array_equal(recombined, whole)

    ds = random_dataset(rng, 5, 5, 40, 20.0)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert_same_columns(loaded, ds)
    assert (loaded.num_users, loaded.num_classes, loaded.horizon) == (5, 5, 20.0)
    report("criterion 9 (round-trip and split invariants, 1000 datasets)", True)


def test_criterion_10_determinism(tmp_path):
    """Repeating any command with the same config and seed produces
    byte-identical metrics.json and history.csv artifacts."""
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({"sim": {"num_users": 20, "num_steps": 15,
                                           "initiators_per_step": 4}}))
    a, b = tmp_path / "sim_a", tmp_path / "sim_b"
    assert cli_main(["simulate", "--preset", "consensus", "--config", str(sim_cfg),
                     "--out", str(a), "--seed", "11"]) == 0
    assert cli_main(["simulate", "--preset", "consensus", "--config", str(sim_cfg),
                     "--out", str(b), "--seed", "11"]) == 0
    for name in ("dataset.jsonl", "trajectory.csv", "interactions.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "data": {"dataset": str(a / "dataset.jsonl"), "split": [0.5, 0.2, 0.3]},
        "model": {"variant": "sbcm", "num_layers": 1, "width": 4, "embed_dim": 4},
        "train": {"epochs": 3, "batch_size": 64, "seed": 0},
    }))
    t1, t2 = tmp_path / "train_a", tmp_path / "train_b"
    assert cli_main(["train", "--config", str(run_cfg), "--out", str(t1)]) == 0
    assert cli_main(["train", "--config", str(run_cfg), "--out", str(t2)]) == 0
    for name in ("metrics.json", "history.csv", "checkpoint.json"):
        assert (t1 / name).read_bytes() == (t2 / name).read_bytes(), name

    b1, b2 = tmp_path / "bl_a", tmp_path / "bl_b"
    assert cli_main(["baseline", "--config", str(run_cfg), "--method", "all",
                     "--out", str(b1), "--seed", "0"]) == 0
    assert cli_main(["baseline", "--config", str(run_cfg), "--method", "all",
                     "--out", str(b2), "--seed", "0"]) == 0
    assert (b1 / "metrics.json").read_bytes() == (b2 / "metrics.json").read_bytes()
    report("criterion 10 (byte-identical artifacts across reruns)", True)


def test_criterion_6_ode_loss_trainability():
    """The factorized-influence variant trained on data simulated from the
    matching dynamics drives its ODE residual down at least 10x and beats
    the copying baseline on test macro-F1."""
    rng = np.random.default_rng(0)
    num_users = 20
    w = rng.uniform(0, 0.05, size=(num_users, num_users)) * (rng.uniform(size=(num_users, num_users)) < 0.2)
    np.fill_diagonal(w, 0.0)
    ds, _ = simulate.generate_degroot_dataset(num_users, 100, w * 0.2, seed=0)
    splits = chronological_split(ds, SplitSpec(0.5, 0.2, 0.3))
    profiles = ProfileCorpus({})

    cfg = TrainConfig(variant="degroot", epochs=1000, seed=0, alpha=1.0, beta=0.1)
    model, history = train(splits, profiles, cfg)
    best = min(row.ode_loss for row in history[1:])
    drop = history[0].ode_loss / max(best, 1e-300)
    assert drop >= 10.0, f"ODE residual only dropped {drop:.1f}x"

    test = splits[2]
    preds = model.predict_proba(test.users(), test.times()).argmax(axis=1)
    model_f1 = compute_metrics(test.labels(), preds, 5).macro_f1
    voter = baselines.voter_predict(baselines.regularize_series(splits[0]), test, repeats=10,
                                    seed=0)
    voter_f1 = float(np.mean([compute_metrics(test.labels(), p, 5).macro_f1 for p in voter]))
    report("criterion 6 (ODE-residual trainability beats copying baseline)",
           drop >= 10.0 and model_f1 > voter_f1,
           f"residual drop {drop:.0f}x, macro-F1 {model_f1:.3f} vs voter {voter_f1:.3f}"
           f" (persistence {persistence_f1(splits):.3f})")


def test_criterion_5_ablation_regularized_vs_plain():
    """Median test macro-F1 of the ODE-regularized model over 5 seeds is at
    least that of the plain network (alpha=beta=0) on a consensus dataset.
    The ten trainings run through the ablation runner's process pool."""
    cfg = simulate.preset_config("consensus", num_users=50, num_steps=100,
                                 initiators_per_step=5, seed=0)
    ds, _, _ = simulate.generate_sbcm_dataset(cfg)
    splits = chronological_split(ds, SplitSpec(0.5, 0.2, 0.3))
    rows = harness.ablation_sinn_vs_nn(splits, ProfileCorpus({}),
                                       TrainConfig(variant="sbcm", epochs=1000), range(5))
    med_sinn, med_nn = rows[-1]["sinn_f1"], rows[-1]["nn_f1"]
    report("criterion 5 (ODE regularization helps vs plain network, 5 seeds)",
           med_sinn >= med_nn,
           f"median macro-F1 {med_sinn:.3f} (regularized) vs {med_nn:.3f} (plain)"
           f" (persistence {persistence_f1(splits):.3f})")
