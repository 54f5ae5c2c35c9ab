"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain pytest; the report lines bypass capture so they are visible
in every mode. Criteria 5 and 6 share one 10-seed experiment fixture.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pacedrank
from pacedrank.cli import main
from pacedrank.data import SplitSpec, SynthSpec, skewed_synth, split, synth_generate
from pacedrank.evaluation import average_precision, mean_ap, random_baseline
from pacedrank.spl import oracle_spld, solve_spld
from pacedrank.trainer import TrainConfig, train

N_SEEDS = 10


def report(capsys, number, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {status}: criterion {number} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- criterion 5/6 shared experiment -----------------------------------------


def skew_config(seed, gamma_ratio):
    return TrainConfig(
        embedding_dim=8,
        margin=0.1,
        init_fraction=0.4,
        gamma_ratio=gamma_ratio,
        lam_growth=1.1,
        gamma_growth=1.1,
        max_outer_iters=15,
        seed=seed,
        symmetric_tetrads=True,
    )


def run_skewed(seed, gamma_ratio):
    spec = SynthSpec(n=40, latent=4, p=16, q=16, noise=0.3, seed=seed)
    dataset = skewed_synth(spec, 0.5)
    spl_spec = SplitSpec(train=0.5, validation=0.2, test=0.3, seed=seed)
    train_ds, val_ds, test_ds = split(dataset, spl_spec)
    params, history = train(train_ds, skew_config(seed, gamma_ratio), val_dataset=val_ds)
    test_map = mean_ap(params, test_ds, "i2t", "all").mean
    zero_groups = [int((rec.selected_counts == 0).sum()) for rec in history.records]
    val_curve = [rec.val_map for rec in history.records]
    best = max(val_curve)
    iters_to_best = next(i + 1 for i, v in enumerate(val_curve) if v >= 0.99 * best)
    return {
        "test_map": test_map,
        "zero_groups": zero_groups,
        "iters_to_best": iters_to_best,
    }


@pytest.fixture(scope="module")
def diversity_experiment():
    start = time.perf_counter()
    runs = {
        seed: {
            "with": run_skewed(seed, gamma_ratio=2.0),
            "without": run_skewed(seed, gamma_ratio=0.0),
        }
        for seed in range(N_SEEDS)
    }
    return runs, time.perf_counter() - start


# --- criteria ----------------------------------------------------------------


def test_criterion_1_gradient_correctness(capsys):
    start = time.perf_counter()
    code = main(["gradcheck", "--seed", "0", "--instances", "20"])
    printed = capsys.readouterr().out.strip()
    elapsed = time.perf_counter() - start
    worst = float(printed)
    ok = code == 0 and worst < 1e-5 and elapsed < 10.0
    report(capsys, 1, ok, f"gradcheck max rel error {worst:.3e} over 20 instances in {elapsed:.2f}s")


def test_criterion_2_spld_solver_optimality(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    for _ in range(200):
        g = int(rng.integers(1, 9))
        losses = rng.uniform(0.0, 2.0, g)
        lam = float(rng.uniform(0.05, 1.0))
        gamma = float(rng.uniform(0.0, 0.5))
        closed = solve_spld(losses, lam, gamma)
        brute, _ = oracle_spld(losses, lam, gamma)
        worst_gap = max(worst_gap, closed.objective_value - brute.objective_value)
    single = solve_spld([1.3], 0.3, 0.2).weights[0]
    single_err = abs(single - 0.01)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and single_err <= 1e-12 and elapsed < 5.0
    report(
        capsys, 2, ok,
        f"200 subproblems: worst objective gap {worst_gap:.2e}; "
        f"single-item weight error {single_err:.2e}; {elapsed:.2f}s",
    )


def test_criterion_3_spl_reduction(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    all_equal = True
    for _ in range(100):
        g = int(rng.integers(1, 12))
        losses = rng.uniform(0.0, 2.0, g)
        lam = float(rng.uniform(0.05, 1.0))
        got = solve_spld(losses, lam, 0.0).weights
        expected = (losses <= lam).astype(float)
        all_equal = all_equal and np.array_equal(got, expected)
    elapsed = time.perf_counter() - start
    ok = all_equal and elapsed < 1.0
    report(capsys, 3, ok, f"gamma=0 equals threshold rule on 100 instances; {elapsed:.2f}s")


def test_criterion_4_alternation_monotonicity(capsys):
    start = time.perf_counter()
    dataset = synth_generate(SynthSpec(n=50, latent=4, p=12, q=12, noise=0.1, seed=4))
    cfg = TrainConfig(
        embedding_dim=6, margin=0.1, gamma_ratio=0.5, max_outer_iters=10, seed=4
    )
    _, history = train(dataset, cfg)
    worst_w = max(rec.objective_after_w - rec.objective_entry for rec in history.records)
    worst_v = max(rec.objective - rec.objective_after_w for rec in history.records)
    elapsed = time.perf_counter() - start
    ok = worst_w <= 1e-10 and worst_v <= 1e-10 and elapsed < 30.0
    report(
        capsys, 4, ok,
        f"n=50 run, worst W-step increase {worst_w:.2e}, worst v-step increase "
        f"{worst_v:.2e}; {elapsed:.1f}s",
    )


def test_criterion_5_diversity_effect(capsys, diversity_experiment):
    runs, elapsed = diversity_experiment
    # (a) selection structure
    all_positive = all(
        all(z == 0 for z in runs[s]["with"]["zero_groups"]) for s in range(N_SEEDS)
    )
    starved = all(
        any(z > 0 for z in runs[s]["without"]["zero_groups"][:3]) for s in range(N_SEEDS)
    )
    # (b) retrieval quality
    diffs = [runs[s]["with"]["test_map"] - runs[s]["without"]["test_map"] for s in range(N_SEEDS)]
    wins = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    ok = all_positive and starved and mean_diff >= -0.01 and wins >= 7 and elapsed < 180.0
    report(
        capsys, 5, ok,
        f"with-diversity mass positive everywhere: {all_positive}; "
        f"no-diversity starves a group in first 3 iters on every seed: {starved}; "
        f"mean mAP diff {mean_diff:+.4f}; strictly better on {wins}/10 seeds; {elapsed:.0f}s",
    )


def test_criterion_6_convergence_speed(capsys, diversity_experiment):
    runs, elapsed = diversity_experiment
    faster = sum(
        runs[s]["with"]["iters_to_best"] <= runs[s]["without"]["iters_to_best"]
        for s in range(N_SEEDS)
    )
    ok = faster >= 7 and elapsed < 180.0
    report(
        capsys, 6, ok,
        f"within 1% of own best validation mAP at least as early on {faster}/10 seeds; "
        f"shared experiment {elapsed:.0f}s",
    )


def test_criterion_7_end_to_end_learnability(capsys):
    start = time.perf_counter()
    dataset = synth_generate(SynthSpec(n=200, latent=5, p=20, q=20, noise=0.1, seed=7))
    train_ds, val_ds, test_ds = split(dataset, SplitSpec(seed=7))
    cfg = TrainConfig(embedding_dim=10, margin=0.1, max_outer_iters=25, seed=7)
    params, _ = train(train_ds, cfg, val_dataset=val_ds)
    ratios = {}
    ok = True
    for direction in ("i2t", "t2i"):
        trained = mean_ap(params, test_ds, direction, "all").mean
        floor = random_baseline(test_ds, direction, "all")
        ratios[direction] = trained / floor
        ok = ok and trained >= 3.0 * floor
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(
        capsys, 7, ok,
        f"trained/baseline mAP ratio i2t {ratios['i2t']:.2f}x, t2i {ratios['t2i']:.2f}x; "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_map_unit_correctness(capsys):
    start = time.perf_counter()
    checks = [
        average_precision([1, 0, 0, 0, 0], 5) == 1.0,
        average_precision([0, 1, 0, 0, 0], 5) == 0.5,
        average_precision([0, 1, 0, 0, 0], 5, mode="by_r") == 0.1,
        average_precision([1, 0, 1, 0, 0], 5) == (1.0 + 2.0 / 3.0) / 2.0,
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    report(capsys, 8, ok, f"hand-derived AP values match exactly ({sum(checks)}/4); {elapsed:.3f}s")


def test_criterion_9_determinism(capsys, tmp_path):
    start = time.perf_counter()
    config = {
        "output_dir": None,
        "data": {"synth": {"n": 30, "latent": 3, "p": 8, "q": 8, "noise": 0.1, "seed": 9}},
        "split": {"train": 0.5, "validation": 0.25, "test": 0.25, "seed": 9},
        "train": {"embedding_dim": 4, "max_outer_iters": 4, "seed": 9, "gamma_ratio": 0.5},
    }
    src = str(Path(pacedrank.__file__).resolve().parent.parent)
    outputs = {}
    for label, threads in (("a", "1"), ("b", "2")):
        config["output_dir"] = str(tmp_path / label)
        path = tmp_path / f"config_{label}.json"
        path.write_text(json.dumps(config))
        env = dict(os.environ, PYTHONPATH=src)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        done = subprocess.run(
            [sys.executable, "-m", "pacedrank.cli", "train", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs[label] = {
            name: (tmp_path / label / name).read_bytes()
            for name in ("checkpoint.bin", "history.csv")
        }
    same = all(outputs["a"][k] == outputs["b"][k] for k in outputs["a"])
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 60.0
    report(
        capsys, 9, ok,
        f"history.csv and checkpoint.bin byte-identical across runs with 1 and 2 "
        f"BLAS/OpenMP threads; {elapsed:.1f}s",
    )
