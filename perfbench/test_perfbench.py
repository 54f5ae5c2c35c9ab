"""Tests of the benchmark itself: run with `python -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Small shapes of the two training paths, so a round takes well under a second.
TINY = [
    bench.Workload(
        name="tiny-full",
        synth=dict(n=40, latent=3, p=6, q=6, noise=0.1, seed=0),
        hard_fraction=None,
        split=(0.5, 0.25, 0.25),
        train=dict(embedding_dim=4, max_outer_iters=2, max_inner_steps=4),
    ),
    bench.Workload(
        name="tiny-sampled-sym",
        synth=dict(n=40, latent=3, p=6, q=6, noise=0.3, seed=0),
        hard_fraction=0.5,
        split=(0.5, 0.25, 0.25),
        train=dict(
            embedding_dim=4, max_outer_iters=2, sample_negatives=5, symmetric_tetrads=True,
            normalized_similarity=True, gamma_ratio=2.0, max_inner_steps=3,
        ),
    ),
]
COUNT_UNITS = {"count", "bytes", "flop", "ratio"}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, info = bench.run(workload, seed=3, seconds=0, trace=False)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(info["env"]) >= {"python", "numpy", "blas", "nproc", "thread_env", "git_commit"}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_counts_repeat_exactly(workload):
    first, info = bench.run(workload, seed=5, seconds=0, trace=True)
    second, _ = bench.run(workload, seed=5, seconds=0, trace=True)
    assert first["correct"] and second["correct"], info["failures"]
    assert set(first["metrics"]) == set(bench.PER_LAYER)
    counts = {k for k, (unit, _, _) in bench.PER_LAYER.items() if unit in COUNT_UNITS}
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    assert info["counts"]["trainer.line_search.evals"] > 0
    assert info["counts"]["spl.groups_solved"] > 0


def test_corrupted_references_fail_the_checks():
    result, info = bench.run(TINY[1], seed=3, seconds=0, trace=False, corrupt=True)
    assert not result["correct"]
    failed = " ".join(info["failures"])
    for name in ("oracle_spld", "1/rank reference", "stable argsort", "similarity"):
        assert name in failed


def test_benchmark_json_names_match_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: (u, b) for k, (u, b, _) in bench.PER_LAYER.items()
    }


def test_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "run.py", tmp_path / "perfbench" / "run.py")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
