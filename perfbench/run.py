"""pacedrank benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed. Every workload is the session a user of pacedrank runs: make a
corpus, split it, train on the train split, save the checkpoint, run
``pacedrank eval`` in both directions on the test split, then serve
single-query ``retrieve(top_k=10)`` calls against the test corpus. Workloads
differ in size and configuration, so each stresses a different layer.

One run repeats rounds in a closed loop with one client until ``--seconds``
would be exceeded. A round sets up ``SETUP_REPS_PER_ROUND`` times, then trains,
evaluates and serves retrieve calls. Every round does the same work, so each
timing is a statistic over repetitions spread across the whole run:

- ``setup_s``: the median over all set-ups;
- ``train_s``: the median over the rounds' train calls;
- ``eval_s``: the fastest pair of ``pacedrank eval`` calls;
- ``retrieve_p50_ms``: the lowest p50 of any ``RETRIEVE_BLOCK`` consecutive
  retrieve calls;
- ``retrieve_p99_ms``: the median over rounds of each round's p99.

On a shared host, other tenants slow the process down by up to about half,
in stretches of milliseconds to a minute, and never speed it up. A run makes
a few dozen short repetitions (eval pairs, retrieve blocks), and the fastest
of them is steadier from run to run than their median. It makes only about a
dozen long ones (train calls, rounds of retrieve calls for the p99), and for
those the median is the steadier figure. perfbench/README.md gives the
measurements.

Every round checks the program's outputs against independent references, and
every check counts as an operation. A failed check makes the run exit with
code 1.

BLAS and OpenMP run one thread (set below, before numpy is imported): the
matrices are small, and on a shared host a second thread only adds waiting.

With ``--trace 1`` the run wraps each layer's public functions where their
callers look them up (nothing under ``src/`` changes), records one span per
call, and reports per-layer metrics instead. Traced and untraced rounds
alternate, so the tracing overhead is reported from the same run.

The last line of standard output is the result: a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
a JSON object with the environment stamp and the deterministic counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread variables are set)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = Path(__file__).resolve().parent / ".work"
OUT_DIR = Path(__file__).resolve().parent / ".out"

SETUP_REPS_PER_ROUND = 10
TOP_K = 10
EVAL_PAIRS_PER_ROUND = 10  # a pair is `pacedrank eval` for i2t and then t2i
RETRIEVES_PER_ROUND = 5000
RETRIEVE_BLOCK = 1000
ORACLE_GROUPS = 8  # groups sampled per training direction for the oracle check
SPOT_ENTRIES = 8  # score-matrix entries compared with similarity()
CORRUPT_SHIFT = 1e-3  # negative control: references are shifted by this much


@dataclass(frozen=True)
class Workload:
    """One fixed session shape. The corpus and the model seed are part of it.

    The training inputs do not depend on ``--seed``: the amount of training
    work (line-search evaluations) and early-training mAP both depend
    strongly on the corpus draw, so a seed-dependent corpus would make
    ``train_s`` and the mAP metrics spread far beyond any usable bound.
    ``--seed`` instead permutes the rows of the test split (the eval and
    retrieve inputs) and draws the retrieve query stream and the samples the
    correctness checks inspect.
    """

    name: str
    synth: dict
    hard_fraction: Optional[float]
    split: tuple
    train: dict


WORKLOADS = {
    w.name: w
    for w in (
        # Dense path: the full tetrad set (300 x 299), i2t, raw inner product.
        Workload(
            name="train-full",
            synth=dict(n=500, latent=5, p=20, q=20, noise=0.1, seed=0),
            hard_fraction=None,
            split=(0.6, 0.2, 0.2),
            train=dict(embedding_dim=10, max_outer_iters=1),
        ),
        # The paper's diversity setting: 16 sampled negatives per query, both
        # directions, cosine scores, half the queries noisy.
        Workload(
            name="train-sampled-sym",
            synth=dict(n=1000, latent=5, p=20, q=20, noise=0.3, seed=0),
            hard_fraction=0.5,
            split=(0.6, 0.2, 0.2),
            train=dict(
                embedding_dim=10,
                max_outer_iters=1,
                sample_negatives=16,
                symmetric_tetrads=True,
                normalized_similarity=True,
                gamma_ratio=2.0,
                init_fraction=0.4,
                max_inner_steps=5,
            ),
        ),
    )
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "test_map_i2t": ("ratio", "higher"),
    "test_map_t2i": ("ratio", "higher"),
    "eval_s": ("s", "lower"),
    "retrieve_p50_ms": ("ms", "lower"),
    "retrieve_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, which end-to-end metric it should move and on which workload).
# Work counts are better lower: the same result from less work.
PER_LAYER = {
    "core.build_tetrads.s": ("s", "lower", "train_s on train-sampled-sym (sampling loops per query)"),
    "embed.map.s": ("s", "lower", "retrieve_p50_ms on both workloads"),
    "embed.map.rows": ("count", "lower", "retrieve_p50_ms on both workloads"),
    "embed.score.s": ("s", "lower", "train_s on train-sampled-sym; eval_s on both workloads"),
    "embed.score.calls": ("count", "lower", "train_s on train-sampled-sym; eval_s on both workloads"),
    "embed.score.entries": ("count", "lower", "train_s on train-sampled-sym; eval_s on both workloads"),
    "embed.score.flops_computed": ("flop", "lower", "train_s on train-sampled-sym; eval_s on both workloads"),
    "loss.all_losses.calls": ("count", "lower", "train_s on train-full"),
    "loss.all_losses.self_s": ("s", "lower", "train_s on train-full"),
    "loss.tetrads_evaluated": ("count", "lower", "train_s on train-full"),
    "loss.weighted_sum.s": ("s", "lower", "train_s on train-full"),
    "loss.selection_penalty.s": ("s", "lower", "train_s on train-full"),
    "loss.grad.self_s": ("s", "lower", "train_s and peak_rss_mb on train-sampled-sym"),
    "loss.grad.dense_bytes": ("bytes", "lower", "train_s and peak_rss_mb on train-sampled-sym"),
    "spl.update.s": ("s", "lower", "train_s on train-sampled-sym"),
    "spl.groups_solved": ("count", "lower", "train_s on train-sampled-sym"),
    "spl.init_lambda.s": ("s", "lower", "train_s on train-sampled-sym"),
    "trainer.line_search.calls": ("count", "lower", "train_s on train-full"),
    "trainer.line_search.evals": ("count", "lower", "train_s on train-full"),
    "trainer.line_search.evals_per_call": ("ratio", "lower", "train_s on train-full"),
    "trainer.line_search.accept_ratio": ("ratio", "higher", "train_s on train-full"),
    "trainer.line_search.s": ("s", "lower", "train_s on train-full"),
    "trainer.inner_steps": ("count", "lower", "train_s on train-full and train-sampled-sym"),
    "trainer.cap_hits": ("count", "lower", "train_s on train-full and train-sampled-sym"),
    "trainer.self_s": ("s", "lower", "train_s on train-full and train-sampled-sym"),
    "trainer.val_eval.s": ("s", "lower", "train_s (a little)"),
    "trainer.checkpoint.load_s": ("s", "lower", "eval_s on both workloads"),
    "evaluation.mean_ap.self_s": ("s", "lower", "eval_s"),
    "evaluation.queries_ranked": ("count", "lower", "eval_s"),
    "evaluation.retrieve.self_s": ("s", "lower", "retrieve_p50_ms and retrieve_p99_ms"),
    "evaluation.retrieve.corpus_rows_embedded": ("count", "lower", "retrieve_p50_ms and retrieve_p99_ms"),
    "data.load_features.s": ("s", "lower", "setup_s and eval_s on both workloads"),
    "data.bytes_read": ("bytes", "lower", "setup_s and eval_s on both workloads"),
    "data.rows_parsed": ("count", "lower", "setup_s and eval_s on both workloads"),
    "data.synth.s": ("s", "lower", "setup_s on both workloads"),
    "data.split.s": ("s", "lower", "setup_s on both workloads"),
    "cli.eval.self_s": ("s", "lower", "eval_s"),
    "trace.overhead.train_s": ("s", "lower", "none: traced minus untraced train_s"),
    "trace.overhead.eval_s": ("s", "lower", "none: traced minus untraced eval_s"),
}


class BenchSetupError(Exception):
    """The checkout does not hold the package the benchmark drives."""


def import_package():
    """Import pacedrank from this checkout's src/, never from site-packages."""
    init = SRC / "pacedrank" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no pacedrank package at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pacedrank
    import pacedrank.cli  # the package root does not import the command line

    if Path(pacedrank.__file__).resolve() != init.resolve():
        raise BenchSetupError(f"imported pacedrank from {pacedrank.__file__}, not {init}")
    return pacedrank


# --- environment stamp ---


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# --- tracing ---


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans; each records its name, start, end and parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.paused = False

    def open(self, name: str) -> Optional[int]:
        if self.paused:
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: Optional[int]) -> None:
        if idx is None:
            return
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def pause(self):
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was


def _rows(a, r):
    return {"rows": int(a["X" if "X" in a else "Z"].shape[0]), "batch": True}


# (defining module, function) -> (span name, attrs from bound args and result)
INSTRUMENTED: dict[tuple[str, str], tuple[str, Optional[Callable]]] = {
    ("pacedrank.data", "synth_generate"): ("data.synth", None),
    ("pacedrank.data", "skewed_synth"): ("data.synth", None),
    ("pacedrank.data", "split"): ("data.split", None),
    ("pacedrank.data", "load_features"): (
        "data.load_features",
        lambda a, r: {"bytes": os.path.getsize(a["path"]), "rows": int(r.shape[0])},
    ),
    ("pacedrank.core", "build_tetrads"): ("core.build_tetrads", None),
    ("pacedrank.embed", "embed_images"): ("embed.map", _rows),
    ("pacedrank.embed", "embed_texts"): ("embed.map", _rows),
    ("pacedrank.embed", "map_image"): ("embed.map", lambda a, r: {"rows": 1, "batch": False}),
    ("pacedrank.embed", "map_text"): ("embed.map", lambda a, r: {"rows": 1, "batch": False}),
    ("pacedrank.embed", "inner_scores"): (
        "embed.score",
        lambda a, r: {"entries": int(r.size), "flops": 2 * int(r.size) * int(a["H"].shape[1])},
    ),
    ("pacedrank.loss", "all_losses"): ("loss.all_losses", lambda a, r: {"tetrads": int(a["tetrads"].total)}),
    ("pacedrank.loss", "weighted_sum_from"): ("loss.weighted_sum", None),
    ("pacedrank.loss", "selection_penalty"): ("loss.selection_penalty", None),
    ("pacedrank.loss", "grad_loss_term"): (
        "loss.grad",
        lambda a, r: {"dense_bytes": 8 * int(a["dataset"].n) ** 2},
    ),
    ("pacedrank.spl", "update_importance"): ("spl.update", lambda a, r: {"groups": int(a["losses"].n_groups)}),
    ("pacedrank.spl", "init_lambda"): ("spl.init_lambda", None),
    ("pacedrank.trainer", "line_search"): ("trainer.line_search", lambda a, r: {"accepted": r[0] > 0.0}),
    ("pacedrank.trainer", "train"): (
        "trainer.train",
        lambda a, r: {
            "inner_steps": sum(rec.inner_steps for rec in r[1].records),
            "cap_hits": sum(rec.inner_steps >= a["cfg"].max_inner_steps for rec in r[1].records),
        },
    ),
    ("pacedrank.trainer", "load_checkpoint"): ("trainer.checkpoint.load", None),
    ("pacedrank.evaluation", "mean_ap"): ("evaluation.mean_ap", lambda a, r: {"queries": int(a["dataset_test"].n)}),
    ("pacedrank.evaluation", "retrieve"): ("evaluation.retrieve", None),
    ("pacedrank.cli", "main"): ("cli.eval", None),
}


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every INSTRUMENTED function at each name a pacedrank module binds it to.

    Functions a later version of the package no longer has are skipped; the
    layer then reports zero. Originals are restored on exit.
    """
    modules = [m for name, m in sys.modules.items() if name == "pacedrank" or name.startswith("pacedrank.")]
    replaced = []
    try:
        for (mod_name, fn_name), (span_name, attrs_fn) in INSTRUMENTED.items():
            original = getattr(sys.modules.get(mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = _make_wrapper(tracer, span_name, original, attrs_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        yield
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def _make_wrapper(tracer: Tracer, span_name: str, fn: Callable, attrs_fn: Optional[Callable]):
    signature = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        idx = tracer.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if idx is not None and attrs_fn is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[idx].attrs.update(attrs_fn(bound.arguments, result))
        return result

    return wrapper


# --- per-layer aggregation ---


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    idx = spans[idx].parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def layer_values(spans: list[Span], members: list[int], self_t: list[float], n_blocks: int) -> dict:
    """Per-layer totals over the spans of one unit of work (one set-up or one round)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    accepted = 0
    for i in members:
        s = spans[i]
        a, d = s.attrs, s.duration
        if s.name == "core.build_tetrads":
            out["core.build_tetrads.s"] += d
        elif s.name == "embed.map":
            out["embed.map.s"] += d
            out["embed.map.rows"] += a["rows"]
            if a["batch"] and _has_ancestor(spans, i, "evaluation.retrieve"):
                out["evaluation.retrieve.corpus_rows_embedded"] += a["rows"]
        elif s.name == "embed.score":
            out["embed.score.s"] += d
            out["embed.score.calls"] += 1
            out["embed.score.entries"] += a["entries"]
            out["embed.score.flops_computed"] += a["flops"]
        elif s.name == "loss.all_losses":
            out["loss.all_losses.calls"] += 1
            out["loss.all_losses.self_s"] += self_t[i]
            out["loss.tetrads_evaluated"] += a["tetrads"]
            if _has_ancestor(spans, i, "trainer.line_search"):
                out["trainer.line_search.evals"] += 1.0 / n_blocks
        elif s.name == "loss.weighted_sum":
            out["loss.weighted_sum.s"] += d
        elif s.name == "loss.selection_penalty":
            out["loss.selection_penalty.s"] += d
        elif s.name == "loss.grad":
            out["loss.grad.self_s"] += self_t[i]
            out["loss.grad.dense_bytes"] = max(out["loss.grad.dense_bytes"], a["dense_bytes"])
        elif s.name == "spl.update":
            out["spl.update.s"] += d
            out["spl.groups_solved"] += a["groups"]
        elif s.name == "spl.init_lambda":
            out["spl.init_lambda.s"] += d
        elif s.name == "trainer.line_search":
            out["trainer.line_search.calls"] += 1
            out["trainer.line_search.s"] += d
            accepted += a["accepted"]
        elif s.name == "trainer.train":
            out["trainer.inner_steps"] += a["inner_steps"]
            out["trainer.cap_hits"] += a["cap_hits"]
            out["trainer.self_s"] += self_t[i]
        elif s.name == "trainer.checkpoint.load":
            out["trainer.checkpoint.load_s"] += d
        elif s.name == "evaluation.mean_ap":
            if _has_ancestor(spans, i, "trainer.train"):
                out["trainer.val_eval.s"] += d
            else:
                out["evaluation.mean_ap.self_s"] += self_t[i]
                out["evaluation.queries_ranked"] += a["queries"]
        elif s.name == "evaluation.retrieve":
            out["evaluation.retrieve.self_s"] += self_t[i]
        elif s.name == "data.load_features":
            out["data.load_features.s"] += d
            out["data.bytes_read"] += a["bytes"]
            out["data.rows_parsed"] += a["rows"]
        elif s.name == "data.synth":
            out["data.synth.s"] += d
        elif s.name == "data.split":
            out["data.split.s"] += d
        elif s.name == "cli.eval":
            out["cli.eval.self_s"] += self_t[i]
    calls, evals = out["trainer.line_search.calls"], out["trainer.line_search.evals"]
    if calls:
        out["trainer.line_search.evals_per_call"] = evals / calls
    if evals:
        out["trainer.line_search.accept_ratio"] = accepted / evals
    return out


def per_layer_metrics(spans: list[Span], n_blocks: int) -> dict:
    """Per layer: the median over set-ups plus the median over traced rounds."""
    self_t = _self_times(spans)
    members: dict[int, list[int]] = {}
    root = []
    for i, s in enumerate(spans):  # a parent is always recorded before its children
        root.append(i if s.parent < 0 else root[s.parent])
        members.setdefault(root[i], []).append(i)
    combined = dict.fromkeys(PER_LAYER, 0.0)
    for unit in ("setup", "round"):
        per_unit = [
            layer_values(spans, members[i], self_t, n_blocks)
            for i, s in enumerate(spans) if s.parent < 0 and s.name == unit
        ]
        if per_unit:
            for key in combined:
                combined[key] += statistics.median(v[key] for v in per_unit)
    return combined


# --- the session ---


@dataclass
class Inputs:
    train: object
    val: object
    test: object
    files: dict
    queries: dict  # direction -> query feature matrix as loaded from file
    corpus: dict  # direction -> corpus feature matrix as loaded from file


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def setup(pkg, workload: Workload, seed: int, work: Path) -> Inputs:
    """Make the corpus, split it, and write and reload the permuted test split."""
    spec = pkg.data.SynthSpec(**workload.synth)
    if workload.hard_fraction is None:
        corpus = pkg.data.synth_generate(spec)
    else:
        corpus = pkg.data.skewed_synth(spec, workload.hard_fraction)
    tr, va, te = workload.split
    train_ds, val_ds, test_ds = pkg.data.split(corpus, pkg.data.SplitSpec(tr, va, te, seed=0))
    perm = np.random.default_rng(seed).permutation(test_ds.n)
    ids = None if test_ds.ids is None else [test_ds.ids[i] for i in perm]
    test_ds = pkg.core.validate_dataset(test_ds.images[perm], test_ds.texts[perm], ids)
    files = {"images": str(work / "test_images.txt"), "texts": str(work / "test_texts.txt")}
    pkg.data.save_features(files["images"], test_ds.images)
    pkg.data.save_features(files["texts"], test_ds.texts)
    images = pkg.data.load_features(files["images"])
    texts = pkg.data.load_features(files["texts"])
    return Inputs(
        train_ds, val_ds, test_ds, files,
        queries={"i2t": images, "t2i": texts},
        corpus={"i2t": texts, "t2i": images},
    )


@dataclass
class RoundResult:
    train_s: float
    eval_s: list  # one entry per pair of `pacedrank eval` calls
    latencies: list
    maps: dict  # direction -> mAP as written by `pacedrank eval`


def run_round(pkg, workload: Workload, inputs: Inputs, seed: int, round_no: int, work: Path,
              tracer: Tracer, tally: Tally, corrupt: bool) -> RoundResult:
    cfg = pkg.trainer.TrainConfig(**workload.train)
    with tracer.span("round"):
        t0 = time.perf_counter()
        params, history = pkg.trainer.train(inputs.train, cfg, val_dataset=inputs.val)
        train_s = time.perf_counter() - t0
        tally.attempted += 1  # the train call; its outputs are checked below

        ckpt_path = str(work / "checkpoint.bin")
        pkg.trainer.save_checkpoint(
            ckpt_path,
            pkg.trainer.Checkpoint(pkg.trainer.CHECKPOINT_VERSION, params, cfg, cfg.seed, len(history)),
        )

        eval_s = []
        for pair_no in range(EVAL_PAIRS_PER_ROUND):
            out_files = {d: str(work / f"eval_{d}_{pair_no}.txt") for d in ("i2t", "t2i")}
            pair = 0.0
            for direction, out in out_files.items():
                argv = ["eval", "--checkpoint", ckpt_path, "--images", inputs.files["images"],
                        "--texts", inputs.files["texts"], "--direction", direction, "--out", out]
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = pkg.cli.main(argv)
                pair += time.perf_counter() - t0
                tally.check(f"eval {direction} exit code", code == 0, str(code))
            eval_s.append(pair)

        ckpt = pkg.trainer.load_checkpoint(ckpt_path)
        rng = np.random.default_rng([seed, round_no])
        picks = rng.integers(0, inputs.test.n, size=RETRIEVES_PER_ROUND)
        top = min(TOP_K, inputs.test.n)
        # answers go into preallocated arrays so the loop creates no objects the
        # garbage collector would have to walk
        got_idx = np.empty((len(picks), top), dtype=np.int64)
        got_scores = np.empty((len(picks), top))
        latencies = []
        for i, k in enumerate(picks):
            direction = "i2t" if i % 2 == 0 else "t2i"
            t0 = time.perf_counter()
            ranked = pkg.evaluation.retrieve(
                ckpt.params, inputs.queries[direction][k], inputs.corpus[direction],
                direction=direction, top_k=TOP_K, normalized=cfg.normalized_similarity,
            )
            latencies.append(time.perf_counter() - t0)
            got_idx[i] = ranked.indices
            got_scores[i] = ranked.scores
            tally.attempted += 1
        answers = (picks, got_idx, got_scores)

    with tracer.pause():
        maps = check_round(pkg, inputs, cfg, params, history, out_files, answers,
                           np.random.default_rng([seed, round_no, 1]), tally, corrupt)
    return RoundResult(train_s, eval_s, latencies, maps)


# --- correctness checks ---


def check_round(pkg, inputs, cfg, params, history, out_files, answers, rng, tally, corrupt):
    shift = CORRUPT_SHIFT if corrupt else 0.0

    # alternation is monotone at fixed thresholds, and every objective is finite
    recs = history.records
    values = [v for r in recs for v in (r.objective_entry, r.objective_after_w, r.objective)]
    tally.check(
        "history monotone and finite",
        bool(recs) and all(math.isfinite(v) for v in values)
        and all(r.objective_after_w <= r.objective_entry and r.objective <= r.objective_after_w for r in recs),
        f"{[(r.objective_entry, r.objective_after_w, r.objective) for r in recs]}",
    )

    # closed-form selection on the final losses agrees with the brute-force oracle
    last = recs[-1]
    pacing = pkg.core.PacingState(lam=last.lam, gamma=last.gamma)
    lcfg = pkg.core.LossConfig(margin=cfg.margin)
    directions = [("i2t", cfg.seed)] + ([("t2i", cfg.seed + 1)] if cfg.symmetric_tetrads else [])
    worst = 0.0
    for direction, tseed in directions:
        tetrads = pkg.core.build_tetrads(inputs.train, cfg.sample_negatives, tseed)
        losses = pkg.loss.all_losses(params, inputs.train, tetrads, lcfg, direction, cfg.normalized_similarity)
        groups = []
        for k in rng.choice(losses.n_groups, size=min(ORACLE_GROUPS, losses.n_groups), replace=False):
            g = losses.group(int(k))
            if len(g) > pkg.spl.ORACLE_MAX_GROUP:
                g = g[np.sort(rng.choice(len(g), size=pkg.spl.ORACLE_MAX_GROUP, replace=False))]
            groups.append(np.array(g))
        v = pkg.spl.update_importance(pkg.core.GroupedVector.from_groups(groups), pacing)
        for k, g in enumerate(groups):
            got = pkg.spl.psi_value(v.group(k), g, pacing.lam, pacing.gamma)
            brute, _ = pkg.spl.oracle_spld(g, pacing.lam, pacing.gamma)
            worst = max(worst, abs(got - (brute.objective_value + shift)))
    tally.check("update_importance matches oracle_spld", worst <= 1e-8, f"worst gap {worst:.3e}")

    # mAP from `pacedrank eval` equals the mean of 1/rank of the aligned item
    S = pkg.embed.score_matrix(params, inputs.test, cfg.normalized_similarity)
    maps = {}
    for direction in ("i2t", "t2i"):
        M = S if direction == "i2t" else S.T
        diag = np.diagonal(M)[:, None]
        idx = np.arange(M.shape[0])
        ranks = 1 + np.sum(M > diag, axis=1) + np.sum((M == diag) & (idx[None, :] < idx[:, None]), axis=1)
        ref = 1.0 / ranks + shift
        per_query, reported = _read_eval(out_files[direction])
        maps[direction] = reported
        tally.check(
            f"mAP {direction} equals 1/rank reference",
            np.array_equal(per_query, ref) and reported == float(np.mean(ref)),
            f"reported {reported!r}, reference {float(np.mean(ref))!r}",
        )

    # every retrieve answer is the stable argsort of its score-matrix row
    picks, got_idx, got_scores = answers
    bad = 0
    for i, k in enumerate(picks):
        row = S[k] if i % 2 == 0 else S[:, k]
        order = np.argsort(-row, kind="stable")[: got_idx.shape[1]]
        if not (np.array_equal(got_idx[i], order) and np.array_equal(got_scores[i], row[order] + shift)):
            bad += 1
    if bad:  # each retrieve call was counted as attempted when it ran
        tally.failed += bad
        tally.failures.append(f"retrieve top-k equals stable argsort: {bad} of {len(picks)} differ")

    # batched score entries equal the single-pair similarity bit for bit
    mismatched = 0
    for k, j in rng.integers(0, inputs.test.n, size=(SPOT_ENTRIES, 2)):
        s = pkg.embed.similarity(params, inputs.test.images[k], inputs.test.texts[j], cfg.normalized_similarity)
        mismatched += S[k, j] != s + shift
    tally.check("score_matrix equals similarity", mismatched == 0, f"{mismatched} of {SPOT_ENTRIES} differ")
    return maps


def _read_eval(path: str):
    per_query, mean = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            key, value = line.split()
            if key == "mAP":
                mean = float(value)
            elif key in ("R", "direction", "mode"):
                continue
            else:
                per_query.append(float(value))
    return np.array(per_query), mean


# --- running a workload ---


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _best_block_p50(results: list) -> float:
    """The lowest median of any RETRIEVE_BLOCK consecutive retrieve calls."""
    return min(
        _percentile(r.latencies[i:i + RETRIEVE_BLOCK], 50)
        for r in results
        for i in range(0, len(r.latencies) - RETRIEVE_BLOCK + 1, RETRIEVE_BLOCK)
    )


def _fresh_dir(work: Path) -> Path:
    """A new directory for one set-up or round.

    Every file the benchmark or pacedrank writes gets a name never used
    before in the run. On ext4, writing over a file that was truncated makes
    close() push the old blocks toward the disk (auto_da_alloc): such a write
    took 0.24 to 3.5 ms at the median, a new file 0.05 to 0.07 ms, so
    rewriting in place would time the host's disk rather than pacedrank.
    """
    return Path(tempfile.mkdtemp(dir=work))


def run(workload: Workload, seed: int, seconds: float, trace: bool, corrupt: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, info line)."""
    pkg = import_package()

    tracer = Tracer()
    tracer.paused = not trace
    tally = Tally()
    WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_BASE))
    try:
        setup_times = []
        rounds: list[tuple[bool, RoundResult]] = []
        deadline = time.perf_counter() + seconds
        min_rounds = 2 if trace else 1
        while True:
            traced = trace and len(rounds) % 2 == 0
            t0 = time.perf_counter()
            with instrumented(tracer) if traced else tracer.pause():
                for _ in range(SETUP_REPS_PER_ROUND):
                    setup_dir = _fresh_dir(work)
                    gc.collect()
                    t_setup = time.perf_counter()
                    with tracer.span("setup"):
                        inputs = setup(pkg, workload, seed, setup_dir)
                    setup_times.append(time.perf_counter() - t_setup)
                gc.collect()
                result = run_round(pkg, workload, inputs, seed, len(rounds), _fresh_dir(work), tracer, tally,
                                   corrupt)
            rounds.append((traced, result))
            for old in work.iterdir():
                shutil.rmtree(old)
            took = time.perf_counter() - t0
            if len(rounds) >= min_rounds and time.perf_counter() + took > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # reruns of one workload are deterministic: every round reports the same mAP
    first_maps = rounds[0][1].maps
    tally.check("mAP identical across rounds", all(r.maps == first_maps for _, r in rounds))

    plain = [r for t, r in rounds if not t]
    cfg = pkg.trainer.TrainConfig(**workload.train)
    n_blocks = 2 if cfg.symmetric_tetrads else 1
    if trace:
        traced = [r for t, r in rounds if t]
        values = per_layer_metrics(tracer.spans, n_blocks)
        values["trace.overhead.train_s"] = (
            statistics.median(r.train_s for r in traced) - statistics.median(r.train_s for r in plain))
        values["trace.overhead.eval_s"] = (
            min(x for r in traced for x in r.eval_s) - min(x for r in plain for x in r.eval_s))
        metrics = {k: {"value": float(values[k]), "unit": unit} for k, (unit, _, _) in PER_LAYER.items()}
        _write_spans(tracer.spans, workload.name, seed)
        counts = {k: values[k] for k in (
            "loss.tetrads_evaluated", "embed.score.entries", "trainer.line_search.evals",
            "spl.groups_solved", "trainer.inner_steps")}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "train_s": statistics.median(r.train_s for r in plain),
            "test_map_i2t": first_maps["i2t"],
            "test_map_t2i": first_maps["t2i"],
            "eval_s": min(x for r in plain for x in r.eval_s),
            "retrieve_p50_ms": 1000.0 * _best_block_p50(plain),
            "retrieve_p99_ms": 1000.0 * statistics.median(_percentile(r.latencies, 99) for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": float(values[k]), "unit": END_TO_END[k][0]} for k in END_TO_END}
        counts = {}

    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "setup_reps": len(setup_times),
        "round_train_s": [r.train_s for _, r in rounds],
        "round_eval_s": [min(r.eval_s) for _, r in rounds],
        "round_retrieve_p50_ms": [1000.0 * _best_block_p50([r]) for _, r in rounds],
        "round_retrieve_p99_ms": [1000.0 * _percentile(r.latencies, 99) for _, r in rounds],
        "retrieves": sum(len(r.latencies) for _, r in rounds),
        "counts": counts,
        "failures": tally.failures,
        "env": environment(),
    }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, info


def _write_spans(spans: list[Span], workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "attrs": s.attrs}) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help=f"negative control: shift every reference by {CORRUPT_SHIFT} so the checks fail",
    )
    args = parser.parse_args(argv)
    try:
        result, info = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.corrupt)
    except BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in info["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
