"""Alternating optimization of embedding parameters and selection weights.

Each outer iteration first descends on the smooth subproblem
ridge + sum v * loss at fixed weights (gradient descent guarded by a
backtracking Armijo line search), then solves the selection weights exactly
per query group, then grows the pacing thresholds. Both alternation steps
are non-increasing on the full objective at fixed thresholds, which the
recorded history makes auditable.

Checkpoints are a little-endian binary format: magic "SCCM", a u32 format
version, a length-prefixed JSON header (config, seed, iteration), the four
parameter arrays each prefixed by u32 rows/cols, and a trailing 8-byte
digest over everything before it. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import spl
from .core import (
    Dataset,
    EmbeddingParams,
    LossConfig,
    PacingState,
    build_tetrads,
    check_seed,
)
from .errors import (
    ConfigInvalid,
    CorruptCheckpoint,
    IoFailure,
    NonFiniteObjective,
    VersionMismatch,
)
from .evaluation import mean_ap
from .loss import Block, block_losses, grad_params, smooth_part, with_penalties

CHECKPOINT_MAGIC = b"SCCM"
CHECKPOINT_VERSION = 1

# negatives per query are auto-sampled above this size; the full tetrad set
# is quadratic in n
FULL_TETRAD_LIMIT = 2000
_MIN_LAMBDA = 1e-8
# TrainConfig fields that must be finite reals
_REAL_FIELDS = (
    "margin", "init_fraction", "gamma_ratio", "lam_growth", "gamma_growth",
    "initial_step", "shrink_factor", "sufficient_decrease", "rel_tol",
)


@dataclass(frozen=True)
class TrainConfig:
    """Complete declarative description of one training run."""

    embedding_dim: int = 10
    margin: float = 0.1
    init_fraction: float = 0.5
    gamma_ratio: float = 0.1
    lam_growth: float = 1.1
    gamma_growth: float = 1.1
    max_outer_iters: int = 100
    max_inner_steps: int = 25
    initial_step: float = 1.0
    shrink_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    rel_tol: float = 1e-5
    seed: int = 0
    sample_negatives: Optional[int] = None
    symmetric_tetrads: bool = False
    normalized_similarity: bool = False
    early_stop_patience: Optional[int] = None

    def validate(self) -> None:
        # a JSON "false", true, 2.5 or NaN would otherwise pass the range checks below
        for name in ("symmetric_tetrads", "normalized_similarity"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigInvalid(f"{name} must be true or false, got {value!r}")
        optional = ("sample_negatives", "early_stop_patience")
        for name in ("embedding_dim", "max_outer_iters", "max_inner_steps", *optional):
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
        check_seed(self.seed)
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ConfigInvalid(f"{name} must be a finite real number, got {value!r}")
        if self.embedding_dim < 1:
            raise ConfigInvalid("embedding_dim must be at least 1")
        if not (self.margin >= 0.0):
            raise ConfigInvalid("margin must be nonnegative")
        if not (0.0 < self.init_fraction <= 1.0):
            raise ConfigInvalid("init_fraction must lie in (0, 1]")
        if self.gamma_ratio < 0.0:
            raise ConfigInvalid("gamma_ratio must be nonnegative")
        if self.lam_growth < 1.0 or self.gamma_growth < 1.0:
            raise ConfigInvalid("growth factors must be at least 1")
        if self.max_outer_iters < 0:
            raise ConfigInvalid("max_outer_iters must be nonnegative")
        if self.max_inner_steps < 1:
            raise ConfigInvalid("max_inner_steps must be at least 1")
        if not (self.initial_step > 0.0):
            raise ConfigInvalid("initial_step must be positive")
        if not (0.0 < self.shrink_factor < 1.0):
            raise ConfigInvalid("shrink_factor must lie in (0, 1)")
        if not (0.0 < self.sufficient_decrease < 1.0):
            raise ConfigInvalid("sufficient_decrease must lie in (0, 1)")
        if not (self.rel_tol > 0.0):
            raise ConfigInvalid("rel_tol must be positive")
        if self.sample_negatives is not None and self.sample_negatives < 1:
            raise ConfigInvalid("sample_negatives must be at least 1 when set")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigInvalid("early_stop_patience must be at least 1 when set")

    def loss_config(self) -> LossConfig:
        return LossConfig(margin=self.margin)


@dataclass(frozen=True)
class HistoryRecord:
    """Everything observed during one outer iteration."""

    iteration: int
    objective_entry: float
    objective_after_w: float
    objective: float
    lam: float
    gamma: float
    selected_counts: np.ndarray
    selected_mass: float
    selected_fraction: float
    inner_steps: int
    val_map: Optional[float] = None


@dataclass
class TrainHistory:
    records: list[HistoryRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Checkpoint:
    version: int
    params: EmbeddingParams
    config: TrainConfig
    seed: int
    iteration: int


def init_params(rng: np.random.Generator, d: int, p: int, q: int) -> EmbeddingParams:
    """Seeded Gaussian init scaled by sqrt(2/(fan_in+fan_out)); biases zero."""
    W1 = rng.normal(0.0, np.sqrt(2.0 / (p + d)), size=(d, p))
    W2 = rng.normal(0.0, np.sqrt(2.0 / (q + d)), size=(d, q))
    return EmbeddingParams.from_arrays(W1, np.zeros(d), W2, np.zeros(d))


def line_search(
    params: EmbeddingParams,
    grad: EmbeddingParams,
    value_fn: Callable[[EmbeddingParams], float],
    current_value: float,
    cfg: TrainConfig,
    max_backtracks: int = 50,
) -> tuple[float, EmbeddingParams, float]:
    """Backtracking Armijo search along the negative gradient.

    Halving (by shrink_factor) stops at the first step satisfying
    f(new) <= f(old) - c * step * |grad|^2. Returns (0, params, value) when
    no decrease is found; callers treat step 0 as converged.
    """
    gnorm2 = grad.norm_sq()
    if gnorm2 == 0.0:
        return 0.0, params, current_value
    step = cfg.initial_step
    for _ in range(max_backtracks):
        trial = params.axpy(-step, grad)
        value = value_fn(trial)
        if np.isfinite(value) and value <= current_value - cfg.sufficient_decrease * step * gnorm2:
            return step, trial, value
        step *= cfg.shrink_factor
    return 0.0, params, current_value


def optimize_W(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: list[Block],
    cfg: TrainConfig,
    value: float,
    trace: Optional[list] = None,
) -> tuple[EmbeddingParams, int]:
    """Descend on ridge + sum v*loss at fixed weights until stalled.

    value is the smooth value at params, which the caller already holds.
    """
    cfg.validate()
    lcfg = cfg.loss_config()

    def value_fn(p):
        return smooth_part(p, blocks, block_losses(p, dataset, blocks, lcfg, cfg.normalized_similarity))

    if not np.isfinite(value):
        raise NonFiniteObjective("smooth subproblem value is not finite")
    if trace is not None:
        trace.append(value)
    steps = 0
    for _ in range(cfg.max_inner_steps):
        steps += 1
        grad = grad_params(params, dataset, blocks, lcfg, cfg.normalized_similarity)
        if not grad.is_finite():
            raise NonFiniteObjective("gradient is not finite")
        step, new_params, new_value = line_search(params, grad, value_fn, value, cfg)
        if step == 0.0:
            break
        if trace is not None:
            trace.append(new_value)
        rel = (value - new_value) / max(1.0, abs(value))
        params, value = new_params, new_value
        if rel < cfg.rel_tol:
            break
    return params, steps


def _auto_sample(cfg: TrainConfig, n: int) -> Optional[int]:
    if cfg.sample_negatives is not None:
        return cfg.sample_negatives
    if n <= FULL_TETRAD_LIMIT:
        return None
    return max(1, min(n - 1, (FULL_TETRAD_LIMIT * FULL_TETRAD_LIMIT) // n))


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    val_dataset: Optional[Dataset] = None,
) -> tuple[EmbeddingParams, TrainHistory]:
    """Run the full alternating loop and return final params plus history.

    Deterministic under (dataset, config): all randomness comes from
    cfg.seed. Convergence is declared once both the smooth objective and
    the total selected mass are relatively stable (below rel_tol) for two
    consecutive outer iterations, or at max_outer_iters.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(rng, cfg.embedding_dim, dataset.p, dataset.q)
    history = TrainHistory()
    if cfg.max_outer_iters == 0:
        return params, history

    m = _auto_sample(cfg, dataset.n)
    blocks = [Block(build_tetrads(dataset, m, cfg.seed), "i2t", None)]
    if cfg.symmetric_tetrads:
        blocks.append(Block(build_tetrads(dataset, m, cfg.seed + 1), "t2i", None))
    total_tetrads = sum(b.tetrads.total for b in blocks)

    lcfg = cfg.loss_config()
    losses = block_losses(params, dataset, blocks, lcfg, cfg.normalized_similarity)
    lam0 = max(spl.init_lambda(losses, cfg.init_fraction), _MIN_LAMBDA)
    pacing = PacingState(lam=lam0, gamma=cfg.gamma_ratio * lam0)
    for b, block_loss in zip(blocks, losses):
        b.v = spl.update_importance(block_loss, pacing)
    # the smooth part at the current (params, v); every objective the loop
    # records is derived from one loss evaluation per block after the W-step
    smooth = smooth_part(params, blocks, losses)

    prev_smooth: Optional[float] = None
    prev_mass: Optional[float] = None
    stable = 0
    best_val = -np.inf
    best_params = params
    since_best = 0

    for it in range(1, cfg.max_outer_iters + 1):
        obj_entry = with_penalties(smooth, blocks, pacing)
        params, inner_steps = optimize_W(params, dataset, blocks, cfg, smooth)
        losses = block_losses(params, dataset, blocks, lcfg, cfg.normalized_similarity)
        obj_after_w = with_penalties(smooth_part(params, blocks, losses), blocks, pacing)

        for b, block_loss in zip(blocks, losses):
            b.v = spl.update_importance(block_loss, pacing)
        smooth = smooth_part(params, blocks, losses)
        obj_after_v = with_penalties(smooth, blocks, pacing)
        if not (np.isfinite(obj_entry) and np.isfinite(obj_after_w) and np.isfinite(obj_after_v)):
            raise NonFiniteObjective(f"objective became non-finite at iteration {it}")

        counts = np.concatenate(
            [np.bincount(b.v.group_ids[b.v.values > 0.0], minlength=b.v.n_groups) for b in blocks]
        )
        mass = float(sum(float(np.sum(b.v.values)) for b in blocks))
        val_map: Optional[float] = None
        if val_dataset is not None:
            val_map = mean_ap(
                params, val_dataset, direction="i2t", r="all",
                normalized=cfg.normalized_similarity,
            ).mean

        history.records.append(
            HistoryRecord(
                iteration=it,
                objective_entry=obj_entry,
                objective_after_w=obj_after_w,
                objective=obj_after_v,
                lam=pacing.lam,
                gamma=pacing.gamma,
                selected_counts=counts,
                selected_mass=mass,
                selected_fraction=mass / total_tetrads,
                inner_steps=inner_steps,
                val_map=val_map,
            )
        )

        if val_map is not None and cfg.early_stop_patience is not None:
            if val_map > best_val:
                best_val = val_map
                best_params = params
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.early_stop_patience:
                    return best_params, history

        if prev_smooth is not None:
            rel_obj = abs(smooth - prev_smooth) / max(1.0, abs(prev_smooth))
            rel_mass = abs(mass - prev_mass) / max(1.0, prev_mass)
            stable = stable + 1 if (rel_obj < cfg.rel_tol and rel_mass < cfg.rel_tol) else 0
            if stable >= 2:
                break
        prev_smooth, prev_mass = smooth, mass
        pacing = PacingState(pacing.lam * cfg.lam_growth, pacing.gamma * cfg.gamma_growth)

    if cfg.early_stop_patience is not None and best_val > -np.inf:
        return best_params, history
    return params, history


# --- checkpoint serialization ---


def _config_to_json(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def _config_from_json(payload: dict) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(payload) - known
    if unknown:
        raise CorruptCheckpoint(f"unknown config keys in checkpoint: {sorted(unknown)}")
    try:
        cfg = TrainConfig(**payload)
        cfg.validate()
    except (TypeError, ConfigInvalid) as exc:
        raise CorruptCheckpoint(f"invalid config in checkpoint: {exc}") from exc
    return cfg


def _pack_matrix(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype="<f8")
    if arr.ndim == 1:
        rows, cols = arr.shape[0], 1
    else:
        rows, cols = arr.shape
    return struct.pack("<II", rows, cols) + arr.tobytes(order="C")


class _Cursor:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise CorruptCheckpoint("checkpoint is truncated")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out


def _unpack_matrix(cur: _Cursor, vector: bool) -> np.ndarray:
    rows, cols = struct.unpack("<II", cur.take(8))
    data = np.frombuffer(cur.take(8 * rows * cols), dtype="<f8")
    if vector:
        if cols != 1:
            raise CorruptCheckpoint("expected a vector block")
        return data.copy()
    return data.reshape(rows, cols).copy()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a checkpoint atomically; the trailing digest detects corruption."""
    header = json.dumps(
        {"config": _config_to_json(ckpt.config), "seed": ckpt.seed, "iteration": ckpt.iteration},
        sort_keys=True,
    ).encode("utf-8")
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<I", ckpt.version)
    body += struct.pack("<I", len(header))
    body += header
    for arr in ckpt.params.arrays:
        body += _pack_matrix(arr)
    body += hashlib.sha256(bytes(body)).digest()[:8]
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(bytes(body))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint written by save_checkpoint."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 4 + 8:
        raise CorruptCheckpoint("checkpoint is truncated")
    payload, digest = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != digest:
        raise CorruptCheckpoint("checkpoint digest mismatch")
    cur = _Cursor(payload)
    if cur.take(4) != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint("bad magic bytes")
    (version,) = struct.unpack("<I", cur.take(4))
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", cur.take(4))
    try:
        header = json.loads(cur.take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or set(header) != {"config", "seed", "iteration"}:
        raise CorruptCheckpoint("checkpoint header has unexpected structure")
    if not isinstance(header["config"], dict):
        raise CorruptCheckpoint("checkpoint config is not an object")
    for key in ("seed", "iteration"):
        if isinstance(header[key], bool) or not isinstance(header[key], int):
            raise CorruptCheckpoint(f"checkpoint {key} is not an integer")
    config = _config_from_json(header["config"])
    W1 = _unpack_matrix(cur, vector=False)
    b1 = _unpack_matrix(cur, vector=True)
    W2 = _unpack_matrix(cur, vector=False)
    b2 = _unpack_matrix(cur, vector=True)
    if cur.pos != len(payload):
        raise CorruptCheckpoint("trailing bytes after parameter blocks")
    params = EmbeddingParams.from_arrays(W1, b1, W2, b2)
    return Checkpoint(
        version=version,
        params=params,
        config=config,
        seed=header["seed"],
        iteration=header["iteration"],
    )
