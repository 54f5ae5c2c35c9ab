"""Alternating optimization of embedding parameters and selection weights.

Each outer iteration first descends on the smooth subproblem
ridge + sum v * loss at fixed weights (gradient descent guarded by a
backtracking Armijo line search), then solves the selection weights exactly
per query group, then grows the pacing thresholds. Both alternation steps
are non-increasing on the full objective at fixed thresholds, which the
recorded history makes auditable.

The W-step minimises ridge + sum v * loss, on which a tetrad with v = 0
has no effect, so train hands it each block cut down to its selected
tetrads (loss.selected), with the embedding at its entry point; every
trajectory is the one the full sets give. After the W-step the full set is
scored once, from the final embedding, for the weight solve; those losses
are then dropped.

The W-step owns every pass and loss vector it reads: each point it scores
is embedded once and gets one pass (loss.forward_pass) for all blocks, the
accepted trial's serving the next gradient, and a point's scores and
losses are dropped before its line search. The line search asks one
value_fn(trial, bound) per trial. A trial whose ridge alone exceeds the
Armijo bound is rejected unembedded; otherwise it is embedded and first
bounded below from the selected tetrads active at the current point or
close to it (loss.floor_listing, loss.floor_rejects). A trial that falls
through gets the full pass on the same embedding and clears the listing,
so the rest of its search runs full passes; every decision, and so every
trajectory, is the one full passes give.

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
    GroupedVector,
    LossConfig,
    PacingState,
    build_tetrads,
    check_int,
    check_real,
    check_seed,
)
from .embed import Embedding, forward
from .errors import (
    ConfigInvalid,
    CorruptCheckpoint,
    DimensionMismatch,
    IoFailure,
    NonFiniteObjective,
    NonFiniteValue,
    ShapeMismatch,
    VersionMismatch,
)
from .evaluation import mean_ap
from .loss import (
    Block,
    block_losses,
    floor_listing,
    floor_rejects,
    forward_pass,
    grad_params,
    ridge_value,
    selected,
    smooth_part,
    with_penalties,
)

CHECKPOINT_MAGIC = b"SCCM"
CHECKPOINT_VERSION = 1

# negatives per query are auto-sampled above this size; the full tetrad set
# is quadratic in n
FULL_TETRAD_LIMIT = 2000
_MIN_LAMBDA = 1e-8
MAX_BACKTRACKS = 50  # trial steps per line search
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

    def __post_init__(self) -> None:
        # a JSON "false", true, 2.5 or NaN would otherwise pass the range checks below
        for name in ("symmetric_tetrads", "normalized_similarity"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigInvalid(f"{name} must be true or false, got {value!r}")
        for name in ("embedding_dim", "max_outer_iters", "max_inner_steps"):
            check_int(name, getattr(self, name))
        for name in ("sample_negatives", "early_stop_patience"):  # optional
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name))
        check_seed(self.seed)
        for name in _REAL_FIELDS:
            check_real(name, getattr(self, name))
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
    value_fn: Callable[[EmbeddingParams, float], float],
    current_value: float,
    cfg: TrainConfig,
) -> tuple[float, EmbeddingParams, float]:
    """Backtracking Armijo search along the negative gradient.

    Halving (by shrink_factor) stops at the first step satisfying
    f(new) <= f(old) - c * step * |grad|^2. Returns (0, params, value) when
    no trial of MAX_BACKTRACKS does; callers treat step 0 as converged.

    value_fn(trial, bound) returns f(trial), or a value above bound when a
    lower bound already shows f(trial) > bound; either way the decision is
    the one f's value gives. With bound = +inf it returns f itself. The
    accepted trial is the last one value_fn is asked about. Raises
    NonFiniteObjective, before any trial, when |grad|^2 overflows: every
    bound would be -inf, so no trial could pass.
    """
    gnorm2 = grad.norm_sq()
    if gnorm2 == 0.0:
        return 0.0, params, current_value
    if not np.isfinite(gnorm2):
        raise NonFiniteObjective("the gradient's squared norm overflows")
    step = cfg.initial_step
    for _ in range(MAX_BACKTRACKS):
        trial = params.axpy(-step, grad)
        bound = current_value - cfg.sufficient_decrease * step * gnorm2
        value = value_fn(trial, bound)
        if np.isfinite(value) and value <= bound:
            return step, trial, value
        step *= cfg.shrink_factor
    return 0.0, params, current_value


def optimize_W(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: list[Block],
    cfg: TrainConfig,
    emb: Embedding,
) -> tuple[EmbeddingParams, float, int, Embedding]:
    """Descend on ridge + sum v*loss at fixed weights from params, whose embedding is emb, until stalled.

    Any blocks are accepted; train hands over each block cut down to its
    selected tetrads, which gives the same bits as the full blocks. Each
    point gets one forward pass, which serves every block: the entry
    point's is scored here from emb, each scored trial's in value_fn, and
    the accepted trial's pass and losses (line_search accepts its last
    trial) serve the next gradient. A point's scores and losses are dropped
    before its line search; its embedding is not. Returns the final params,
    the smooth value their losses give, the inner steps taken and the
    embedding at the final params. Raises NonFiniteObjective when the
    entry value or a gradient is not finite, or (from line_search) when a
    gradient's squared norm overflows.

    Each inner step takes the gradient, which lists the selected active
    tetrads itself and drops them, then the longer floor listing
    (loss.floor_listing) for the line search. value_fn applies the ridge
    floor, embeds the trial once, tries loss.floor_rejects on that
    embedding while the step's floor listing is not empty, and gives a
    trial that falls through the full pass on the same embedding. The first
    trial of a search that falls through clears the listing, so the rest of
    that search runs full passes only; the floor decides nothing a full
    pass would not, so the trajectory is the same.
    """
    lcfg = cfg.loss_config()
    normalized = cfg.normalized_similarity
    last: dict = {}  # the latest trial's forward pass and per-block losses

    def value_fn(p, bound):
        last.clear()  # keep at most one pass alive while a trial is scored
        ridge = ridge_value(p)
        if ridge > bound:
            return ridge
        emb = forward(p, dataset, normalized)
        if near and floor_rejects(emb, blocks, lcfg, near, ridge, bound):
            return np.inf
        near.clear()  # fell through: the rest of this search runs full passes
        trial_fwd = forward_pass(emb, blocks)
        trial_losses = block_losses(p, dataset, blocks, lcfg, trial_fwd)
        last.update(fwd=trial_fwd, losses=trial_losses)
        return smooth_part(p, blocks, trial_losses)

    fwd = forward_pass(emb, blocks)
    losses = block_losses(params, dataset, blocks, lcfg, fwd)
    value = smooth_part(params, blocks, losses)
    if not np.isfinite(value):
        raise NonFiniteObjective("smooth subproblem value is not finite")
    for steps in range(1, cfg.max_inner_steps + 1):
        grad = grad_params(params, dataset, blocks, losses, fwd)
        # each block's floor listing at params, which value_fn reads until the search's first fall-through
        near = [floor_listing(b, fwd, lcfg.margin) for b in blocks]
        del fwd, losses  # the point's scores and losses are dropped before its line search
        if not grad.is_finite():
            raise NonFiniteObjective("gradient is not finite")
        step, new_params, new_value = line_search(params, grad, value_fn, value, cfg)
        if step == 0.0:
            break
        fwd, losses = last.pop("fwd"), last.pop("losses")
        emb = fwd.emb
        rel = (value - new_value) / max(1.0, abs(value))
        params, value = new_params, new_value
        if rel < cfg.rel_tol:
            break
    return params, value, steps, emb


def _auto_sample(cfg: TrainConfig, n: int) -> Optional[int]:
    if cfg.sample_negatives is not None:
        return cfg.sample_negatives
    if n <= FULL_TETRAD_LIMIT:
        return None
    return max(1, min(n - 1, (FULL_TETRAD_LIMIT * FULL_TETRAD_LIMIT) // n))


def _update_weights(
    params: EmbeddingParams, blocks: list[Block], losses: list[GroupedVector], pacing: PacingState
) -> float:
    """Solve each block's selection weights from its losses at params; return the new smooth part there."""
    for b, block_loss in zip(blocks, losses):
        b.v = spl.update_importance(block_loss, pacing)
    return smooth_part(params, blocks, losses)


def _check_growth(pacing: PacingState, cfg: TrainConfig) -> None:
    """Raise ConfigInvalid if the max_outer_iters - 1 growths train applies overflow lam or gamma."""
    lam, gamma = pacing.lam, pacing.gamma
    for _ in range(cfg.max_outer_iters - 1):
        grown = (lam * cfg.lam_growth, gamma * cfg.gamma_growth)
        if grown == (lam, gamma):  # neither moves, so neither will
            return
        lam, gamma = grown
        for name, value in zip(("lam_growth", "gamma_growth"), grown):
            if not np.isfinite(value):
                raise ConfigInvalid(f"{name} = {getattr(cfg, name)!r} overflows the pacing within "
                                    f"max_outer_iters = {cfg.max_outer_iters}")


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    val_dataset: Optional[Dataset] = None,
) -> tuple[EmbeddingParams, TrainHistory]:
    """Run the full alternating loop and return the params plus history.

    Deterministic under (dataset, config): all randomness comes from
    cfg.seed. Convergence is declared once both the smooth objective and
    the total selected mass are relatively stable (below rel_tol) for two
    consecutive outer iterations, or at max_outer_iters. With a validation
    set and early_stop_patience, training also stops once that many
    iterations in a row fail to beat the best validation mAP, and the
    params returned are the best's; otherwise they are the final params.
    """
    if val_dataset is not None and (val_dataset.p, val_dataset.q) != (dataset.p, dataset.q):
        raise DimensionMismatch(f"validation set has p, q = {val_dataset.p}, {val_dataset.q}, "
                                f"training set {dataset.p}, {dataset.q}")
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

    emb = forward(params, dataset, cfg.normalized_similarity)
    losses = block_losses(params, dataset, blocks, lcfg, forward_pass(emb, blocks))
    lam0 = max(spl.init_lambda(losses, cfg.init_fraction), _MIN_LAMBDA)
    pacing = PacingState(lam=lam0, gamma=cfg.gamma_ratio * lam0)
    _check_growth(pacing, cfg)  # before any W-step
    # the smooth part at the current (params, v); every objective the loop
    # records is derived from the losses at the W-step's final params
    smooth = _update_weights(params, blocks, losses, pacing)
    del losses

    prev_smooth: Optional[float] = None
    prev_mass: Optional[float] = None
    stable = 0
    best: Optional[tuple[float, EmbeddingParams]] = None  # the best validation mAP and its params
    since_best = 0

    for it in range(1, cfg.max_outer_iters + 1):
        obj_entry = with_penalties(smooth, blocks, pacing)
        # the W-step reads the selected tetrads alone
        params, smooth, inner_steps, emb = optimize_W(params, dataset, [selected(b) for b in blocks], cfg, emb)
        obj_after_w = with_penalties(smooth, blocks, pacing)
        # the full set's losses at the final params, from the final embedding, for the weight solve only
        smooth = _update_weights(
            params, blocks, block_losses(params, dataset, blocks, lcfg, forward_pass(emb, blocks)), pacing
        )
        obj_after_v = with_penalties(smooth, blocks, pacing)
        if not (np.isfinite(obj_entry) and np.isfinite(obj_after_w) and np.isfinite(obj_after_v)):
            raise NonFiniteObjective(f"objective became non-finite at iteration {it}")

        counts = np.concatenate([b.v.positive_counts() for b in blocks])
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
            if best is None or val_map > best[0]:
                best = (val_map, params)
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.early_stop_patience:
                    break

        if prev_smooth is not None:
            rel_obj = abs(smooth - prev_smooth) / max(1.0, abs(prev_smooth))
            rel_mass = abs(mass - prev_mass) / max(1.0, prev_mass)
            stable = stable + 1 if (rel_obj < cfg.rel_tol and rel_mass < cfg.rel_tol) else 0
            if stable >= 2:
                break
        prev_smooth, prev_mass = smooth, mass
        if it < cfg.max_outer_iters:  # no pacing is grown past the last iteration
            pacing = PacingState(pacing.lam * cfg.lam_growth, pacing.gamma * cfg.gamma_growth)

    return (params if best is None else best[1]), history


# --- checkpoint serialization ---


def _config_from_json(payload: dict) -> TrainConfig:
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(payload) - known
    if unknown:
        raise CorruptCheckpoint(f"unknown config keys in checkpoint: {sorted(unknown)}")
    try:
        cfg = TrainConfig(**payload)
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
    data = np.frombuffer(cur.take(8 * rows * cols), dtype="<f8").reshape(rows, cols)
    # a vector is stored with cols = 1; a wider one stays 2-D, which from_arrays rejects
    return (data[:, 0] if vector and cols == 1 else data).copy()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a checkpoint atomically; the trailing digest detects corruption."""
    header = json.dumps(
        {"config": dataclasses.asdict(ckpt.config), "seed": ckpt.seed, "iteration": ckpt.iteration},
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
    try:
        params = EmbeddingParams.from_arrays(W1, b1, W2, b2)
    except (ConfigInvalid, NonFiniteValue, ShapeMismatch) as exc:
        raise CorruptCheckpoint(f"invalid parameters in checkpoint: {exc}") from exc
    if config.embedding_dim != params.d:
        raise CorruptCheckpoint(f"checkpoint embedding_dim {config.embedding_dim} but parameters have d={params.d}")
    return Checkpoint(
        version=version,
        params=params,
        config=config,
        seed=header["seed"],
        iteration=header["iteration"],
    )
