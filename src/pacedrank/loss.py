"""Hinge ranking losses over tetrads, the paced objective, and gradients.

A tetrad is a query k, its aligned counterpart k and a negative j. Its
order label is always +1, so its loss is max(0, S_kj - S_kk + margin).
Losses come back as a GroupedVector over the tetrad set's offsets.

The objective is defined once, over a list of Blocks (a tetrad set, its
retrieval direction and its weights): a ridge penalty on the two
transformation matrices (biases are not penalized), plus each block's
weighted loss sum, minus each block's selection regularizers
lam * |v|_1 (easiness) and gamma * sum_k sqrt(sum_j v_kj) (diversity
across query groups).

All reductions are whole-array numpy reductions in a fixed order, and the
gradient's matrix products are einsum loops, never BLAS, so objective and
gradient values are identical across runs and BLAS thread counts. The
weighted loss sums the products of the strictly positive weights in flat
tetrad order; group masses add each group's weights in index order.
Tetrads with zero weight therefore cannot perturb either value even at the
bit level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Dataset,
    EmbeddingParams,
    GroupedVector,
    ImportanceVector,
    LossConfig,
    PacingState,
    TetradSet,
    check_direction,
)
from .embed import forward
from .errors import AlignmentError, ConfigInvalid, IndexOutOfRange


@dataclass
class Block:
    """One tetrad population (a retrieval direction) with its current weights."""

    tetrads: TetradSet
    direction: str
    v: Optional[ImportanceVector]


def _query_view(params: EmbeddingParams, dataset: Dataset, direction: str, normalized: bool):
    """The forward pass with queries as rows: (X, Z, H, G, S).

    X/H are the query side's features and embeddings, Z/G the item side's.
    For t2i this is the image-query pass transposed (see embed.forward).
    """
    check_direction(direction)
    H, G, S = forward(params, dataset, normalized)
    if direction == "i2t":
        return dataset.images, dataset.texts, H, G, S
    return dataset.texts, dataset.images, G, H, S.T


def _hinge_args(S: np.ndarray, tetrads: TetradSet, margin: float) -> np.ndarray:
    """S_kj - S_kk + margin for every tetrad, with query rows in S."""
    ks = tetrads.flat_queries
    return S[ks, tetrads.negatives] - S[ks, ks] + margin


def _check_tetrads(tetrads: TetradSet, n: int) -> None:
    if tetrads.n != n:
        raise IndexOutOfRange(
            f"tetrad set built for {tetrads.n} items but dataset has {n}"
        )


def _check_aligned(tetrads: TetradSet, v: GroupedVector) -> None:
    if v.total != tetrads.total or not np.array_equal(v.offsets, tetrads.offsets):
        raise AlignmentError("weight vector does not line up with the tetrad set")


def ridge_value(params: EmbeddingParams) -> float:
    """0.5 * (sum of squared entries of W1 and W2); biases are excluded."""
    return 0.5 * (float(np.sum(params.W1 * params.W1)) + float(np.sum(params.W2 * params.W2)))


def tetrad_loss(
    params: EmbeddingParams,
    dataset: Dataset,
    k: int,
    j: int,
    cfg: LossConfig,
    direction: str = "i2t",
    normalized: bool = False,
) -> float:
    """Hinge loss of the single tetrad (query k, negative j): max(0, S_kj - S_kk + margin).

    Only the tetrad's own two pairs are embedded and scored, so comparing
    this with all_losses compares a two-row pass against a full one.
    """
    n = dataset.n
    if not (0 <= k < n) or not (0 <= j < n):
        raise IndexOutOfRange(f"tetrad ({k}, {j}) outside dataset of size {n}")
    if k == j:
        raise ConfigInvalid("negative index must differ from the query index")
    pair = Dataset(dataset.images[[k, j]], dataset.texts[[k, j]])
    *_, S = _query_view(params, pair, direction, normalized)
    return max(0.0, float(S[0, 1] - S[0, 0]) + cfg.margin)


def all_losses(
    params: EmbeddingParams,
    dataset: Dataset,
    tetrads: TetradSet,
    cfg: LossConfig,
    direction: str = "i2t",
    normalized: bool = False,
) -> GroupedVector:
    """Hinge losses for every tetrad, from a single score-matrix evaluation.

    The values are nonnegative by construction and are not re-checked; a
    non-finite loss shows up in the objective value, which the trainer checks.
    """
    _check_tetrads(tetrads, dataset.n)
    *_, S = _query_view(params, dataset, direction, normalized)
    return GroupedVector(np.maximum(0.0, _hinge_args(S, tetrads, cfg.margin)), tetrads.offsets)


def weighted_sum_from(losses: GroupedVector, v: ImportanceVector) -> float:
    """Sum of v * loss over all tetrads, skipping zero weights exactly.

    One np.sum over the products of the strictly positive weights, in flat
    tetrad order. A set with its zero-weight tetrads removed yields the same
    product array, so it yields the same bits.
    """
    if losses.total != v.total or not np.array_equal(losses.offsets, v.offsets):
        raise AlignmentError("losses and weights are not aligned")
    sel = v.values > 0.0
    return float(np.sum(v.values[sel] * losses.values[sel]))


def selection_penalty(v: ImportanceVector, pacing: PacingState) -> float:
    """-lam * |v|_1 - gamma * sum_k sqrt(group mass).

    Both terms reduce the per-group masses (v.group_sums), so zero weights,
    which add exactly 0 to their group's mass, cannot change the result.
    """
    masses = v.group_sums()
    return -pacing.lam * float(np.sum(masses)) - pacing.gamma * float(np.sum(np.sqrt(masses)))


def block_losses(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: Sequence[Block],
    cfg: LossConfig,
    normalized: bool = False,
) -> list[GroupedVector]:
    """all_losses for each block, in block order."""
    return [all_losses(params, dataset, b.tetrads, cfg, b.direction, normalized) for b in blocks]


def smooth_part(params: EmbeddingParams, blocks: Sequence[Block], losses: list[GroupedVector]) -> float:
    """ridge + each block's weighted loss sum, from losses already evaluated."""
    total = ridge_value(params)
    for b, block_loss in zip(blocks, losses):
        total += weighted_sum_from(block_loss, b.v)
    return total


def with_penalties(smooth: float, blocks: Sequence[Block], pacing: PacingState) -> float:
    """The full objective: smooth part + each block's selection penalty."""
    total = smooth
    for b in blocks:
        total += selection_penalty(b.v, pacing)
    return total


def objective(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: Sequence[Block],
    pacing: PacingState,
    cfg: LossConfig,
    normalized: bool = False,
) -> float:
    """Full paced objective: ridge + weighted losses + selection penalties.

    Terms are added one at a time: the ridge, then each block's weighted
    loss sum, then each block's selection penalty.
    """
    losses = block_losses(params, dataset, blocks, cfg, normalized)
    return with_penalties(smooth_part(params, blocks, losses), blocks, pacing)


def grad_loss_term(
    params: EmbeddingParams,
    dataset: Dataset,
    tetrads: TetradSet,
    v: ImportanceVector,
    cfg: LossConfig,
    direction: str = "i2t",
    normalized: bool = False,
) -> EmbeddingParams:
    """Gradient of the weighted hinge term alone (no ridge).

    A tetrad contributes iff its hinge argument is strictly positive; at the
    kink the contribution is 0. The chain rule runs through the sigmoid
    (sigma' = sigma * (1 - sigma)) into W1/b1 on the query side and W2/b2 on
    the item side of the query view; for t2i the two are swapped back.
    """
    _check_aligned(tetrads, v)
    _check_tetrads(tetrads, dataset.n)
    X, Z, H, G, S = _query_view(params, dataset, direction, normalized)
    coef = np.where(_hinge_args(S, tetrads, cfg.margin) > 0.0, v.values, 0.0)

    C = np.zeros((dataset.n, dataset.n))
    C[tetrads.flat_queries, tetrads.negatives] = coef
    s_row = C.sum(axis=1)

    # products are einsum loops, not BLAS: a threaded BLAS splits them by
    # thread count, which would change the gradient's bits
    if not normalized:
        dH_pre = np.einsum("kj,jl->kl", C, G) - s_row[:, None] * G
        dG_pre = np.einsum("kj,kl->jl", C, H) - s_row[:, None] * H
    else:
        nh = np.sqrt(np.sum(H * H, axis=1))
        ng = np.sqrt(np.sum(G * G, axis=1))
        H_hat = H / nh[:, None]
        G_hat = G / ng[:, None]
        diag = np.diagonal(S)
        CS = C * S
        row_cs = CS.sum(axis=1)
        col_cs = CS.sum(axis=0)
        w_h = (row_cs - s_row * diag) / (nh * nh)
        w_g = (col_cs - s_row * diag) / (ng * ng)
        dH_pre = (np.einsum("kj,jl->kl", C, G_hat) - s_row[:, None] * G_hat) / nh[:, None] - w_h[:, None] * H
        dG_pre = (np.einsum("kj,kl->jl", C, H_hat) - s_row[:, None] * H_hat) / ng[:, None] - w_g[:, None] * G

    dH = dH_pre * H * (1.0 - H)
    dG = dG_pre * G * (1.0 - G)
    dW_query = np.einsum("kl,kp->lp", dH, X)
    db_query = dH.sum(axis=0)
    dW_item = np.einsum("kl,kp->lp", dG, Z)
    db_item = dG.sum(axis=0)

    if direction == "t2i":
        return EmbeddingParams(dW_item, db_item, dW_query, db_query)
    return EmbeddingParams(dW_query, db_query, dW_item, db_item)


def grad_params(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: Sequence[Block],
    cfg: LossConfig,
    normalized: bool = False,
) -> EmbeddingParams:
    """Gradient of ridge + every block's weighted hinge term.

    The ridge term's gradient is W1, W2 themselves (biases are not
    penalized); each block's term is then added in block order.
    """
    grad = EmbeddingParams(params.W1, np.zeros_like(params.b1), params.W2, np.zeros_like(params.b2))
    for b in blocks:
        grad = grad.axpy(1.0, grad_loss_term(params, dataset, b.tetrads, b.v, cfg, b.direction, normalized))
    return grad
