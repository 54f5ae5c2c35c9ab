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

Every loss reads one Pass per parameter point: the embedding
(embed.forward), the aligned scores S_kk and each block's tetrad scores
S_kj. forward_pass reads them from the dense n x n matrix
(embed.query_rows) or, when the blocks hold few tetrads against it,
gathers them (embed.pair_scores): the same bits either way. A dense pass
reads a full set as the matrix's off-diagonal entries and any other set
with one np.take at the set's cached flat positions. block_losses,
grad_loss_term and grad_params read a given Pass, whose embedding says raw
or cosine, so blocks at one point share one forward and one backward pass;
all_losses and objective embed params themselves.

The gradient reads the pass's embedding and the losses, no score. Only
selected active tetrads (weight and loss both strictly positive) carry
gradient. Scores are inner products of the rows of A and B: H and G for
raw scores, their rows divided by their norms for cosine ones. One
backward pass gives the gradient with respect to A and B, and cosine
scores add one projection per row through the normalization. Each block's
selected active tetrads at a point are listed once (selected_active), and
the backward pass adds them one by one with np.bincount, in flat tetrad
order, so it allocates no n x n array. Self-paced selection admits easy
tetrads first, most of them inactive, so the listing stays short. Both
pass forms, and a set with its zero-weight tetrads removed, list the same
tetrads and so give the same gradient bits.

A line-search trial can be rejected from part of its value: the ridge plus
the weighted hinges of any tetrads bound the smooth part from below.
floor_rejects scores, from the trial's embedding (embed.pair_scores), the
tetrads of floor_listing: the selected ones whose hinge argument at the
current point exceeds -FLOOR_REACH * margin. They are the active ones, which
carry almost all of the weighted loss, and those an overshooting trial is
likely to activate. The floor rejects once that bound, less a slack for
rounding, exceeds the Armijo bound. The listing recomputes its hinge
arguments from the current point's pass, since the losses clip them at 0:
those hinges are computed twice at that point.

All reductions are whole-array numpy reductions or np.bincount sums in a
fixed order, and the gradient's matrix products are einsum loops, never
BLAS, so objective and gradient values are identical across runs and BLAS
thread counts. The weighted loss sums the products of the strictly
positive weights in flat tetrad order; group masses add each group's
weights in index order. Tetrads with zero weight therefore cannot perturb
either value even at the bit level, which lets the trainer's W-step run on
each block cut down to its selected tetrads. Where every weight is positive,
the weighted sum and the listings read whole arrays, with no gather.
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
)
from .embed import Embedding, forward, pair_scores, query_pairs, query_rows
from .errors import AlignmentError, ConfigInvalid, IndexOutOfRange


# A pass gathers its blocks' scores when they hold fewer tetrads than this
# share of the n x n score entries. Dense scoring costs the same at any share
# and gathering grows with it; measured crossovers lie between 0.3 (n = 300,
# d = 200) and 0.8 (n = 600, d = 10). A full set (n(n-1) >= n^2 / 2 tetrads)
# is always dense.
GATHER_MAX_SHARE = 0.25


@dataclass
class Block:
    """One tetrad population (a retrieval direction) with its current weights."""

    tetrads: TetradSet
    direction: str
    v: Optional[ImportanceVector]


@dataclass(frozen=True)
class Pass:
    """One forward pass at a parameter point, for a list of blocks.

    emb is the embedding, aligned[k] = S_kk, and per block (tetrads,
    direction) its tetrads' S_kj in flat tetrad order, queries as rows.
    Whether the pass scored the dense matrix or gathered these entries is
    known only to forward_pass: the values are the same bit for bit.
    """

    emb: Embedding
    aligned: np.ndarray
    scores: tuple  # ((tetrads, direction, S_kj per tetrad), ...)

    def tetrad_scores(self, tetrads: TetradSet, direction: str) -> np.ndarray:
        """S_kj for each of these tetrads, queries as rows."""
        for t, d, scores in self.scores:
            if t is tetrads and d == direction:
                return scores
        raise AlignmentError("the forward pass was not computed for this tetrad set and direction")


def forward_pass(emb: Embedding, blocks: Sequence[Block]) -> Pass:
    """The pass at emb's point for these blocks: dense, or gathered when they hold few tetrads.

    The pass is dense when the blocks hold GATHER_MAX_SHARE of the n x n
    score entries. The dense form reads the aligned scores and each block's
    entries from the matrix, then drops it. The matrix has the last block's
    queries as rows, and a block of the other direction reads its transpose.
    """
    n = len(emb.H)
    if sum(b.tetrads.total for b in blocks) >= GATHER_MAX_SHARE * n * n:
        last = blocks[-1].direction
        S = query_rows(emb, last)
        aligned = np.diagonal(S).copy()
        scores = [_entries(S if b.direction == last else S.T, b.tetrads) for b in blocks]
    else:
        every = np.arange(n)
        aligned = pair_scores(emb, every, every)
        scores = [pair_scores(emb, *query_pairs(b.tetrads.flat_queries, b.tetrads.negatives, b.direction))
                  for b in blocks]
    return Pass(emb, aligned, tuple((b.tetrads, b.direction, sc) for b, sc in zip(blocks, scores)))


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    """The n(n-1) off-diagonal entries of a C-contiguous n x n matrix, in row-major order.

    A strided (n-1) x n view: dropping the first entry, every run of n + 1
    entries ends on a diagonal one.
    """
    n = M.shape[0]
    return M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _entries(M: np.ndarray, tetrads: TetradSet) -> np.ndarray:
    """A fresh array of M[k, j] for every tetrad (query k, negative j), in flat tetrad order.

    M is the dense pass's C-contiguous matrix S or its transpose. Any set
    but the full one is read with one np.take from S's flat entries, at the
    set's cached positions of its tetrads in S.
    """
    if tetrads.is_full:  # canonical order: the off-diagonal view, with no flat_queries
        return _off_diagonal(np.ascontiguousarray(M)).ravel()  # ravel copies the strided view
    if M.flags.c_contiguous:
        return np.take(M.reshape(-1), tetrads.row_positions)
    return np.take(M.T.reshape(-1), tetrads.column_positions)  # M[k, j] is S[j, k]


def _hinge(aligned: np.ndarray, sizes: np.ndarray, scores: np.ndarray, margin: float) -> np.ndarray:
    """A fresh array of (S_kj - S_kk) + margin, for scores listing sizes[k] tetrads of each query k in turn."""
    # S_kk repeated over the group sizes: flat_queries would cache n(n-1) int64 for a full set
    args = np.repeat(aligned, sizes)
    np.subtract(scores, args, out=args)
    args += margin
    return args


def _hinge_args(fwd: Pass, tetrads: TetradSet, direction: str, margin: float) -> np.ndarray:
    """A fresh array of (S_kj - S_kk) + margin for every tetrad in direction, read from the pass."""
    return _hinge(fwd.aligned, np.diff(tetrads.offsets), fwd.tetrad_scores(tetrads, direction), margin)


@dataclass(frozen=True)
class Active:
    """Some of a block's selected tetrads, listed at one point in flat tetrad order: query, negative and v of each."""

    queries: np.ndarray
    negatives: np.ndarray
    weights: np.ndarray


def _listing(block: Block, values: np.ndarray, above: float) -> Active:
    """The block's tetrads with v > 0 and values[t] > above, in flat tetrad order.

    Only the selected positions are read (v.positive_index, or every
    position when no weight is 0, with no gather), so a set with its
    zero-weight tetrads removed gives the same arrays. The queries are
    repeated over per-group counts found by np.searchsorted, so no index
    over the whole set is built.
    """
    v = block.v
    if v.positive_count == v.total:  # every tetrad selected
        pos = np.flatnonzero(values > above)
    else:
        sel = v.positive_index
        pos = sel[values[sel] > above]
    queries = np.repeat(np.arange(block.tetrads.n), np.diff(np.searchsorted(pos, block.tetrads.offsets)))
    return Active(queries, block.tetrads.negatives[pos], v.values[pos])


def selected_active(block: Block, losses: GroupedVector) -> Active:
    """The block's tetrads with v > 0 and a positive loss, from its losses at one point: the ones the gradient reads.

    The W-step lists them once per inner step, and grad_loss_term takes
    that listing. The line-search floor reads a longer one (floor_listing).
    """
    return _listing(block, losses.values, 0.0)


# The line-search floor lists the selected tetrads whose hinge argument at the
# current point exceeds -FLOOR_REACH * margin: the active ones, and those an
# overshooting trial is likely to activate. A longer listing rejects more trials
# unscored, and costs more per check. Swept at 0, 0.25, 0.5 and 1 (2 vCPUs,
# numpy 2.4.6, noisy host), as full passes that a trial's value then rejected,
# and the median in-process train time:
# - perfbench's train-full (one outer iteration): 36, 9, 7 and 2 passes; 120,
#   102, 101 and 112 ms;
# - the same corpus over 30 iterations: 1050, 56 and 25 passes at 0, 0.25 and
#   0.5; 4.2, 2.7-3.1 and 3.6 s;
# - raw i2t at n = 600 (embedding_dim 8, 3 iterations): 544, 0, 0 and 0
#   passes; 3.3, 0.6-0.9, 0.7-1.1 and 0.9 s;
# - perfbench's train-sampled-sym: 6, 3, 2 and 1 passes; 24-27 ms throughout.
FLOOR_REACH = 0.25


def floor_listing(block: Block, fwd: Pass, margin: float) -> Active:
    """The block's selected tetrads whose hinge argument at fwd's point exceeds -FLOOR_REACH * margin.

    The arguments are recomputed from the pass (the losses clip them at 0),
    with the bits all_losses computes before it clips, and listed as
    selected_active lists the losses; the active tetrads are a part of this
    listing. floor_rejects reads it at the line search's trials.
    """
    return _listing(block, _hinge_args(fwd, block.tetrads, block.direction, margin), -FLOOR_REACH * margin)


def _check_tetrads(tetrads: TetradSet, n: int) -> None:
    if tetrads.n != n:
        raise IndexOutOfRange(
            f"tetrad set built for {tetrads.n} items but dataset has {n}"
        )


def _check_aligned(a, b) -> None:
    """Raise AlignmentError unless a and b (tetrads, weights or losses) are both given and have the same groups."""
    if a is None or b is None:
        raise AlignmentError("a block has no weights")
    if a.total != b.total or not np.array_equal(a.offsets, b.offsets):
        raise AlignmentError("weights do not line up with the tetrads or losses")


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
    R = query_rows(forward(params, pair, normalized), direction)
    return max(0.0, float(R[0, 1] - R[0, 0]) + cfg.margin)


def all_losses(
    params: EmbeddingParams,
    dataset: Dataset,
    tetrads: TetradSet,
    cfg: LossConfig,
    direction: str = "i2t",
    normalized: Optional[bool] = None,
    fwd=None,
) -> GroupedVector:
    """Hinge losses for every tetrad, from one forward pass.

    fwd is the forward pass at params for this set and direction, whose
    embedding says raw or cosine (a normalized flag that disagrees raises
    ConfigInvalid); without one, params are embedded here, with cosine
    scores iff normalized. The values are nonnegative by construction and
    are not re-checked; a non-finite loss shows up in the objective value.
    """
    _check_tetrads(tetrads, dataset.n)
    if fwd is None:
        fwd = forward_pass(forward(params, dataset, bool(normalized)), [Block(tetrads, direction, None)])
    elif normalized is not None and normalized != (fwd.emb.norms is not None):
        raise ConfigInvalid(f"normalized={normalized} contradicts the scores of the given pass")
    hinges = _hinge_args(fwd, tetrads, direction, cfg.margin)
    np.maximum(0.0, hinges, out=hinges)
    hinges.flags.writeable = False  # locked, so GroupedVector keeps it without a copy
    return GroupedVector(hinges, tetrads.offsets)


def weighted_sum_from(losses: GroupedVector, v: ImportanceVector) -> float:
    """Sum of v * loss over all tetrads, skipping zero weights exactly.

    One np.sum over the products of the strictly positive weights, in flat
    tetrad order (v.positive_index, cached on the weights, which stay fixed
    for a whole W-step), gathered only when some weight is 0. A set with its
    zero-weight tetrads removed yields the same product array, so it yields
    the same bits.
    """
    _check_aligned(losses, v)
    if v.positive_count == v.total:  # every weight positive: the same products, with no gather
        return float(np.sum(v.values * losses.values))
    sel = v.positive_index
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
    fwd: Pass,
) -> list[GroupedVector]:
    """all_losses for each block, in block order, all from fwd, the forward pass at params."""
    return [all_losses(params, dataset, b.tetrads, cfg, b.direction, fwd=fwd) for b in blocks]


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


def _listed_terms(emb: Embedding, aligned: np.ndarray, direction: str, active: Active, margin: float) -> float:
    """The sum of v * loss at emb's point, whose S_kk aligned holds, over the tetrads active lists.

    Each hinge and product is computed as all_losses and weighted_sum_from
    compute it; only their sum runs over fewer terms.
    """
    scores = pair_scores(emb, *query_pairs(active.queries, active.negatives, direction))
    hinges = _hinge(aligned, np.bincount(active.queries, minlength=len(aligned)), scores, margin)
    np.maximum(0.0, hinges, out=hinges)
    return float(np.sum(active.weights * hinges))


def floor_rejects(
    emb: Embedding,
    blocks: Sequence[Block],
    cfg: LossConfig,
    listed: Sequence[Active],
    ridge: float,
    bound: float,
) -> bool:
    """Whether smooth_part at emb's point, whose ridge is ridge, surely exceeds bound, shown by some of its terms.

    listed holds each block's floor_listing, made at another point (the
    W-step's current one); any listing of selected tetrads is sound. The
    listed tetrads' weighted hinges at emb's point (_listed_terms) are
    added to the lower bound, which starts at ridge.
    """
    every = np.arange(len(emb.H))
    aligned = pair_scores(emb, every, every)
    lb = ridge
    for b, a in zip(blocks, listed):
        lb += _listed_terms(emb, aligned, b.direction, a, cfg.margin)
    # Rounding. smooth_part is a floating-point sum, in some order, of T nonnegative
    # terms: the ridge and each block's v * loss products. lb sums, in another
    # order, a subset of the same terms, equal bit for bit (its scores are S's, and
    # each term is computed alike). A sum of at most T nonnegative terms lies
    # within a factor 1 +- g of its exact value, g = (T-1)u / (1 - (T-1)u) <= T eps
    # (u = eps / 2). So smooth_part >= exact (1 - g) >= exact lb (1 - g)
    # >= lb (1 - g) / (1 + g) >= lb (1 - 2 T eps), and lb (1 - 4 T eps) > bound,
    # whose factor and product round by about eps each, implies smooth_part >
    # bound: value_fn's result would reject the trial too. A NaN or infinite lb,
    # or one within the slack, decides nothing.
    terms = 1 + sum(b.v.positive_count for b in blocks)
    scale = 1.0 - 4.0 * terms * np.finfo(np.float64).eps
    return bool(np.isfinite(lb) and lb * scale > bound)


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
    losses = block_losses(params, dataset, blocks, cfg, forward_pass(forward(params, dataset, normalized), blocks))
    return with_penalties(smooth_part(params, blocks, losses), blocks, pacing)


def _scattered_product(index: np.ndarray, other: np.ndarray, w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """out[i] = the sum of w[t] * E[other[t]] over index[t] == i: C E without C, one np.bincount per column."""
    out = np.empty(E.shape)
    for l, column in enumerate(np.ascontiguousarray(E.T)):
        out[:, l] = np.bincount(index, weights=w * column[other], minlength=len(out))
    return out


def _scattered_terms(blocks: Sequence[Block], active: Sequence[Active], A: np.ndarray, B: np.ndarray):
    """(s, C B, C^T A), added over the selected active tetrads alone: no n x n array.

    C is the image-row matrix of the listed tetrads' weights and s its
    per-query sums. Every block's listed tetrads are taken in block order,
    then flat tetrad order; a t2i tetrad (query k, negative j) lands on
    image row j and text column k. Each sum is one np.bincount per output
    column, which adds an entry's terms in that order, so the bits depend
    only on the listing.
    """
    lists = [(a.queries, *query_pairs(a.queries, a.negatives, b.direction), a.weights) for b, a in zip(blocks, active)]
    queries, rows, cols, w = (np.concatenate(parts) for parts in zip(*lists))
    s = np.bincount(queries, weights=w, minlength=A.shape[0])
    return s, _scattered_product(rows, cols, w, B), _scattered_product(cols, rows, w, A)


def grad_loss_term(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: Sequence[Block],
    losses: Sequence[GroupedVector],
    fwd: Pass,
    active: Optional[Sequence[Active]] = None,
) -> EmbeddingParams:
    """Gradient of every block's weighted hinge term (no ridge), in one backward pass.

    fwd is the forward pass at params for these blocks; only its embedding
    is read, which says whether the scores are raw or cosine. losses are the
    blocks' losses at that point, one per block in block order and lined up
    with its tetrads (else AlignmentError). A tetrad contributes iff its
    weight and its loss are strictly positive: it is selected and active.
    active, when given, is each block's selected_active listing at these
    losses; without it the blocks are listed here.

    A score is the inner product of an image row of A and a text row of B:
    A = H and B = G for raw scores, the rows of H and G divided by their
    norms for cosine ones. With C the image-row matrix of the contributing
    tetrads' weights (a t2i tetrad (query k, negative j) sits at row j,
    column k) and s its per-query sums, sum C_kj S_kj - sum s_k S_kk has
    gradient C B - s B with respect to A and C^T A - s A with respect to
    B. For cosine scores each row is then chained through its
    normalization, dH = (dA - <dA, A> A) / |H| and likewise for G, and the
    result goes back through the sigmoid (sigma' = sigma * (1 - sigma))
    into W1/b1 and W2/b2.

    s, C B and C^T A are added over the listed tetrads alone with
    np.bincount (_scattered_terms), with no n x n array. Both pass forms,
    and a set with its zero-weight tetrads removed, list the same tetrads
    and so give the same bits.
    """
    if len(losses) != len(blocks):
        raise AlignmentError(f"{len(losses)} loss vectors for {len(blocks)} blocks")
    for b, block_loss in zip(blocks, losses):
        _check_aligned(b.tetrads, b.v)
        _check_aligned(b.tetrads, block_loss)
        _check_tetrads(b.tetrads, dataset.n)
    if not blocks:
        return EmbeddingParams(*(np.zeros_like(a) for a in params.arrays))
    H, G, norms = fwd.emb.H, fwd.emb.G, fwd.emb.norms
    A, B = (H, G) if norms is None else (H / norms[0][:, None], G / norms[1][:, None])
    if active is None:
        active = [selected_active(b, block_loss) for b, block_loss in zip(blocks, losses)]
    s, CB, CtA = _scattered_terms(blocks, active, A, B)
    dA = CB - s[:, None] * B
    dB = CtA - s[:, None] * A
    if norms is not None:  # through A = H / |H| and B = G / |G|, row by row
        dA = (dA - np.sum(dA * A, axis=1)[:, None] * A) / norms[0][:, None]
        dB = (dB - np.sum(dB * B, axis=1)[:, None] * B) / norms[1][:, None]

    dH = dA * H * (1.0 - H)
    dG = dB * G * (1.0 - G)
    dW1 = np.einsum("kl,kp->lp", dH, dataset.images)
    return EmbeddingParams(dW1, dH.sum(axis=0), np.einsum("kl,kp->lp", dG, dataset.texts), dG.sum(axis=0))


def grad_params(
    params: EmbeddingParams,
    dataset: Dataset,
    blocks: Sequence[Block],
    losses: Sequence[GroupedVector],
    fwd: Pass,
    active: Optional[Sequence[Active]] = None,
) -> EmbeddingParams:
    """Gradient of ridge + every block's weighted hinge term, from fwd, the forward pass at params, and its losses.

    The ridge term's gradient is W1, W2 themselves (biases are not
    penalized); the blocks' term (grad_loss_term, which reads active) is
    added to it.
    """
    ridge = EmbeddingParams(params.W1, np.zeros_like(params.b1), params.W2, np.zeros_like(params.b2))
    return ridge.axpy(1.0, grad_loss_term(params, dataset, blocks, losses, fwd, active))
