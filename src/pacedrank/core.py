"""Core domain types shared by every other module.

Conventions: feature matrices are row-major with one item per row, all
indices are 0-based, and all randomness flows from explicit seeds so that
repeated runs are bit-identical. Arrays held by these types are locked
(read-only) after construction and safe to share across threads.

Per-tetrad data is flat. A TetradSet holds one negative per tetrad plus
per-query offsets, and a GroupedVector (losses, weights) holds one value
per tetrad over the same offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    IndexOutOfRange,
    NonFiniteValue,
    SampleTooLarge,
    ShapeMismatch,
    TooSmall,
)


DIRECTIONS = ("i2t", "t2i")  # image queries over texts, text queries over images


def check_direction(direction: str) -> None:
    """Raise ConfigInvalid unless direction is one of DIRECTIONS."""
    if direction not in DIRECTIONS:
        raise ConfigInvalid(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def check_seed(seed) -> None:
    """Raise ConfigInvalid unless seed is a nonnegative int (a bool is not a seed)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigInvalid(f"seed must be a nonnegative integer, got {seed!r}")


def check_int(name: str, value) -> None:
    """Raise ConfigInvalid unless value is an int (a bool is not an int)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ConfigInvalid unless value is a finite int or float (a bool is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(f"{name} must be a finite real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigInvalid(f"{name} must be a finite real number, got an integer too large for a float") from None
    if not finite:
        raise ConfigInvalid(f"{name} must be a finite real number, got {value!r}")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    """values as a read-only C-contiguous array; kept, not copied, if it and every array it views are read-only."""
    base = values
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        if base.base is None and values.dtype == dtype and values.flags.c_contiguous:
            return values
        base = base.base
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Aligned image/text feature matrices; row i of each side is one pair."""

    images: np.ndarray  # n x p
    texts: np.ndarray  # n x q
    ids: Optional[tuple[str, ...]] = None

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def p(self) -> int:
        return self.images.shape[1]

    @property
    def q(self) -> int:
        return self.texts.shape[1]


def validate_dataset(images, texts, ids: Optional[Sequence[str]] = None) -> Dataset:
    """Check shapes and finiteness and return a locked Dataset.

    Raises ShapeMismatch when row counts differ, NonFiniteValue when a NaN
    or infinity is present, and TooSmall for fewer than two pairs.
    """
    images = np.asarray(images, dtype=np.float64)
    texts = np.asarray(texts, dtype=np.float64)
    if images.ndim != 2 or texts.ndim != 2:
        raise ShapeMismatch("feature matrices must be 2-dimensional")
    if images.shape[0] != texts.shape[0]:
        raise ShapeMismatch(
            f"row counts differ: {images.shape[0]} image rows vs "
            f"{texts.shape[0]} text rows"
        )
    if images.shape[0] < 2:
        raise TooSmall("need at least 2 aligned pairs")
    if not np.isfinite(images).all() or not np.isfinite(texts).all():
        raise NonFiniteValue("feature matrices must contain only finite values")
    locked_ids: Optional[tuple[str, ...]] = None
    if ids is not None:
        locked_ids = tuple(str(s) for s in ids)
        if len(locked_ids) != images.shape[0]:
            raise ShapeMismatch("ids length differs from the number of rows")
    return Dataset(_frozen_array(images), _frozen_array(texts), locked_ids)


@dataclass(frozen=True)
class EmbeddingParams:
    """Affine-plus-sigmoid map parameters for both modalities.

    Gradients use the same container: one partial-derivative array per
    parameter, in the same order.
    """

    W1: np.ndarray  # d x p
    b1: np.ndarray  # d
    W2: np.ndarray  # d x q
    b2: np.ndarray  # d

    @property
    def d(self) -> int:
        return self.W1.shape[0]

    @property
    def p(self) -> int:
        return self.W1.shape[1]

    @property
    def q(self) -> int:
        return self.W2.shape[1]

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.W1, self.b1, self.W2, self.b2)

    def norm_sq(self) -> float:
        """Sum of squares of every entry, accumulated component by component."""
        return float(
            np.sum(self.W1 * self.W1)
            + np.sum(self.b1 * self.b1)
            + np.sum(self.W2 * self.W2)
            + np.sum(self.b2 * self.b2)
        )

    def is_finite(self) -> bool:
        return all(bool(np.isfinite(arr).all()) for arr in self.arrays)

    def axpy(self, alpha: float, x: "EmbeddingParams") -> "EmbeddingParams":
        """self + alpha * x, component by component; alpha = -step is a descent step."""
        out = [a + alpha * b for a, b in zip(self.arrays, x.arrays)]
        for arr in out:
            arr.flags.writeable = False  # fresh arrays: locked in place, not copied
        return EmbeddingParams(*out)

    @classmethod
    def from_arrays(cls, W1, b1, W2, b2) -> "EmbeddingParams":
        """Validating constructor: locks arrays and checks shape consistency."""
        W1 = _frozen_array(W1)
        b1 = _frozen_array(b1)
        W2 = _frozen_array(W2)
        b2 = _frozen_array(b2)
        if W1.ndim != 2 or W2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
            raise ShapeMismatch("W1/W2 must be matrices, b1/b2 vectors")
        if W1.shape[0] < 1:
            raise ConfigInvalid("embedding dimension must be at least 1")
        if W1.shape[0] != W2.shape[0] or b1.shape[0] != W1.shape[0] or b2.shape[0] != W1.shape[0]:
            raise ShapeMismatch("embedding dimension differs between components")
        for arr in (W1, b1, W2, b2):
            if not np.isfinite(arr).all():
                raise NonFiniteValue("embedding parameters must be finite")
        return cls(W1, b1, W2, b2)


def _check_offsets(offsets: np.ndarray, total: int) -> None:
    """Raise ConfigInvalid unless offsets run from 0 up to total without decreasing."""
    if offsets.ndim != 1 or len(offsets) < 1 or offsets[0] != 0:
        raise ConfigInvalid("offsets must start at 0")
    if (np.diff(offsets) < 0).any():
        raise ConfigInvalid("offsets must be non-decreasing")
    if int(offsets[-1]) != total:
        raise ConfigInvalid("offsets must end at the number of values")


def _group_ids(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The group index of every flat position in lo..hi-1: k repeated as often as group k holds one."""
    first = int(np.searchsorted(offsets, lo, side="right")) - 1
    last = int(np.searchsorted(offsets, hi, side="left"))
    ids = np.repeat(np.arange(first, last), np.diff(np.clip(offsets[first : last + 1], lo, hi)))
    ids.flags.writeable = False
    return ids


# Tetrads per chunk of TetradSet's checks. Swept at 2^16 .. 2^21 (2 vCPUs, numpy 2.4.6)
# on 4 M tetrads, full (n = 2000) and sampled ((n, m) = (10,000, 400)): 19 to 29 ms and
# a 1.1 to 36 MiB tracemalloc peak, against 42 ms and 61 MiB with one group-index array
_CHECK_CHUNK = 1 << 16


@dataclass(frozen=True)
class TetradSet:
    """Every tetrad, flat: query k's negatives are negatives[offsets[k]:offsets[k + 1]], strictly ascending.

    The order label is always +1 (the aligned item must outrank the
    negative), so a tetrad is stored as its (query, negative) pair.
    """

    n: int
    offsets: np.ndarray  # n + 1 entries
    negatives: np.ndarray

    def __post_init__(self) -> None:
        offsets = _frozen_array(self.offsets, dtype=np.int64)
        negatives = _frozen_array(self.negatives, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "negatives", negatives)
        if negatives.ndim != 1:
            raise ConfigInvalid("negatives must be a flat vector")
        _check_offsets(offsets, len(negatives))
        if len(offsets) != self.n + 1:
            raise ConfigInvalid(f"a set over {self.n} items needs {self.n + 1} offsets")
        if len(negatives) and (negatives.min() < 0 or negatives.max() >= self.n):
            raise IndexOutOfRange(f"negative index outside 0..{self.n - 1}")
        # strictly ascending negatives rule out a (query, negative) pair listed twice, so that
        # n(n - 1) tetrads can only be the full set: is_full counts tetrads alone, and the dense
        # pass reads a full set as the off-diagonal entries (loss._entries). Across a group
        # boundary the negatives may fall.
        # A chunk is read with the tetrad after it, so every two neighbours are compared.
        self_pair = descending = False
        for lo in range(0, len(negatives), _CHECK_CHUNK):
            hi = min(lo + _CHECK_CHUNK + 1, len(negatives))
            part, queries = negatives[lo:hi], _group_ids(offsets, lo, hi)
            self_pair = self_pair or bool((part == queries).any())
            descending = descending or not ((np.diff(part) > 0) | (np.diff(queries) > 0)).all()
        if self_pair:
            raise ConfigInvalid("negative index must differ from the query index")
        if descending:
            raise ConfigInvalid("negatives must be strictly ascending within each query's group")

    @property
    def total(self) -> int:
        return len(self.negatives)

    @cached_property
    def flat_queries(self) -> np.ndarray:
        return _group_ids(self.offsets, 0, self.total)

    @cached_property
    def row_positions(self) -> np.ndarray:
        """Each tetrad's (query k, negative j) as the flat index k * n + j of a C-contiguous n x n matrix."""
        return self._positions(transposed=False)

    @cached_property
    def column_positions(self) -> np.ndarray:
        """Each tetrad's (query k, negative j) as the flat index j * n + k: queries as the matrix's columns."""
        return self._positions(transposed=True)

    def _positions(self, transposed: bool) -> np.ndarray:
        # the queries are not cached: flat_queries would stay alive beside the positions
        queries = _group_ids(self.offsets, 0, self.total)
        rows, cols = (self.negatives, queries) if transposed else (queries, self.negatives)
        positions = rows * self.n
        positions += cols
        positions.flags.writeable = False
        return positions

    @property
    def is_full(self) -> bool:
        """Whether this is build_tetrads' full set: every j != k for query k, ascending.

        Its tetrads are then the off-diagonal entries of an n x n matrix in
        row-major order. A group holds at most n - 1 distinct ascending
        negatives, so n(n - 1) tetrads can only be that set.
        """
        return self.total == self.n * (self.n - 1)


def _all_negatives(n: int) -> np.ndarray:
    """Row k holds every item but k, ascending: positions idx map to idx + (idx >= k)."""
    idx = np.arange(n - 1, dtype=np.int64)
    return idx + (idx >= np.arange(n, dtype=np.int64)[:, None])


def check_sample_size(m: int, n: int) -> None:
    """Raise unless each query of n items can get m distinct sampled negatives."""
    if m < 1:
        raise ConfigInvalid("sample size must be at least 1")
    if m > n - 1:
        raise SampleTooLarge(f"requested {m} negatives per query but only {n - 1} exist")


# Bytes of the bit-packed "already chosen" map of one chunk of query rows in
# _sample_positions: about 33 million rows x positions. Swept at 1, 4, 8 and
# 16 MiB (2 vCPUs, numpy 2.4.6): at (n, m) = (10,000, 400) sampling took 283,
# 222, 214 and 248 ms and peaked under tracemalloc at 1.22, 1.85, 2.18 and
# 2.53 times the array it returns; at (100,000, 40) it took 1.62, 0.70, 0.55
# and 0.49 s. 4 MiB is near the fastest at n = 10,000 and keeps that peak
# below twice the output; all 600 rows of an n = 600 set form one chunk.
SAMPLE_CHUNK_BYTES = 4 << 20

_BITS = (1 << np.arange(8)).astype(np.uint8)


def _sample_positions(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Row k: a uniform m-subset of the positions 0..n-2, ascending, by Floyd's algorithm.

    Floyd's algorithm (Bentley and Floyd, "A sample of brilliance", CACM
    1987) draws s distinct values of 0..N-1 in s steps: step t, for t = N-s
    .. N-1, draws r uniformly from 0..t and chooses r, or t if r is already
    chosen (t itself never is). Every step runs over a chunk of consecutive
    rows at once, with one rng.integers(0, t + 1, size=rows) call. It draws
    the smaller side, s = min(m, N - m), and when s < m each row keeps the
    positions it did not choose.
    """
    N = n - 1
    s = min(m, N - m)
    width = (N + 7) // 8  # bytes of one row's map
    span = max(1, SAMPLE_CHUNK_BYTES // width)  # rows of one chunk
    positions = np.arange(N, dtype=np.int64)
    bit_of = _BITS.take(positions & 7)
    out = np.empty((n, m), dtype=np.int64)
    for lo in range(0, n, span):
        block = out[lo : lo + span]
        rows = len(block)
        lane = np.arange(rows, dtype=np.int64)
        # position p of row i is bit p % 8 of chosen[p // 8, i], so step t's
        # byte of every row is one contiguous row of the map
        chosen = np.zeros((width, rows), dtype=np.uint8)
        cells = chosen.reshape(-1)
        cell_of = (positions >> 3) * rows
        taken = np.empty((s, rows), dtype=bool)  # step j's draw was chosen already
        drawn = np.empty((s, rows), dtype=np.int64) if s == m else None
        for j, t in enumerate(range(N - s, N)):
            draw = rng.integers(0, t + 1, size=rows)
            cell = cell_of.take(draw)
            cell += lane
            bit = bit_of.take(draw)
            held = cells.take(cell)
            cells[cell] = held | bit
            np.not_equal(held & bit, 0, out=taken[j])
            np.bitwise_or(chosen[t >> 3], _BITS[t & 7], out=chosen[t >> 3], where=taken[j])
            if drawn is not None:
                drawn[j] = draw
        if drawn is not None:
            np.copyto(drawn, np.arange(N - s, N)[:, None], where=taken)
            block[...] = drawn.T
            block.sort(axis=1)
        else:
            free = np.unpackbits(~chosen.T, axis=1, count=N, bitorder="little").view(bool)
            np.subtract(np.flatnonzero(free).reshape(rows, m), (lane * N)[:, None], out=block)
    return out


def build_tetrads(
    dataset: Dataset, m: Optional[int] = None, seed: Optional[int] = None
) -> TetradSet:
    """Construct the per-query tetrad groups.

    With m=None every query is paired with all n-1 other items. With an
    integer m, each query gets a uniform m-subset of the other items, drawn
    for every query at once by Floyd's algorithm (see _sample_positions):
    the smaller side is drawn when m > (n-1)/2, and the draw is
    deterministic under the seed. Raises SampleTooLarge when m exceeds n-1.

    Both paths pick ascending positions idx among the n-1 other items and
    map them to items j = idx + (idx >= k), which skips query k itself.
    """
    n = dataset.n
    if m is None:
        negatives = _all_negatives(n)
    else:
        check_sample_size(m, n)
        negatives = _sample_positions(n, m, np.random.default_rng(seed))
        negatives += negatives >= np.arange(n, dtype=np.int64)[:, None]
    negatives.flags.writeable = False  # its raveled view is then kept, not copied
    return TetradSet(n, np.arange(n + 1) * negatives.shape[1], negatives.ravel())


@dataclass(frozen=True)
class GroupedVector:
    """A flat per-tetrad vector plus offsets mirroring a TetradSet's groups."""

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen_array(self.values)
        offsets = _frozen_array(self.offsets, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)
        _check_offsets(offsets, len(values))

    @classmethod
    def from_groups(cls, groups: Sequence[np.ndarray]) -> "GroupedVector":
        sizes = [0] + [len(g) for g in groups]
        flat = np.concatenate(groups) if groups else np.empty(0)
        return cls(np.asarray(flat, dtype=np.float64), np.cumsum(sizes))

    @property
    def n_groups(self) -> int:
        return len(self.offsets) - 1

    @property
    def total(self) -> int:
        return len(self.values)

    def group(self, k: int) -> np.ndarray:
        return self.values[int(self.offsets[k]) : int(self.offsets[k + 1])]

    @cached_property
    def positive_index(self) -> np.ndarray:
        """Flat positions of the strictly positive values, ascending."""
        return _frozen_array(np.flatnonzero(self.values > 0.0), dtype=np.int64)

    @cached_property
    def positive_count(self) -> int:
        """Number of strictly positive values; it does not build positive_index."""
        return int(np.count_nonzero(self.values > 0.0))

    def positive_counts(self) -> np.ndarray:
        """Per-group number of strictly positive values."""
        return np.diff(np.searchsorted(self.positive_index, self.offsets))

    def group_sums(self, factor: Optional["GroupedVector"] = None) -> np.ndarray:
        """Per-group sums of the strictly positive values, or of their products with factor's values.

        Only positive_index is read, with each entry's group from
        positive_counts: no index over every value is built. Each group adds
        its terms in index order, so for nonnegative values (losses, weights)
        these are the bits of the sums over every value, to which a zero adds
        exact +0.0. Empty groups sum to 0.
        """
        sel = self.positive_index
        terms = self.values[sel] if factor is None else self.values[sel] * factor.values[sel]
        groups = np.repeat(np.arange(self.n_groups), self.positive_counts())
        sums = np.bincount(groups, weights=terms, minlength=self.n_groups)
        return sums.astype(np.float64, copy=False)  # bincount gives ints when there are no terms


class ImportanceVector(GroupedVector):
    """Per-tetrad selection weights in [0, 1], grouped per query."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not ((self.values >= 0.0) & (self.values <= 1.0)).all():  # NaN fails both
            raise ConfigInvalid("importance weights must lie in [0, 1]")


@dataclass(frozen=True)
class PacingState:
    """Self-paced thresholds: easiness lam and diversity gamma.

    Their growth per outer iteration is set by TrainConfig.
    """

    lam: float
    gamma: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ConfigInvalid("lam must be a positive finite real")
        if not (self.gamma >= 0.0 and np.isfinite(self.gamma)):
            raise ConfigInvalid("gamma must be a nonnegative finite real")


@dataclass(frozen=True)
class LossConfig:
    """Hinge ranking loss settings."""

    margin: float = 0.1

    def __post_init__(self) -> None:
        if not (self.margin >= 0.0 and np.isfinite(self.margin)):
            raise ConfigInvalid("margin must be a nonnegative finite real")
