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


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
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
        return EmbeddingParams(*(a + alpha * b for a, b in zip(self.arrays, x.arrays)))

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


def _group_ids(offsets: np.ndarray) -> np.ndarray:
    """The group index of every flat position: k repeated len(group k) times."""
    return _frozen_array(np.repeat(np.arange(len(offsets) - 1), np.diff(offsets)), dtype=np.int64)


@dataclass(frozen=True)
class TetradSet:
    """Every tetrad, flat: query k's negatives are negatives[offsets[k]:offsets[k + 1]].

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
        if (negatives == self.flat_queries).any():
            raise ConfigInvalid("negative index must differ from the query index")

    @property
    def total(self) -> int:
        return len(self.negatives)

    @cached_property
    def flat_queries(self) -> np.ndarray:
        return _group_ids(self.offsets)


def build_tetrads(
    dataset: Dataset, m: Optional[int] = None, seed: Optional[int] = None
) -> TetradSet:
    """Construct the per-query tetrad groups.

    With m=None every query is paired with all n-1 other items. With an
    integer m, each query gets m distinct sampled negatives, deterministic
    under the seed. Raises SampleTooLarge when m exceeds n-1.

    Both paths pick positions idx among the n-1 other items and map them to
    items j = idx + (idx >= k), which skips query k itself.
    """
    n = dataset.n
    if m is None:
        idx = np.arange(n - 1, dtype=np.int64)
        negatives = idx + (idx >= np.arange(n, dtype=np.int64)[:, None])
    else:
        if m < 1:
            raise ConfigInvalid("sample size must be at least 1")
        if m > n - 1:
            raise SampleTooLarge(f"requested {m} negatives per query but only {n - 1} exist")
        rng = np.random.default_rng(seed)
        negatives = np.empty((n, m), dtype=np.int64)
        for k in range(n):
            idx = rng.choice(n - 1, size=m, replace=False)
            idx.sort()
            negatives[k] = idx + (idx >= k)
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
    def group_ids(self) -> np.ndarray:
        return _group_ids(self.offsets)

    def group_sums(self) -> np.ndarray:
        """Per-group sums, each added in index order; zeros and empty groups add 0."""
        sums = np.bincount(self.group_ids, weights=self.values, minlength=self.n_groups)
        return sums.astype(np.float64, copy=False)  # bincount gives ints when values is empty


class ImportanceVector(GroupedVector):
    """Per-tetrad selection weights in [0, 1], grouped per query."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.values) and (
            (self.values < 0.0).any() or (self.values > 1.0).any()
        ):
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
