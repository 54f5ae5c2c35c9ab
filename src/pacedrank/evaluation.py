"""Retrieval and ranking-quality metrics.

For each query exactly the aligned counterpart is relevant. Average
precision divides by min(#relevant, R) ("by_relevant", the common mAP
convention) or by R ("by_r"). Ties break toward the lower item index, so
every ranking is deterministic. Scores are rows of embed.query_rows, which
mean_ap ranks a chunk of queries at a time, with no n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import Dataset, EmbeddingParams, check_direction
from .data import format_rows
from .embed import Embedding, embed_images, embed_texts, forward, map_image, map_text, query_rows
from .errors import ConfigInvalid, DimensionMismatch, InvalidCutoff

MODES = ("by_relevant", "by_r")
# Score entries per chunk of query rows in mean_ap (256 KB). Swept at 2^12 .. 2^20
# (2 vCPUs, numpy 2.4.6, d = 10, both directions, raw and cosine): 37-48 ms per call
# at n = 2000 for 2^14 and 2^15, 60-95 ms for 2^17 and 2^18, 0.2-1 ms at n = 100
# and 200 for all; 0.7-1.2 s and a 3-8 MB tracemalloc peak at n = 10,000.
_RANK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class RankedList:
    """Items sorted by descending score for one query."""

    indices: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class EvalResult:
    """Per-query average precision plus the aggregate."""

    per_query: np.ndarray
    mean: float
    r: Union[int, str]
    direction: str
    mode: str
    query_ids: Optional[tuple[str, ...]] = None

    def to_text(self) -> str:
        """Flat text record: one 'query_id ap' line per query, then a trailer; query_id is the row index without ids."""
        rows = np.empty((len(self.per_query), 2), dtype=object)
        rows[:, 0] = range(len(rows)) if self.query_ids is None else self.query_ids
        rows[:, 1] = self.per_query
        trailer = f"mAP {self.mean:.17g}\nR {self.r}\ndirection {self.direction}\nmode {self.mode}\n"
        return "".join(["# per-query average precision\n", *format_rows("%s %.17g\n", rows), trailer])


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigInvalid(f"mode must be one of {MODES}, got {mode!r}")


def _positive_int(value, rule: str) -> int:
    """value as an int; InvalidCutoff stating rule unless it is a non-bool integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidCutoff(f"{rule}, got {value!r}")
    return int(value)


def _resolve_r(r: Union[int, str], n: int) -> int:
    if isinstance(r, str) and r == "all":
        return n
    return _positive_int(r, "cutoff must be a positive integer or 'all'")


def average_precision(relevance: Sequence, r: Union[int, str], mode: str = "by_relevant") -> float:
    """AP of a ranked relevance list: sum of Prec(j)*Rel(j) over j <= R, normalized.

    Returns 0 when the list holds no relevant item.
    """
    _check_mode(mode)
    rel = np.asarray(relevance, dtype=np.float64)
    r_eff = _resolve_r(r, len(rel))
    total_relevant = int(np.sum(rel > 0))
    if total_relevant == 0:
        return 0.0
    top = rel[: min(r_eff, len(rel))]
    ranks = np.arange(1, len(top) + 1, dtype=np.float64)
    precision_at = np.cumsum(top) / ranks
    summed = float(np.sum(precision_at * top))
    if mode == "by_r":
        return summed / r_eff
    return summed / min(total_relevant, r_eff)


def retrieve(
    params: EmbeddingParams,
    query,
    corpus,
    direction: str = "i2t",
    top_k: Optional[int] = None,
    normalized: bool = False,
) -> RankedList:
    """Rank a corpus of the opposite modality against one query vector."""
    check_direction(direction)
    if top_k is not None:
        _positive_int(top_k, "top_k must be a positive integer")
    corpus = np.asarray(corpus, dtype=np.float64)
    if corpus.ndim != 2:
        raise DimensionMismatch("corpus must be a feature matrix")
    if direction == "i2t":
        emb = Embedding.of(map_image(params, query)[None, :], embed_texts(params, corpus), normalized)
    else:
        emb = Embedding.of(embed_images(params, corpus), map_text(params, query)[None, :], normalized)
    scores = query_rows(emb, direction)[0]
    order = np.argsort(-scores, kind="stable")  # equal scores keep ascending index order
    order = order[:top_k]  # [:None] keeps every item
    return RankedList(order, scores[order])


def mean_ap(
    params: EmbeddingParams,
    dataset_test: Dataset,
    direction: str = "i2t",
    r: Union[int, str] = "all",
    mode: str = "by_relevant",
    normalized: bool = False,
) -> EvalResult:
    """mAP over all queries of a paired test set; relevance is the aligned item."""
    check_direction(direction)
    _check_mode(mode)
    emb = forward(params, dataset_test, normalized)
    n = dataset_test.n
    r_eff = _resolve_r(r, n)
    # the aligned item's place in the stable descending order: behind every
    # higher score and every equal score at a lower index
    rank = np.empty(n, dtype=np.int64)
    items = np.arange(n)
    step = max(1, _RANK_ENTRIES // n)
    for lo in range(0, n, step):
        queries = items[lo : lo + step]
        R = query_rows(emb, direction, slice(lo, lo + step))
        aligned = R[np.arange(len(queries)), queries][:, None]
        ahead = R > aligned
        ahead |= (R == aligned) & (items < queries[:, None])
        rank[queries] = 1 + np.count_nonzero(ahead, axis=1)
    # with one relevant item, AP within the cutoff is precision at its rank
    aps = np.where(rank <= r_eff, 1.0 / rank, 0.0)
    if mode == "by_r":
        aps = aps / r_eff
    return EvalResult(
        per_query=aps,
        mean=float(np.mean(aps)),
        r=r,
        direction=direction,
        mode=mode,
        query_ids=dataset_test.ids,
    )


def random_baseline(
    dataset_test: Dataset,
    direction: str = "i2t",
    r: Union[int, str] = "all",
    mode: str = "by_relevant",
) -> float:
    """Expected mAP of a uniformly random ranking, the floor for trained models.

    The aligned item sits at each rank 1..n with probability 1/n and scores
    1/rank within the cutoff, so the expectation is
    (1/n) * sum_{rank <= min(R, n)} 1/rank, divided by R for "by_r".
    """
    check_direction(direction)
    _check_mode(mode)
    n = dataset_test.n
    r_eff = _resolve_r(r, n)
    expected = float(np.sum(1.0 / np.arange(1, min(r_eff, n) + 1))) / n
    return expected / r_eff if mode == "by_r" else expected
