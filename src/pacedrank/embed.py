"""Maps from each modality into the shared embedding space, and scoring.

Both modalities go through an affine map followed by an elementwise
sigmoid, so every embedding component lies strictly inside (0, 1) and every
raw similarity score strictly inside (0, d).

Every product, the affine map and the score matrix alike, is one np.einsum
without an optimize argument: it runs numpy's own C loop and never calls
BLAS. The summation order of an output entry then depends only on the length
and memory layout of its two operand rows, not on how many rows there are,
so the inputs are made C-contiguous first. A batch entry is then
bit-identical to the same einsum on one row (or one pair), whatever the
thread settings.

forward embeds a dataset once: H, G and, for cosine scores, their row
norms. Only two functions turn an Embedding into scores and divide by the
norms, with the same bits: query_rows gives rows of the n x n matrix S in a
direction's view, and pair_scores gathers single pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, EmbeddingParams, check_direction
from .errors import DimensionMismatch

_EXP_CLAMP = 500.0  # keeps exp() finite; output is re-clipped into open (0, 1)
_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)
# embedding values per gathered chunk (256 KB): fresh buffers much larger than
# this cost page faults that took longer, per pass, than the products
_GATHER_ENTRIES = 1 << 15


def sigmoid(t):
    """Elementwise 1/(1+exp(-t)), clamped to stay strictly inside (0, 1).

    Each clamp is an np.maximum and an np.minimum, the operations np.clip
    runs, and every step after the first writes in place into one fresh
    array: the same IEEE operations, without np.clip's call overhead or
    the temporaries. A 0-d or scalar input gives a numpy scalar.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.maximum(t, -_EXP_CLAMP, out=np.empty(t.shape))
    np.minimum(out, _EXP_CLAMP, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    np.maximum(out, _OPEN_LO, out=out)
    np.minimum(out, _OPEN_HI, out=out)
    return out if out.ndim else out[()]


def _affine_rows(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise X W^T + b; each row is bit-identical to mapping it alone."""
    return np.einsum("np,dp->nd", np.ascontiguousarray(X), np.ascontiguousarray(W)) + b


def map_image(params: EmbeddingParams, x) -> np.ndarray:
    """Embed one image feature vector: sigmoid(W1 x + b1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != params.p:
        raise DimensionMismatch(f"expected image vector of length {params.p}")
    return sigmoid(_affine_rows(x[None, :], params.W1, params.b1)[0])


def map_text(params: EmbeddingParams, z) -> np.ndarray:
    """Embed one text feature vector: sigmoid(W2 z + b2)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] != params.q:
        raise DimensionMismatch(f"expected text vector of length {params.q}")
    return sigmoid(_affine_rows(z[None, :], params.W2, params.b2)[0])


def embed_images(params: EmbeddingParams, X) -> np.ndarray:
    """Embed a matrix of image features row-wise (n x p -> n x d)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.p:
        raise DimensionMismatch(f"expected image matrix with {params.p} columns")
    return sigmoid(_affine_rows(X, params.W1, params.b1))


def embed_texts(params: EmbeddingParams, Z) -> np.ndarray:
    """Embed a matrix of text features row-wise (n x q -> n x d)."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != params.q:
        raise DimensionMismatch(f"expected text matrix with {params.q} columns")
    return sigmoid(_affine_rows(Z, params.W2, params.b2))


def _row_norms(E: np.ndarray) -> np.ndarray:
    # same formula as the scalar path: sqrt of the elementwise-product sum
    return np.sqrt(np.sum(E * E, axis=1))


@dataclass(frozen=True)
class Embedding:
    """Image rows H and text rows G, with their row norms (image, text) for cosine scores, else None."""

    H: np.ndarray
    G: np.ndarray
    norms: Optional[tuple]

    @classmethod
    def of(cls, H: np.ndarray, G: np.ndarray, normalized: bool) -> "Embedding":
        return cls(H, G, (_row_norms(H), _row_norms(G)) if normalized else None)


def inner_scores(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All-pairs inner products: entry (k, j) is bit-identical to np.einsum("l,l->", H[k], G[j])."""
    return np.einsum("kl,jl->kj", np.ascontiguousarray(H), np.ascontiguousarray(G))


def query_rows(emb: Embedding, direction: str, queries=None) -> np.ndarray:
    """Rows queries (an index array or slice; None for all) of S with direction's queries as rows: S or S.T.

    Query rows are scored against every item (image rows against G for
    i2t, text rows against H for t2i), which gives S's rows or columns bit
    for bit, and a cosine score is divided by the same product of norms.
    """
    check_direction(direction)
    Q, E = (emb.H, emb.G) if direction == "i2t" else (emb.G, emb.H)
    R = inner_scores(Q if queries is None else Q[queries], E)
    if emb.norms is not None:
        nq, ne = emb.norms if direction == "i2t" else emb.norms[::-1]
        R /= np.outer(nq if queries is None else nq[queries], ne)
    return R


def pair_scores(emb: Embedding, rows, cols) -> np.ndarray:
    """Scores of image rows[t] with text cols[t], without the score matrix.

    Entry t equals query_rows(emb, "i2t")[rows[t], cols[t]] bit for bit:
    np.take gathers C-contiguous rows, the einsum sums their products in
    the same order, and a cosine score is divided by the same product of
    norms. Rows are gathered in chunks of _GATHER_ENTRIES values, so the
    temporaries stay small however many pairs there are.
    """
    H, G = emb.H, emb.G
    s = np.empty(len(rows))
    step = max(1, _GATHER_ENTRIES // H.shape[1])
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        np.einsum("tl,tl->t", np.take(H, rows[part], axis=0), np.take(G, cols[part], axis=0), out=s[part])
    if emb.norms is not None:
        nh, ng = emb.norms
        s /= nh[rows] * ng[cols]
    return s


def similarity(params: EmbeddingParams, x, z, normalized: bool = False) -> float:
    """Score one image/text pair in the shared space.

    The default is the plain inner product of the two embeddings; with
    normalized=True the product of the embedding norms divides the score.
    """
    h = map_image(params, x)
    g = map_text(params, z)
    s = float(np.einsum("l,l->", h, g))
    if normalized:
        s = s / (float(np.sqrt(np.sum(h * h))) * float(np.sqrt(np.sum(g * g))))
    return s


def forward(params: EmbeddingParams, dataset: Dataset, normalized: bool = False) -> Embedding:
    """The one forward pass: the dataset's embedding, with row norms for cosine scores."""
    return Embedding.of(embed_images(params, dataset.images), embed_texts(params, dataset.texts), normalized)


def query_pairs(queries, items, direction: str):
    """(image rows, text cols) of the pairs (queries[t], items[t]) in direction: swapped for t2i.

    pair_scores over them gives query_rows(emb, direction)[queries, items].
    """
    check_direction(direction)
    return (queries, items) if direction == "i2t" else (items, queries)


def score_matrix(params: EmbeddingParams, dataset: Dataset, normalized: bool = False) -> np.ndarray:
    """All-pairs scores for a dataset: entry (k, j) scores image k against text j."""
    return query_rows(forward(params, dataset, normalized), "i2t")
