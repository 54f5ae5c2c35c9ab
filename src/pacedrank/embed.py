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

The forward pass has two forms. The dense one scores every pair into the
n x n matrix S. The gathered one scores only the pairs asked for, each as
the einsum of two gathered rows (pair_scores), divided for cosine scores by
row norms computed once per pass, so its entries equal S's bit for bit.
"""

from __future__ import annotations

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
    """Elementwise 1/(1+exp(-t)), clamped to stay strictly inside (0, 1)."""
    t = np.clip(np.asarray(t, dtype=np.float64), -_EXP_CLAMP, _EXP_CLAMP)
    out = 1.0 / (1.0 + np.exp(-t))
    return np.clip(out, _OPEN_LO, _OPEN_HI)


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


def inner_scores(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All-pairs inner products: entry (k, j) is bit-identical to np.einsum("l,l->", H[k], G[j])."""
    return np.einsum("kl,jl->kj", np.ascontiguousarray(H), np.ascontiguousarray(G))


def pair_scores(H: np.ndarray, G: np.ndarray, rows, cols) -> np.ndarray:
    """Inner products of image rows[t] with text cols[t], without the score matrix.

    Entry t equals inner_scores(H, G)[rows[t], cols[t]] bit for bit: np.take
    gathers C-contiguous rows, and the einsum sums their products in the
    same order. Rows are gathered in chunks of _GATHER_ENTRIES values, so the
    temporaries stay small however many pairs there are.
    """
    s = np.empty(len(rows))
    step = max(1, _GATHER_ENTRIES // H.shape[1])
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        np.einsum("tl,tl->t", np.take(H, rows[part], axis=0), np.take(G, cols[part], axis=0), out=s[part])
    return s


def normalized_scores(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Cosine variant of inner_scores: each entry divided by the norm product.

    The division is in place, so a score matrix is allocated once.
    """
    S = inner_scores(H, G)
    S /= np.outer(_row_norms(H), _row_norms(G))
    return S


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


def forward(params: EmbeddingParams, dataset: Dataset, normalized: bool = False, pairs=None):
    """The one forward pass: embeddings H (images), G (texts) and scores S.

    S has image queries as rows; query_scores gives a direction its view.
    Given pairs, a list of (rows, cols) index arrays (query_pairs), the pass
    is gathered: S is not formed, and the third item is instead the list of
    each pair set's pair_scores, divided by the row norms when normalized.
    """
    H = embed_images(params, dataset.images)
    G = embed_texts(params, dataset.texts)
    if pairs is not None:
        scores = [pair_scores(H, G, rows, cols) for rows, cols in pairs]
        if normalized:
            nh, ng = _row_norms(H), _row_norms(G)
            for s, (rows, cols) in zip(scores, pairs):
                s /= nh[rows] * ng[cols]
        return H, G, scores
    S = normalized_scores(H, G) if normalized else inner_scores(H, G)
    return H, G, S


def query_scores(S: np.ndarray, direction: str) -> np.ndarray:
    """forward's S with direction's queries as rows: S for i2t, S.T for t2i.

    S.T is bit-identical to scoring text queries directly: each entry sums
    the same products in the same order.
    """
    check_direction(direction)
    return S if direction == "i2t" else S.T


def query_pairs(queries, items, direction: str):
    """(image rows, text cols) of the pairs (queries[t], items[t]): query_scores' index form.

    pair_scores over them gives query_scores(S, direction)[queries, items].
    """
    check_direction(direction)
    return (queries, items) if direction == "i2t" else (items, queries)


def score_matrix(params: EmbeddingParams, dataset: Dataset, normalized: bool = False) -> np.ndarray:
    """All-pairs scores for a dataset: entry (k, j) scores image k against text j."""
    return forward(params, dataset, normalized)[2]
