"""Maps from each modality into the shared embedding space, and scoring.

Both modalities go through an affine map followed by an elementwise
sigmoid, so every embedding component lies strictly inside (0, 1) and every
raw similarity score strictly inside (0, d). The batched score matrix uses
the same per-entry summation order as the single-pair path, so batch and
pointwise results are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, EmbeddingParams
from .errors import DimensionMismatch

_EXP_CLAMP = 500.0  # keeps exp() finite; output is re-clipped into open (0, 1)
_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def sigmoid(t):
    """Elementwise 1/(1+exp(-t)), clamped to stay strictly inside (0, 1)."""
    t = np.clip(np.asarray(t, dtype=np.float64), -_EXP_CLAMP, _EXP_CLAMP)
    out = 1.0 / (1.0 + np.exp(-t))
    return np.clip(out, _OPEN_LO, _OPEN_HI)


def _affine_rows(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise X W^T + b with a fixed per-entry summation order.

    Entry (i, j) reduces the length-p lane X[i] * W[j] the same way for any
    batch size, so embedding one row or many gives bit-identical values.
    """
    n, p = X.shape
    d = W.shape[0]
    out = np.empty((n, d))
    chunk = max(1, int(4_000_000 // max(1, d * p)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = (X[lo:hi, None, :] * W[None, :, :]).sum(axis=2)
    return out + b


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
    """All-pairs inner products with a fixed per-entry summation order.

    Entry (k, j) is bit-identical to float(np.sum(H[k] * G[j])). Work is
    chunked over rows to bound memory; chunking does not change any entry.
    """
    n, d = H.shape
    m = G.shape[0]
    out = np.empty((n, m))
    chunk = max(1, int(4_000_000 // max(1, m * d)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = (H[lo:hi, None, :] * G[None, :, :]).sum(axis=2)
    return out


def normalized_scores(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Cosine variant of inner_scores: each entry divided by the norm product."""
    return inner_scores(H, G) / np.outer(_row_norms(H), _row_norms(G))


def similarity(params: EmbeddingParams, x, z, normalized: bool = False) -> float:
    """Score one image/text pair in the shared space.

    The default is the plain inner product of the two embeddings; with
    normalized=True the product of the embedding norms divides the score.
    """
    h = map_image(params, x)
    g = map_text(params, z)
    s = float(np.sum(h * g))
    if normalized:
        s = s / (float(np.sqrt(np.sum(h * h))) * float(np.sqrt(np.sum(g * g))))
    return s


def forward(params: EmbeddingParams, dataset: Dataset, normalized: bool = False):
    """The one forward pass: embeddings H (images), G (texts) and scores S.

    S has image queries as rows. Text queries read S.T with the two sides
    swapped; that is bit-identical to scoring them directly, since every
    entry multiplies the same pairs and sums them in the same order.
    """
    H = embed_images(params, dataset.images)
    G = embed_texts(params, dataset.texts)
    S = normalized_scores(H, G) if normalized else inner_scores(H, G)
    return H, G, S


def score_matrix(params: EmbeddingParams, dataset: Dataset, normalized: bool = False) -> np.ndarray:
    """All-pairs scores for a dataset: entry (k, j) scores image k against text j."""
    return forward(params, dataset, normalized)[2]
