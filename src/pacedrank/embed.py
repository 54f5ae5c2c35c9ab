"""Maps from each modality into the shared embedding space, and scoring.

Both modalities go through an affine map followed by an elementwise
sigmoid, so every embedding component lies strictly inside (0, 1) and every
raw similarity score strictly inside (0, d). The batched score matrix uses
the same per-entry summation order as the single-pair path, so batch and
pointwise results are bit-identical.

The single-pair path sums the d products h * g with np.sum, which adds a
contiguous run by numpy's pairwise_sum. inner_scores builds the score
matrix from the d lanes H[:, l] (x) G[:, l] with _pairwise_lanes, the same
recursion written out on whole lanes, row block by row block, so it never
holds an n x m x d product. Problems of at most _BROADCAST_MAX_ENTRIES
entries, such as one query against a test corpus, reduce one broadcast
product instead, which is cheaper there.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, EmbeddingParams, check_direction
from .errors import DimensionMismatch

_EXP_CLAMP = 500.0  # keeps exp() finite; output is re-clipped into open (0, 1)
_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)

# At most this many score entries: one broadcast product beats the lane
# kernel's ~2d numpy calls (measured crossover near 1-2k entries at d=10).
_BROADCAST_MAX_ENTRIES = 1024
# Output entries per row block of the lane kernel; its 9 scratch buffers stay in L2.
_BLOCK_ENTRIES = 1 << 14


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


def _lane(Hb: np.ndarray, GT: np.ndarray, lane: int, out: np.ndarray) -> np.ndarray:
    """Write lane Hb[lane] (x) GT[lane] into out."""
    return np.multiply(Hb[lane, :, None], GT[lane], out=out)


def _pairwise_lanes(Hb: np.ndarray, GT: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Sum the lanes Hb[l] (x) GT[l] into out in the order of numpy's pairwise_sum.

    Above 128 lanes, the two halves (the first rounded down to a multiple of
    8) are summed so and added. Otherwise, from 8 lanes on, 8 interleaved
    accumulators are combined; the remaining lanes follow one at a time.
    scratch holds the 8 accumulators and a lane temporary; each level above
    128 lanes adds one buffer.
    """
    d = len(Hb)
    if d > 128:
        half = d // 2
        half -= half % 8
        _pairwise_lanes(Hb[:half], GT[:half], out, scratch)
        rest = np.empty_like(out)
        _pairwise_lanes(Hb[half:], GT[half:], rest, scratch)
        np.add(out, rest, out=out)
        return
    acc, tmp = scratch[:8], scratch[8]
    if d < 8:
        _lane(Hb, GT, 0, out)
        end = 1
    else:
        for j in range(8):
            _lane(Hb, GT, j, acc[j])
        end = d - d % 8
        for i in range(8, end, 8):
            for j in range(8):
                np.add(acc[j], _lane(Hb, GT, i + j, tmp), out=acc[j])
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        np.add(acc[0:8:2], acc[1:8:2], out=acc[0:8:2])
        np.add(acc[0:8:4], acc[2:8:4], out=acc[0:8:4])
        np.add(acc[0], acc[4], out=out)
    for lane in range(end, d):
        np.add(out, _lane(Hb, GT, lane, tmp), out=out)


def inner_scores(H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """All-pairs inner products with a fixed per-entry summation order.

    Entry (k, j) is bit-identical to float(np.sum(H[k] * G[j])). Up to
    _BROADCAST_MAX_ENTRIES entries, one broadcast product is reduced over
    its last axis. Larger problems sum the d lanes H[:, l] (x) G[:, l] with
    _pairwise_lanes over row blocks of about _BLOCK_ENTRIES entries.
    Neither the path nor the blocking changes any entry.
    """
    n, m = H.shape[0], G.shape[0]
    if n * m <= _BROADCAST_MAX_ENTRIES:
        return (H[:, None, :] * G[None, :, :]).sum(axis=2)
    HT = np.ascontiguousarray(H.T)
    GT = np.ascontiguousarray(G.T)
    out = np.empty((n, m))
    rows = max(1, _BLOCK_ENTRIES // m)
    scratch = np.empty((9, min(rows, n), m))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        _pairwise_lanes(HT[:, lo:hi], GT, out[lo:hi], scratch[:, : hi - lo])
    # np.sum starts from +0.0, so an entry whose products are all -0.0 is +0.0
    # there; only a zero or negative factor can make a -0.0 product
    if not (H.min() > 0.0 and G.min() > 0.0):
        np.add(out, 0.0, out=out)
    return out


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
    s = float(np.sum(h * g))
    if normalized:
        s = s / (float(np.sqrt(np.sum(h * h))) * float(np.sqrt(np.sum(g * g))))
    return s


def forward(params: EmbeddingParams, dataset: Dataset, normalized: bool = False):
    """The one forward pass: embeddings H (images), G (texts) and scores S.

    S has image queries as rows; query_scores gives a direction its view.
    """
    H = embed_images(params, dataset.images)
    G = embed_texts(params, dataset.texts)
    S = normalized_scores(H, G) if normalized else inner_scores(H, G)
    return H, G, S


def query_scores(S: np.ndarray, direction: str) -> np.ndarray:
    """forward's S with direction's queries as rows: S for i2t, S.T for t2i.

    S.T is bit-identical to scoring text queries directly: each entry sums
    the same products in the same order.
    """
    check_direction(direction)
    return S if direction == "i2t" else S.T


def score_matrix(params: EmbeddingParams, dataset: Dataset, normalized: bool = False) -> np.ndarray:
    """All-pairs scores for a dataset: entry (k, j) scores image k against text j."""
    return forward(params, dataset, normalized)[2]
