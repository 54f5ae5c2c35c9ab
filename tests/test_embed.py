import math
import tracemalloc

import numpy as np
import pytest

from pacedrank import embed
from pacedrank.core import EmbeddingParams, validate_dataset
from pacedrank.embed import (
    _GATHER_ENTRIES,
    _affine_rows,
    embed_images,
    embed_texts,
    forward,
    inner_scores,
    map_image,
    map_text,
    pair_scores,
    score_matrix,
    sigmoid,
    similarity,
)
from pacedrank.errors import DimensionMismatch, NonFiniteObjective
from pacedrank.evaluation import mean_ap, retrieve
from pacedrank.trainer import TrainConfig, init_params, train

from conftest import random_dataset, random_params


def zero_params(d, p, q):
    return EmbeddingParams.from_arrays(
        np.zeros((d, p)), np.zeros(d), np.zeros((d, q)), np.zeros(d)
    )


def scalar_sigmoid(t):
    return 1.0 / (1.0 + math.exp(-t))


class TestMapImage:
    def test_zero_params_give_half(self):
        params = zero_params(3, 2, 2)
        assert np.array_equal(map_image(params, [5.0, -3.0]), [0.5, 0.5, 0.5])

    def test_identity_map_known_values(self):
        params = EmbeddingParams.from_arrays(
            np.eye(2), np.zeros(2), np.zeros((2, 2)), np.zeros(2)
        )
        out = map_image(params, [0.0, math.log(3.0)])
        np.testing.assert_allclose(out, [0.5, 0.75], rtol=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(42)
        params = random_params(rng, d=2, p=4, q=3)
        x = rng.standard_normal(4)
        expected = [
            scalar_sigmoid(sum(params.W1[i, j] * x[j] for j in range(4)) + params.b1[i])
            for i in range(2)
        ]
        np.testing.assert_allclose(map_image(params, x), expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            map_image(zero_params(2, 3, 2), [1.0, 2.0])


class TestMapText:
    def test_zero_params(self):
        assert np.array_equal(map_text(zero_params(1, 2, 3), [1.0, 2.0, 3.0]), [0.5])

    def test_bias_quarter(self):
        params = EmbeddingParams.from_arrays(
            np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2)), [-math.log(3.0)]
        )
        np.testing.assert_allclose(map_text(params, [9.0, 9.0]), [0.25], rtol=1e-15)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(43)
        params = random_params(rng, d=3, p=2, q=5)
        z = rng.standard_normal(5)
        expected = [
            scalar_sigmoid(sum(params.W2[i, j] * z[j] for j in range(5)) + params.b2[i])
            for i in range(3)
        ]
        np.testing.assert_allclose(map_text(params, z), expected, rtol=1e-12)


class TestSimilarity:
    def test_zero_params_d4(self):
        assert similarity(zero_params(4, 2, 2), [1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_zero_params_d1(self):
        assert similarity(zero_params(1, 2, 2), [1.0, 2.0], [3.0, 4.0]) == 0.25

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(44)
        params = random_params(rng, d=3, p=4, q=2)
        x, z = rng.standard_normal(4), rng.standard_normal(2)
        h = [scalar_sigmoid(sum(params.W1[i, j] * x[j] for j in range(4)) + params.b1[i]) for i in range(3)]
        g = [scalar_sigmoid(sum(params.W2[i, j] * z[j] for j in range(2)) + params.b2[i]) for i in range(3)]
        expected = sum(hi * gi for hi, gi in zip(h, g))
        assert similarity(params, x, z) == pytest.approx(expected, rel=1e-12)

    def test_normalized_mode(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, d=3, p=4, q=2)
        x, z = rng.standard_normal(4), rng.standard_normal(2)
        h, g = map_image(params, x), map_text(params, z)
        raw = similarity(params, x, z)
        expected = raw / (np.linalg.norm(h) * np.linalg.norm(g))
        assert similarity(params, x, z, normalized=True) == pytest.approx(expected, rel=1e-12)


class TestScoreMatrix:
    def test_zero_params_all_ones(self):
        ds = validate_dataset(np.zeros((2, 3)), np.ones((2, 3)))
        S = score_matrix(zero_params(4, 3, 3), ds)
        assert np.array_equal(S, np.ones((2, 2)))

    def test_entrywise_equals_similarity_bitwise(self):
        rng = np.random.default_rng(45)
        ds = random_dataset(rng, n=5, p=3, q=4)
        params = random_params(rng, d=3, p=3, q=4)
        S = score_matrix(params, ds)
        for k in range(5):
            for j in range(5):
                assert S[k, j] == similarity(params, ds.images[k], ds.texts[j])

    def test_normalized_entrywise_bitwise(self):
        rng = np.random.default_rng(46)
        ds = random_dataset(rng, n=4, p=3, q=4)
        params = random_params(rng, d=2, p=3, q=4)
        S = score_matrix(params, ds, normalized=True)
        for k in range(4):
            for j in range(4):
                assert S[k, j] == similarity(params, ds.images[k], ds.texts[j], normalized=True)


def row_reference(H, G):
    """Each row of scores from its own einsum: no entry can depend on the other rows."""
    return np.array([np.einsum("l,jl->j", h, G) for h in H])


class TestInnerScores:
    # tiny, a few thousand entries, and 38,000 entries in long rows
    SHAPES = [(3, 7), (41, 50), (19, 2000)]

    @pytest.mark.parametrize("d", list(range(1, 41)) + [64, 127, 128, 129, 200, 300, 1000])
    def test_equals_pointwise_sum_bitwise(self, d):
        rng = np.random.default_rng(d)
        for n, m in self.SHAPES:
            # sigmoid-range factors (the embeddings) and signed ones
            for H, G in (
                (rng.random((n, d)), rng.random((m, d))),
                (rng.standard_normal((n, d)), rng.standard_normal((m, d))),
            ):
                S = inner_scores(H, G)
                ref = row_reference(H, G)
                assert np.array_equal(S, ref)
                assert S.tobytes() == ref.tobytes()
                pairs = [(k, j) for k in range(n) for j in range(m)]
                if len(pairs) > 4096:
                    picks = rng.choice(len(pairs), 256, replace=False)
                    pairs = [pairs[i] for i in picks] + [(n - 1, m - 1)]
                for k, j in pairs:
                    assert S[k, j] == float(np.einsum("l,l->", H[k], G[j]))

    @pytest.mark.parametrize("d", [3, 10, 200])
    def test_all_negative_zero_products_give_positive_zero(self, d):
        H = np.zeros((40, d))
        G = -np.ones((60, d))
        S = inner_scores(H, G)
        assert S.tobytes() == row_reference(H, G).tobytes()
        assert not np.signbit(S).any()

    def test_peak_memory_below_two_score_matrices(self):
        rng = np.random.default_rng(3)
        n = m = 600
        H, G = rng.random((n, 10)), rng.random((m, 10))
        tracemalloc.start()
        try:
            inner_scores(H, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * m * 8


class TestPairScores:
    # pair_scores divides by the embedding's row norms when normalized; the
    # 800 x 800 pairs span several gather chunks
    @pytest.mark.parametrize("d", [1, 3, 10, 37, 64, 129])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_equals_score_matrix_entries_bitwise(self, d, normalized):
        rng = np.random.default_rng(d)
        n = 800
        dataset = random_dataset(rng, n=n)
        params = random_params(rng, d=d)
        S = score_matrix(params, dataset, normalized)
        emb = forward(params, dataset, normalized)
        rows, cols = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert len(rows) * d > _GATHER_ENTRIES
        order = rng.permutation(len(rows))  # any pair order gives the same entries
        every = np.arange(n)
        aligned, got, permuted = (pair_scores(emb, r, c) for r, c in
                                  ((every, every), (rows, cols), (rows[order], cols[order])))
        assert got.tobytes() == S.ravel().tobytes()
        assert permuted.tobytes() == got[order].tobytes()
        assert aligned.tobytes() == np.diagonal(S).tobytes()


class TestAffineRows:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 129, 300])
    @pytest.mark.parametrize("d", [1, 3, 10, 64])
    def test_batch_rows_equal_one_row_bitwise(self, p, d):
        rng = np.random.default_rng(1000 * p + d)
        X, W, b = rng.standard_normal((37, p)), rng.standard_normal((d, p)), rng.standard_normal(d)
        out = _affine_rows(X, W, b)
        for i in range(len(X)):
            assert out[i].tobytes() == _affine_rows(X[i : i + 1], W, b)[0].tobytes()


class TestInputLayout:
    """Fortran-order and strided inputs give the bytes of their C-order copies."""

    @staticmethod
    def layouts(A):
        wide = np.zeros((2 * A.shape[0], A.shape[1]))
        wide[::2] = A
        return [np.asfortranarray(A), wide[::2]]

    def test_embed_and_inner_scores(self):
        rng = np.random.default_rng(21)
        params = random_params(rng, d=10, p=64, q=48)
        X, Z = rng.standard_normal((120, 64)), rng.standard_normal((120, 48))
        H, G = embed_images(params, X), embed_texts(params, Z)
        S = inner_scores(H, G)
        for X2, Z2 in zip(self.layouts(X), self.layouts(Z)):
            assert embed_images(params, X2).tobytes() == H.tobytes()
            assert embed_texts(params, Z2).tobytes() == G.tobytes()
        for H2, G2 in zip(self.layouts(H), self.layouts(G)):
            assert inner_scores(H2, G2).tobytes() == S.tobytes()

    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_retrieve_corpus(self, direction):
        rng = np.random.default_rng(22)
        params = random_params(rng, d=10, p=64, q=64)
        query, corpus = rng.standard_normal(64), rng.standard_normal((150, 64))
        ranked = retrieve(params, query, corpus, direction)
        for corpus2 in self.layouts(corpus):
            again = retrieve(params, query, corpus2, direction)
            assert again.indices.tobytes() == ranked.indices.tobytes()
            assert again.scores.tobytes() == ranked.scores.tobytes()


class TestRangeInvariants:
    def test_embedding_strictly_open(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, d=4, p=3, q=3, scale=50.0)
        for _ in range(50):
            x = rng.standard_normal(3) * 100
            h = map_image(params, x)
            assert (h > 0.0).all() and (h < 1.0).all()

    def test_sigmoid_extremes_stay_open(self):
        vals = sigmoid(np.array([-1e9, -700.0, 0.0, 700.0, 1e9]))
        assert (vals > 0.0).all() and (vals < 1.0).all()

    def test_sigmoid_equals_clip_formula_bitwise(self):
        # the formula with all four clamps; sigmoid runs two of them
        def clipped(t):
            t = np.clip(np.asarray(t, dtype=np.float64), -500.0, 500.0)
            return np.clip(1.0 / (1.0 + np.exp(-t)), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

        rng = np.random.default_rng(14)
        # around 37, where 1 + exp(-t) starts to round to 1, and around the clamp at 500
        edges = np.array([0.0, -0.0, 500.0, -500.0, 700.0, -700.0, 1e9, -1e9, np.inf, -np.inf, np.nan,
                          36.5, 36.75, 37.0, 37.25, 37.5, 38.0, -36.5, -38.0, 499.99, 500.01, -499.99, -500.01,
                          710.0, -710.0, 1e308, -1e308])
        with np.errstate(over="ignore", invalid="ignore"):
            for t in (rng.normal(0.0, 30.0, 10_000), rng.normal(0.0, 3.0, (300, 10))[:, ::3], edges,
                      edges.reshape(1, -1), 0.0, -700.0, np.inf, np.nan, np.float64(2.5), np.asarray(1.0)):
                got, want = sigmoid(t), clipped(t)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert sigmoid(0.0) == 0.5

    def test_scores_strictly_inside_zero_d(self):
        rng = np.random.default_rng(12)
        d = 5
        params = random_params(rng, d=d, p=3, q=3, scale=20.0)
        ds = random_dataset(rng, n=6, p=3, q=3)
        S = score_matrix(params, ds)
        assert (S > 0.0).all() and (S < d).all()

    def test_monotone_in_bias(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, d=3, p=4, q=4)
        x = rng.standard_normal(4)
        before = map_image(params, x)
        bumped = EmbeddingParams(params.W1, params.b1 + 0.7, params.W2, params.b2)
        assert (map_image(bumped, x) >= before).all()


def saturated_corpus(seed=0):
    """n = 30, p = q = 5, features times 1e150: every embedding entry saturates to about 7e-218 or 1."""
    rng = np.random.default_rng(seed)
    return validate_dataset(rng.standard_normal((30, 5)) * 1e150, rng.standard_normal((30, 5)) * 1e150)


class TestSaturatedCosineRows:
    # a row whose entries all saturate low squares to a norm of 0, and its cosine
    # scores would divide by it
    def test_cosine_scores_raise_before_dividing(self):
        ds = saturated_corpus()
        cfg = TrainConfig(embedding_dim=3, max_outer_iters=2, normalized_similarity=True)
        params = init_params(np.random.default_rng(cfg.seed), 3, 5, 5)
        raw = forward(params, ds)
        assert min(np.sum(raw.H * raw.H, axis=1).min(), np.sum(raw.G * raw.G, axis=1).min()) == 0.0
        # raised before anything divides: a numpy warning would fail the test first
        # (pyproject.toml's filterwarnings = error)
        with pytest.raises(NonFiniteObjective, match="row norm"):
            forward(params, ds, normalized=True)
        with pytest.raises(NonFiniteObjective, match="row norm"):
            train(ds, cfg)
        with pytest.raises(NonFiniteObjective, match="row norm"):
            mean_ap(params, ds, normalized=True)
        for direction in ("i2t", "t2i"):
            with pytest.raises(NonFiniteObjective, match="row norm"):
                retrieve(params, ds.images[0], ds.texts, direction, normalized=True)

    def test_raw_scores_still_train(self):
        params, history = train(saturated_corpus(), TrainConfig(embedding_dim=3, max_outer_iters=2))
        assert len(history) == 2 and params.is_finite()
