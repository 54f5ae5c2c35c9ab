import tracemalloc

import numpy as np
import pytest

from pacedrank import data, evaluation
from pacedrank.core import EmbeddingParams, validate_dataset
from pacedrank.embed import score_matrix
from pacedrank.errors import InvalidCutoff
from pacedrank.evaluation import (
    EvalResult,
    average_precision,
    mean_ap,
    random_baseline,
    retrieve,
)

from conftest import extreme_values, random_dataset, random_params


def diagonal_params(n, gain):
    """Identity features with gain make the aligned pair rank first (gain > 0)
    or last (image gain > 0, text gain < 0)."""
    return EmbeddingParams.from_arrays(
        5.0 * np.eye(n), np.zeros(n), gain * np.eye(n), np.zeros(n)
    )


def basis_dataset(n):
    eye = np.eye(n)
    return validate_dataset(eye, eye)


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision([1, 0, 0, 0, 0], 5) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision([0, 1, 0, 0, 0], 5) == pytest.approx(0.5)
        assert average_precision([0, 1, 0, 0, 0], 5, mode="by_r") == pytest.approx(0.1)

    def test_two_relevants_ranks_one_and_three(self):
        got = average_precision([1, 0, 1, 0, 0], 5)
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_no_relevant_returns_zero(self):
        assert average_precision([0, 0, 0], "all") == 0.0
        assert average_precision([0, 0, 0], 2, mode="by_r") == 0.0

    def test_invalid_cutoff(self):
        with pytest.raises(InvalidCutoff):
            average_precision([1, 0], 0)
        with pytest.raises(InvalidCutoff):
            average_precision([1, 0], "some")
        with pytest.raises(InvalidCutoff):
            average_precision([1, 0], 2.7)
        with pytest.raises(InvalidCutoff):
            average_precision([1, 0], True)

    def test_relevant_beyond_cutoff_ignored(self):
        assert average_precision([0, 0, 0, 1], 2) == 0.0

    def test_modes_coincide_when_top_r_all_relevant(self):
        rel = [1, 1, 1, 0, 1]
        assert average_precision(rel, 3, "by_relevant") == average_precision(rel, 3, "by_r")

    def test_bounds_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rel = (rng.uniform(size=rng.integers(1, 12)) < 0.3).astype(int)
            r = int(rng.integers(1, 12))
            for mode in ("by_relevant", "by_r"):
                ap = average_precision(rel, r, mode)
                assert 0.0 <= ap <= 1.0

    def test_cutoff_monotone_in_relevant_rank(self):
        prev = np.inf
        for rank in range(1, 8):
            rel = [0] * 8
            rel[rank - 1] = 1
            ap = average_precision(rel, "all")
            assert ap <= prev
            prev = ap


class TestRetrieve:
    def test_single_item_corpus(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, d=2, p=3, q=3)
        ranked = retrieve(params, rng.standard_normal(3), rng.standard_normal((1, 3)))
        assert list(ranked.indices) == [0]

    def test_duplicate_rows_tie_break_ascending(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, d=2, p=3, q=3)
        row = rng.standard_normal(3)
        corpus = np.vstack([row, row, row])
        ranked = retrieve(params, rng.standard_normal(3), corpus)
        assert list(ranked.indices) == [0, 1, 2]
        assert (np.diff(ranked.scores) <= 0).all()

    def test_matches_score_matrix_argsort(self):
        rng = np.random.default_rng(50)
        ds = random_dataset(rng, n=6, p=4, q=3)
        params = random_params(rng, d=3, p=4, q=3)
        S = score_matrix(params, ds)
        for k in range(6):
            ranked = retrieve(params, ds.images[k], ds.texts, direction="i2t")
            assert np.array_equal(ranked.indices, np.argsort(-S[k], kind="stable"))

    def test_t2i_direction(self):
        rng = np.random.default_rng(51)
        ds = random_dataset(rng, n=5, p=4, q=3)
        params = random_params(rng, d=3, p=4, q=3)
        S = score_matrix(params, ds)
        ranked = retrieve(params, ds.texts[2], ds.images, direction="t2i")
        assert np.array_equal(ranked.indices, np.argsort(-S[:, 2], kind="stable"))

    def test_top_k_truncates(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, d=2, p=3, q=3)
        ranked = retrieve(params, rng.standard_normal(3), rng.standard_normal((7, 3)), top_k=4)
        assert len(ranked.indices) == 4

    @pytest.mark.parametrize("top_k", [0, True, 2.5, "3"])
    def test_bad_top_k_raises_before_embedding(self, monkeypatch, top_k):
        rng = np.random.default_rng(4)
        params = random_params(rng, d=2, p=3, q=3)

        def no_embedding(*args):
            raise AssertionError("corpus embedded before top_k was checked")

        monkeypatch.setattr(evaluation, "embed_texts", no_embedding)
        with pytest.raises(InvalidCutoff):
            retrieve(params, rng.standard_normal(3), rng.standard_normal((7, 3)), top_k=top_k)


class TestMeanAp:
    def test_perfect_params_give_one(self):
        n = 4
        ds = basis_dataset(n)
        result = mean_ap(diagonal_params(n, 5.0), ds, "i2t", "all")
        assert result.mean == 1.0
        assert np.array_equal(result.per_query, np.ones(n))

    def test_adversarial_last_rank_gives_one_over_n(self):
        n = 4
        ds = basis_dataset(n)
        result = mean_ap(diagonal_params(n, -5.0), ds, "i2t", "all")
        assert result.mean == pytest.approx(1.0 / n)

    def test_both_directions_run(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, n=5, p=3, q=4)
        params = random_params(rng, d=2, p=3, q=4)
        for direction in ("i2t", "t2i"):
            res = mean_ap(params, ds, direction, "all")
            assert 0.0 <= res.mean <= 1.0
            assert len(res.per_query) == 5

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_per_query_equals_stable_argsort_reference(self, direction, normalized):
        rng = np.random.default_rng(52)
        n = 9
        ds = random_dataset(rng, n=n, p=4, q=3)
        zero = EmbeddingParams.from_arrays(np.zeros((2, 4)), np.zeros(2), np.zeros((2, 3)), np.zeros(2))
        for params in (random_params(rng, d=2, p=4, q=3), zero):  # zero params: every score ties
            S = score_matrix(params, ds, normalized=normalized)
            if direction == "t2i":
                S = S.T
            for r in ("all", 1, 3, n + 2):
                for mode in ("by_relevant", "by_r"):
                    expected = np.array([
                        average_precision(np.argsort(-S[k], kind="stable") == k, r, mode)
                        for k in range(n)
                    ])
                    got = mean_ap(params, ds, direction, r, mode, normalized).per_query
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_tied_integer_scores_rank_like_stable_argsort(self, monkeypatch, direction):
        # three score values: most queries tie their aligned item with others,
        # above and below its index, so the tie count decides their ranks. Every
        # chunk size, one query row up to all of them, gives the same bytes.
        rng = np.random.default_rng(54)
        n = 60
        S = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        monkeypatch.setattr(evaluation, "query_rows", lambda emb, d, queries: (S if d == "i2t" else S.T)[queries].copy())
        ds = random_dataset(rng, n=n, p=3, q=3)
        params = random_params(rng, d=2, p=3, q=3)
        Q = S if direction == "i2t" else S.T
        diag = np.diagonal(Q)[:, None]
        idx = np.arange(n)
        rank = 1 + np.sum(Q > diag, axis=1) + np.sum((Q == diag) & (idx[None, :] < idx[:, None]), axis=1)
        assert len(np.unique(rank)) > 10 and (np.sum(Q == diag, axis=1) > 1).all()
        for r in ("all", 5):
            expected = np.array([average_precision(np.argsort(-Q[k], kind="stable") == k, r) for k in range(n)])
            assert expected.tobytes() == np.where(rank <= (n if r == "all" else r), 1.0 / rank, 0.0).tobytes()
            for rows in (1, 3, 7, n, 2 * n):
                monkeypatch.setattr(evaluation, "_RANK_ENTRIES", rows * n)
                got = mean_ap(params, ds, direction, r).per_query
                assert got.tobytes() == expected.tobytes()

    def test_memory_is_far_below_one_score_matrix(self):
        # one n x n float64 matrix at n = 10,000 is 800 MB; ranking query rows
        # chunk by chunk holds O(chunk n)
        rng = np.random.default_rng(56)
        n = 10_000
        ds = random_dataset(rng, n=n, p=8, q=8)
        params = random_params(rng, d=10, p=8, q=8)
        tracemalloc.start()
        try:
            result = mean_ap(params, ds, "t2i", normalized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.per_query) == n
        assert peak < 100e6

    @pytest.mark.parametrize("normalized", [False, True])
    def test_t2i_equals_i2t_of_swapped_problem_bitwise(self, normalized):
        # the score kernel makes the swapped problem's scores the exact transpose
        rng = np.random.default_rng(53)
        ds = random_dataset(rng, n=40, p=6, q=5)
        params = random_params(rng, d=10, p=6, q=5)
        swapped_ds = validate_dataset(ds.texts, ds.images)
        swapped = EmbeddingParams.from_arrays(params.W2, params.b2, params.W1, params.b1)
        t2i = mean_ap(params, ds, "t2i", normalized=normalized).per_query
        i2t = mean_ap(swapped, swapped_ds, "i2t", normalized=normalized).per_query
        assert t2i.tobytes() == i2t.tobytes()

    def test_to_text_round_trip_fields(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=3, p=3, q=3)
        params = random_params(rng, d=2, p=3, q=3)
        res = mean_ap(params, ds, "i2t", 2, "by_r")
        text = res.to_text()
        lines = text.strip().splitlines()
        assert lines[-4].startswith("mAP ")
        assert lines[-3] == "R 2"
        assert lines[-2] == "direction i2t"
        assert lines[-1] == "mode by_r"
        assert float(lines[-4].split()[1]) == res.mean


def per_line_text(result) -> str:
    """EvalResult.to_text written one line per query."""
    lines = ["# per-query average precision"]
    for i, ap in enumerate(result.per_query):
        qid = result.query_ids[i] if result.query_ids is not None else str(i)
        lines.append(f"{qid} {ap:.17g}")
    lines.append(f"mAP {result.mean:.17g}")
    lines.append(f"R {result.r}")
    lines.append(f"direction {result.direction}")
    lines.append(f"mode {result.mode}")
    return "\n".join(lines) + "\n"


class TestToText:
    # two values per query line, so a block holds _WRITE_ENTRIES // 2 queries
    @pytest.mark.parametrize("n", [0, 1, 7, data._WRITE_ENTRIES // 2 - 1, data._WRITE_ENTRIES // 2 + 1])
    @pytest.mark.parametrize("with_ids", [False, True], ids=["row-index", "ids"])
    def test_bytes_equal_per_line_text(self, n, with_ids):
        per_query = np.resize(extreme_values(), n)
        ids = tuple(f"q{i:04d}:{'hard' if i % 3 else 'clean'}" for i in range(n)) if with_ids else None
        for mean in (0.1, -0.0, 5e-324, 1.7976931348623157e308, np.nan):
            result = EvalResult(per_query, mean, "all" if n % 2 else 5, "t2i", "by_r", ids)
            assert result.to_text() == per_line_text(result)

    def test_mean_ap_result_bytes_equal_per_line_text(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=30, p=3, q=3)
        result = mean_ap(random_params(rng, d=2, p=3, q=3), ds, "i2t", 4)
        assert result.to_text() == per_line_text(result)


class TestRandomBaseline:
    def test_two_items_expected_three_quarters(self):
        ds = basis_dataset(2)
        got = random_baseline(ds, "i2t", "all")
        assert got == pytest.approx(0.75, rel=1e-12)

    def test_three_items_all(self):
        ds = basis_dataset(3)
        assert random_baseline(ds, "i2t", "all") == pytest.approx(11.0 / 18.0, rel=1e-12)

    def test_three_items_cutoff_two_by_r(self):
        ds = basis_dataset(3)
        assert random_baseline(ds, "t2i", 2, mode="by_r") == pytest.approx(0.25, rel=1e-12)

    def test_matches_harmonic_formula(self):
        # mAP@all of a uniformly random ranking: mean over ranks r of (1/r)/n
        n = 50
        ds = basis_dataset(n)
        analytic = sum(1.0 / r for r in range(1, n + 1)) / n
        got = random_baseline(ds, "i2t", "all")
        assert got == pytest.approx(analytic, rel=1e-12)
