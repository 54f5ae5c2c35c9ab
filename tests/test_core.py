import numpy as np
import pytest

from pacedrank.core import (
    EmbeddingParams,
    GroupedVector,
    ImportanceVector,
    LossConfig,
    PacingState,
    TetradSet,
    build_tetrads,
    validate_dataset,
)
from pacedrank.errors import (
    ConfigInvalid,
    IndexOutOfRange,
    NonFiniteValue,
    SampleTooLarge,
    ShapeMismatch,
    TooSmall,
)
from pacedrank.loss import tetrad_loss


class TestValidateDataset:
    def test_consistent_shapes(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 4)))
        assert (ds.n, ds.p, ds.q) == (3, 2, 4)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_dataset(np.zeros((3, 2)), np.zeros((4, 4)))

    def test_nan_rejected(self):
        images = np.zeros((3, 2))
        images[1, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            validate_dataset(images, np.zeros((3, 4)))

    def test_inf_rejected(self):
        texts = np.zeros((3, 4))
        texts[0, 3] = np.inf
        with pytest.raises(NonFiniteValue):
            validate_dataset(np.zeros((3, 2)), texts)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            validate_dataset(np.zeros((1, 2)), np.zeros((1, 4)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_dataset(np.zeros(3), np.zeros((3, 4)))

    def test_ids_length_checked(self):
        with pytest.raises(ShapeMismatch):
            validate_dataset(np.zeros((3, 2)), np.zeros((3, 4)), ids=["a", "b"])

    def test_arrays_locked(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ds.images[0, 0] = 1.0


class TestBuildTetrads:
    def test_full_enumeration_n3(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        ts = build_tetrads(ds)
        assert ts.total == 6
        assert list(ts.offsets) == [0, 2, 4, 6]
        assert list(ts.negatives) == [1, 2, 0, 2, 0, 1]

    def test_full_size_and_no_self_pairs(self):
        for n in (2, 4, 7):
            ds = validate_dataset(np.zeros((n, 2)), np.zeros((n, 2)))
            ts = build_tetrads(ds)
            assert ts.total == n * (n - 1)
            assert not (ts.negatives == ts.flat_queries).any()
            for k in range(n):
                g = ts.negatives[ts.offsets[k] : ts.offsets[k + 1]]
                assert len(np.unique(g)) == len(g)

    def test_sample_deterministic(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        a = build_tetrads(ds, m=1, seed=7)
        b = build_tetrads(ds, m=1, seed=7)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.negatives, b.negatives)

    def test_sample_distinct_negatives(self):
        ds = validate_dataset(np.zeros((8, 2)), np.zeros((8, 2)))
        ts = build_tetrads(ds, m=5, seed=3)
        assert np.array_equal(ts.offsets, np.arange(9) * 5)
        assert not (ts.negatives == ts.flat_queries).any()
        for k in range(8):
            assert len(np.unique(ts.negatives[5 * k : 5 * k + 5])) == 5

    def test_sample_too_large(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(SampleTooLarge):
            build_tetrads(ds, m=3, seed=0)

    def test_flat_views_align(self):
        ds = validate_dataset(np.zeros((4, 2)), np.zeros((4, 2)))
        ts = build_tetrads(ds)
        assert len(ts.flat_queries) == ts.total
        assert np.array_equal(ts.offsets, [0, 3, 6, 9, 12])
        assert len(ts.negatives) == ts.total
        assert np.array_equal(ts.flat_queries, np.repeat(np.arange(4), 3))

    @pytest.mark.parametrize(
        "n, m, seed",
        [(2, None, None), (7, None, None), (40, None, None)]
        + [(n, m, seed) for n, m in ((2, 1), (7, 1), (7, 3), (7, 6), (40, 16), (40, 39)) for seed in (0, 1, 7)],
    )
    def test_matches_per_query_construction_bitwise(self, n, m, seed):
        # the construction the flat layout replaced: one pool of the other
        # items per query, drawn from with rng.choice and then sorted
        rng = np.random.default_rng(seed)
        groups = []
        for k in range(n):
            pool = np.concatenate([np.arange(k, dtype=np.int64), np.arange(k + 1, n, dtype=np.int64)])
            if m is not None:
                pool = rng.choice(pool, size=m, replace=False)
                pool.sort()
            groups.append(pool)
        ds = validate_dataset(np.zeros((n, 1)), np.zeros((n, 1)))
        ts = build_tetrads(ds, m, seed)
        assert np.array_equal(ts.offsets, np.cumsum([0] + [len(g) for g in groups]))
        assert np.array_equal(ts.negatives, np.concatenate(groups))
        assert ts.negatives.dtype == np.int64


class TestTetrad:
    def test_self_pair_rejected(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        params = EmbeddingParams.from_arrays(np.zeros((1, 2)), np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ConfigInvalid):
            tetrad_loss(params, ds, 2, 2, LossConfig())

    def test_set_checks_its_layout(self):
        assert TetradSet(2, [0, 1, 2], [1, 0]).total == 2
        with pytest.raises(ConfigInvalid):
            TetradSet(2, [0, 1, 2], [1, 1])  # query 1 paired with itself
        with pytest.raises(IndexOutOfRange):
            TetradSet(2, [0, 1, 2], [1, 2])
        with pytest.raises(ConfigInvalid):
            TetradSet(2, [0, 2], [1, 0])  # one offset short
        with pytest.raises(ConfigInvalid):
            TetradSet(2, [0, 1, 3], [1, 0])  # does not end at the number of negatives


class TestGroupedVector:
    def test_group_views(self):
        gv = GroupedVector.from_groups([np.array([1.0, 2.0]), np.array([3.0])])
        assert gv.n_groups == 2
        assert list(gv.group(0)) == [1.0, 2.0]
        assert list(gv.group(1)) == [3.0]
        assert list(gv.group_sums()) == [3.0, 3.0]

    def test_offsets_validated(self):
        with pytest.raises(ConfigInvalid):
            GroupedVector(np.array([1.0]), np.array([0, 2]))

    def test_importance_range_checked(self):
        with pytest.raises(ConfigInvalid):
            ImportanceVector(np.array([1.5]), np.array([0, 1]))
        with pytest.raises(ConfigInvalid):
            ImportanceVector(np.array([-0.1]), np.array([0, 1]))


class TestConfigTypes:
    def test_pacing_invariants(self):
        with pytest.raises(ConfigInvalid):
            PacingState(lam=0.0, gamma=0.1)
        with pytest.raises(ConfigInvalid):
            PacingState(lam=1.0, gamma=-0.1)

    def test_loss_config_margin(self):
        with pytest.raises(ConfigInvalid):
            LossConfig(margin=-0.1)
        assert LossConfig(margin=0.0).margin == 0.0
