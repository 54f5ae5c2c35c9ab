import tracemalloc

import numpy as np
import pytest

from pacedrank import core
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
from pacedrank.data import SplitSpec, SynthSpec, skewed_synth
from pacedrank.loss import Block, all_losses, selected, tetrad_loss
from pacedrank.spl import update_importance

from conftest import cached_arrays


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

    def test_matrix_positions(self):
        rng = np.random.default_rng(8)
        ts = build_tetrads(validate_dataset(rng.standard_normal((7, 2)), rng.standard_normal((7, 2))), 3, 0)
        M = rng.standard_normal((7, 7))
        ks, js = ts.flat_queries, ts.negatives
        assert M.reshape(-1)[ts.row_positions].tobytes() == M[ks, js].tobytes()
        assert M.reshape(-1)[ts.column_positions].tobytes() == M.T[ks, js].tobytes()
        # the positions are cached and locked; the queries they are computed from are not kept
        fresh = build_tetrads(validate_dataset(rng.standard_normal((7, 2)), rng.standard_normal((7, 2))), 3, 0)
        assert fresh.row_positions is fresh.row_positions and not fresh.row_positions.flags.writeable
        assert cached_arrays(fresh) == ["row_positions"]

    @pytest.mark.parametrize(
        "n, m, seed",
        [(2, None, None), (7, None, None), (40, None, None)]
        + [
            (n, m, seed)
            for n, m in ((2, 1), (7, 1), (7, 3), (7, 5), (7, 6), (40, 16), (40, 30), (40, 39))
            for seed in (0, 1, 7)
        ],
    )
    def test_matches_per_query_construction_bitwise(self, n, m, seed):
        # a full set is one pool of the other items per query; a sampled one is
        # each query's scalar Floyd draw from that pool
        if m is None:
            groups = [
                np.concatenate([np.arange(k, dtype=np.int64), np.arange(k + 1, n, dtype=np.int64)])
                for k in range(n)
            ]
        else:
            groups = floyd_reference(n, m, seed, core.SAMPLE_CHUNK_BYTES)
        ds = validate_dataset(np.zeros((n, 1)), np.zeros((n, 1)))
        ts = build_tetrads(ds, m, seed)
        assert np.array_equal(ts.offsets, np.cumsum([0] + [len(g) for g in groups]))
        assert np.array_equal(ts.negatives, np.concatenate(groups))
        assert ts.negatives.dtype == np.int64

    @pytest.mark.parametrize("m", [3, 16, 30, 39])
    def test_matches_scalar_floyd_across_chunks(self, monkeypatch, m):
        # 40 items: 5 bytes of map per row, so 2 rows a chunk and 20 chunks
        monkeypatch.setattr(core, "SAMPLE_CHUNK_BYTES", 10)
        ds = validate_dataset(np.zeros((40, 1)), np.zeros((40, 1)))
        ts = build_tetrads(ds, m, 5)
        assert np.array_equal(ts.negatives, np.concatenate(floyd_reference(40, m, 5, 10)))

    @pytest.mark.parametrize("m", [3, 5])
    def test_sampled_negatives_are_uniform_and_ordered(self, m):
        # each off-diagonal (query, item) pair is sampled with probability m / (n - 1)
        n, seeds = 7, 2000
        ds = validate_dataset(np.zeros((n, 1)), np.zeros((n, 1)))
        counts = np.zeros((n, n))
        for seed in range(seeds):
            rows = build_tetrads(ds, m, seed).negatives.reshape(n, m)
            assert (np.diff(rows, axis=1) > 0).all()
            assert rows.min() >= 0 and rows.max() < n
            assert not (rows == np.arange(n)[:, None]).any()
            np.add.at(counts, (np.repeat(np.arange(n), m), rows.ravel()), 1)
        p = m / (n - 1)
        freq = counts[~np.eye(n, dtype=bool)] / seeds
        assert (np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / seeds)).all()

    def test_sampled_negatives_pinned(self):
        # literal draws of numpy's Generator.integers stream: a numpy release that
        # draws differently changes every sampled set, and fails here
        ds = validate_dataset(np.zeros((600, 1)), np.zeros((600, 1)))
        ts = build_tetrads(ds, 16, 0)
        assert ts.negatives[:48].tolist() == [
            19, 20, 107, 128, 129, 137, 277, 306, 343, 365, 385, 469, 496, 497, 528, 559,
            4, 19, 29, 37, 40, 75, 98, 135, 181, 237, 333, 372, 389, 489, 525, 553,
            3, 56, 146, 215, 236, 257, 290, 299, 319, 324, 337, 373, 382, 484, 496, 558,
        ]
        assert np.array_equal(ts.negatives, build_tetrads(ds, 16, 0).negatives)

    def test_sampling_memory_is_bounded(self):
        n, m = 10_000, 400
        ds = validate_dataset(np.zeros((n, 1)), np.zeros((n, 1)))
        tracemalloc.start()
        try:
            positions = core._sample_positions(n, m, np.random.default_rng(0))
            _, sample_peak = tracemalloc.get_traced_memory()
            del positions
            tracemalloc.reset_peak()
            build_tetrads(ds, m, 0)
            _, build_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sample_peak < 3 * n * m * 8
        # TetradSet keeps the sampler's locked array and checks it in chunks: the
        # sampler's own peak sets the bound. Copying the array and checking it
        # against one n·m group-index array peaked at 122.9 MiB.
        assert build_peak <= 64 * 2**20


def floyd_reference(n, m, seed, chunk_bytes):
    """Each query's sorted negatives from Floyd's algorithm run on a Python set.

    It reads the same rng.integers(0, t + 1, size=rows) arrays as
    build_tetrads, step by step and chunk by chunk, and keeps the unchosen
    positions when it draws the smaller side, n - 1 - m < m.
    """
    rng = np.random.default_rng(seed)
    N = n - 1
    s = min(m, N - m)
    span = max(1, chunk_bytes // ((N + 7) // 8))
    groups = []
    for lo in range(0, n, span):
        queries = range(lo, min(n, lo + span))
        chosen = [set() for _ in queries]
        for t in range(N - s, N):
            for row, pick in zip(chosen, rng.integers(0, t + 1, size=len(queries)).tolist()):
                row.add(t if pick in row else pick)
        for k, row in zip(queries, chosen):
            positions = sorted(row) if s == m else [p for p in range(N) if p not in row]
            groups.append(np.array([p + (p >= k) for p in positions], dtype=np.int64))
    return groups


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

    def test_repeated_or_descending_negatives_rejected(self):
        # query 0 lists negative 1 twice: the loss would count both copies, the dense
        # gradient's coefficient matrix one
        with pytest.raises(ConfigInvalid, match="strictly ascending"):
            TetradSet(4, [0, 2, 3, 4, 5], [1, 1, 0, 0, 0])
        with pytest.raises(ConfigInvalid, match="strictly ascending"):
            TetradSet(4, [0, 2, 3, 4, 5], [2, 1, 0, 0, 0])
        # negatives may fall across a group boundary, and groups may be empty
        assert TetradSet(4, [0, 0, 2, 2, 5], [2, 3, 0, 1, 2]).total == 5
        assert TetradSet(4, [0, 2, 2, 2, 2], [1, 3]).total == 2

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_checks_span_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(core, "_CHECK_CHUNK", chunk)
        assert TetradSet(4, [0, 0, 2, 2, 5], [2, 3, 0, 1, 2]).total == 5
        assert TetradSet(4, [0, 2, 2, 2, 2], [1, 3]).total == 2
        full = build_tetrads(validate_dataset(np.zeros((5, 1)), np.zeros((5, 1))))
        assert TetradSet(5, full.offsets, full.negatives).is_full
        for negatives in ([1, 2, 3, 0, 2, 3, 0, 1, 3, 1, 1, 2], [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 2, 1]):
            with pytest.raises(ConfigInvalid, match="strictly ascending"):
                TetradSet(4, [0, 3, 6, 9, 12], negatives)
        with pytest.raises(ConfigInvalid, match="differ from the query"):
            TetradSet(4, [0, 3, 6, 9, 12], [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 3])  # query 3's last


class TestGroupedVector:
    def test_group_views(self):
        gv = GroupedVector.from_groups([np.array([1.0, 2.0]), np.array([3.0])])
        assert gv.n_groups == 2
        assert list(gv.group(0)) == [1.0, 2.0]
        assert list(gv.group(1)) == [3.0]
        assert list(gv.group_sums()) == [3.0, 3.0]

    def test_group_sums_read_only_the_positive_values(self):
        rng = np.random.default_rng(9)
        tetrads = build_tetrads(validate_dataset(rng.standard_normal((12, 2)), rng.standard_normal((12, 2))), 5, 0)
        sizes = np.diff(tetrads.offsets)
        sizes[[0, 4, 5]] = 0  # empty groups, one of them first
        values = rng.uniform(size=sizes.sum())
        values[rng.uniform(size=values.size) < 0.4] = 0.0
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        v = ImportanceVector(values, offsets)
        group = np.repeat(np.arange(12), sizes)
        # bincount over every value adds the zeros as exact +0.0
        assert v.group_sums().tobytes() == np.bincount(group, weights=values, minlength=12).tobytes()
        assert v.positive_counts().tolist() == np.bincount(group[values > 0.0], minlength=12).tolist()
        assert v.positive_count == len(v.positive_index) == np.count_nonzero(values)
        assert "group_ids" not in dir(v)  # no per-value group index is kept
        empty = ImportanceVector(np.zeros(0), np.zeros(3, dtype=int))
        assert empty.group_sums().tolist() == [0.0, 0.0]
        assert empty.group_sums().dtype == np.float64

    def test_offsets_validated(self):
        with pytest.raises(ConfigInvalid):
            GroupedVector(np.array([1.0]), np.array([0, 2]))

    def test_importance_range_checked(self):
        with pytest.raises(ConfigInvalid):
            ImportanceVector(np.array([1.5]), np.array([0, 1]))
        with pytest.raises(ConfigInvalid):
            ImportanceVector(np.array([-0.1]), np.array([0, 1]))
        with pytest.raises(ConfigInvalid, match="importance weights must lie in"):
            ImportanceVector(np.array([np.nan, 0.5]), np.array([0, 2]))

    @pytest.mark.parametrize("cls", [GroupedVector, ImportanceVector])
    def test_locked_input_kept_as_same_object(self, cls):
        values = np.array([0.25, 0.5, 1.0])
        offsets = np.array([0, 2, 3], dtype=np.int64)
        values.flags.writeable = False
        offsets.flags.writeable = False
        gv = cls(values, offsets)
        assert gv.values is values
        assert gv.offsets is offsets

    def test_writeable_source_is_copied(self):
        values = np.array([0.25, 0.5, 1.0])
        offsets = np.array([0, 2, 3])
        gv = GroupedVector(values, offsets)
        values[0] = 9.0
        offsets[1] = 3
        assert list(gv.values) == [0.25, 0.5, 1.0]
        assert list(gv.offsets) == [0, 2, 3]
        # a read-only view can still change through the writeable array it views
        view = values[:]
        view.flags.writeable = False
        gv = GroupedVector(view, np.array([0, 3]))
        values[1] = 7.0
        assert gv.values is not view
        assert list(gv.values) == [9.0, 0.5, 1.0]
        assert not gv.values.flags.writeable

    def test_view_of_locked_array_is_kept(self):
        # nothing writes through a read-only view of a locked array that owns its data
        values = np.array([[0.25, 0.5], [1.0, 0.0]])
        values.flags.writeable = False
        flat = values.ravel()
        assert GroupedVector(flat, np.array([0, 3, 4])).values is flat

    def test_producers_share_locked_arrays(self):
        rng = np.random.default_rng(5)
        ds = validate_dataset(rng.standard_normal((6, 3)), rng.standard_normal((6, 4)))
        params = EmbeddingParams.from_arrays(
            rng.standard_normal((2, 3)), np.zeros(2), rng.standard_normal((2, 4)), np.zeros(2)
        )
        for tetrads in (build_tetrads(ds), build_tetrads(ds, 2, seed=0)):
            losses = all_losses(params, ds, tetrads, LossConfig())
            assert losses.offsets is tetrads.offsets
            assert not losses.values.flags.writeable
            v = update_importance(losses, PacingState(lam=1.0, gamma=0.5))
            assert v.offsets is tetrads.offsets
            assert not v.values.flags.writeable
            # the W-step's cut-down to the selected tetrads hands its arrays over the same way
            some_zero = ImportanceVector(np.where(np.arange(tetrads.total) % 3 == 0, 0.0, v.values), tetrads.offsets)
            kept = selected(Block(tetrads, "i2t", some_zero))
            assert kept.tetrads.total == some_zero.positive_count < tetrads.total
            assert kept.v.offsets is kept.tetrads.offsets
            assert not kept.tetrads.negatives.flags.writeable and not kept.v.values.flags.writeable
            every = Block(tetrads, "i2t", ImportanceVector(np.full(tetrads.total, 0.5), tetrads.offsets))
            assert selected(every) is every


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

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda ds: SplitSpec(train="a"), id="split-fraction-string"),
            pytest.param(lambda ds: LossConfig(margin="x"), id="margin-string"),
            pytest.param(lambda ds: LossConfig(margin=True), id="margin-bool"),
            pytest.param(lambda ds: PacingState(lam="1", gamma=0.0), id="lam-string"),
            pytest.param(lambda ds: PacingState(lam=True, gamma=False), id="pacing-bools"),
            pytest.param(lambda ds: skewed_synth(SynthSpec(n=8, latent=2, p=3, q=3), "x"), id="hard-fraction-string"),
            pytest.param(lambda ds: build_tetrads(ds, 2.5), id="sample-size-float"),
            pytest.param(lambda ds: build_tetrads(ds, 3, seed=1.5), id="seed-float"),
            pytest.param(lambda ds: build_tetrads(ds, 3, seed=-1), id="seed-negative"),
        ],
    )
    def test_mistyped_argument_raises_config_invalid(self, call):
        ds = validate_dataset(np.zeros((6, 2)), np.zeros((6, 3)))
        with pytest.raises(ConfigInvalid):
            call(ds)

    def test_numpy_floats_accepted(self):
        half = np.float64(0.5)
        assert LossConfig(margin=half).margin == half
        assert PacingState(lam=half, gamma=half).gamma == half
        assert SplitSpec(np.float64(0.6), np.float64(0.2), np.float64(0.2)).train == 0.6
        assert skewed_synth(SynthSpec(n=8, latent=2, p=3, q=3), half).n == 8
