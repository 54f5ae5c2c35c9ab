import numpy as np
import pytest

from pacedrank import data
from pacedrank.data import (
    SplitSpec,
    SynthSpec,
    load_features,
    save_features,
    skewed_synth,
    split,
    split_indices,
    synth_generate,
    synth_components,
)
from pacedrank.errors import (
    ConfigInvalid,
    IoFailure,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    SplitTooSmall,
)

from conftest import extreme_values


class TestLoadFeatures:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# comment\n1.5 2 -3e-2\n\n4 5 6\n")
        got = load_features(path)
        assert np.array_equal(got, [[1.5, 2.0, -0.03], [4.0, 5.0, 6.0]])

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(RaggedRows, match="line 2"):
            load_features(path)

    def test_nan_token(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 nan 3\n")
        with pytest.raises(NonFiniteValue, match="column 2"):
            load_features(path)

    def test_bad_token_reports_position(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1 2 3\n4 x 6\n")
        with pytest.raises(ParseError, match="line 2, column 2"):
            load_features(path)

    @pytest.mark.parametrize(
        "text, error, where",
        [
            ("1 nan\n1 2 3\n", NonFiniteValue, "line 1, column 2"),  # an earlier line first
            ("1 inf\nx 2\n", NonFiniteValue, "line 1, column 2"),
            ("1 2\nx 3\n4 -inf\n", ParseError, "line 2, column 1"),
            ("1 2 3\nx 5\n", RaggedRows, "line 2"),  # a line's token count before its tokens
            ("1 2 3\n4 1e999 x\n", NonFiniteValue, "line 2, column 2: non-finite value '1e999'"),
            ("1 2 3\n4 x nan\n", ParseError, "line 2, column 2"),  # then tokens left to right
        ],
    )
    def test_first_of_two_faults_reported(self, tmp_path, text, error, where):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(error, match=where):
            load_features(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"1 2\n\xff 3\n")
        with pytest.raises(ParseError, match="f.txt is not UTF-8 text"):
            load_features(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_features(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError):
            load_features(path)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = np.concatenate(
            [rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-12, 12, (3, 4)), np.zeros((1, 4))]
        )
        path = tmp_path / "f.txt"
        save_features(path, matrix)
        assert np.array_equal(load_features(path), matrix)


def per_value_features(matrix) -> str:
    """The feature-file text written value by value, one row at a time."""
    return "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in np.asarray(matrix, dtype=np.float64))


def random_doubles():
    """Random doubles of every magnitude, with both zeros, subnormals and the largest double."""
    rng = np.random.default_rng(32)
    values = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0 / 3.0, np.nextafter(1.0, 2.0)]
    return np.concatenate([values, special]).reshape(7, 10)


def format_table(fmt, matrix):
    """(file text, the matrix float() reads from it): each value formatted by fmt, a row per line."""
    tokens = [[fmt % x for x in row] for row in matrix.tolist()]
    return "".join(" ".join(row) + "\n" for row in tokens), [[float(t) for t in row] for row in tokens]


SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace() and c not in "\n\r")
# Each file's text, and the matrix it loads to or the error (type, message) it raises,
# as the line scanner alone gives them; "{path}" stands for the file's path. A file
# that np.loadtxt reads in load_features must load to the same bits through it.
PARSE_TABLE = {
    "save-features": (per_value_features(random_doubles()), random_doubles()),
    "6-digits": format_table("%.6g", random_doubles()),
    "repr": format_table("%r", random_doubles()),
    "one-row": ("1.5 -2 3e-2\n", [[1.5, -2.0, 0.03]]),
    "one-column": ("1\n-2.5\n3e-2\n", [[1.0], [-2.5], [0.03]]),
    "one-value-no-newline": ("7", [[7.0]]),
    "tabs-and-runs-of-spaces": ("\t1  \t 2\t\n 3\t\t4   \n", [[1.0, 2.0], [3.0, 4.0]]),
    "crlf": ("1 2\r\n3 4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "cr": ("1 2\r3 4\r", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-and-comment-first": ("\n# c\n1 2\n3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-and-comment-middle": ("1 2\n\n  \n# c 9\n3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-and-comment-last": ("1 2\n3 4\n\n# c\n\t\n", [[1.0, 2.0], [3.0, 4.0]]),
    "indented-comment": ("1 2\n  #c\n3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "underscore": ("1_0 2\n", [[10.0, 2.0]]),
    "plus-dot": ("+.5 -.5\n", [[0.5, -0.5]]),
    "trailing-dot": ("1. -2.\n", [[1.0, -2.0]]),
    "exponent-forms": ("1E+05 2e-3 .5e1 00012\n", [[100000.0, 0.002, 5.0, 12.0]]),
    "underflow-to-zero": ("1e-400 -1e-400\n", [[0.0, -0.0]]),
    "fullwidth-digits": ("１ ２\n", [[1.0, 2.0]]),
    "arabic-indic-digits": ("١٢ 3\n", [[12.0, 3.0]]),
    "nul": ("1 \x00\n", (ParseError, "line 1, column 2: cannot parse '\\x00' as a real")),
    "nul-inside-token": ("1\x002 3\n", (ParseError, "line 1, column 1: cannot parse '1\\x002' as a real")),
    "double-quoted": ('"1" 2\n', (ParseError, "line 1, column 1: cannot parse '\"1\"' as a real")),
    "single-quoted": ("'1' 2\n", (ParseError, "line 1, column 1: cannot parse \"'1'\" as a real")),
    "trailing-comment": ("3 4 #c\n", (ParseError, "line 1, column 3: cannot parse '#c' as a real")),
    "comma": ("1,2 3\n", (ParseError, "line 1, column 1: cannot parse '1,2' as a real")),
    "hex-float": ("0x1p3 1\n", (ParseError, "line 1, column 1: cannot parse '0x1p3' as a real")),
    "nan": ("1 nan\n", (NonFiniteValue, "line 1, column 2: non-finite value 'nan'")),
    "inf": ("1 2\n-inf 4\n", (NonFiniteValue, "line 2, column 1: non-finite value '-inf'")),
    "infinity-word": ("Infinity 1\n", (NonFiniteValue, "line 1, column 1: non-finite value 'Infinity'")),
    "overflow": ("1 1e999\n", (NonFiniteValue, "line 1, column 2: non-finite value '1e999'")),
    "nan-before-ragged": ("1 nan\n1 2 3\n", (NonFiniteValue, "line 1, column 2: non-finite value 'nan'")),
    "inf-before-bad-token": ("inf abc\n", (NonFiniteValue, "line 1, column 1: non-finite value 'inf'")),
    "bad-token-before-inf": ("abc inf\n", (ParseError, "line 1, column 1: cannot parse 'abc' as a real")),
    "ragged-before-nan": ("1 2\n3\nnan 4\n", (RaggedRows, "line 2: expected 2 values, got 1")),
    "ragged-row-holding-nan": ("1 2\nnan 1 2\n", (RaggedRows, "line 2: expected 2 values, got 3")),
    "bad-token-after-comment-and-blank": (
        "# h\n\n1 2\n3 x\n", (ParseError, "line 4, column 2: cannot parse 'x' as a real")
    ),
    "underscore-then-nan": ("1_0 2\n3 nan\n", (NonFiniteValue, "line 2, column 2: non-finite value 'nan'")),
    "inf-before-later-bad-token": ("1 2\n3 inf\n4 y\n", (NonFiniteValue, "line 2, column 2: non-finite value 'inf'")),
    "ragged-short": ("1 2 3\n4 5\n", (RaggedRows, "line 2: expected 3 values, got 2")),
    "ragged-long": ("1 2\n3 4 5\n", (RaggedRows, "line 2: expected 2 values, got 3")),
    "empty": ("", (ParseError, "{path}: no data rows")),
    "blank-only": ("\n  \n", (ParseError, "{path}: no data rows")),
    "comment-only": ("# only a comment\n", (ParseError, "{path}: no data rows")),
    **{
        f"space-U+{ord(c):04X}": (f"1{c}2\n{c}\n{c}3{c}{c}4{c}\n", [[1.0, 2.0], [3.0, 4.0]])
        for c in SPACES  # every separator str.split knows, a blank line of it included
    },
}


@pytest.mark.parametrize("text, expected", PARSE_TABLE.values(), ids=PARSE_TABLE)
def test_parse_table(tmp_path, text, expected):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as exc:
            load_features(path)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(path=path)
    else:
        got = load_features(path)
        expected = np.asarray(expected, dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bit for bit: -0.0 stays -0.0


def filled(shape):
    """A matrix of the given shape cycling through extreme_values()."""
    return np.resize(extreme_values(), shape)


BLOCK = data._WRITE_ENTRIES
WRITER_SHAPES = {
    "no-rows": (0, 5),
    "one-row": (1, 7),
    "one-column": (13, 1),
    "no-columns": (3, 0),
    "one-short-of-a-block": (BLOCK - 1, 1),
    "one-past-a-block": (BLOCK + 1, 1),
    "a-block-and-a-row-at-width-20": (BLOCK // 20 + 1, 20),
    "rows-longer-than-a-block": (3, BLOCK + 1),
}


class TestSaveFeatures:
    @pytest.mark.parametrize("shape", WRITER_SHAPES.values(), ids=WRITER_SHAPES)
    def test_bytes_equal_per_value_writer(self, tmp_path, shape):
        matrix = filled(shape)
        save_features(tmp_path / "f.txt", matrix)
        assert (tmp_path / "f.txt").read_bytes() == per_value_features(matrix).encode()

    def test_transposed_input_bytes_equal_per_value_writer(self, tmp_path):
        matrix = filled((40, 29)).T
        assert not matrix.flags.c_contiguous
        save_features(tmp_path / "f.txt", matrix)
        assert (tmp_path / "f.txt").read_bytes() == per_value_features(matrix).encode()

    def test_every_extreme_value_round_trips_exactly(self, tmp_path):
        values = extreme_values()
        matrix = values[np.isfinite(values)].reshape(-1, 1)
        for m in (matrix, matrix.reshape(1, -1), np.resize(matrix, (BLOCK // 7 + 1, 7))):
            save_features(tmp_path / "f.txt", m)
            assert load_features(tmp_path / "f.txt").tobytes() == m.tobytes()  # -0.0 stays -0.0

    @pytest.mark.parametrize("shape", [(0, 3), (1, 3), (BLOCK // 3, 3), (BLOCK // 3 + 1, 3), (2, BLOCK + 1), (5, 0)])
    def test_blocks_hold_whole_rows_within_the_bound(self, shape):
        matrix = filled(shape)
        line = " ".join(["%.17g"] * shape[1]) + "\n"
        blocks = list(data.format_rows(line, matrix))
        rows_per_block = max(1, BLOCK // max(1, shape[1]))  # one row if a row is longer than a block
        assert [b.count("\n") for b in blocks] == [
            min(rows_per_block, shape[0] - lo) for lo in range(0, shape[0], rows_per_block)
        ]
        assert "".join(blocks) == per_value_features(matrix)


class TestSplit:
    def test_sizes(self):
        idx = split_indices(10, SplitSpec(0.6, 0.2, 0.2, seed=0))
        assert [len(i) for i in idx] == [6, 2, 2]

    def test_same_seed_identical(self):
        a = split_indices(20, SplitSpec(seed=4))
        b = split_indices(20, SplitSpec(seed=4))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_partition_property(self):
        idx = split_indices(17, SplitSpec(0.5, 0.25, 0.25, seed=2))
        merged = np.concatenate(idx)
        assert sorted(merged) == list(range(17))

    def test_pairs_stay_aligned(self):
        n = 12
        images = np.arange(n, dtype=float)[:, None]
        texts = np.arange(n, dtype=float)[:, None] * 10.0
        from pacedrank.core import validate_dataset

        parts = split(validate_dataset(images, texts), SplitSpec(seed=3))
        for part in parts:
            assert np.array_equal(part.texts[:, 0], part.images[:, 0] * 10.0)

    def test_too_small(self):
        with pytest.raises(SplitTooSmall):
            split_indices(3, SplitSpec(0.34, 0.33, 0.33, seed=0))

    def test_one_row_part_is_too_small(self):
        # 5 rows at 0.6 / 0.2 / 0.2 give parts of 3, 1 and 1: a Dataset holds at least 2 pairs
        ds = synth_generate(SynthSpec(n=5, latent=2, p=3, q=3, seed=0))
        with pytest.raises(SplitTooSmall):
            split(ds, SplitSpec())
        assert [len(part) for part in split_indices(10, SplitSpec())] == [6, 2, 2]

    def test_fractions_validated(self):
        with pytest.raises(ConfigInvalid):
            SplitSpec(0.9, 0.2, 0.2)
        with pytest.raises(ConfigInvalid):
            SplitSpec(1.0, 0.0, 0.0)


class TestSynthGenerate:
    def test_noiseless_rank_at_most_latent(self):
        ds = synth_generate(SynthSpec(n=8, latent=2, p=6, q=5, noise=0.0, seed=1))
        assert np.linalg.matrix_rank(ds.images) <= 2
        assert np.linalg.matrix_rank(ds.texts) <= 2

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(n=6, latent=2, p=4, q=4, noise=0.3, seed=9)
        a, b = synth_generate(spec), synth_generate(spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.texts, b.texts)

    def test_noiseless_latent_recovery_identity_pairing(self):
        spec = SynthSpec(n=10, latent=3, p=8, q=7, noise=0.0, seed=5)
        _, latents, map_img, _, _, _ = synth_components(spec)
        ds = synth_generate(spec)
        recovered = np.linalg.lstsq(map_img, ds.images.T, rcond=None)[0].T
        for i in range(10):
            dists = np.linalg.norm(latents - recovered[i], axis=1)
            assert int(np.argmin(dists)) == i

    def test_spec_validated(self):
        with pytest.raises(ConfigInvalid):
            SynthSpec(n=3, latent=2, p=4, q=4)
        with pytest.raises(ConfigInvalid):
            SynthSpec(n=8, latent=5, p=4, q=4)
        with pytest.raises(ConfigInvalid):
            SynthSpec(n=8, latent=2, p=4, q=4, noise=-0.1)

    @pytest.mark.parametrize(
        "bad",
        [
            {"noise": True},
            {"noise": False},
            {"noise": "0.1"},
            {"noise": float("nan")},
            {"noise": 10**400},
            {"n": 10.0},
            {"n": True},
            {"latent": 2.0},
            {"latent": True},
            {"p": 4.0},
            {"q": "4"},
        ],
    )
    def test_mistyped_spec_field_rejected(self, bad):
        fields = {"n": 10, "latent": 2, "p": 4, "q": 4, "noise": 0.1, **bad}
        with pytest.raises(ConfigInvalid, match=f"^{next(iter(bad))} must be"):
            SynthSpec(**fields)


class TestSkewedSynth:
    def test_exact_hard_count_recorded_in_ids(self):
        ds = skewed_synth(SynthSpec(n=20, latent=2, p=5, q=5, noise=0.2, seed=3), 0.5)
        hard = [s for s in ds.ids if s.endswith(":hard")]
        assert len(hard) == 10
        assert len(ds.ids) == 20

    def test_fraction_to_zero_matches_base_generator(self):
        spec = SynthSpec(n=30, latent=3, p=6, q=6, noise=0.25, seed=7)
        base = synth_generate(spec)
        skew = skewed_synth(spec, 0.01)  # rounds to zero hard queries
        assert np.array_equal(base.images, skew.images)
        assert np.array_equal(base.texts, skew.texts)
        assert all(s.endswith(":clean") for s in skew.ids)

    def test_fraction_validated(self):
        spec = SynthSpec(n=10, latent=2, p=4, q=4, noise=0.1, seed=0)
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ConfigInvalid):
                skewed_synth(spec, bad)

    def test_hard_queries_selected_less_at_first_update(self):
        # run one outer iteration without diversity and compare per-group
        # support between hard and clean queries
        from pacedrank.trainer import TrainConfig, train

        spec = SynthSpec(n=24, latent=3, p=10, q=10, noise=0.3, seed=11)
        ds = skewed_synth(spec, 0.5)
        cfg = TrainConfig(
            embedding_dim=6, margin=0.1, init_fraction=0.5, gamma_ratio=0.0,
            max_outer_iters=1, seed=11,
        )
        _, history = train(ds, cfg)
        counts = history.records[0].selected_counts
        hard = np.array([s.endswith(":hard") for s in ds.ids])
        group_size = ds.n - 1
        assert counts[hard].mean() < counts[~hard].mean()
        assert counts.max() <= group_size
