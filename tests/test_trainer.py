import numpy as np
import pytest

from pacedrank.core import EmbeddingParams, ImportanceVector
from pacedrank.data import SplitSpec, SynthSpec, split, synth_generate
from pacedrank.errors import (
    ConfigInvalid,
    CorruptCheckpoint,
    NonFiniteObjective,
    VersionMismatch,
)
from pacedrank.loss import Block, block_losses, grad_params, ridge_value, smooth_part
from pacedrank.trainer import (
    Checkpoint,
    CHECKPOINT_VERSION,
    TrainConfig,
    init_params,
    line_search,
    load_checkpoint,
    optimize_W,
    save_checkpoint,
    train,
)

from conftest import random_instance


def params_equal(a: EmbeddingParams, b: EmbeddingParams) -> bool:
    return (
        np.array_equal(a.W1, b.W1)
        and np.array_equal(a.b1, b.b1)
        and np.array_equal(a.W2, b.W2)
        and np.array_equal(a.b2, b.b2)
    )


def smooth_value(params, dataset, blocks, cfg):
    losses = block_losses(params, dataset, blocks, cfg.loss_config(), cfg.normalized_similarity)
    return smooth_part(params, blocks, losses)


def scalar_params(w):
    return EmbeddingParams.from_arrays([[w]], [0.0], [[0.0]], [0.0])


class TestLineSearch:
    def test_quadratic_accepts_first_try(self):
        params = scalar_params(1.0)
        grad = EmbeddingParams(np.array([[1.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        step, new_params, value = line_search(
            params, grad, ridge_value, 0.5, TrainConfig(initial_step=1.0)
        )
        assert step == 1.0
        assert value == 0.0
        assert new_params.W1[0, 0] == 0.0

    def test_zero_gradient_returns_step_zero(self):
        params = scalar_params(1.0)
        zero = EmbeddingParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        step, new_params, value = line_search(params, zero, ridge_value, 0.5, TrainConfig())
        assert step == 0.0
        assert params_equal(new_params, params)

    def test_armijo_inequality_holds(self):
        dataset, params, tetrads, v = random_instance(60)
        cfg = TrainConfig(margin=0.2)
        blocks = [Block(tetrads, "i2t", v)]
        f = lambda p: smooth_value(p, dataset, blocks, cfg)
        f0 = f(params)
        grad = grad_params(params, dataset, blocks, cfg.loss_config())
        step, _, value = line_search(params, grad, f, f0, cfg)
        assert step > 0.0
        assert value <= f0 - cfg.sufficient_decrease * step * grad.norm_sq()


class TestOptimizeW:
    def test_zero_weights_converge_to_zero_matrices(self):
        dataset, params, tetrads, _ = random_instance(61)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        cfg = TrainConfig(max_inner_steps=200, rel_tol=1e-12)
        blocks = [Block(tetrads, "i2t", v)]
        out, steps = optimize_W(params, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg))
        norm = np.sqrt(np.sum(out.W1**2) + np.sum(out.W2**2))
        assert norm < 1e-3
        assert steps <= 200

    def test_already_converged_returns_unchanged(self):
        dataset, _, tetrads, _ = random_instance(62)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        zero = EmbeddingParams.from_arrays(
            np.zeros((3, 5)), np.zeros(3), np.zeros((3, 4)), np.zeros(3)
        )
        blocks = [Block(tetrads, "i2t", v)]
        cfg = TrainConfig()
        out, steps = optimize_W(zero, dataset, blocks, cfg, smooth_value(zero, dataset, blocks, cfg))
        assert steps == 1
        assert params_equal(out, zero)

    def test_value_sequence_non_increasing(self):
        dataset, params, tetrads, v = random_instance(63)
        cfg = TrainConfig(max_inner_steps=30)
        trace = []
        blocks = [Block(tetrads, "i2t", v)]
        optimize_W(params, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg), trace=trace)
        assert len(trace) >= 2
        assert (np.diff(trace) <= 0.0).all()

    def test_nan_params_raise(self):
        dataset, params, tetrads, v = random_instance(64)
        bad = EmbeddingParams(params.W1 * np.nan, params.b1, params.W2, params.b2)
        blocks = [Block(tetrads, "i2t", v)]
        cfg = TrainConfig()
        with pytest.raises(NonFiniteObjective):
            optimize_W(bad, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg))


def tiny_corpus(seed=0, n=30):
    return synth_generate(SynthSpec(n=n, latent=3, p=8, q=8, noise=0.1, seed=seed))


class TestTrain:
    def test_zero_outer_iters_returns_init(self):
        ds = tiny_corpus()
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=0, seed=5)
        params, history = train(ds, cfg)
        rng = np.random.default_rng(5)
        expected = init_params(rng, 4, ds.p, ds.q)
        assert len(history) == 0
        assert params_equal(params, expected)

    def test_deterministic_under_seed(self):
        ds = tiny_corpus()
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=5, seed=7)
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        assert params_equal(p1, p2)
        assert len(h1) == len(h2)
        for a, b in zip(h1.records, h2.records):
            assert a.objective == b.objective
            assert a.lam == b.lam
            assert np.array_equal(a.selected_counts, b.selected_counts)

    def test_alternation_monotone_within_iterations(self):
        ds = tiny_corpus(seed=2)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=8, seed=2, gamma_ratio=0.5)
        _, history = train(ds, cfg)
        for rec in history.records:
            assert rec.objective_after_w <= rec.objective_entry + 1e-10
            assert rec.objective <= rec.objective_after_w + 1e-10

    def test_history_not_longer_than_cap(self):
        ds = tiny_corpus(seed=3)
        cfg = TrainConfig(embedding_dim=3, max_outer_iters=4, seed=3)
        _, history = train(ds, cfg)
        assert 1 <= len(history) <= 4

    def test_learns_above_random_baseline(self):
        from pacedrank.evaluation import mean_ap, random_baseline

        ds = synth_generate(SynthSpec(n=80, latent=4, p=12, q=12, noise=0.1, seed=4))
        tr, va, te = split(ds, SplitSpec(seed=4))
        cfg = TrainConfig(embedding_dim=6, max_outer_iters=12, seed=4)
        params, _ = train(tr, cfg, val_dataset=va)
        trained = mean_ap(params, te, "i2t").mean
        floor = random_baseline(te, "i2t", "all")
        assert trained > 1.5 * floor

    def test_symmetric_mode_runs_and_is_monotone(self):
        ds = tiny_corpus(seed=6, n=20)
        cfg = TrainConfig(embedding_dim=3, max_outer_iters=4, seed=6, symmetric_tetrads=True)
        params, history = train(ds, cfg)
        assert len(history) >= 1
        # groups double: one per image query plus one per text query
        assert len(history.records[0].selected_counts) == 2 * ds.n
        for rec in history.records:
            assert rec.objective_after_w <= rec.objective_entry + 1e-10
            assert rec.objective <= rec.objective_after_w + 1e-10

    @pytest.mark.parametrize("lam_growth, gamma_growth", [(1.1, 1.1), (1.0, 1.0), (2.0, 1.0)])
    def test_pacing_grows_by_config_factors(self, lam_growth, gamma_growth):
        ds = tiny_corpus(seed=5, n=16)
        cfg = TrainConfig(
            embedding_dim=3, max_outer_iters=4, seed=5, lam_growth=lam_growth, gamma_growth=gamma_growth
        )
        _, history = train(ds, cfg)
        recs = history.records
        assert len(recs) >= 3
        for a, b in zip(recs, recs[1:]):
            assert b.lam == a.lam * cfg.lam_growth
            assert b.gamma == a.gamma * cfg.gamma_growth

    def test_normalized_similarity_mode_runs(self):
        ds = tiny_corpus(seed=8, n=16)
        cfg = TrainConfig(embedding_dim=3, max_outer_iters=3, seed=8, normalized_similarity=True)
        params, history = train(ds, cfg)
        assert np.isfinite(history.records[-1].objective)

    def test_val_history_and_early_stopping(self):
        ds = tiny_corpus(seed=9, n=40)
        tr, va, te = split(ds, SplitSpec(seed=9))
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=10, seed=9, early_stop_patience=2)
        params, history = train(tr, cfg, val_dataset=va)
        assert all(rec.val_map is not None for rec in history.records)
        best = max(rec.val_map for rec in history.records)
        from pacedrank.evaluation import mean_ap

        assert mean_ap(params, va, "i2t").mean == pytest.approx(best, abs=1e-12)

    def test_config_validation(self):
        ds = tiny_corpus()
        for bad in (
            {"embedding_dim": 0},
            {"shrink_factor": 1.0},
            {"rel_tol": 0.0},
            {"init_fraction": 0.0},
            {"sufficient_decrease": 1.5},
            {"max_inner_steps": 0},
            {"lam_growth": 0.9},
            {"gamma_growth": 0.9},
            {"normalized_similarity": "false"},
            {"max_outer_iters": 2.5},
            {"sample_negatives": 4.0},
            {"margin": True},
            {"init_fraction": True},
            {"gamma_ratio": float("nan")},
            {"lam_growth": float("nan")},
            {"lam_growth": float("inf")},
            {"gamma_growth": float("inf")},
            {"initial_step": float("inf")},
            {"shrink_factor": "0.5"},
            {"sufficient_decrease": None},
            {"rel_tol": float("inf")},
            {"margin": float("inf")},
            {"seed": -1},
        ):
            with pytest.raises(ConfigInvalid):
                train(ds, TrainConfig(**bad))


class TestCheckpoint:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        params = init_params(rng, 3, 4, 5)
        cfg = TrainConfig(embedding_dim=3, seed=seed, sample_negatives=7)
        return Checkpoint(CHECKPOINT_VERSION, params, cfg, seed, 11)

    def test_round_trip_bit_identical(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.version == ckpt.version
        assert loaded.seed == ckpt.seed
        assert loaded.iteration == ckpt.iteration
        assert loaded.config == ckpt.config
        assert params_equal(loaded.params, ckpt.params)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, self.make())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_wrong_version_byte(self, tmp_path):
        import hashlib

        path = tmp_path / "model.bin"
        save_checkpoint(path, self.make())
        blob = bytearray(path.read_bytes())[:-8]
        blob[4] = 99  # version field follows the 4 magic bytes
        blob += hashlib.sha256(bytes(blob)).digest()[:8]
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_flipped_payload_byte_detected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(path, self.make())
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        import hashlib

        path = tmp_path / "model.bin"
        save_checkpoint(path, self.make())
        blob = bytearray(path.read_bytes())[:-8]
        blob[:4] = b"NOPE"
        blob += hashlib.sha256(bytes(blob)).digest()[:8]
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def write_edited_header(self, path, edit):
        """Save a checkpoint whose JSON header `edit` changes, with a valid digest."""
        import hashlib
        import json
        import struct

        save_checkpoint(path, self.make())
        blob = path.read_bytes()[:-8]
        (header_len,) = struct.unpack("<I", blob[8:12])  # after magic and version
        header = json.loads(blob[12 : 12 + header_len])
        edit(header)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        body = blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :]
        path.write_bytes(body + hashlib.sha256(body).digest()[:8])

    @pytest.mark.parametrize("key, value", [("seed", "x"), ("seed", None), ("config", 5), ("iteration", 2.5)])
    def test_mistyped_header_value(self, tmp_path, key, value):
        path = tmp_path / "model.bin"
        self.write_edited_header(path, lambda header: header.update({key: value}))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("normalized_similarity", "false"),
            ("symmetric_tetrads", 0),
            ("max_outer_iters", 2.5),
            ("seed", True),
            ("seed", -3),
            ("margin", True),
            ("lam_growth", float("nan")),
            ("rel_tol", float("inf")),
        ],
    )
    def test_mistyped_config_value(self, tmp_path, key, value):
        path = tmp_path / "model.bin"
        self.write_edited_header(path, lambda header: header["config"].update({key: value}))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_save_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, self.make())
        save_checkpoint(b, self.make())
        assert a.read_bytes() == b.read_bytes()
