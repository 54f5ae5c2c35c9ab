import dataclasses

import numpy as np
import pytest

from pacedrank import embed, trainer
from pacedrank.core import EmbeddingParams, ImportanceVector, build_tetrads
from pacedrank.data import SplitSpec, SynthSpec, split, synth_generate
from pacedrank.errors import (
    ConfigInvalid,
    CorruptCheckpoint,
    NonFiniteObjective,
    VersionMismatch,
)
from pacedrank.loss import Block, all_losses, block_losses, grad_loss_term, grad_params, ridge_value, smooth_part
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
        out, steps, _ = optimize_W(params, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg))
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
        out, steps, _ = optimize_W(zero, dataset, blocks, cfg, smooth_value(zero, dataset, blocks, cfg))
        assert steps == 1
        assert params_equal(out, zero)

    def test_value_sequence_non_increasing(self, monkeypatch):
        dataset, params, tetrads, v = random_instance(63)
        cfg = TrainConfig(max_inner_steps=30)
        blocks = [Block(tetrads, "i2t", v)]
        values, accepted = [], []  # each search's current value, then its accepted value
        real_search = trainer.line_search

        def recording_search(params, grad, value_fn, current_value, cfg, rejects=None):
            step, new_params, new_value = real_search(params, grad, value_fn, current_value, cfg, rejects)
            values.append(current_value)
            if step > 0.0:
                values.append(new_value)
                accepted.append(step)
            return step, new_params, new_value

        monkeypatch.setattr(trainer, "line_search", recording_search)
        optimize_W(params, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg))
        assert accepted
        assert (np.diff(values) <= 0.0).all()

    def test_nan_params_raise(self):
        dataset, params, tetrads, v = random_instance(64)
        bad = EmbeddingParams(params.W1 * np.nan, params.b1, params.W2, params.b2)
        blocks = [Block(tetrads, "i2t", v)]
        cfg = TrainConfig()
        with pytest.raises(NonFiniteObjective):
            optimize_W(bad, dataset, blocks, cfg, smooth_value(params, dataset, blocks, cfg))


def tiny_corpus(seed=0, n=30):
    return synth_generate(SynthSpec(n=n, latent=3, p=8, q=8, noise=0.1, seed=seed))


def unshared_optimize_W(params, dataset, blocks, cfg, value, losses=None, fwd=None):
    """Reference W-step in which no forward pass is shared.

    Every block embeds and scores each line-search trial itself, every
    gradient runs its own pass (the given fwd is ignored), and the losses
    at the final params come from one more pass per block. It hands back
    no pass.
    """
    lcfg = cfg.loss_config()
    norm = cfg.normalized_similarity

    def losses_at(p):
        return [all_losses(p, dataset, b.tetrads, lcfg, b.direction, norm) for b in blocks]

    def gradient(p):
        g = EmbeddingParams(p.W1, np.zeros_like(p.b1), p.W2, np.zeros_like(p.b2))
        return g.axpy(1.0, grad_loss_term(p, dataset, blocks, lcfg, norm))

    steps = 0
    for _ in range(cfg.max_inner_steps):
        steps += 1
        step, new_params, new_value = line_search(
            params, gradient(params), lambda p: smooth_part(p, blocks, losses_at(p)), value, cfg
        )
        if step == 0.0:
            break
        rel = (value - new_value) / max(1.0, abs(value))
        params, value = new_params, new_value
        if rel < cfg.rel_tol:
            break
    losses[:] = losses_at(params)
    return params, steps, None


SHARED_PASS_MODES = {
    "full-raw-i2t": {},
    # 2 x 40 x 4 tetrads at n = 40 are a share of 0.2 of the score matrix: a gathered pass
    "sampled-sym-cosine": dict(sample_negatives=4, symmetric_tetrads=True, normalized_similarity=True),
}


def history_rows(history):
    return [
        {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in dataclasses.asdict(r).items()}
        for r in history.records
    ]


class TestSharedForwardPass:
    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_train_equals_unshared_reference_bitwise(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, **SHARED_PASS_MODES[mode])
        params, history = train(ds, cfg)
        monkeypatch.setattr(trainer, "optimize_W", unshared_optimize_W)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3 and sum(r.inner_steps for r in history.records) > 3
        for a, b in zip(params.arrays, ref_params.arrays):
            assert a.tobytes() == b.tobytes()
        assert history_rows(history) == history_rows(ref_history)

    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_w_step_scores_each_point_once(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(embedding_dim=4, max_inner_steps=6, seed=3, **SHARED_PASS_MODES[mode])
        rng = np.random.default_rng(5)
        params = init_params(rng, cfg.embedding_dim, ds.p, ds.q)
        blocks = []
        for direction in ("i2t", "t2i") if cfg.symmetric_tetrads else ("i2t",):
            tetrads = build_tetrads(ds, cfg.sample_negatives, cfg.seed)
            blocks.append(Block(tetrads, direction, ImportanceVector(rng.uniform(size=tetrads.total), tetrads.offsets)))
        value = smooth_value(params, ds, blocks, cfg)
        losses = block_losses(params, ds, blocks, cfg.loss_config(), cfg.normalized_similarity)

        passes, scored, evals = [], [], []
        real_embed, real_scores, real_search = embed.embed_images, embed.inner_scores, trainer.line_search

        def counting_embed(params, X):  # both forms of the pass embed the images once
            passes.append(params)
            return real_embed(params, X)

        def counting_scores(H, G):
            scored.append(H.shape)
            return real_scores(H, G)

        def counting_search(params, grad, value_fn, current_value, cfg, rejects=None):
            def counted(p):
                evals.append(p)
                return value_fn(p)
            return real_search(params, grad, counted, current_value, cfg, rejects)

        monkeypatch.setattr(embed, "embed_images", counting_embed)
        monkeypatch.setattr(embed, "inner_scores", counting_scores)
        monkeypatch.setattr(trainer, "line_search", counting_search)
        out, steps, _ = optimize_W(params, ds, blocks, cfg, value, losses=losses)
        assert steps >= 2
        assert len(passes) == len(evals) + 1
        # a full set's passes score the dense matrix; a sampled W-step's are all gathered
        assert len(scored) == (0 if cfg.sample_negatives else len(passes))
        want = block_losses(out, ds, blocks, cfg.loss_config(), cfg.normalized_similarity)
        assert [a.values.tobytes() for a in losses] == [b.values.tobytes() for b in want]

    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_train_scores_each_point_once(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, **SHARED_PASS_MODES[mode])
        passes, evals, steps = [], [], []
        real_embed, real_search = embed.embed_images, trainer.line_search

        def counting_embed(params, X):
            passes.append(params)
            return real_embed(params, X)

        def counting_search(params, grad, value_fn, current_value, cfg, rejects=None):
            def counted(p):
                evals.append(p)
                return value_fn(p)
            out = real_search(params, grad, counted, current_value, cfg, rejects)
            steps.append(out[0])
            return out

        monkeypatch.setattr(embed, "embed_images", counting_embed)
        monkeypatch.setattr(trainer, "line_search", counting_search)
        _, history = train(ds, cfg)
        assert len(history) == 3 and all(s > 0.0 for s in steps)
        # the initial params, then each scored trial; no W-step re-scores its entry point
        assert len(passes) == len(evals) + 1


def floor_free_line_search(params, grad, value_fn, current_value, cfg, within_floor=None):
    """line_search without its ridge floor: every trial is scored.

    within_floor, when given, collects each trial whose ridge does not
    exceed its Armijo bound: the trials the floor passes on to value_fn.
    """
    gnorm2 = grad.norm_sq()
    if gnorm2 == 0.0:
        return 0.0, params, current_value
    step = cfg.initial_step
    for _ in range(trainer.MAX_BACKTRACKS):
        trial = params.axpy(-step, grad)
        value = value_fn(trial)
        bound = current_value - cfg.sufficient_decrease * step * gnorm2
        if within_floor is not None and not ridge_value(trial) > bound:
            within_floor.append(trial)
        if np.isfinite(value) and value <= current_value - cfg.sufficient_decrease * step * gnorm2:
            return step, trial, value
        step *= cfg.shrink_factor
    return 0.0, params, current_value


def params_bytes(p):
    return b"".join(a.tobytes() for a in p.arrays)


def scored_and_expected(params, grad, value_fn, current_value, cfg):
    """Run line_search and its floor-free copy on the same inputs.

    Returns both results, the trials line_search scored and the trials the
    floor-free copy found within the floor, each as parameter bytes.
    """
    scored, within = [], []

    def counted(p):
        scored.append(params_bytes(p))
        return value_fn(p)

    got = line_search(params, grad, counted, current_value, cfg)
    want = floor_free_line_search(params, grad, value_fn, current_value, cfg, within)
    return got, want, scored, [params_bytes(p) for p in within]


def assert_same_search(got, want):
    assert got[0] == want[0]
    assert params_bytes(got[1]) == params_bytes(want[1])
    assert np.array_equal(got[2], want[2], equal_nan=True)


# Searches from W1 = [[1.0]] along gradient g: (g, current value, sufficient decrease)
EDGE_SEARCHES = {
    # step 1 lands on 0 and step 0.5 on 0.5; both ridges equal their bounds exactly
    "ridge-on-bound": (1.0, 0.25, 0.25),
    # gnorm2 = 1e308: the bound turns positive only at step 2^-14, yet from step 2^-13
    # on the ridge lies below the current value
    "huge-gnorm2": (1e154, 1e300, 1e-4),
    # gnorm2 overflows to inf, so every bound is -inf and no trial is scored
    "infinite-gnorm2": (1e155, 1e300, 1e-4),
}
VALUE_FNS = {"ridge": ridge_value, "nan": lambda p: np.nan, "inf": lambda p: np.inf}


class TestRidgeFloor:
    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_train_equals_floor_free_bitwise(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        # a sufficient decrease of 0.1 puts some ruled-out trials' ridges below the current value
        cfg = TrainConfig(
            embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, sufficient_decrease=0.1,
            **SHARED_PASS_MODES[mode],
        )
        scored, within, trials = [], [], []

        def counting_search(params, grad, value_fn, current_value, cfg, rejects=None):
            def counted(p):
                scored.append(params_bytes(p))
                return value_fn(p)
            # the ridge floor alone: the prefix test (TestPrefixFloor) is not passed on
            return line_search(params, grad, counted, current_value, cfg)

        monkeypatch.setattr(trainer, "line_search", counting_search)
        params, history = train(ds, cfg)

        def floor_free(params, grad, value_fn, current_value, cfg, rejects=None):
            def counted(p):
                trials.append(p)
                return value_fn(p)
            return floor_free_line_search(params, grad, counted, current_value, cfg, within)

        monkeypatch.setattr(trainer, "line_search", floor_free)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3
        assert params_bytes(params) == params_bytes(ref_params)
        assert history_rows(history) == history_rows(ref_history)
        # the floor rules trials out, and exactly those whose ridge exceeds the bound
        assert scored == [params_bytes(p) for p in within]
        assert len(scored) < len(trials)

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_value_fn_skips_only_trials_above_the_floor(self, seed):
        # at n = 30 the leading trials' ridges exceed their bounds, some of them
        # while still below the current value
        dataset, params, tetrads, v = random_instance(seed, n=30)
        cfg = TrainConfig(margin=0.2, sufficient_decrease=0.5)
        blocks = [Block(tetrads, "i2t", v)]
        f = lambda p: smooth_value(p, dataset, blocks, cfg)
        grad = grad_params(params, dataset, blocks, cfg.loss_config())
        got, want, scored, within = scored_and_expected(params, grad, f, f(params), cfg)
        assert got[0] > 0.0
        assert_same_search(got, want)
        assert scored == within
        # the accepted trial is the last one scored, after at least one ruled out
        assert scored[-1] == params_bytes(got[1])
        trials = round(np.log2(cfg.initial_step / got[0])) + 1
        assert len(scored) < trials

    @pytest.mark.parametrize("value", VALUE_FNS)
    @pytest.mark.parametrize("case", EDGE_SEARCHES)
    def test_edge_values_equal_floor_free(self, case, value):
        g, current_value, c = EDGE_SEARCHES[case]
        grad = EmbeddingParams(np.array([[g]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        cfg = TrainConfig(sufficient_decrease=c)
        with np.errstate(over="ignore"):  # gnorm2 and the large steps' ridges overflow to inf
            got, want, scored, within = scored_and_expected(
                scalar_params(1.0), grad, VALUE_FNS[value], current_value, cfg
            )
        assert_same_search(got, want)
        assert scored == within
        if case != "infinite-gnorm2":
            assert scored  # trials on or below the bound are scored


PREFIX_MODES = {
    "full-raw-i2t": ({}, True),
    "full-cosine-sym": (dict(symmetric_tetrads=True, normalized_similarity=True), True),
    # 40 x 12 tetrads at n = 40 are a share of 0.3 of the score matrix: a dense pass
    "sampled-raw-i2t": (dict(sample_negatives=12), True),
    # a gathered pass costs about what the prefix would, so no prefix runs
    "sampled-sym-cosine": (SHARED_PASS_MODES["sampled-sym-cosine"], False),
}


class TestPrefixFloor:
    @pytest.mark.parametrize("mode", PREFIX_MODES)
    def test_train_equals_floor_free_bitwise(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        options, dense = PREFIX_MODES[mode]
        cfg = TrainConfig(
            embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, sufficient_decrease=0.1, **options
        )
        by_prefix, tests = [], []

        def counting_search(params, grad, value_fn, current_value, cfg, rejects=None):
            tests.append(rejects)

            def counted_rejects(trial, bound):
                out = rejects(trial, bound)
                if out and not ridge_value(trial) > bound:
                    by_prefix.append(trial)
                    assert not value_fn(trial) <= bound  # the decision value_fn's result gives
                return out
            return line_search(params, grad, value_fn, current_value, cfg, rejects and counted_rejects)

        monkeypatch.setattr(trainer, "line_search", counting_search)
        params, history = train(ds, cfg)

        def floor_free(params, grad, value_fn, current_value, cfg, rejects=None):
            return floor_free_line_search(params, grad, value_fn, current_value, cfg)

        monkeypatch.setattr(trainer, "line_search", floor_free)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3
        assert params_bytes(params) == params_bytes(ref_params)
        assert history_rows(history) == history_rows(ref_history)
        assert all((t is not None) == dense for t in tests)
        if dense:
            assert by_prefix  # not vacuous: some trial within the ridge floor was rejected unscored


class TestTrain:
    def test_params_are_read_only(self):
        params, _ = train(tiny_corpus(), TrainConfig(embedding_dim=4, max_outer_iters=1, seed=5))
        stepped = params.axpy(-0.5, params)
        for p in (params, stepped):
            for arr in p.arrays:
                assert not arr.flags.writeable
        with pytest.raises(ValueError):
            params.W1[0, 0] = 5.0
        with pytest.raises(ValueError):
            stepped.b2[0] = 5.0

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
        with pytest.raises(ConfigInvalid, match="margin"):  # too large for a float
            TrainConfig(margin=10**400).validate()


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

    def test_embedding_dim_disagreeing_with_params(self, tmp_path):
        path = tmp_path / "model.bin"
        self.write_edited_header(path, lambda header: header["config"].update({"embedding_dim": 10}))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect", ["nan", "short-bias", "ragged-dim", "matrix-bias", "zero-dim"])
    def test_inconsistent_params(self, tmp_path, defect):
        # the constructor does not validate, so save_checkpoint writes these
        # with a valid digest
        ckpt = self.make()
        W1, b1, W2, b2 = (a.copy() for a in ckpt.params.arrays)
        if defect == "nan":
            W2[1, 2] = np.nan
        elif defect == "short-bias":
            b1 = b1[:2]
        elif defect == "ragged-dim":
            W2 = W2[:2]
        elif defect == "matrix-bias":
            b2 = np.stack([b2, b2], axis=1)
        else:
            W1, b1, W2, b2 = W1[:0], b1[:0], W2[:0], b2[:0]
        path = tmp_path / "model.bin"
        save_checkpoint(path, dataclasses.replace(ckpt, params=EmbeddingParams(W1, b1, W2, b2)))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_save_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(a, self.make())
        save_checkpoint(b, self.make())
        assert a.read_bytes() == b.read_bytes()
