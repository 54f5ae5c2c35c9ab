import dataclasses
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from pacedrank import embed, loss, trainer
from pacedrank.core import EmbeddingParams, ImportanceVector, build_tetrads, validate_dataset
from pacedrank.data import SplitSpec, SynthSpec, split, synth_generate
from pacedrank.errors import (
    ConfigInvalid,
    CorruptCheckpoint,
    DimensionMismatch,
    NonFiniteObjective,
    VersionMismatch,
)
from pacedrank.loss import (
    Block, all_losses, block_losses, floor_listing, grad_loss_term, grad_params, ridge_value, smooth_part,
)
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

from conftest import at_point, point, random_instance


def params_equal(a: EmbeddingParams, b: EmbeddingParams) -> bool:
    return (
        np.array_equal(a.W1, b.W1)
        and np.array_equal(a.b1, b.b1)
        and np.array_equal(a.W2, b.W2)
        and np.array_equal(a.b2, b.b2)
    )


def losses_at(params, dataset, blocks, cfg):
    """Each block's losses at params, from one pass."""
    fwd = point(params, dataset, blocks, cfg.normalized_similarity)
    return block_losses(params, dataset, blocks, cfg.loss_config(), fwd)


def embedding_at(params, dataset, cfg):
    """The embedding at params, which optimize_W is handed with them."""
    return embed.forward(params, dataset, cfg.normalized_similarity)


def smooth_value(params, dataset, blocks, cfg):
    return smooth_part(params, blocks, losses_at(params, dataset, blocks, cfg))


def scalar_params(w):
    return EmbeddingParams.from_arrays([[w]], [0.0], [[0.0]], [0.0])


def unbounded(f):
    """f(p) as a line-search value_fn, which is also handed the trial's Armijo bound."""
    return lambda p, bound: f(p)


class TestLineSearch:
    def test_quadratic_accepts_first_try(self):
        params = scalar_params(1.0)
        grad = EmbeddingParams(np.array([[1.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        step, new_params, value = line_search(
            params, grad, unbounded(ridge_value), 0.5, TrainConfig(initial_step=1.0)
        )
        assert step == 1.0
        assert value == 0.0
        assert new_params.W1[0, 0] == 0.0

    def test_zero_gradient_returns_step_zero(self):
        params = scalar_params(1.0)
        zero = EmbeddingParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        step, new_params, value = line_search(params, zero, unbounded(ridge_value), 0.5, TrainConfig())
        assert step == 0.0
        assert params_equal(new_params, params)

    def test_armijo_inequality_holds(self):
        dataset, params, tetrads, v = random_instance(60)
        cfg = TrainConfig(margin=0.2)
        blocks = [Block(tetrads, "i2t", v)]
        f = lambda p: smooth_value(p, dataset, blocks, cfg)
        f0 = f(params)
        grad = grad_params(params, dataset, blocks, *at_point(params, dataset, blocks, cfg.loss_config()))
        step, _, value = line_search(params, grad, unbounded(f), f0, cfg)
        assert step > 0.0
        assert value <= f0 - cfg.sufficient_decrease * step * grad.norm_sq()


class TestOptimizeW:
    def test_zero_weights_converge_to_zero_matrices(self):
        dataset, params, tetrads, _ = random_instance(61)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        cfg = TrainConfig(max_inner_steps=200, rel_tol=1e-12)
        blocks = [Block(tetrads, "i2t", v)]
        out, _, steps, _ = optimize_W(params, dataset, blocks, cfg, embedding_at(params, dataset, cfg))
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
        out, _, steps, _ = optimize_W(zero, dataset, blocks, cfg, embedding_at(zero, dataset, cfg))
        assert steps == 1
        assert params_equal(out, zero)

    def test_value_sequence_non_increasing(self, monkeypatch):
        dataset, params, tetrads, v = random_instance(63)
        cfg = TrainConfig(max_inner_steps=30)
        blocks = [Block(tetrads, "i2t", v)]
        values, accepted = [], []  # each search's current value, then its accepted value
        real_search = trainer.line_search

        def recording_search(params, grad, value_fn, current_value, cfg):
            step, new_params, new_value = real_search(params, grad, value_fn, current_value, cfg)
            values.append(current_value)
            if step > 0.0:
                values.append(new_value)
                accepted.append(step)
            return step, new_params, new_value

        monkeypatch.setattr(trainer, "line_search", recording_search)
        optimize_W(params, dataset, blocks, cfg, embedding_at(params, dataset, cfg))
        assert accepted
        assert (np.diff(values) <= 0.0).all()

    def test_nan_params_raise(self):
        dataset, params, tetrads, v = random_instance(64)
        bad = EmbeddingParams(params.W1 * np.nan, params.b1, params.W2, params.b2)
        blocks = [Block(tetrads, "i2t", v)]
        cfg = TrainConfig()
        with pytest.raises(NonFiniteObjective, match="value"):
            optimize_W(bad, dataset, blocks, cfg, embedding_at(bad, dataset, cfg))

    def test_nan_gradient_raises(self, monkeypatch):
        dataset, params, tetrads, v = random_instance(64)
        blocks = [Block(tetrads, "i2t", v)]
        cfg = TrainConfig()
        nan = EmbeddingParams(*(np.full_like(a, np.nan) for a in params.arrays))
        monkeypatch.setattr(trainer, "grad_params", lambda *args: nan)
        with pytest.raises(NonFiniteObjective, match="gradient"):
            optimize_W(params, dataset, blocks, cfg, embedding_at(params, dataset, cfg))


def tiny_corpus(seed=0, n=30):
    return synth_generate(SynthSpec(n=n, latent=3, p=8, q=8, noise=0.1, seed=seed))


def unshared_optimize_W(params, dataset, blocks, cfg, emb):
    """Reference W-step in which no forward pass is shared.

    Every block embeds and scores its entry point and each line-search trial
    itself, with no floor (the given emb is ignored), every gradient runs its
    own pass, and the losses at the final params come from one more pass per
    block. Its value is summed again from those losses, and the embedding it
    hands back is the final params embedded once more.
    """
    lcfg = cfg.loss_config()
    norm = cfg.normalized_similarity

    def losses_at(p):
        return [all_losses(p, dataset, b.tetrads, lcfg, b.direction, norm) for b in blocks]

    value = smooth_part(params, blocks, losses_at(params))

    def gradient(p):
        g = EmbeddingParams(p.W1, np.zeros_like(p.b1), p.W2, np.zeros_like(p.b2))
        return g.axpy(1.0, grad_loss_term(p, dataset, blocks, losses_at(p), point(p, dataset, blocks, norm)))

    steps = 0
    for _ in range(cfg.max_inner_steps):
        steps += 1
        step, new_params, new_value = line_search(
            params, gradient(params), unbounded(lambda p: smooth_part(p, blocks, losses_at(p))), value, cfg
        )
        if step == 0.0:
            break
        rel = (value - new_value) / max(1.0, abs(value))
        params, value = new_params, new_value
        if rel < cfg.rel_tol:
            break
    return params, smooth_part(params, blocks, losses_at(params)), steps, embed.forward(params, dataset, norm)


SHARED_PASS_MODES = {
    "full-raw-i2t": {},
    # 2 x 40 x 4 tetrads at n = 40 are a share of 0.2 of the score matrix, and the W-step's
    # selected ones fewer still: every pass is gathered
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
        gradients = []
        real_grad = trainer.grad_params

        def checked_gradient(params, dataset, blocks, losses, fwd):
            # the losses handed over are the ones a fresh pass at the same params gives
            fresh = losses_at(params, dataset, blocks, cfg)
            assert [x.values.tobytes() for x in losses] == [x.values.tobytes() for x in fresh]
            gradients.append(params)
            return real_grad(params, dataset, blocks, losses, fwd)

        monkeypatch.setattr(trainer, "grad_params", checked_gradient)
        params, history = train(ds, cfg)
        monkeypatch.setattr(trainer, "optimize_W", unshared_optimize_W)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3 and len(gradients) == sum(r.inner_steps for r in history.records) > 3
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
        emb = embedding_at(params, ds, cfg)

        passes, scored, within, full = [], [], [], []
        real_embed, real_scores, real_search = embed.embed_images, embed.inner_scores, trainer.line_search
        real_pass = trainer.forward_pass

        def counting_embed(params, X):  # each trial embeds the images once; the entry's embedding is handed over
            passes.append(params)
            return real_embed(params, X)

        def counting_scores(H, G):
            scored.append(H.shape)
            return real_scores(H, G)

        def counting_search(params, grad, value_fn, current_value, cfg):
            def counted(p, bound):
                if not ridge_value(p) > bound:
                    within.append(p)
                return value_fn(p, bound)
            return real_search(params, grad, counted, current_value, cfg)

        def counting_pass(emb, blocks):
            full.append(emb)
            return real_pass(emb, blocks)

        monkeypatch.setattr(embed, "embed_images", counting_embed)
        monkeypatch.setattr(embed, "inner_scores", counting_scores)
        monkeypatch.setattr(trainer, "line_search", counting_search)
        for module in (trainer, loss):  # the entry point's pass and the trials'
            monkeypatch.setattr(module, "forward_pass", counting_pass)
        out, value, steps, _ = optimize_W(params, ds, blocks, cfg, emb)
        assert steps >= 2
        assert len(passes) == len(within)
        # each full pass of a full set scores the dense matrix (the floor gathers
        # its listed pairs and rejects some trials: they get no full pass); a
        # sampled W-step's passes are all gathered
        assert sum(shape[0] == ds.n for shape in scored) == (0 if cfg.sample_negatives else len(full))
        assert len(full) <= len(passes) + 1  # the entry point's pass, from the embedding handed over
        assert value.hex() == smooth_value(out, ds, blocks, cfg).hex()

    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_train_scores_each_point_once(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, **SHARED_PASS_MODES[mode])
        passes, within, steps = [], [], []
        real_embed, real_search = embed.embed_images, trainer.line_search

        def counting_embed(params, X):
            passes.append(params)
            return real_embed(params, X)

        def counting_search(params, grad, value_fn, current_value, cfg):
            def counted(p, bound):
                if not ridge_value(p) > bound:
                    within.append(p)
                return value_fn(p, bound)
            out = real_search(params, grad, counted, current_value, cfg)
            steps.append(out[0])
            return out

        monkeypatch.setattr(embed, "embed_images", counting_embed)
        monkeypatch.setattr(trainer, "line_search", counting_search)
        _, history = train(ds, cfg)
        assert len(history) == 3 and all(s > 0.0 for s in steps)
        # the initial params, then each trial the ridge floor passes; no W-step
        # re-embeds its entry point, and no trial is embedded twice
        assert len(passes) == len(within) + 1


def floor_free_line_search(params, grad, value_fn, current_value, cfg, within_floor=None):
    """line_search with every trial scored in full: value_fn is asked with an infinite bound.

    within_floor, when given, collects each trial whose ridge does not
    exceed its Armijo bound: the trials the W-step's ridge floor passes.
    """
    gnorm2 = grad.norm_sq()
    if gnorm2 == 0.0:
        return 0.0, params, current_value
    if not np.isfinite(gnorm2):
        raise NonFiniteObjective("the gradient's squared norm overflows")
    step = cfg.initial_step
    for _ in range(trainer.MAX_BACKTRACKS):
        trial = params.axpy(-step, grad)
        value = value_fn(trial, np.inf)
        bound = current_value - cfg.sufficient_decrease * step * gnorm2
        if within_floor is not None and not ridge_value(trial) > bound:
            within_floor.append(trial)
        if np.isfinite(value) and value <= current_value - cfg.sufficient_decrease * step * gnorm2:
            return step, trial, value
        step *= cfg.shrink_factor
    return 0.0, params, current_value


def params_bytes(p):
    return b"".join(a.tobytes() for a in p.arrays)


def searched(search, *args):
    """search(*args), or the message of the NonFiniteObjective it raised."""
    try:
        return search(*args)
    except NonFiniteObjective as exc:
        return str(exc)


def assert_same_search(got, want):
    if isinstance(want, str):  # the search raised
        assert got == want
        return
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
    # gnorm2 overflows to inf, so every bound would be -inf: the search raises before
    # any trial is scored
    "infinite-gnorm2": (1e155, 1e300, 1e-4),
}
OVERFLOW = "the gradient's squared norm overflows"
VALUE_FNS = {"ridge": ridge_value, "nan": lambda p: np.nan, "inf": lambda p: np.inf}


def no_listed_floor(*args):
    """loss.floor_rejects switched off: the ridge floor alone rules trials out."""
    return False


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
        real_pass = trainer.forward_pass

        def counting_pass(emb, blocks):
            scored.append(emb)
            return real_pass(emb, blocks)

        def recording_search(params, grad, value_fn, current_value, cfg):
            def recorded(p, bound):
                trials.append(p)
                if not ridge_value(p) > bound:
                    within.append(p)
                return value_fn(p, bound)
            return line_search(params, grad, recorded, current_value, cfg)

        monkeypatch.setattr(trainer, "floor_rejects", no_listed_floor)
        monkeypatch.setattr(trainer, "forward_pass", counting_pass)
        monkeypatch.setattr(trainer, "line_search", recording_search)
        params, history = train(ds, cfg)
        # the floor rules trials out, and exactly those whose ridge exceeds the bound:
        # the others each get one full pass. The other passes are train's entry pass
        # and, per W-step, its entry point's pass and the full set's pass for the weight solve.
        assert scored[1:] and len(scored) == 1 + len(within) + 2 * len(history)
        assert len(within) < len(trials)
        monkeypatch.setattr(trainer, "line_search", floor_free_line_search)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3
        assert params_bytes(params) == params_bytes(ref_params)
        assert history_rows(history) == history_rows(ref_history)

    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_value_fn_skips_only_trials_above_the_floor(self, monkeypatch, seed):
        # at n = 30 the leading trials' ridges exceed their bounds, some of them
        # while still below the current value. The W-step's value_fn embeds each
        # trial the ridge floor passes exactly once, listed floor or full pass.
        dataset, params, tetrads, v = random_instance(seed, n=30)
        cfg = TrainConfig(margin=0.2, sufficient_decrease=0.5, max_inner_steps=1)
        blocks = [Block(tetrads, "i2t", v)]
        emb = embedding_at(params, dataset, cfg)
        embedded, trials, within, results = [], [], [], []
        real_embed = embed.embed_images

        def counting_embed(p, X):
            embedded.append(params_bytes(p))
            return real_embed(p, X)

        def recording_search(params, grad, value_fn, current_value, cfg):
            def recorded(p, bound):
                trials.append(params_bytes(p))
                if not ridge_value(p) > bound:
                    within.append(params_bytes(p))
                return value_fn(p, bound)
            results.append(line_search(params, grad, recorded, current_value, cfg))
            f = unbounded(lambda p: smooth_value(p, dataset, blocks, cfg))
            monkeypatch.setattr(embed, "embed_images", real_embed)  # the reference's embeddings go uncounted
            results.append(floor_free_line_search(params, grad, f, current_value, cfg))
            monkeypatch.setattr(embed, "embed_images", counting_embed)
            return results[0]

        monkeypatch.setattr(embed, "embed_images", counting_embed)
        monkeypatch.setattr(trainer, "line_search", recording_search)
        optimize_W(params, dataset, blocks, cfg, emb)
        got, want = results
        assert got[0] > 0.0
        assert_same_search(got, want)
        n_trials = round(np.log2(cfg.initial_step / got[0])) + 1
        assert len(trials) == n_trials and len(within) < n_trials
        # one embedding per trial within the floor; the entry point's is handed over
        assert embedded == within
        assert within[-1] == params_bytes(got[1])

    @pytest.mark.parametrize("case", EDGE_SEARCHES)
    def test_w_step_value_fn_at_the_floor_edges(self, monkeypatch, case):
        # optimize_W's own value_fn on a one-feature corpus. With W2 = 0 every text
        # embeds alike, so each tetrad's hinge is the margin and f = ridge + a constant.
        g, current_value, c = EDGE_SEARCHES[case]
        x = np.arange(4.0)[:, None]
        dataset = validate_dataset(x, x)
        tetrads = build_tetrads(dataset)
        blocks = [Block(tetrads, "i2t", ImportanceVector(np.ones(tetrads.total), tetrads.offsets))]
        cfg = TrainConfig(sufficient_decrease=c, max_inner_steps=1)
        f = lambda p: smooth_value(p, dataset, blocks, cfg)
        params = scalar_params(1.0)
        value, ridge = f(params), ridge_value(params)
        grad = EmbeddingParams(np.array([[g]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        value_fns, within, embedded, passes = [], [], [], []
        real_embed, real_pass = embed.embed_images, trainer.forward_pass

        def capturing_search(params, grad, value_fn, current_value, cfg):
            value_fns.append(value_fn)
            return 0.0, params, current_value

        def counting_embed(p, X):
            embedded.append(params_bytes(p))
            return real_embed(p, X)

        def counting_pass(emb, blocks):
            passes.append(emb)
            return real_pass(emb, blocks)

        monkeypatch.setattr(trainer, "line_search", capturing_search)
        # the listed floor would reject some trials the ridge floor passes: this is the ridge floor's test
        monkeypatch.setattr(trainer, "floor_rejects", no_listed_floor)
        optimize_W(params, dataset, blocks, cfg, embedding_at(params, dataset, cfg))
        (value_fn,) = value_fns
        with np.errstate(over="ignore"):  # gnorm2, the large steps' ridges and sigmoids overflow
            want = searched(floor_free_line_search, params, grad, unbounded(f), current_value, cfg, within)
            monkeypatch.setattr(embed, "embed_images", counting_embed)
            monkeypatch.setattr(trainer, "forward_pass", counting_pass)
            got = searched(line_search, params, grad, value_fn, current_value, cfg)
        assert (want == OVERFLOW) == (case == "infinite-gnorm2")
        assert_same_search(got, want)
        # exactly the trials whose ridge does not exceed the bound are embedded and scored
        assert embedded == [params_bytes(p) for p in within]
        assert len(passes) == len(within)
        if case != "infinite-gnorm2":
            assert within  # the floor's edge is reached, not only trials far from it

        # a ridge exactly on the bound is scored in full; just below it, the ridge is returned
        embedded.clear()
        passes.clear()
        assert value_fn(params, ridge) == value > ridge
        assert embedded == [params_bytes(params)] and len(passes) == 1
        below = np.nextafter(ridge, -np.inf)
        assert value_fn(params, below) == ridge
        assert len(embedded) == 1 and len(passes) == 1

    @pytest.mark.parametrize("value", VALUE_FNS)
    @pytest.mark.parametrize("case", EDGE_SEARCHES)
    def test_edge_values_equal_floor_free(self, case, value):
        # each trial's value_fn is handed the trial's Armijo bound, even where it overflows;
        # where gnorm2 overflows, no trial is scored and both searches raise
        g, current_value, c = EDGE_SEARCHES[case]
        grad = EmbeddingParams(np.array([[g]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        cfg = TrainConfig(sufficient_decrease=c)
        bounds = []

        def recorded(p, bound):
            bounds.append(bound)
            return VALUE_FNS[value](p)

        with np.errstate(over="ignore"):  # gnorm2 and the large steps' ridges overflow to inf
            got = searched(line_search, scalar_params(1.0), grad, recorded, current_value, cfg)
            want = searched(floor_free_line_search, scalar_params(1.0), grad, unbounded(VALUE_FNS[value]), current_value, cfg)
            gnorm2 = grad.norm_sq()
            steps = cfg.initial_step * cfg.shrink_factor ** np.arange(len(bounds))
            assert bounds == [current_value - c * step * gnorm2 for step in steps]
        assert (want == OVERFLOW) == (case == "infinite-gnorm2")
        assert_same_search(got, want)


PREFIX_MODES = {
    # in both full modes the W-step's blocks, cut down to their selected tetrads (from
    # about half of each block's 1560 up), are sets other than the full one, read from
    # dense passes
    "full-raw-i2t": {},
    "full-cosine-sym": dict(symmetric_tetrads=True, normalized_similarity=True),
    # 40 x 12 tetrads at n = 40 are a share of 0.3 of the score matrix, so the weight
    # solve's pass is dense; the selected ones (about 270 to 340) are a share below 0.25,
    # so the W-step's passes are gathered
    "sampled-raw-i2t": dict(sample_negatives=12),
    # gathered passes only, which try the floor as dense ones do
    "sampled-sym-cosine": SHARED_PASS_MODES["sampled-sym-cosine"],
}


def listing_bytes(active):
    return [a.tobytes() for a in dataclasses.astuple(active)]


class TestPrefixFloor:
    @pytest.mark.parametrize("mode", PREFIX_MODES)
    def test_train_equals_floor_free_bitwise(self, monkeypatch, mode):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(
            embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, sufficient_decrease=0.1,
            **PREFIX_MODES[mode],
        )
        lcfg, normalized = cfg.loss_config(), cfg.normalized_similarity
        current, checks = {}, []
        searches = []  # per line search, in order: "trial" for each trial within the ridge floor, and each check's outcome
        real_floor, real_grad = trainer.floor_rejects, trainer.grad_params

        def listing_gradient(params, dataset, blocks, losses, fwd):
            current["point"] = params
            return real_grad(params, dataset, blocks, losses, fwd)

        def tracking_search(params, grad, value_fn, current_value, cfg):
            events = []
            searches.append(events)

            def tracked(p, bound):
                current["trial"] = p
                if not ridge_value(p) > bound:
                    events.append("trial")
                return value_fn(p, bound)
            return line_search(params, grad, tracked, current_value, cfg)

        def checked_floor(emb, blocks, cfg, listed, ridge, bound):
            # the floor listing at the point whose gradient the search follows
            at = point(current["point"], ds, blocks, normalized)
            want = [floor_listing(b, at, lcfg.margin) for b in blocks]
            assert [listing_bytes(a) for a in listed] == [listing_bytes(a) for a in want]
            out = real_floor(emb, blocks, cfg, listed, ridge, bound)
            checks.append(out)
            searches[-1].append("rejected" if out else "fell through")
            if out:  # the decision value_fn's full result gives
                p = current["trial"]
                assert not ridge > bound
                full = block_losses(p, ds, blocks, lcfg, point(p, ds, blocks, normalized))
                assert not smooth_part(p, blocks, full) <= bound
            return out

        monkeypatch.setattr(trainer, "grad_params", listing_gradient)
        monkeypatch.setattr(trainer, "line_search", tracking_search)
        monkeypatch.setattr(trainer, "floor_rejects", checked_floor)
        params, history = train(ds, cfg)
        # not vacuous on either pass form: some trial within the ridge floor was rejected unscored
        assert any(checks)
        # once a trial falls through to a full pass, no later trial of its search is
        # checked, and here some are scored in full
        after = [events[events.index("fell through") + 1:] for events in searches if "fell through" in events]
        assert all(rest.count("trial") == len(rest) for rest in after)
        assert any(after)
        monkeypatch.setattr(trainer, "line_search", floor_free_line_search)
        ref_params, ref_history = train(ds, cfg)
        assert len(history) == 3
        assert params_bytes(params) == params_bytes(ref_params)
        assert history_rows(history) == history_rows(ref_history)


class TestSelectedWStep:
    @pytest.mark.parametrize("zero_block", [False, True], ids=["some-zero", "last-block-all-zero"])
    @pytest.mark.parametrize("mode", PREFIX_MODES)
    def test_equals_full_blocks_bitwise(self, mode, zero_block):
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(
            embedding_dim=4, max_inner_steps=6, seed=3, sufficient_decrease=0.1, **PREFIX_MODES[mode],
        )
        normalized = cfg.normalized_similarity
        rng = np.random.default_rng(7)
        params = init_params(rng, cfg.embedding_dim, ds.p, ds.q)
        blocks = []
        for direction in ("i2t", "t2i") if cfg.symmetric_tetrads else ("i2t",):
            tetrads = build_tetrads(ds, cfg.sample_negatives, cfg.seed)
            values = rng.uniform(size=tetrads.total)
            values[rng.uniform(size=tetrads.total) < 0.5] = 0.0
            blocks.append(Block(tetrads, direction, ImportanceVector(values, tetrads.offsets)))
        if zero_block:  # the last block selects nothing
            last = blocks[-1].tetrads
            blocks[-1] = Block(last, blocks[-1].direction, ImportanceVector(np.zeros(last.total), last.offsets))
        kept = trainer._selected(blocks)
        # cut down to the selected tetrads
        assert [k.tetrads.total for k in kept] == [b.v.positive_count for b in blocks]
        assert all(k.tetrads.total < b.tetrads.total for k, b in zip(kept, blocks))

        emb = embed.forward(params, ds, normalized)
        want = optimize_W(params, ds, blocks, cfg, emb)
        got = optimize_W(params, ds, kept, cfg, emb)
        assert want[2] >= 2
        assert params_bytes(got[0]) == params_bytes(want[0])
        assert got[1].hex() == want[1].hex() and got[2] == want[2]
        # the returned embedding is the final params'
        emb = embed.forward(got[0], ds, normalized)
        assert got[3].H.tobytes() == emb.H.tobytes() and got[3].G.tobytes() == emb.G.tobytes()


class TestWStepOwnsItsPoint:
    @pytest.mark.parametrize("held", [False, True], ids=["direct", "arguments-held"])
    @pytest.mark.parametrize("mode", SHARED_PASS_MODES)
    def test_no_array_of_the_point_outlives_its_gradient(self, monkeypatch, mode, held):
        # When a line search starts, the pass and the losses of the point whose gradient
        # it follows are gone: its aligned scores, its tetrad scores and its losses. Only
        # the W-step held them. With held, a wrapper keeps optimize_W's arguments alive
        # for the whole call, as Python 3.10's call stack does.
        ds = tiny_corpus(seed=2, n=40)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=3, max_inner_steps=6, seed=3, **SHARED_PASS_MODES[mode])
        point_arrays, alive = [], []  # weak references to the latest gradient's point; per search, how many live
        real_grad, real_search, real_w_step = trainer.grad_params, trainer.line_search, trainer.optimize_W

        def recording_gradient(params, dataset, blocks, losses, fwd):
            arrays = [fwd.aligned] + [scores for _, _, scores in fwd.scores] + [x.values for x in losses]
            point_arrays[:] = [weakref.ref(a) for a in arrays]
            return real_grad(params, dataset, blocks, losses, fwd)

        def checked_search(params, grad, value_fn, current_value, cfg):
            alive.append(sum(ref() is not None for ref in point_arrays))
            return real_search(params, grad, value_fn, current_value, cfg)

        def holding_w_step(*args):  # args keeps every argument alive until the W-step returns
            return real_w_step(*args)

        monkeypatch.setattr(trainer, "grad_params", recording_gradient)
        monkeypatch.setattr(trainer, "line_search", checked_search)
        if held:
            monkeypatch.setattr(trainer, "optimize_W", holding_w_step)
        _, history = train(ds, cfg)
        assert len(history) == 3 and len(point_arrays) >= 3
        assert alive == [0] * sum(r.inner_steps for r in history.records)


class TestOuterIterationMemory:
    @pytest.mark.parametrize("held", [False, True], ids=["direct", "arguments-held"])
    def test_peak_is_the_arrays_alive_in_the_gradient(self, monkeypatch, held):
        # One outer iteration at n = 10,000: both directions, cosine scores, d = 10 and 40
        # sampled negatives, so T = 800,000 tetrads. The tracemalloc peak falls in the
        # W-step's gradient while it scatters. What is alive then, in 8-byte entries:
        # - the full sets' negatives and weights: 2T;
        # - the S selected tetrads' negatives and weights (the kept sets), and the current
        #   point's scores and losses: 4S;
        # - the gradient's listing of the L selected active tetrads (query, negative,
        #   weight), its concatenation (query, row, column, weight), and one column's
        #   gather and products: at most 9L, and 7L at once since the listing is freed
        #   once concatenated;
        # - n x d arrays: H and G, their cosine rows A and B, the first scatter's product
        #   C B, and the second's output and contiguous operand: 7nd;
        # and 1 MiB for arrays of n entries or fewer and Python objects. A per-tetrad index
        # kept past the call that reads it (flat_queries, positive_index, a listing) adds
        # 3 MiB or more. With held, a wrapper keeps optimize_W's arguments alive for the
        # whole call, as Python 3.10's call stack does.
        ds = synth_generate(SynthSpec(n=10_000, latent=5, p=20, q=20, noise=0.1, seed=0))
        cfg = TrainConfig(embedding_dim=10, symmetric_tetrads=True, normalized_similarity=True,
                          sample_negatives=40, max_outer_iters=1, max_inner_steps=3)
        sizes = []  # (S, L) at each gradient
        real_grad, real_w_step = trainer.grad_params, trainer.optimize_W

        def counting_gradient(params, dataset, blocks, losses, fwd):
            active = sum(int(np.count_nonzero((x.values > 0.0) & (b.v.values > 0.0))) for b, x in zip(blocks, losses))
            sizes.append((sum(b.tetrads.total for b in blocks), active))
            return real_grad(params, dataset, blocks, losses, fwd)

        def holding_w_step(*args):  # args keeps every argument alive until the W-step returns
            return real_w_step(*args)

        monkeypatch.setattr(trainer, "grad_params", counting_gradient)
        if held:
            monkeypatch.setattr(trainer, "optimize_W", holding_w_step)
        tracemalloc.start()
        try:
            train(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        T = 2 * ds.n * cfg.sample_negatives
        S, L = max(s for s, _ in sizes), max(a for _, a in sizes)
        assert len(sizes) == 3 and 0 < L < S < T  # the kept sets are cut down, and some selected tetrads are inactive
        alive = 8 * (2 * T + 4 * S + 9 * L + 7 * ds.n * cfg.embedding_dim) + (1 << 20)
        assert peak <= alive, f"peak {peak / 2**20:.1f} MiB, arrays alive {alive / 2**20:.1f} MiB"


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

    @pytest.mark.parametrize("factor", ["lam_growth", "gamma_growth"])
    def test_pacing_overflow_fails_before_any_w_step(self, monkeypatch, factor):
        rng = np.random.default_rng(0)
        ds = validate_dataset(rng.standard_normal((20, 5)), rng.standard_normal((20, 4)))
        # the second growth overflows: 5 iterations would need it, 2 grow the pacing once
        cfg = TrainConfig(embedding_dim=2, max_outer_iters=5, seed=1, **{factor: 1e300})

        def no_w_step(*args, **kwargs):
            raise AssertionError("a W-step ran before the pacing growth was checked")

        with monkeypatch.context() as patched:
            patched.setattr(trainer, "optimize_W", no_w_step)
            with pytest.raises(ConfigInvalid, match=f"^{factor} = 1e\\+300 overflows the pacing"):
                train(ds, cfg)
        _, history = train(ds, dataclasses.replace(cfg, max_outer_iters=2))
        a, b = history.records
        assert (b.lam, b.gamma) == (a.lam * cfg.lam_growth, a.gamma * cfg.gamma_growth)

    def test_normalized_similarity_mode_runs(self):
        ds = tiny_corpus(seed=8, n=16)
        cfg = TrainConfig(embedding_dim=3, max_outer_iters=3, seed=8, normalized_similarity=True)
        params, history = train(ds, cfg)
        assert np.isfinite(history.records[-1].objective)

    @pytest.mark.parametrize("p, q", [(9, 8), (8, 7)])
    def test_validation_dimensions_are_checked_before_any_work(self, monkeypatch, p, q):
        ds = tiny_corpus()
        val = synth_generate(SynthSpec(n=10, latent=3, p=p, q=q, noise=0.1, seed=1))

        def no_w_step(*args, **kwargs):
            raise AssertionError("a W-step ran before the validation set was checked")

        monkeypatch.setattr(trainer, "optimize_W", no_w_step)
        with pytest.raises(DimensionMismatch):
            train(ds, TrainConfig(embedding_dim=4, max_outer_iters=2, seed=5), val_dataset=val)

    def test_val_history_and_early_stopping(self):
        ds = tiny_corpus(seed=9, n=40)
        tr, va, te = split(ds, SplitSpec(seed=9))
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=10, seed=9, early_stop_patience=2)
        params, history = train(tr, cfg, val_dataset=va)
        assert all(rec.val_map is not None for rec in history.records)
        best = max(rec.val_map for rec in history.records)
        from pacedrank.evaluation import mean_ap

        assert mean_ap(params, va, "i2t").mean == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize(
        "maps, patience, best",
        [
            ([0.2, 0.5, 0.5, 0.4], 2, 2),  # a tie does not reset the count
            ([0.3, 0.2, 0.6, 0.1, 0.1], 2, 3),
            ([0.6, 0.5, 0.4, 0.3, 0.2, 0.1], None, 6),  # runs to max_outer_iters, returns the final params
        ],
    )
    def test_early_stopping_rule(self, monkeypatch, maps, patience, best):
        tr, va, _ = split(tiny_corpus(seed=9, n=40), SplitSpec(seed=9))
        handed = []  # the params each validation mAP is taken at

        def scripted_map(params, *args, **kwargs):
            handed.append(params)
            return SimpleNamespace(mean=maps[len(handed) - 1])

        monkeypatch.setattr(trainer, "mean_ap", scripted_map)
        # the convergence rule does not fire within 6 iterations on this corpus
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=6, seed=9, early_stop_patience=patience)
        params, history = train(tr, cfg, val_dataset=va)
        assert [rec.val_map for rec in history.records] == maps
        assert params is handed[best - 1]

    def test_patience_without_validation_returns_final_params(self, monkeypatch):
        tr, _, _ = split(tiny_corpus(seed=9, n=40), SplitSpec(seed=9))

        def no_validation(*args, **kwargs):
            raise AssertionError("a validation mAP was taken without a validation set")

        monkeypatch.setattr(trainer, "mean_ap", no_validation)
        cfg = TrainConfig(embedding_dim=4, max_outer_iters=6, seed=9, early_stop_patience=1)
        params, history = train(tr, cfg)
        final, unstopped = train(tr, dataclasses.replace(cfg, early_stop_patience=None))
        assert len(history) == len(unstopped) == 6
        assert all(rec.val_map is None for rec in history.records)
        assert params_equal(params, final)

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
            TrainConfig(margin=10**400)


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
