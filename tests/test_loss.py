import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pacedrank

from pacedrank import embed, loss, trainer
from pacedrank.core import (
    Dataset,
    EmbeddingParams,
    GroupedVector,
    ImportanceVector,
    LossConfig,
    PacingState,
    TetradSet,
    build_tetrads,
    validate_dataset,
)
from pacedrank.embed import forward, pair_scores, query_rows, score_matrix
from pacedrank.errors import AlignmentError, ConfigInvalid, IndexOutOfRange
from pacedrank.gradcheck import make_instance, max_relative_error, numeric_gradient
from pacedrank.loss import (
    Block,
    _entries,
    _listed_terms,
    all_losses,
    block_losses,
    floor_listing,
    floor_rejects,
    forward_pass,
    grad_loss_term,
    grad_params,
    objective,
    ridge_value,
    selected_active,
    smooth_part,
    tetrad_loss,
    weighted_sum_from,
)

from conftest import at_point, cached_arrays, point, random_dataset, random_instance, random_params


# (directions, normalized) of the sampled finite-difference cases
SAMPLED_GRADCHECK_CASES = [(("i2t",), False), (("t2i",), False), (("i2t", "t2i"), True)]


def scored_pass(params, dataset, blocks, normalized=False):
    """forward_pass at params, and whether it scored the dense matrix (called embed.inner_scores)."""
    calls = []
    real = embed.inner_scores

    def counting(H, G):
        calls.append(H.shape)
        return real(H, G)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "inner_scores", counting)
        fwd = forward_pass(forward(params, dataset, normalized), blocks)
    assert len(calls) <= 1
    return fwd, bool(calls)


def zero_params(d, p, q):
    return EmbeddingParams.from_arrays(
        np.zeros((d, p)), np.zeros(d), np.zeros((d, q)), np.zeros(d)
    )


def gap_params(gaps):
    """1-D construction with controlled score gaps.

    With W1 = 0 the query embeds to 0.5, so S_kj = 0.5 * sigmoid(z_j); text
    features logit(2 * target) realize any target score in (0, 0.5).
    """
    return EmbeddingParams.from_arrays(
        np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)
    )


def logit(p):
    return math.log(p / (1.0 - p))


class TestTetradLoss:
    def test_margin_satisfied_gives_zero(self):
        # S_k0 = 0.35, S_k1 = 0.15: gap 0.2 beats margin 0.1
        ds = validate_dataset([[0.0], [0.0]], [[logit(0.7)], [logit(0.3)]])
        loss = tetrad_loss(gap_params(None), ds, 0, 1, LossConfig(margin=0.1))
        assert loss == 0.0

    def test_equal_scores_give_margin(self):
        ds = validate_dataset([[0.0], [0.0]], [[0.3], [0.3]])
        loss = tetrad_loss(gap_params(None), ds, 0, 1, LossConfig(margin=0.1))
        assert loss == pytest.approx(0.1, abs=1e-15)

    def test_linear_region(self):
        # negative outranks aligned by 0.2: loss = 0.2 + margin
        ds = validate_dataset([[0.0], [0.0]], [[logit(0.3)], [logit(0.7)]])
        loss = tetrad_loss(gap_params(None), ds, 0, 1, LossConfig(margin=0.1))
        assert loss == pytest.approx(0.3, abs=1e-12)

    def test_index_out_of_range(self):
        ds = validate_dataset(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(IndexOutOfRange):
            tetrad_loss(gap_params(None), ds, 0, 5, LossConfig())


class TestAllLosses:
    def test_zero_params_all_margin(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        params = zero_params(2, 2, 2)
        losses = all_losses(params, ds, build_tetrads(ds), LossConfig(margin=0.1))
        assert np.array_equal(losses.values, np.full(6, 0.1))

    def test_matches_per_tetrad_calls_bitwise(self):
        dataset, params, tetrads, _ = random_instance(46, n=6)
        cfg = LossConfig(margin=0.15)
        losses = all_losses(params, dataset, tetrads, cfg)
        for value, k, j in zip(losses.values, tetrads.flat_queries, tetrads.negatives):
            assert value == tetrad_loss(params, dataset, int(k), int(j), cfg)

    def test_t2i_direction_uses_columns(self):
        dataset, params, tetrads, _ = random_instance(21, n=4)
        cfg = LossConfig(margin=0.1)
        S = score_matrix(params, dataset)
        losses = all_losses(params, dataset, tetrads, cfg, direction="t2i")
        flat = [max(0.0, S[j, k] - S[k, k] + 0.1) for k, j in zip(tetrads.flat_queries, tetrads.negatives)]
        np.testing.assert_allclose(losses.values, flat, rtol=1e-12)

    @pytest.mark.parametrize("m", [None, 2])
    def test_flag_contradicting_the_pass_raises(self, m):
        dataset, params, _, _ = random_instance(22, n=6)
        tetrads = build_tetrads(dataset, m, 0)
        cfg = LossConfig(margin=0.1)
        for normalized in (False, True):
            fwd = point(params, dataset, [Block(tetrads, "i2t", None)], normalized)
            with pytest.raises(ConfigInvalid, match="contradicts"):
                all_losses(params, dataset, tetrads, cfg, "i2t", not normalized, fwd=fwd)
            # a flag that agrees, or none, reads the pass; without a pass None means raw scores
            want = all_losses(params, dataset, tetrads, cfg, "i2t", normalized).values.tobytes()
            assert all_losses(params, dataset, tetrads, cfg, "i2t", normalized, fwd).values.tobytes() == want
            assert all_losses(params, dataset, tetrads, cfg, "i2t", fwd=fwd).values.tobytes() == want
        raw = all_losses(params, dataset, tetrads, cfg, "i2t", False).values.tobytes()
        assert all_losses(params, dataset, tetrads, cfg, "i2t").values.tobytes() == raw

    def test_nonnegative_and_zero_iff_margin_met(self):
        dataset, params, tetrads, _ = random_instance(99, n=7)
        cfg = LossConfig(margin=0.05)
        losses = all_losses(params, dataset, tetrads, cfg)
        assert (losses.values >= 0.0).all()
        S = score_matrix(params, dataset)
        for value, k, j in zip(losses.values, tetrads.flat_queries, tetrads.negatives):
            met = S[k, k] - S[k, j] >= 0.05
            assert (value == 0.0) == met


class TestTextQueryDirection:
    """t2i is i2t on the swapped problem: texts as queries, (W2, b2) as the query map."""

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("seed", [4, 29, 63])
    def test_equals_swapped_i2t_bitwise(self, seed, normalized):
        dataset, params, tetrads, v = random_instance(seed, n=7, p=5, q=4)
        swapped_data = Dataset(dataset.texts, dataset.images)
        swapped_params = EmbeddingParams(params.W2, params.b2, params.W1, params.b1)
        cfg = LossConfig(margin=0.3)

        losses = all_losses(params, dataset, tetrads, cfg, "t2i", normalized)
        swapped = all_losses(swapped_params, swapped_data, tetrads, cfg, "i2t", normalized)
        assert np.array_equal(losses.values, swapped.values)
        assert (losses.values > 0.0).any()

        blocks, swapped_blocks = [Block(tetrads, "t2i", v)], [Block(tetrads, "i2t", v)]
        g = grad_loss_term(params, dataset, blocks, *at_point(params, dataset, blocks, cfg, normalized))
        s = grad_loss_term(
            swapped_params, swapped_data, swapped_blocks,
            *at_point(swapped_params, swapped_data, swapped_blocks, cfg, normalized),
        )
        for got, want in zip(g.arrays, (s.W2, s.b2, s.W1, s.b1)):
            assert np.array_equal(got, want)

    # numpy sums a contiguous run of 8 or more entries pairwise and a column
    # sequentially, so at n=20 the cosine term's sums of C * S must both run
    # along contiguous rows for the two orientations to agree bit for bit
    @pytest.mark.parametrize("sample", [None, 12])
    def test_cosine_gradient_equals_swapped_i2t_bitwise_at_n20(self, sample):
        dataset, params, _, _ = random_instance(8, n=20, p=5, q=4)
        tetrads = build_tetrads(dataset, sample, 1)
        v = ImportanceVector(np.random.default_rng(9).uniform(0.0, 1.0, tetrads.total), tetrads.offsets)
        cfg = LossConfig(margin=0.3)
        blocks = [Block(tetrads, "t2i", v)]
        g = grad_loss_term(params, dataset, blocks, *at_point(params, dataset, blocks, cfg, True))
        swapped_params = EmbeddingParams(params.W2, params.b2, params.W1, params.b1)
        swapped_data, swapped_blocks = Dataset(dataset.texts, dataset.images), [Block(tetrads, "i2t", v)]
        s = grad_loss_term(
            swapped_params, swapped_data, swapped_blocks,
            *at_point(swapped_params, swapped_data, swapped_blocks, cfg, True),
        )
        for got, want in zip(g.arrays, (s.W2, s.b2, s.W1, s.b1)):
            assert got.tobytes() == want.tobytes()


class TestOneBackwardPass:
    """One grad_loss_term call over [i2t, t2i] equals the sum of its one-block terms.

    The t2i term is taken from the swapped problem scored as i2t, so a t2i
    block must be backpropagated in its own orientation to match.
    """

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("sample", [None, 3])
    def test_two_blocks_equal_sum_of_one_block_terms(self, sample, normalized):
        dataset, params, _, _ = random_instance(12, n=9, p=5, q=4)
        rng = np.random.default_rng(6)
        i2t_block, t2i_block = (
            Block(t, direction, ImportanceVector(rng.uniform(0.0, 1.0, t.total), t.offsets))
            for t, direction in ((build_tetrads(dataset, sample, 2), "i2t"), (build_tetrads(dataset, sample, 3), "t2i"))
        )
        assert i2t_block.tetrads.is_full == (sample is None)
        cfg = LossConfig(margin=0.3)

        both, one = [i2t_block, t2i_block], [i2t_block]
        got = grad_loss_term(params, dataset, both, *at_point(params, dataset, both, cfg, normalized))
        i2t = grad_loss_term(params, dataset, one, *at_point(params, dataset, one, cfg, normalized))
        swapped_params = EmbeddingParams(params.W2, params.b2, params.W1, params.b1)
        swapped_data = Dataset(dataset.texts, dataset.images)
        swapped_blocks = [Block(t2i_block.tetrads, "i2t", t2i_block.v)]
        swapped = grad_loss_term(
            swapped_params, swapped_data, swapped_blocks,
            *at_point(swapped_params, swapped_data, swapped_blocks, cfg, normalized),
        )
        for g, a, b in zip(got.arrays, i2t.arrays, (swapped.W2, swapped.b2, swapped.W1, swapped.b1)):
            want = a + b
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("sample", [None, 3])
    def test_given_pass_decides_raw_or_cosine(self, sample):
        # a pass's embedding holds norms iff its scores are cosine, and the gradient
        # follows it: each equals the finite differences of its own kind of scores
        grads = []
        for normalized in (False, True):
            inst = make_instance(13, n=9, normalized=normalized, m=sample)
            fwd = forward_pass(forward(inst.params, inst.dataset, normalized), inst.blocks)
            assert (fwd.emb.norms is not None) == normalized
            losses = block_losses(inst.params, inst.dataset, inst.blocks, inst.cfg, fwd)
            got = grad_params(inst.params, inst.dataset, inst.blocks, losses, fwd)
            for g, numeric in zip(got.arrays, numeric_gradient(inst)):
                assert np.max(np.abs(g - numeric) / np.maximum(1.0, np.abs(numeric))) < 1e-5
            grads.append(got)
        assert not np.array_equal(grads[0].W1, grads[1].W1)

    @pytest.mark.parametrize("gradient", [grad_loss_term, grad_params])
    def test_losses_that_do_not_match_the_blocks_raise(self, gradient):
        dataset, params, tetrads, v = random_instance(14, n=8)
        sampled = build_tetrads(dataset, 3, 0)
        blocks = [Block(tetrads, "i2t", v), Block(tetrads, "t2i", v)]
        cfg = LossConfig(margin=0.1)
        losses, fwd = at_point(params, dataset, blocks, cfg)
        other = all_losses(params, dataset, sampled, cfg)  # another set's losses
        for given in ([], losses[:1], losses + losses[:1], [losses[0], other], [other, losses[1]]):
            with pytest.raises(AlignmentError):
                gradient(params, dataset, blocks, given, fwd)

    def test_no_blocks_leaves_the_ridge(self):
        dataset, params, _, _ = random_instance(3)
        g = grad_loss_term(params, dataset, [], [], point(params, dataset, []))
        assert all(not a.any() and a.shape == b.shape for a, b in zip(g.arrays, params.arrays))
        ridge = grad_params(params, dataset, [], [], point(params, dataset, []))
        for got, want in zip(ridge.arrays, (params.W1, np.zeros(params.d), params.W2, np.zeros(params.d))):
            assert np.array_equal(got, want)


class TestObjective:
    def test_zero_weights_is_ridge_only(self):
        dataset, params, tetrads, _ = random_instance(5)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        pacing = PacingState(lam=0.4, gamma=0.2)
        got = objective(params, dataset, [Block(tetrads, "i2t", v)], pacing, LossConfig())
        expected = 0.5 * (np.sum(params.W1**2) + np.sum(params.W2**2))
        assert got == pytest.approx(expected, rel=1e-15)

    def test_all_ones_zero_params_plugin(self):
        ds = validate_dataset(np.zeros((3, 2)), np.zeros((3, 2)))
        params = zero_params(2, 2, 2)
        tetrads = build_tetrads(ds)
        v = ImportanceVector(np.ones(6), tetrads.offsets)
        lam = 0.25
        pacing = PacingState(lam=lam, gamma=0.0)
        got = objective(params, ds, [Block(tetrads, "i2t", v)], pacing, LossConfig(margin=0.1))
        assert got == pytest.approx(6 * 0.1 - lam * 6, rel=1e-12)

    def test_matches_termwise_recomputation(self):
        dataset, params, tetrads, v = random_instance(47)
        pacing = PacingState(lam=0.3, gamma=0.15)
        cfg = LossConfig(margin=0.2)
        got = objective(params, dataset, [Block(tetrads, "i2t", v)], pacing, cfg)

        expected = 0.5 * sum(
            float(w**2) for W in (params.W1, params.W2) for w in W.ravel()
        )
        for w, k, j in zip(v.values, tetrads.flat_queries, tetrads.negatives):
            expected += w * tetrad_loss(params, dataset, int(k), int(j), cfg)
        for k in range(tetrads.n):
            vk = v.group(k)
            expected -= pacing.lam * float(np.sum(vk))
            expected -= pacing.gamma * math.sqrt(float(np.sum(vk)))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_alignment_error(self):
        dataset, params, tetrads, _ = random_instance(3)
        bad = ImportanceVector(np.ones(2), np.array([0, 1, 2]))
        with pytest.raises(AlignmentError):
            objective(
                params, dataset, [Block(tetrads, "i2t", bad)], PacingState(lam=1.0, gamma=0.0), LossConfig()
            )

    def test_regularizer_equals_direct_summation(self):
        rng = np.random.default_rng(31)
        params = random_params(rng)
        direct = 0.5 * (
            sum(x * x for x in params.W1.ravel()) + sum(x * x for x in params.W2.ravel())
        )
        assert ridge_value(params) == pytest.approx(direct, rel=1e-14)


# At n=600 a BLAS matrix product is split across threads (n=300 is not), so
# a BLAS product anywhere in the gradient or the forward pass shows up as
# differing bytes here. One retrieve is compared as well.
_GRADIENT_BYTES = """
import hashlib
import numpy as np
from pacedrank.core import ImportanceVector, LossConfig, build_tetrads, validate_dataset
from pacedrank.embed import forward, query_rows
from pacedrank.evaluation import retrieve
from pacedrank.loss import Block, block_losses, forward_pass, grad_loss_term
from pacedrank.trainer import init_params

rng = np.random.default_rng(7)
dataset = validate_dataset(rng.standard_normal((600, 20)), rng.standard_normal((600, 20)))
params = init_params(rng, 10, 20, 20)
digest = hashlib.sha256()
# 32 sampled negatives take the gathered pass, the full set the dense one
for tetrads in (build_tetrads(dataset, 32, 7), build_tetrads(dataset)):
    v = ImportanceVector(rng.uniform(0.0, 1.0, tetrads.total), tetrads.offsets)
    for normalized in (False, True):
        for directions in (("i2t",), ("t2i",), ("i2t", "t2i")):
            blocks = [Block(tetrads, d, v) for d in directions]
            fwd = forward_pass(forward(params, dataset, normalized), blocks)
            losses = block_losses(params, dataset, blocks, LossConfig(margin=0.1), fwd)
            g = grad_loss_term(params, dataset, blocks, losses, fwd)
            for arr in g.arrays:
                digest.update(arr.tobytes())
print("gradient", digest.hexdigest())
for normalized in (False, True):
    digest = hashlib.sha256()
    emb = forward(params, dataset, normalized)
    for arr in (emb.H, emb.G, query_rows(emb, "i2t")):
        digest.update(arr.tobytes())
    print("forward", normalized, digest.hexdigest())
ranked = retrieve(params, dataset.images[0], dataset.texts)
print("retrieve", hashlib.sha256(ranked.indices.tobytes() + ranked.scores.tobytes()).hexdigest())
"""



class TestGradient:
    def test_zero_weights_gradient_is_ridge(self):
        dataset, params, tetrads, _ = random_instance(8)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        blocks = [Block(tetrads, "i2t", v)]
        g = grad_params(params, dataset, blocks, *at_point(params, dataset, blocks, LossConfig()))
        assert np.array_equal(g.W1, params.W1)
        assert np.array_equal(g.W2, params.W2)
        assert np.array_equal(g.b1, np.zeros(params.d))
        assert np.array_equal(g.b2, np.zeros(params.d))

    def test_inactive_hinges_gradient_is_ridge(self):
        # aligned scores dominate every negative by more than the margin
        ds = validate_dataset(
            [[0.0], [0.0]], [[logit(0.9)], [logit(0.1)]]
        )
        params = EmbeddingParams.from_arrays(
            np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)
        )
        tetrads = TetradSet(2, [0, 1, 2], [1, 0])
        v = ImportanceVector(np.ones(2), tetrads.offsets)
        losses = all_losses(params, ds, tetrads, LossConfig(margin=0.1))
        assert losses.values[0] == 0.0  # query 0 satisfied
        blocks = [Block(tetrads, "i2t", v)]
        g = grad_params(params, ds, blocks, *at_point(params, ds, blocks, LossConfig(margin=0.1)))
        # query 1's hinge is active, so only assert the satisfied side's share:
        # with both hinges inactive the gradient reduces to the ridge exactly
        v0 = ImportanceVector(np.array([1.0, 0.0]), tetrads.offsets)
        blocks0 = [Block(tetrads, "i2t", v0)]
        g0 = grad_params(params, ds, blocks0, *at_point(params, ds, blocks0, LossConfig(margin=0.1)))
        assert np.array_equal(g0.W1, params.W1)
        assert np.array_equal(g0.b2, np.zeros(1))

    def test_finite_difference_seed48(self):
        inst = make_instance(48, n=6, p=5, q=5, d=3)
        assert max_relative_error(inst, h=1e-5) < 1e-5

    # seeds from 20 on are sampled sets, one negative per query, few enough
    # against n^2 that the gradient reads a gathered pass
    @pytest.mark.parametrize("seed", range(20 + len(SAMPLED_GRADCHECK_CASES)))
    def test_finite_difference_sweep(self, seed):
        rng = np.random.default_rng(seed * 31 + 5)
        if seed < 20:
            n, m = int(rng.integers(4, 9)), None
            directions, normalized = (("i2t",), ("i2t", "t2i"), ("t2i",))[seed % 3], seed % 4 == 3
        else:
            n, m = int(rng.integers(12, 17)), 1
            directions, normalized = SAMPLED_GRADCHECK_CASES[seed - 20]
        inst = make_instance(
            seed,
            n=n,
            p=int(rng.integers(2, 9)),
            q=int(rng.integers(2, 9)),
            d=int(rng.integers(1, 5)),
            directions=directions,
            normalized=normalized,
            m=m,
        )
        assert scored_pass(inst.params, inst.dataset, inst.blocks, inst.normalized)[1] == (m is None)
        assert max_relative_error(inst, h=1e-5) < 1e-5

    # groups of 11 tetrads (n=12) are long enough for pairwise summation to
    # reorder additions, so a per-group np.sum over kept zeros would show here
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    @pytest.mark.parametrize("n", [5, 12])
    def test_zero_weight_tetrads_inert_bitwise(self, n, gamma):
        dataset, params, tetrads, _ = random_instance(17, n=n)
        rng = np.random.default_rng(183)
        values = rng.uniform(0.0, 1.0, tetrads.total)
        values[rng.uniform(size=tetrads.total) < 0.4] = 0.0
        v = ImportanceVector(values, tetrads.offsets)
        cfg = LossConfig(margin=0.1)
        pacing = PacingState(lam=0.3, gamma=gamma)

        kept = v.values > 0.0
        counts = np.bincount(tetrads.flat_queries[kept], minlength=tetrads.n)
        pruned = TetradSet(tetrads.n, np.concatenate([[0], np.cumsum(counts)]), tetrads.negatives[kept])
        v_pruned = ImportanceVector(v.values[kept], pruned.offsets)

        full_obj = objective(params, dataset, [Block(tetrads, "i2t", v)], pacing, cfg)
        pruned_obj = objective(params, dataset, [Block(pruned, "i2t", v_pruned)], pacing, cfg)
        assert full_obj == pruned_obj

        full, kept_only = [Block(tetrads, "i2t", v)], [Block(pruned, "i2t", v_pruned)]
        g_full = grad_params(params, dataset, full, *at_point(params, dataset, full, cfg))
        g_pruned = grad_params(params, dataset, kept_only, *at_point(params, dataset, kept_only, cfg))
        assert np.array_equal(g_full.W1, g_pruned.W1)
        assert np.array_equal(g_full.b1, g_pruned.b1)
        assert np.array_equal(g_full.W2, g_pruned.W2)
        assert np.array_equal(g_full.b2, g_pruned.b2)

    @pytest.mark.parametrize("m", [2, None], ids=["sampled", "full"])
    @pytest.mark.parametrize("directions", [("i2t",), ("t2i",), ("i2t", "t2i")], ids=["i2t", "t2i", "both"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_backward_pass_reads_no_score(self, m, directions, normalized):
        # a pass with the true embedding and NaN for every score gives the true gradient
        rng = np.random.default_rng(19)
        dataset = random_dataset(rng, n=30, p=5, q=4)
        params = random_params(rng)
        blocks = sampled_blocks(rng, dataset, m, directions, 0.0)
        losses, fwd = at_point(params, dataset, blocks, LossConfig(margin=0.1), normalized)
        want = grad_loss_term(params, dataset, blocks, losses, fwd)
        blind = loss.Pass(fwd.emb, np.full(dataset.n, np.nan),
                          tuple((t, d, np.full(len(sc), np.nan)) for t, d, sc in fwd.scores))
        got = grad_loss_term(params, dataset, blocks, losses, blind)
        assert [a.tobytes() for a in got.arrays] == [a.tobytes() for a in want.arrays]

    def test_block_without_weights_raises_alignment_error(self):
        dataset, params, tetrads, _ = random_instance(9)
        blocks = [Block(tetrads, "i2t", None)]
        cfg = LossConfig()
        losses, fwd = at_point(params, dataset, blocks, cfg)
        with pytest.raises(AlignmentError):
            objective(params, dataset, blocks, PacingState(lam=1.0, gamma=0.0), cfg)
        with pytest.raises(AlignmentError):
            smooth_part(params, blocks, losses)
        with pytest.raises(AlignmentError):
            grad_params(params, dataset, blocks, losses, fwd)
        with pytest.raises(AlignmentError):
            trainer.optimize_W(params, dataset, blocks, trainer.TrainConfig(), fwd.emb)

    def test_bytes_independent_of_blas_threads(self):
        src = str(Path(pacedrank.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), threads))
            done = subprocess.run(
                [sys.executable, "-c", _GRADIENT_BYTES], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


def gathered_entries(M, tetrads):
    """The general path of _entries: one gather per tetrad."""
    return M[tetrads.flat_queries, tetrads.negatives]


def without_first_negatives(tetrads):
    """The tetrads less each query's first negative, a valid set that is not full, and the kept positions."""
    kept = np.setdiff1d(np.arange(tetrads.total), tetrads.offsets[:-1])
    return TetradSet(tetrads.n, tetrads.offsets - np.arange(tetrads.n + 1), tetrads.negatives[kept]), kept


class TestFullSetPath:
    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    @pytest.mark.parametrize("n", [2, 3, 57])
    def test_strided_hinge_args_equal_gather_bitwise(self, n, direction, normalized):
        dataset, params, tetrads, _ = random_instance(90 + n, n=n)
        assert tetrads.is_full
        S = query_rows(forward(params, dataset, normalized), direction)
        got = _entries(S, tetrads)
        want = gathered_entries(S, tetrads)
        assert got.shape == want.shape == (n * (n - 1),)
        assert got.tobytes() == want.tobytes()

    def test_non_canonical_full_size_set_gathers(self):
        # a set of full size is always full now (TetradSet rejects repeated negatives),
        # so the non-canonical set lacks one tetrad per group
        dataset, params, tetrads, v = random_instance(23, n=9)
        pruned, kept = without_first_negatives(tetrads)
        assert pruned.total == 9 * 7 and not pruned.is_full
        S = score_matrix(params, dataset)
        for M in (S, S.T):  # the transpose is read from S's flat entries too
            got = _entries(M, pruned)
            assert got.tobytes() == gathered_entries(M, pruned).tobytes()
            assert got.tobytes() == _entries(M, tetrads)[kept].tobytes()

        # the full set, with zero weights at the dropped tetrads, has the pruned set's gradient
        values = np.zeros(tetrads.total)
        values[kept] = v.values[kept]
        v_full = ImportanceVector(values, v.offsets)
        v_pruned = ImportanceVector(v.values[kept], pruned.offsets)
        for direction in ("i2t", "t2i"):
            full, kept_only = [Block(tetrads, direction, v_full)], [Block(pruned, direction, v_pruned)]
            g = grad_params(params, dataset, full, *at_point(params, dataset, full, LossConfig()))
            g_pruned = grad_params(params, dataset, kept_only, *at_point(params, dataset, kept_only, LossConfig()))
            for a, b in zip(g.arrays, g_pruned.arrays):
                assert a.tobytes() == b.tobytes()

    def test_other_layouts_are_not_full(self):
        dataset = random_instance(4, n=5)[0]
        assert build_tetrads(dataset).is_full
        assert build_tetrads(dataset, m=4, seed=0).is_full  # sampling all n - 1 sorts them
        assert not build_tetrads(dataset, m=2, seed=0).is_full
        # n(n-1) tetrads whose group sizes differ from n-1 must repeat a negative
        with pytest.raises(ConfigInvalid):
            TetradSet(3, [0, 3, 4, 6], [1, 2, 1, 0, 0, 1])
        assert not without_first_negatives(build_tetrads(dataset))[0].is_full

    def test_pass_copies_no_transposed_score_matrix(self):
        # the dense pass scores S with its last block's queries as rows and reads the
        # other direction through S.T, so no order of directions copies S.T whole
        rng = np.random.default_rng(16)
        n = 1000
        dataset = random_dataset(rng, n=n, p=8, q=8)
        emb = forward(random_params(rng, d=10, p=8, q=8), dataset, True)
        tetrads = build_tetrads(dataset)
        peaks = {}
        for directions in (("i2t",), ("t2i",), ("i2t", "t2i"), ("t2i", "i2t")):
            blocks = [Block(tetrads, d, None) for d in directions]
            tracemalloc.start()
            try:
                forward_pass(emb, blocks)
                peaks[directions] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        mib = 1 << 20
        assert abs(peaks[("t2i",)] - peaks[("i2t",)]) < mib
        assert abs(peaks[("i2t", "t2i")] - peaks[("t2i", "i2t")]) < mib

    @pytest.mark.parametrize("weights", ["random", "zeros", "ones"])
    def test_weighted_sum_index_equals_mask_bitwise(self, weights):
        dataset, params, tetrads, _ = random_instance(31, n=12)
        rng = np.random.default_rng(8)
        values = {
            "random": np.where(rng.uniform(size=tetrads.total) < 0.4, 0.0, rng.uniform(size=tetrads.total)),
            "zeros": np.zeros(tetrads.total),
            "ones": np.ones(tetrads.total),
        }[weights]
        v = ImportanceVector(values, tetrads.offsets)
        losses = all_losses(params, dataset, tetrads, LossConfig(margin=0.3))
        sel = v.values > 0.0
        want = float(np.sum(v.values[sel] * losses.values[sel]))
        assert np.array_equal(v.positive_index, np.flatnonzero(sel))
        assert weighted_sum_from(losses, v).hex() == want.hex()


def dense_reference(params, dataset, blocks, cfg, normalized):
    """Losses and loss-term gradient from the dense score matrix: each tetrad gathered, C * S over every entry."""
    emb = forward(params, dataset, normalized)
    H, G, S = emb.H, emb.G, query_rows(emb, "i2t")
    n = dataset.n
    losses, C, s = [], np.zeros((n, n)), np.zeros(n)
    for b in blocks:
        Sq = S if b.direction == "i2t" else S.T
        ks, js = b.tetrads.flat_queries, b.tetrads.negatives
        args = Sq[ks, js] - Sq[ks, ks] + cfg.margin
        losses.append(np.maximum(0.0, args))
        Cb = np.zeros((n, n))
        Cb[ks, js] = np.where(args > 0.0, b.v.values, 0.0)
        s += Cb.sum(axis=1)
        C += Cb if b.direction == "i2t" else Cb.T
    if normalized:
        nh, ng = np.sqrt(np.sum(H * H, axis=1)), np.sqrt(np.sum(G * G, axis=1))
        A, B = H / nh[:, None], G / ng[:, None]
    else:
        A, B = H, G
    dH_pre = np.einsum("kj,jl->kl", C, B) - s[:, None] * B
    dG_pre = np.einsum("kj,kl->jl", C, A) - s[:, None] * A
    if normalized:
        CS = np.multiply(C, S, order="C")
        w_h = (CS.sum(axis=1) - s * np.diagonal(S)) / (nh * nh)
        w_g = (np.ascontiguousarray(CS.T).sum(axis=1) - s * np.diagonal(S)) / (ng * ng)
        dH_pre = dH_pre / nh[:, None] - w_h[:, None] * H
        dG_pre = dG_pre / ng[:, None] - w_g[:, None] * G
    dH = dH_pre * H * (1.0 - H)
    dG = dG_pre * G * (1.0 - G)
    grad = (np.einsum("kl,kp->lp", dH, dataset.images), dH.sum(axis=0),
            np.einsum("kl,kp->lp", dG, dataset.texts), dG.sum(axis=0))
    return losses, grad


class TestMixedBlocks:
    """Block lists over one full tetrad set, in one direction or in both."""

    @pytest.mark.parametrize("directions", [("i2t",), ("i2t", "t2i")], ids=["i2t", "both"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_full_sets_never_build_flat_queries(self, directions, normalized):
        # a cached per-tetrad index (flat_queries, positions) would hold n(n-1) int64 entries for a full set
        dataset, params, tetrads, v = random_instance(41, n=30)
        blocks = [Block(tetrads, d, v) for d in directions]
        cfg = LossConfig(margin=0.1)
        fwd = forward_pass(forward(params, dataset, normalized), blocks)
        losses = block_losses(params, dataset, blocks, cfg, fwd)
        grad_loss_term(params, dataset, blocks, losses, fwd)
        grad_params(params, dataset, blocks, losses, fwd)
        assert cached_arrays(tetrads) == [] and cached_arrays(v) == []


def layout_dataset(rng, n, layout):
    """A random dataset whose feature arrays are C-order, Fortran-order or [::2]-strided views."""
    images, texts = rng.standard_normal((n, 20)), rng.standard_normal((n, 20))
    if layout == "fortran":
        images, texts = np.asfortranarray(images), np.asfortranarray(texts)
    elif layout == "strided":
        images, texts = np.repeat(images, 2, axis=0)[::2], np.repeat(texts, 2, axis=0)[::2]
    return Dataset(images, texts)


def sampled_blocks(rng, dataset, m, directions, zero_share=0.2):
    """One block per direction over its own tetrad set, weights zeroed at rate zero_share.

    m is the negatives per query (None for the full set), or a tuple of
    them, one per block.
    """
    blocks = []
    for i, direction in enumerate(directions):
        tetrads = build_tetrads(dataset, m[i] if isinstance(m, tuple) else m, i)
        values = rng.uniform(size=tetrads.total)
        values[rng.uniform(size=tetrads.total) < zero_share] = 0.0
        blocks.append(Block(tetrads, direction, ImportanceVector(values, tetrads.offsets)))
    return blocks


class TestGatheredPass:
    # (n, d, m, layout of the dataset arrays)
    @pytest.mark.parametrize("n, d, m, layout", [
        (600, 10, 16, "C"), (2000, 10, 16, "C"), (600, 37, 16, "C"), (40, 4, 6, "C"),
        (40, 4, 6, "fortran"), (40, 4, 6, "strided"), (600, 10, 16, "fortran"), (600, 10, 16, "strided"),
    ])
    @pytest.mark.parametrize("directions", [("i2t",), ("t2i",), ("i2t", "t2i")], ids=["i2t", "t2i", "both"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_losses_and_gradient_equal_dense_bitwise(self, monkeypatch, n, d, m, layout, directions, normalized):
        rng = np.random.default_rng(n + d + m)
        dataset = layout_dataset(rng, n, layout)
        params = random_params(rng, d=d, p=20, q=20)
        blocks = sampled_blocks(rng, dataset, m, directions)
        cfg = LossConfig(margin=0.1)
        results = []
        for share, dense in ((0.0, True), (np.inf, False)):
            monkeypatch.setattr(loss, "GATHER_MAX_SHARE", share)
            fwd, scored_dense = scored_pass(params, dataset, blocks, normalized)
            assert scored_dense == dense
            scores = [fwd.aligned.tobytes()] + [fwd.tetrad_scores(b.tetrads, b.direction).tobytes() for b in blocks]
            losses = block_losses(params, dataset, blocks, cfg, fwd)
            grad = grad_loss_term(params, dataset, blocks, losses, fwd)
            results.append(scores + [x.values.tobytes() for x in losses] + [a.tobytes() for a in grad.arrays])
        assert results[0] == results[1]

    def test_path_choice_on_each_side_of_the_constant(self):
        rng = np.random.default_rng(11)
        n = 40
        dataset = random_dataset(rng, n=n, p=5, q=4)
        params = random_params(rng)
        limit = loss.GATHER_MAX_SHARE * n * n
        for directions in (("i2t",), ("i2t", "t2i")):
            m_dense = math.ceil(limit / (n * len(directions)))  # the fewest negatives with T >= limit
            for m, gathered in ((m_dense - 1, True), (m_dense, False)):
                blocks = sampled_blocks(rng, dataset, m, directions)
                assert (sum(b.tetrads.total for b in blocks) < limit) == gathered
                assert scored_pass(params, dataset, blocks)[1] != gathered
        full = build_tetrads(dataset)
        assert scored_pass(params, dataset, [Block(full, "i2t", None)])[1]

    def test_pass_gathered_for_other_tetrads_raises(self, monkeypatch):
        rng = np.random.default_rng(13)
        dataset = random_dataset(rng, n=40, p=5, q=4)
        params = random_params(rng)
        blocks = sampled_blocks(rng, dataset, 2, ("i2t",))
        other = build_tetrads(dataset, 2, 99)
        for share, dense in ((np.inf, False), (0.0, True)):  # the dense form keeps only its blocks' entries too
            monkeypatch.setattr(loss, "GATHER_MAX_SHARE", share)
            fwd, scored_dense = scored_pass(params, dataset, blocks)
            assert scored_dense == dense
            with pytest.raises(AlignmentError):
                all_losses(params, dataset, other, LossConfig(), fwd=fwd)
            with pytest.raises(AlignmentError):
                all_losses(params, dataset, blocks[0].tetrads, LossConfig(), "t2i", fwd=fwd)

    def test_value_evaluation_memory_is_below_one_eighth_of_the_score_matrix(self):
        # the pass picks the gathered path itself: 2 x 160,000 tetrads at n = 10,000
        rng = np.random.default_rng(12)
        n = 10_000
        dataset = random_dataset(rng, n=n, p=8, q=8)
        params = random_params(rng, d=10, p=8, q=8)
        blocks = sampled_blocks(rng, dataset, 16, ("i2t", "t2i"))
        assert sum(b.tetrads.total for b in blocks) < loss.GATHER_MAX_SHARE * n * n  # no 800 MB dense pass
        tracemalloc.start()
        try:
            losses = block_losses(params, dataset, blocks, LossConfig(), point(params, dataset, blocks, True))
            smooth_part(params, blocks, losses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 8


def hinge_rule_gradient(params, dataset, blocks, cfg, fwd):
    """grad_loss_term with each tetrad active iff its hinge, recomputed from fwd's scores, is positive.

    The losses it is handed are 1.0 where that hinge is positive and 0.0
    elsewhere, none of them all_losses'.
    """
    active = []
    for b in blocks:
        hinge = fwd.tetrad_scores(b.tetrads, b.direction) - np.repeat(fwd.aligned, np.diff(b.tetrads.offsets))
        hinge += cfg.margin
        active.append(GroupedVector(np.where(hinge > 0.0, 1.0, 0.0), b.tetrads.offsets))
    return grad_loss_term(params, dataset, blocks, active, fwd)


def selected_active_count(params, dataset, blocks, cfg, normalized=False):
    losses = block_losses(params, dataset, blocks, cfg, point(params, dataset, blocks, normalized))
    return sum(int(np.count_nonzero((x.values > 0.0) & (b.v.values > 0.0))) for x, b in zip(losses, blocks))


class TestScatteredGradient:
    """The gradient is scatter-added over the selected active tetrads with np.bincount, no n x n matrix."""

    # (n, negatives per query: None for the full set or a tuple with one per
    # block, share of zero weights). A tuple mixes full and sampled sets; a
    # full set with no zero weights holds a high share of active tetrads.
    @pytest.mark.parametrize("n, m, zero_share", [
        (13, 1, 0.0), (40, 3, 0.2), (150, 8, 0.2), (600, 16, 0.5), (30, None, 0.9),
        (7, (None, 3), 0.2), (40, (None, 3), 0.2), (7, (3, None), 0.2), (40, (3, None), 0.2),
        (7, None, 0.0), (40, None, 0.0), (150, None, 0.0),
    ], ids=lambda value: "+".join(map(str, value)) if isinstance(value, tuple) else None)
    @pytest.mark.parametrize("directions", [("i2t",), ("t2i",), ("i2t", "t2i")], ids=["i2t", "t2i", "both"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_equals_dense_reference(self, n, m, zero_share, directions, normalized):
        rng = np.random.default_rng(n + len(directions))
        dataset = random_dataset(rng, n=n, p=6, q=5)
        params = random_params(rng, d=4, p=6, q=5)
        blocks = sampled_blocks(rng, dataset, m, directions, zero_share)
        cfg = LossConfig(margin=0.1)
        losses, fwd = at_point(params, dataset, blocks, cfg, normalized)
        active = selected_active_count(params, dataset, blocks, cfg, normalized)
        assert active > 0
        if m is None and zero_share == 0.0:
            assert active >= 0.2 * n * n
        want_losses, want_grad = dense_reference(params, dataset, blocks, cfg, normalized)
        assert [x.values.tobytes() for x in losses] == [x.tobytes() for x in want_losses]
        grad = grad_loss_term(params, dataset, blocks, losses, fwd)
        for got, want in zip(grad.arrays, want_grad):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the same bits as an active set taken from the recomputed hinge, and
        # with infinite losses at the zero-weight tetrads, which are never read
        poisoned = [GroupedVector(np.where(b.v.values == 0.0, np.inf, x.values), x.offsets)
                    for b, x in zip(blocks, losses)]
        want_bits = [a.tobytes() for a in grad.arrays]
        assert [a.tobytes() for a in hinge_rule_gradient(params, dataset, blocks, cfg, fwd).arrays] == want_bits
        assert [a.tobytes() for a in grad_loss_term(params, dataset, blocks, poisoned, fwd).arrays] == want_bits

    @pytest.mark.parametrize("m", [None, 6])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_zero_weight_and_inactive_tetrads_are_never_read(self, m, normalized):
        rng = np.random.default_rng(21)
        dataset = random_dataset(rng, n=30, p=5, q=4)
        params = random_params(rng)
        blocks = sampled_blocks(rng, dataset, m, ("i2t", "t2i"), 0.95)
        cfg = LossConfig(margin=0.0)  # about half the hinges are active, raw or cosine
        losses, fwd = at_point(params, dataset, blocks, cfg, normalized)
        grad = grad_loss_term(params, dataset, blocks, losses, fwd)

        # infinite scores at the zero-weight tetrads, and so infinite losses
        # (read, they would be active, and 0 * inf is NaN in the cosine sums),
        # and new positive weights at the selected inactive ones, leave the
        # gradient's bits alone
        poisoned, reweighted, pruned = [], [], []
        for b in blocks:
            scores = fwd.tetrad_scores(b.tetrads, b.direction).copy()
            scores[b.v.values == 0.0] = np.inf
            poisoned.append((b.tetrads, b.direction, scores))
            hinges = all_losses(params, dataset, b.tetrads, cfg, b.direction, normalized, fwd).values
            values = np.where((hinges > 0.0) | (b.v.values == 0.0), b.v.values,
                              rng.uniform(0.5, 1.0, size=b.tetrads.total))
            reweighted.append(Block(b.tetrads, b.direction, ImportanceVector(values, b.v.offsets)))
            kept = (hinges > 0.0) & (b.v.values > 0.0)
            counts = np.bincount(b.tetrads.flat_queries[kept], minlength=b.tetrads.n)
            tetrads = TetradSet(b.tetrads.n, np.concatenate([[0], np.cumsum(counts)]), b.tetrads.negatives[kept])
            pruned.append(Block(tetrads, b.direction, ImportanceVector(b.v.values[kept], tetrads.offsets)))
        assert any(not np.array_equal(r.v.values, b.v.values) for r, b in zip(reweighted, blocks))
        poisoned_fwd = loss.Pass(fwd.emb, fwd.aligned, tuple(poisoned))
        poisoned_losses = block_losses(params, dataset, blocks, cfg, poisoned_fwd)
        assert all(np.isinf(x.values[b.v.values == 0.0]).all() for b, x in zip(blocks, poisoned_losses))
        want = [a.tobytes() for a in grad.arrays]
        for args in (
            (params, dataset, blocks, poisoned_losses, poisoned_fwd),
            (params, dataset, reweighted, *at_point(params, dataset, reweighted, cfg, normalized)),
            # only the selected active tetrads
            (params, dataset, pruned, *at_point(params, dataset, pruned, cfg, normalized)),
        ):
            assert [a.tobytes() for a in grad_loss_term(*args).arrays] == want
        assert [a.tobytes() for a in hinge_rule_gradient(params, dataset, blocks, cfg, poisoned_fwd).arrays] == want

    @pytest.mark.parametrize("zero_share", [0.95, 0.0])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_full_set_gradient_builds_no_per_tetrad_index(self, zero_share, normalized):
        # a cached per-tetrad index (flat_queries, positive_index) would hold up to
        # n(n-1) int64 entries; a share of 0.95 zero weights leaves few active tetrads, 0.0 many
        rng = np.random.default_rng(44)
        dataset = random_dataset(rng, n=30, p=5, q=4)
        params = random_params(rng)
        blocks = sampled_blocks(rng, dataset, None, ("i2t", "t2i"), zero_share)
        grad_params(params, dataset, blocks, *at_point(params, dataset, blocks, LossConfig(margin=0.3), normalized))
        for b in blocks:
            assert cached_arrays(b.v) == [] and cached_arrays(b.tetrads) == []

    def test_auto_sampled_gradient_memory_is_below_one_score_matrix(self):
        # train's auto-sampled set at n = 10,000: 400 negatives per query,
        # 4 M tetrads, about half of them weighted
        rng = np.random.default_rng(15)
        n = 10_000
        m = trainer._auto_sample(trainer.TrainConfig(), n)
        assert m == 400
        dataset = random_dataset(rng, n=n, p=8, q=8)
        params = random_params(rng, d=10, p=8, q=8)
        blocks = sampled_blocks(rng, dataset, m, ("i2t",), 0.5)
        cfg = LossConfig(margin=0.1)
        tracemalloc.start()
        try:
            fwd = forward_pass(forward(params, dataset, True), blocks)
            losses = block_losses(params, dataset, blocks, cfg, fwd)
            smooth_part(params, blocks, losses)
            grad_loss_term(params, dataset, blocks, losses, fwd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def listings(blocks, losses):
    """Each block's selected_active listing, as the gradient builds it at each call."""
    return [selected_active(b, x) for b, x in zip(blocks, losses)]


def listed_positions(v, losses):
    """Flat positions of the selected active tetrads (v > 0, loss > 0), in flat tetrad order."""
    sel = v.positive_index
    return sel[losses.values[sel] > 0.0]


def nearby(params, seed, scale=0.1):
    """A point near params, as a line-search trial is."""
    step = random_params(np.random.default_rng(seed), params.d, params.p, params.q)
    return params.axpy(scale, step)


def with_empty_groups(rng, tetrads, v):
    """The tetrads and weights with every third query's group emptied and a random third of the rest dropped."""
    kept = (rng.uniform(size=tetrads.total) > 0.3) & (tetrads.flat_queries % 3 != 0)
    counts = np.bincount(tetrads.flat_queries[kept], minlength=tetrads.n)
    pruned = TetradSet(tetrads.n, np.concatenate([[0], np.cumsum(counts)]), tetrads.negatives[kept])
    return pruned, ImportanceVector(v.values[kept], pruned.offsets)


class TestPrefixBound:
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    @pytest.mark.parametrize("n", [9, 300])
    def test_rows_equal_score_matrix_rows_bitwise(self, n, direction, normalized):
        # query_rows gives score_matrix's rows (i2t) or columns (t2i) bit for bit
        dataset, params, _, _ = random_instance(70 + n, n=n, p=20, q=20, d=10)
        S = score_matrix(params, dataset, normalized)
        S = S if direction == "i2t" else S.T
        emb = forward(params, dataset, normalized)
        rng = np.random.default_rng(n)
        order = rng.permutation(n)
        assert query_rows(emb, direction).tobytes() == np.ascontiguousarray(S).tobytes()
        for queries in (order[:1], order[: n // 4], order, rng.integers(0, n, size=2 * n), slice(1, n // 2)):
            R = query_rows(emb, direction, queries)
            assert R.tobytes() == np.ascontiguousarray(S[queries]).tobytes()

    @pytest.mark.parametrize("layout", ["full", "empty-groups"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_terms_equal_weighted_loss_terms_bitwise(self, direction, normalized, layout):
        # the floor's per-block sum at a trial is np.sum of the products all_losses and the
        # weights give there, over the tetrads listed at the current point
        rng = np.random.default_rng(71)
        dataset, params, tetrads, v = random_instance(71, n=40)
        values = v.values.copy()
        values[rng.uniform(size=tetrads.total) < 0.3] = 0.0
        v = ImportanceVector(values, tetrads.offsets)
        if layout == "empty-groups":
            tetrads, v = with_empty_groups(rng, tetrads, v)
        block = Block(tetrads, direction, v)
        cfg = LossConfig(margin=0.1)
        losses = all_losses(params, dataset, tetrads, cfg, direction, normalized)
        active = selected_active(block, losses)
        pos = listed_positions(v, losses)
        assert 0 < len(pos) < len(v.positive_index)
        every = np.arange(dataset.n)
        for at in (params, nearby(params, 1)):
            trial_losses = all_losses(at, dataset, tetrads, cfg, direction, normalized)
            emb = forward(at, dataset, normalized)
            want = float(np.sum(v.values[pos] * trial_losses.values[pos]))
            assert _listed_terms(emb, pair_scores(emb, every, every), direction, active, cfg.margin) == want
        assert np.any(trial_losses.values[pos] == 0.0)  # the trial's active set differs from the listing's

    @pytest.mark.parametrize("layout", ["full", "empty-groups"])
    @pytest.mark.parametrize("directions", [("i2t",), ("t2i",), ("i2t", "t2i")], ids=["i2t", "t2i", "both"])
    @pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
    def test_rejects_only_what_the_full_value_rejects(self, directions, normalized, layout):
        rng = np.random.default_rng(72)
        dataset, params, tetrads, v = random_instance(72, n=64)
        if layout == "empty-groups":
            tetrads, v = with_empty_groups(rng, tetrads, v)
        blocks = [Block(tetrads, d, v) for d in directions]
        cfg = LossConfig(margin=0.1)
        active = listings(blocks, block_losses(params, dataset, blocks, cfg, point(params, dataset, blocks, normalized)))
        for at in (params, nearby(params, 2)):  # the listing's own point, and a trial near it
            losses = block_losses(at, dataset, blocks, cfg, point(at, dataset, blocks, normalized))
            value = smooth_part(at, blocks, losses)
            ridge = ridge_value(at)
            assert value > 2.0 * ridge
            emb = forward(at, dataset, normalized)
            rejected = []
            for share in (0.0, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0, 1.5):
                bound = ridge + share * (value - ridge)
                rejected.append(floor_rejects(emb, blocks, cfg, active, ridge, bound))
                assert not (rejected[-1] and value <= bound)
            assert rejected[0] and not rejected[-2]  # a bound at the ridge falls to the listed terms

    @pytest.mark.parametrize("zero_share", [0.0, 0.4])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_floor_listing_is_the_selected_tetrads_within_reach(self, direction, zero_share):
        rng = np.random.default_rng(79)
        dataset, params, tetrads, v = random_instance(79, n=40)
        values = v.values.copy()
        values[rng.uniform(size=tetrads.total) < zero_share] = 0.0
        tetrads, v = with_empty_groups(rng, tetrads, ImportanceVector(values, tetrads.offsets))
        block = Block(tetrads, direction, v)
        cfg = LossConfig(margin=0.1)
        losses, fwd = at_point(params, dataset, [block], cfg)
        S = score_matrix(params, dataset)
        S = S if direction == "i2t" else S.T
        ks, js = tetrads.flat_queries, tetrads.negatives
        args = (S[ks, js] - S[ks, ks]) + cfg.margin
        pos = np.flatnonzero((v.values > 0.0) & (args > -loss.FLOOR_REACH * cfg.margin))
        got = floor_listing(block, fwd, cfg.margin)
        assert got.queries.tobytes() == ks[pos].tobytes() and got.negatives.tobytes() == js[pos].tobytes()
        assert got.weights.tobytes() == v.values[pos].tobytes()
        active = listed_positions(v, losses[0])
        assert 0 < len(active) < len(pos) and np.isin(active, pos).all()

    @pytest.mark.parametrize("seed", [80, 83])
    def test_reach_listing_rejects_overshoots_the_active_listing_lets_through(self, seed):
        # a line search's trials from a point: where a trial overshoots, the tetrads it activates
        # are not in the active listing, and the floor listing's reach below 0 holds some of them
        rng = np.random.default_rng(seed)
        dataset, params, tetrads, v = random_instance(seed, n=64)
        values = v.values.copy()
        values[rng.uniform(size=tetrads.total) < 0.5] = 0.0
        blocks = [Block(tetrads, "i2t", ImportanceVector(values, tetrads.offsets))]
        cfg = LossConfig(margin=0.1)
        losses, fwd = at_point(params, dataset, blocks, cfg)
        value = smooth_part(params, blocks, losses)
        active = listings(blocks, losses)
        near = [floor_listing(b, fwd, cfg.margin) for b in blocks]
        assert len(near[0].queries) > len(active[0].queries)
        grad = grad_params(params, dataset, blocks, losses, fwd)
        outcomes = []
        for step in 0.5 ** np.arange(12):
            trial = params.axpy(-step, grad)
            bound = value - 1e-4 * step * grad.norm_sq()  # the Armijo bound, as the W-step's search sets it
            emb, ridge = forward(trial, dataset), ridge_value(trial)
            rejected = [floor_rejects(emb, blocks, cfg, listed, ridge, bound) for listed in (active, near)]
            full = smooth_part(trial, blocks, block_losses(trial, dataset, blocks, cfg, point(trial, dataset, blocks)))
            assert not (rejected[1] and full <= bound)  # a full pass rejects what the floor rejects
            outcomes.append(rejected)
        assert [False, True] in outcomes

    def test_bound_within_the_slack_falls_through(self):
        # one weighted query, all of whose tetrads are active: the listing holds every
        # term, so the bound equals the value
        dataset, params, tetrads, v = random_instance(73, n=64)
        values = np.zeros(tetrads.total)
        values[tetrads.offsets[5]:tetrads.offsets[6]] = 0.5
        blocks = [Block(tetrads, "i2t", ImportanceVector(values, tetrads.offsets))]
        cfg = LossConfig(margin=3.0)  # above every raw score gap (d = 3)
        losses = block_losses(params, dataset, blocks, cfg, point(params, dataset, blocks))
        active = listings(blocks, losses)
        assert len(active[0].queries) == 63
        value = smooth_part(params, blocks, losses)
        assert value > 1.01 * ridge_value(params)
        slack = 4.0 * (1 + 63) * np.finfo(np.float64).eps
        emb, ridge = forward(params, dataset), ridge_value(params)
        for bound, rejects in ((np.nextafter(value, -np.inf), False), (value * (1.0 - slack / 2), False),
                               (value * (1.0 - 2 * slack), True)):
            assert value > bound
            assert floor_rejects(emb, blocks, cfg, active, ridge, bound) == rejects

    @pytest.mark.parametrize("case", ["nan-params", "infinite-hinge-sum"])
    def test_non_finite_lower_bound_falls_through(self, case):
        dataset, params, tetrads, v = random_instance(74, n=64)
        cfg = LossConfig(margin=1e308 if case == "infinite-hinge-sum" else 0.1)
        blocks = [Block(tetrads, "i2t", v)]
        trial = params
        if case == "nan-params":  # a NaN bias: the ridge stays finite, every score is NaN
            trial = EmbeddingParams(params.W1, params.b1 * np.nan, params.W2, params.b2)
        with np.errstate(over="ignore", invalid="ignore"):
            active = listings(blocks, block_losses(params, dataset, blocks, cfg, point(params, dataset, blocks)))
            assert len(active[0].queries) > 0
            losses = block_losses(trial, dataset, blocks, cfg, point(trial, dataset, blocks))
            assert not np.isfinite(smooth_part(trial, blocks, losses))
            emb, ridge = forward(trial, dataset), ridge_value(trial)
            assert np.isfinite(ridge)
            for bound in (1e10, 1e300):  # above the ridge, which alone rejects exactly
                assert not floor_rejects(emb, blocks, cfg, active, ridge, bound)

    def test_zero_weights_leave_the_ridge_floor(self):
        dataset, params, tetrads, _ = random_instance(75, n=64)
        blocks = [Block(tetrads, "i2t", ImportanceVector(np.zeros(tetrads.total), tetrads.offsets))]
        cfg = LossConfig(margin=0.1)
        active = listings(blocks, block_losses(params, dataset, blocks, cfg, point(params, dataset, blocks)))
        assert len(active[0].queries) == 0
        # nothing is listed: only the ridge less the rounding slack (T = 1 term) rejects
        emb, ridge = forward(params, dataset), ridge_value(params)
        scale = 1.0 - 4.0 * np.finfo(np.float64).eps
        for bound in (ridge * 0.5, ridge * scale * (1.0 - 1e-15), np.nextafter(ridge, -np.inf), ridge, ridge * 1.5):
            assert floor_rejects(emb, blocks, cfg, active, ridge, bound) == (ridge * scale > bound)
