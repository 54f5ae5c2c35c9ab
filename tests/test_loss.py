import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pacedrank

from pacedrank.core import (
    Dataset,
    EmbeddingParams,
    ImportanceVector,
    LossConfig,
    PacingState,
    TetradSet,
    build_tetrads,
    validate_dataset,
)
from pacedrank.embed import score_matrix
from pacedrank.errors import AlignmentError, IndexOutOfRange
from pacedrank.gradcheck import make_instance, max_relative_error
from pacedrank.loss import (
    Block,
    all_losses,
    grad_loss_term,
    grad_params,
    objective,
    ridge_value,
    tetrad_loss,
)

from conftest import random_instance, random_params


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

        g = grad_loss_term(params, dataset, tetrads, v, cfg, "t2i", normalized)
        s = grad_loss_term(swapped_params, swapped_data, tetrads, v, cfg, "i2t", normalized)
        for got, want in zip(g.arrays, (s.W2, s.b2, s.W1, s.b1)):
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
# a BLAS product anywhere in the gradient shows up as differing bytes here.
_GRADIENT_BYTES = """
import hashlib
import numpy as np
from pacedrank.core import ImportanceVector, LossConfig, build_tetrads, validate_dataset
from pacedrank.loss import grad_loss_term
from pacedrank.trainer import init_params

rng = np.random.default_rng(7)
dataset = validate_dataset(rng.standard_normal((600, 20)), rng.standard_normal((600, 20)))
params = init_params(rng, 10, 20, 20)
tetrads = build_tetrads(dataset, 32, 7)
v = ImportanceVector(rng.uniform(0.0, 1.0, tetrads.total), tetrads.offsets)
digest = hashlib.sha256()
for normalized in (False, True):
    for direction in ("i2t", "t2i"):
        g = grad_loss_term(params, dataset, tetrads, v, LossConfig(margin=0.1), direction, normalized)
        for arr in g.arrays:
            digest.update(arr.tobytes())
print(digest.hexdigest())
"""



class TestGradient:
    def test_zero_weights_gradient_is_ridge(self):
        dataset, params, tetrads, _ = random_instance(8)
        v = ImportanceVector(np.zeros(tetrads.total), tetrads.offsets)
        g = grad_params(params, dataset, [Block(tetrads, "i2t", v)], LossConfig())
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
        g = grad_params(params, ds, [Block(tetrads, "i2t", v)], LossConfig(margin=0.1))
        # query 1's hinge is active, so only assert the satisfied side's share:
        # with both hinges inactive the gradient reduces to the ridge exactly
        v0 = ImportanceVector(np.array([1.0, 0.0]), tetrads.offsets)
        g0 = grad_params(params, ds, [Block(tetrads, "i2t", v0)], LossConfig(margin=0.1))
        assert np.array_equal(g0.W1, params.W1)
        assert np.array_equal(g0.b2, np.zeros(1))

    def test_finite_difference_seed48(self):
        inst = make_instance(48, n=6, p=5, q=5, d=3)
        assert max_relative_error(inst, h=1e-5) < 1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_finite_difference_sweep(self, seed):
        rng = np.random.default_rng(seed * 31 + 5)
        inst = make_instance(
            seed,
            n=int(rng.integers(4, 9)),
            p=int(rng.integers(2, 9)),
            q=int(rng.integers(2, 9)),
            d=int(rng.integers(1, 5)),
            directions=(("i2t",), ("i2t", "t2i"), ("t2i",))[seed % 3],
            normalized=(seed % 4 == 3),
        )
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

        g_full = grad_params(params, dataset, [Block(tetrads, "i2t", v)], cfg)
        g_pruned = grad_params(params, dataset, [Block(pruned, "i2t", v_pruned)], cfg)
        assert np.array_equal(g_full.W1, g_pruned.W1)
        assert np.array_equal(g_full.b1, g_pruned.b1)
        assert np.array_equal(g_full.W2, g_pruned.W2)
        assert np.array_equal(g_full.b2, g_pruned.b2)

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
