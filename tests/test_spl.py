import numpy as np
import pytest

from pacedrank.core import GroupedVector, PacingState
from pacedrank.errors import EmptyGroup, GroupTooLarge
from pacedrank.spl import (
    init_lambda,
    oracle_spld,
    psi_value,
    solve_spl,
    solve_spld,
    update_importance,
)


def random_subproblem(rng, max_g=8):
    g = int(rng.integers(1, max_g + 1))
    losses = rng.uniform(0.0, 2.0, g)
    lam = float(rng.uniform(0.05, 1.0))
    gamma = float(rng.uniform(0.0, 0.5))
    return losses, lam, gamma


class TestSolveSpl:
    def test_below_threshold_selected(self):
        assert np.array_equal(solve_spl([0.3], 0.5).weights, [1.0])

    def test_above_threshold_dropped(self):
        assert np.array_equal(solve_spl([0.7], 0.5).weights, [0.0])

    def test_boundary_selects(self):
        assert np.array_equal(solve_spl([0.5], 0.5).weights, [1.0])

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            solve_spl([], 0.5)

    def test_solution_fields(self):
        sol = solve_spl([0.1, 0.9, 0.4], 0.5)
        assert sol.support_size == 2
        assert sol.objective_value == psi_value(sol.weights, np.array([0.1, 0.9, 0.4]), 0.5, 0.0)


class TestSolveSpld:
    def test_gamma_zero_reduces_to_spl(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            losses, lam, _ = random_subproblem(rng)
            a = solve_spld(losses, lam, 0.0)
            b = solve_spl(losses, lam)
            assert np.array_equal(a.weights, b.weights)

    def test_three_loss_example(self):
        sol = solve_spld([0.1, 0.2, 0.9], 0.3, 0.2)
        assert np.array_equal(sol.weights, [1.0, 1.0, 0.0])

    def test_single_fractional_example(self):
        # stationarity: 1.3*v - 0.3*v - 0.2*sqrt(v) minimized at sqrt(v) = 0.1
        sol = solve_spld([1.3], 0.3, 0.2)
        assert abs(sol.weights[0] - 0.01) < 1e-12

    def test_all_above_threshold_mass_positive(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            g = int(rng.integers(1, 9))
            lam = float(rng.uniform(0.05, 0.5))
            losses = lam + rng.uniform(0.01, 1.5, g)
            gamma = float(rng.uniform(0.01, 0.5))
            sol = solve_spld(losses, lam, gamma)
            assert np.sum(sol.weights) > 0.0

    def test_box_feasible_exactly(self):
        rng = np.random.default_rng(102)
        for _ in range(200):
            losses, lam, gamma = random_subproblem(rng)
            w = solve_spld(losses, lam, gamma).weights
            assert (w >= 0.0).all() and (w <= 1.0).all()

    def test_order_consistency(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            losses, lam, gamma = random_subproblem(rng)
            w = solve_spld(losses, lam, gamma).weights
            order = np.argsort(losses, kind="stable")
            assert (np.diff(w[order]) <= 1e-15).all()

    def test_permutation_equivariance_with_ties(self):
        losses = np.array([0.2, 0.5, 0.5, 0.5])
        base = solve_spld(losses, 0.4, 0.3)
        perm = np.array([2, 0, 3, 1])
        permuted = solve_spld(losses[perm], 0.4, 0.3)
        assert np.array_equal(permuted.weights, base.weights[perm])

    def test_tie_class_shares_equally(self):
        sol = solve_spld([0.2, 0.5, 0.5, 0.5], 0.4, 0.3)
        # stationary total mass 2.25: 1 whole unit plus 1.25 shared over the tie
        np.testing.assert_allclose(sol.weights, [1.0, 1.25 / 3, 1.25 / 3, 1.25 / 3], rtol=1e-12)

    def test_easiness_monotonicity(self):
        rng = np.random.default_rng(104)
        for _ in range(100):
            losses, lam, _ = random_subproblem(rng)
            lam2 = lam * float(rng.uniform(1.0, 3.0))
            low = solve_spld(losses, lam, 0.0).weights > 0
            high = solve_spld(losses, lam2, 0.0).weights > 0
            assert (high | ~low).all()  # selected set grows with lam


class TestOracleAgreement:
    def test_objectives_match_on_random_instances(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            losses, lam, gamma = random_subproblem(rng)
            closed = solve_spld(losses, lam, gamma)
            brute, diag = oracle_spld(losses, lam, gamma)
            assert closed.objective_value <= brute.objective_value + 1e-8
            assert abs(closed.objective_value - brute.objective_value) <= 1e-8
            assert diag.kkt_residual <= 1e-6
            assert diag.grid_points >= 10_000

    def test_gamma_zero_matches_spl_objective(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            losses, lam, _ = random_subproblem(rng)
            a = solve_spl(losses, lam)
            b, _ = oracle_spld(losses, lam, 0.0)
            assert b.objective_value == pytest.approx(a.objective_value, abs=1e-12)

    def test_all_above_threshold_oracle_mass_positive(self):
        brute, _ = oracle_spld([0.8, 1.1, 1.4], 0.3, 0.25)
        assert np.sum(brute.weights) > 0.0

    def test_group_too_large(self):
        with pytest.raises(GroupTooLarge):
            oracle_spld(np.ones(65), 0.5, 0.1)


class TestUpdateImportance:
    def test_gamma_zero_concatenates_spl(self):
        losses = GroupedVector.from_groups([np.array([0.1, 0.9]), np.array([0.4, 0.6, 0.2])])
        v = update_importance(losses, PacingState(lam=0.5, gamma=0.0))
        expected = np.concatenate(
            [solve_spl([0.1, 0.9], 0.5).weights, solve_spl([0.4, 0.6, 0.2], 0.5).weights]
        )
        assert np.array_equal(v.values, expected)

    def test_group_permutation_equivariance(self):
        losses = np.array([0.3, 0.8, 0.1, 0.5])
        base = update_importance(
            GroupedVector(losses, np.array([0, 4])), PacingState(lam=0.4, gamma=0.2)
        )
        perm = np.array([3, 1, 0, 2])
        permuted = update_importance(
            GroupedVector(losses[perm], np.array([0, 4])), PacingState(lam=0.4, gamma=0.2)
        )
        assert np.array_equal(permuted.values, base.values[perm])

    def test_groups_match_oracle(self):
        rng = np.random.default_rng(49)
        groups = [rng.uniform(0.0, 2.0, 6) for _ in range(5)]
        grouped = GroupedVector.from_groups(groups)
        pacing = PacingState(lam=0.35, gamma=0.2)
        v = update_importance(grouped, pacing)
        for k in range(5):
            got = psi_value(v.group(k), groups[k], pacing.lam, pacing.gamma)
            brute, _ = oracle_spld(groups[k], pacing.lam, pacing.gamma)
            assert abs(got - brute.objective_value) <= 1e-8

    def test_diversity_guarantees_positive_mass_per_group(self):
        rng = np.random.default_rng(107)
        groups = [rng.uniform(1.0, 3.0, 5) for _ in range(6)]  # all losses large
        v = update_importance(GroupedVector.from_groups(groups), PacingState(lam=0.2, gamma=0.3))
        sums = v.group_sums()
        assert (sums > 0.0).all()

    def test_selected_mass_monotone_under_pacing(self):
        rng = np.random.default_rng(108)
        losses = GroupedVector.from_groups([rng.uniform(0.0, 2.0, 7) for _ in range(4)])
        lam, gamma = 0.1, 0.05
        prev = -1.0
        for _ in range(10):
            mass = float(np.sum(update_importance(losses, PacingState(lam=lam, gamma=gamma)).values))
            assert mass >= prev - 1e-12
            prev = mass
            lam, gamma = lam * 1.3, gamma * 1.3


class TestInitLambda:
    def test_median_interpolation(self):
        losses = GroupedVector.from_groups([np.array([1.0, 2.0, 3.0, 4.0])])
        assert init_lambda([losses], 0.5) == pytest.approx(2.5)

    def test_fraction_one_selects_all(self):
        group = np.array([0.2, 0.9, 0.4])
        losses = GroupedVector.from_groups([group])
        lam = init_lambda([losses], 1.0)
        assert lam >= group.max()
        assert np.array_equal(solve_spl(group, lam).weights, np.ones(3))

    def test_constant_losses(self):
        losses = GroupedVector.from_groups([np.full(5, 0.7), np.full(3, 0.7)])
        assert init_lambda([losses], 0.3) == pytest.approx(0.7)

    def test_empty_raises(self):
        with pytest.raises(EmptyGroup):
            init_lambda([GroupedVector(np.array([]), np.array([0]))], 0.5)
        with pytest.raises(EmptyGroup):
            init_lambda([], 0.5)

    def test_blocks_pool_their_groups(self):
        rng = np.random.default_rng(12)
        groups = [rng.uniform(0.0, 2.0, size) for size in (4, 7, 5, 9, 3)]
        blocks = [GroupedVector.from_groups(groups[:2]), GroupedVector.from_groups(groups[2:])]
        expected = float(np.median([float(np.quantile(g, 0.4)) for g in groups]))
        assert init_lambda(blocks, 0.4) == expected
        assert init_lambda([GroupedVector.from_groups(groups)], 0.4) == expected
