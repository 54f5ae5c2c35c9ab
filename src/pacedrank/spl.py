"""Per-query importance-weight solvers.

Each query group solves, independently of the others,

    minimize  psi(v) = sum_j v_j * l_j - lam * sum_j v_j - gamma * sqrt(sum_j v_j)
    over      v in [0, 1]^g

with losses l_j >= 0, lam > 0, gamma >= 0. For fixed total mass
t = sum_j v_j the linear part is minimized by filling the cheapest losses
first, so psi reduces to a convex piecewise-smooth function of t alone:

    F(t) = (prefix sum of sorted losses up to t) - lam * t - gamma * sqrt(t)

On the segment where the marginal loss is l, F'(t) = (l - lam) - gamma/(2 sqrt(t)).
The closed-form solver fills every sorted rank u with l_(u) < lam + gamma/(2 sqrt(u))
(these form a prefix) and then places the stationary residual mass
t* = (gamma / (2 (l - lam)))^2 on the boundary loss value l, shared equally
across all items holding that value so the solution depends only on loss
values, never on input order. With gamma = 0 the rank test is l < lam and
the boundary rule selects every loss equal to lam, so solve_spld gives the
pure threshold rule of solve_spl.

oracle_spld solves the same problem by brute force on the 1-D reduction
(dense grid plus per-segment stationary candidates) and reports a
projected-gradient KKT residual; it exists to cross-check the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GroupedVector, ImportanceVector, PacingState
from .errors import ConfigInvalid, EmptyGroup, GroupTooLarge

ORACLE_MAX_GROUP = 64


@dataclass(frozen=True)
class WeightSolution:
    """Solution of one per-query subproblem."""

    weights: np.ndarray
    objective_value: float
    support_size: int


@dataclass(frozen=True)
class OracleDiagnostics:
    """Certificates from the brute-force solve."""

    kkt_residual: float
    grid_points: int


def _check_group(losses: np.ndarray, lam: float, gamma: float) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) == 0:
        raise EmptyGroup("loss group must be a nonempty 1-D vector")
    if not np.isfinite(losses).all() or (losses < 0.0).any():
        raise ConfigInvalid("losses must be finite and nonnegative")
    if not (lam > 0.0 and np.isfinite(lam)):
        raise ConfigInvalid("lam must be positive")
    if not (gamma >= 0.0 and np.isfinite(gamma)):
        raise ConfigInvalid("gamma must be nonnegative")
    return losses


def psi_value(weights: np.ndarray, losses: np.ndarray, lam: float, gamma: float) -> float:
    """The subproblem objective evaluated from its definition."""
    mass = float(np.sum(weights))
    return float(np.dot(weights, losses)) - lam * mass - gamma * float(np.sqrt(mass))


def _solution(weights: np.ndarray, losses: np.ndarray, lam: float, gamma: float) -> WeightSolution:
    weights = np.clip(weights, 0.0, 1.0)
    return WeightSolution(
        weights=weights,
        objective_value=psi_value(weights, losses, lam, gamma),
        support_size=int(np.count_nonzero(weights > 0.0)),
    )


def solve_spl(losses, lam: float) -> WeightSolution:
    """Pure easiness rule: v_j = 1 iff l_j <= lam (boundary selects)."""
    losses = _check_group(losses, lam, 0.0)
    return _solution((losses <= lam).astype(np.float64), losses, lam, 0.0)


def solve_spld(losses, lam: float, gamma: float) -> WeightSolution:
    """Closed-form global minimizer of the diversity-regularized subproblem."""
    losses = _check_group(losses, lam, gamma)
    g = len(losses)
    order = np.argsort(losses, kind="stable")
    ls = losses[order]
    ranks = np.arange(1, g + 1, dtype=np.float64)
    passed = ls < lam + gamma / (2.0 * np.sqrt(ranks))
    filled = g if passed.all() else int(np.argmin(passed))  # prefix length

    v_sorted = np.zeros(g)
    v_sorted[:filled] = 1.0
    if filled < g:
        boundary = ls[filled]
        tie_lo = int(np.searchsorted(ls, boundary, side="left"))
        tie_hi = int(np.searchsorted(ls, boundary, side="right"))
        n_tied = tie_hi - tie_lo
        if boundary <= lam:
            # a loss at or below lam fails the rank test only when it equals
            # lam: always at gamma = 0, or when lam + gamma / (2 sqrt(u))
            # rounds to lam. Selecting it cannot raise psi.
            v_sorted[tie_lo:tie_hi] = 1.0
        else:
            t_star = (gamma / (2.0 * (boundary - lam))) ** 2
            tie_mass = min(max(t_star - tie_lo, 0.0), float(n_tied))
            v_sorted[tie_lo:tie_hi] = min(tie_mass / n_tied, 1.0)

    weights = np.empty(g)
    weights[order] = v_sorted
    return _solution(weights, losses, lam, gamma)


def _prefix_fill(ls_sorted: np.ndarray, t: float) -> np.ndarray:
    g = len(ls_sorted)
    v = np.zeros(g)
    whole = int(min(np.floor(t), g))
    v[:whole] = 1.0
    if whole < g:
        v[whole] = t - whole
    return v


def oracle_spld(losses, lam: float, gamma: float, grid_points: int = 10_001):
    """Brute-force solve of the same subproblem, for cross-checking.

    Scans the 1-D mass reduction F(t) on a dense grid over [0, g] together
    with every integer breakpoint and every per-segment stationary point,
    reconstructs the cheapest-first weights at the best mass, and evaluates
    the objective from its definition. Returns the solution plus the
    projected-gradient KKT residual at the returned point.
    """
    losses = _check_group(losses, lam, gamma)
    g = len(losses)
    if g > ORACLE_MAX_GROUP:
        raise GroupTooLarge(f"oracle supports groups up to {ORACLE_MAX_GROUP}, got {g}")

    order = np.argsort(losses, kind="stable")
    ls = losses[order]
    prefix = np.concatenate([[0.0], np.cumsum(ls)])

    def f_of_t(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        whole = np.minimum(np.floor(t).astype(np.int64), g)
        frac = t - whole
        edge = whole >= g
        marginal = ls[np.minimum(whole, g - 1)]
        loss_mass = prefix[whole] + np.where(edge, 0.0, frac * marginal)
        return loss_mass - lam * t - gamma * np.sqrt(t)

    candidates = [np.linspace(0.0, float(g), grid_points), np.arange(0.0, g + 1.0)]
    above = ls > lam
    if gamma > 0.0 and above.any():
        stationary = (gamma / (2.0 * (ls[above] - lam))) ** 2
        candidates.append(np.clip(stationary, 0.0, float(g)))
    ts = np.concatenate(candidates)
    best_t = float(ts[int(np.argmin(f_of_t(ts)))])

    v_sorted = _prefix_fill(ls, best_t)
    weights = np.empty(g)
    weights[order] = v_sorted
    weights = np.clip(weights, 0.0, 1.0)

    mass = float(np.sum(weights))
    if mass > 0.0:
        grad = losses - lam - gamma / (2.0 * np.sqrt(mass))
    elif gamma == 0.0:
        grad = losses - lam
    else:
        grad = np.full(g, -np.inf)  # descent direction of -gamma*sqrt at 0
    residual = float(np.max(np.abs(weights - np.clip(weights - grad, 0.0, 1.0))))

    return _solution(weights, losses, lam, gamma), OracleDiagnostics(residual, len(ts))


def update_importance(losses: GroupedVector, pacing: PacingState) -> ImportanceVector:
    """Solve every query group independently and repack the weights."""
    if losses.n_groups == 0:
        raise EmptyGroup("no query groups to solve")
    parts = []
    for k in range(losses.n_groups):
        parts.append(solve_spld(losses.group(k), pacing.lam, pacing.gamma).weights)
    flat = np.concatenate(parts) if parts else np.empty(0)
    return ImportanceVector(flat, losses.offsets)


def init_lambda(losses: Sequence[GroupedVector], fraction: float) -> float:
    """Median, over every query group of every block, of the group's `fraction` loss quantile.

    Chosen so that roughly this fraction of tetrads per query clears the
    easiness threshold at the first importance update. Quantiles use linear
    interpolation.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigInvalid("fraction must lie in (0, 1]")
    quantiles = []
    for block in losses:
        for k in range(block.n_groups):
            group = block.group(k)
            if len(group) == 0:
                raise EmptyGroup(f"loss group {k} is empty")
            quantiles.append(float(np.quantile(group, fraction)))
    if not quantiles:
        raise EmptyGroup("no loss groups")
    return float(np.median(quantiles))
