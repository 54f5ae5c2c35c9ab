"""Finite-difference verification of the analytic gradient.

The numeric side perturbs every parameter entry by +-h and differences the
smooth objective (ridge + weighted hinge sum); the analytic side is the
vectorized backprop. Instances are drawn so that no hinge argument sits
within a small band of its kink, where the subgradient convention would
make the comparison meaningless.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Dataset,
    EmbeddingParams,
    ImportanceVector,
    LossConfig,
    build_tetrads,
    check_seed,
    validate_dataset,
)
from .embed import forward
from .errors import ConfigInvalid
from .loss import Block, _hinge_args, block_losses, forward_pass, grad_params, smooth_part

KINK_BAND = 1e-6


@dataclass(frozen=True)
class GradCheckInstance:
    dataset: Dataset
    params: EmbeddingParams
    blocks: tuple[Block, ...]
    cfg: LossConfig
    normalized: bool


def _pass(params, inst: GradCheckInstance):
    return forward_pass(forward(params, inst.dataset, inst.normalized), inst.blocks)


def _smooth(params, inst: GradCheckInstance) -> float:
    losses = block_losses(params, inst.dataset, inst.blocks, inst.cfg, _pass(params, inst))
    return smooth_part(params, inst.blocks, losses)


def make_instance(
    seed: int,
    n: int = 6,
    p: int = 5,
    q: int = 5,
    d: int = 3,
    directions: tuple[str, ...] = ("i2t",),
    normalized: bool = False,
    m: Optional[int] = None,
) -> GradCheckInstance:
    """Seeded random instance with hinge arguments pushed off their kinks.

    Each direction gets its own block over one tetrad set (the full set, or
    m sampled negatives per query) with its own random weights; two blocks
    give the symmetric trainer's gradient.
    """
    rng = np.random.default_rng(seed)
    dataset = validate_dataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))
    params = EmbeddingParams.from_arrays(
        rng.standard_normal((d, p)) * 0.5,
        rng.standard_normal(d) * 0.1,
        rng.standard_normal((d, q)) * 0.5,
        rng.standard_normal(d) * 0.1,
    )
    tetrads = build_tetrads(dataset, m, seed)
    blocks = tuple(
        Block(tetrads, direction, ImportanceVector(rng.uniform(0.0, 1.0, tetrads.total), tetrads.offsets))
        for direction in directions
    )
    fwd = forward_pass(forward(params, dataset, normalized), blocks)
    margin = 0.05
    for _ in range(100):
        if _min_kink_distance(fwd, blocks, margin) > KINK_BAND:
            return GradCheckInstance(dataset, params, blocks, LossConfig(margin=margin), normalized)
        margin += 1e-3
    raise RuntimeError("could not find a kink-free margin")


def _min_kink_distance(fwd, blocks, margin: float) -> float:
    """Smallest |hinge argument| over every block's tetrads in the forward pass fwd."""
    args = [_hinge_args(fwd, b.tetrads, b.direction, margin) for b in blocks]
    return min(float(np.min(np.abs(a), initial=np.inf)) for a in args)


def numeric_gradient(inst: GradCheckInstance, h: float = 1e-5):
    """Central finite differences of the smooth objective, entry by entry."""
    parts = []
    base = inst.params
    for name in ("W1", "b1", "W2", "b2"):
        arr = getattr(base, name)
        grad = np.zeros_like(arr)
        flat = grad.reshape(-1)
        src = arr.reshape(-1)
        for i in range(src.size):
            plus = src.copy()
            plus[i] += h
            minus = src.copy()
            minus[i] -= h
            p_plus = dataclasses.replace(base, **{name: plus.reshape(arr.shape)})
            p_minus = dataclasses.replace(base, **{name: minus.reshape(arr.shape)})
            flat[i] = (_smooth(p_plus, inst) - _smooth(p_minus, inst)) / (2.0 * h)
        parts.append(grad)
    return tuple(parts)


def max_relative_error(inst: GradCheckInstance, h: float = 1e-5, corrupt: float = 0.0) -> float:
    """Max over entries of |analytic - numeric| / max(1, |numeric|); NaN if any entry is NaN.

    The corrupt offset exists as a negative control: it shifts the analytic
    gradient so the check must fail.
    """
    fwd = _pass(inst.params, inst)
    losses = block_losses(inst.params, inst.dataset, inst.blocks, inst.cfg, fwd)
    analytic = grad_params(inst.params, inst.dataset, inst.blocks, losses, fwd)
    numeric = numeric_gradient(inst, h)
    worst = 0.0
    for a, ncomp in zip(analytic.arrays, numeric):
        a = a + corrupt
        err = np.abs(a - ncomp) / np.maximum(1.0, np.abs(ncomp))
        worst = float(np.maximum(worst, err.max()))  # np.maximum keeps a NaN, max() would drop it
    return worst


def run_gradient_check(
    n_instances: int = 20,
    base_seed: int = 0,
    h: float = 1e-5,
    corrupt: float = 0.0,
) -> float:
    """Worst relative error across seeded instances (small dims).

    Instance dimensions cycle through p, q <= 8, d <= 4 and cover both
    retrieval directions, their two-block sum (symmetric training) and the
    normalized-similarity mode. Every third instance is a sampled set, one
    negative per query at 12 <= n <= 16, whose forward pass gathers its
    scores as train's sampled sets do; the others are full sets at n <= 8.
    A NaN error on any instance makes the result NaN, which fails any
    tolerance.
    Fewer than one instance (which checks nothing) or a negative base_seed raises ConfigInvalid.
    """
    if n_instances < 1:
        raise ConfigInvalid(f"a gradient check needs at least one instance, got {n_instances}")
    check_seed(base_seed)
    worst = 0.0
    for i in range(n_instances):
        seed = base_seed + i
        rng = np.random.default_rng(seed ^ 0x5EED)
        sampled = i % 3 == 2
        inst = make_instance(
            seed,
            n=int(rng.integers(12, 17) if sampled else rng.integers(4, 9)),
            p=int(rng.integers(2, 9)),
            q=int(rng.integers(2, 9)),
            d=int(rng.integers(1, 5)),
            directions=(("i2t", "t2i"), ("i2t",), ("i2t",), ("t2i",))[i % 4],
            normalized=(i % 5 == 4),
            m=1 if sampled else None,
        )
        worst = float(np.maximum(worst, max_relative_error(inst, h=h, corrupt=corrupt)))
    return worst
