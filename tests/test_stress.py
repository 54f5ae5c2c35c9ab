"""Stress runs: extreme data and configurations either train or fail typed.

Each run must train to finite parameters and finite recorded objectives, or
raise the error whose exit code cli documents: ConfigInvalid (1) for a
configuration rejected before training, NonFiniteObjective (2) for a
runtime numerical failure. pyproject.toml turns every warning into an
error, so a numpy overflow or invalid-value warning fails the run as well.
Every corpus comes from a seeded numpy generator.
"""

import numpy as np
import pytest

from pacedrank.core import Dataset, validate_dataset
from pacedrank.errors import ConfigInvalid, NonFiniteObjective
from pacedrank.trainer import TrainConfig, train


def corpus(n=30, p=5, q=5, scale=1.0) -> Dataset:
    rng = np.random.default_rng(0)
    return validate_dataset(rng.standard_normal((n, p)) * scale, rng.standard_normal((n, q)) * scale)


def duplicated() -> Dataset:
    """10 distinct pairs, each repeated 3 times in a row."""
    ds = corpus(n=10)
    return validate_dataset(np.repeat(ds.images, 3, axis=0), np.repeat(ds.texts, 3, axis=0))


TRAINS = "trains"
SCALES = [1e-300, 1e-150, 1e-10, 1.0, 1e10, 1e150, 1e300]
# (feature scale, cosine) -> outcome. Cosine scores fail once the sigmoid saturates a
# row to a norm of 0 (from 1e10 here); raw scores at 1e300 give a finite gradient whose
# squared norm overflows, so every Armijo bound would be -inf.
SCALE_OUTCOMES = {
    **{(s, False): TRAINS for s in SCALES[:-1]},
    (1e300, False): NonFiniteObjective,
    **{(s, True): TRAINS for s in SCALES[:4]},
    **{(s, True): NonFiniteObjective for s in SCALES[4:]},
}

CASES = {
    "duplicate-rows": (duplicated(), {}, TRAINS),
    "duplicate-rows-cosine-sym": (duplicated(), dict(normalized_similarity=True, symmetric_tetrads=True), TRAINS),
    "n2": (corpus(n=2), {}, TRAINS),
    "n2-sym": (corpus(n=2), dict(symmetric_tetrads=True), TRAINS),
    "n2-cosine": (corpus(n=2), dict(normalized_similarity=True), TRAINS),
    "n2-cosine-sym": (corpus(n=2), dict(normalized_similarity=True, symmetric_tetrads=True), TRAINS),
    "d-above-p": (corpus(p=2, q=2), dict(embedding_dim=50), TRAINS),
    "m1-sym": (corpus(), dict(sample_negatives=1, symmetric_tetrads=True), TRAINS),
    "margin-0": (corpus(), dict(margin=0.0), TRAINS),
    "margin-1e-300": (corpus(), dict(margin=1e-300), TRAINS),
    "margin-1e10": (corpus(), dict(margin=1e10), TRAINS),
    "margin-1e300": (corpus(), dict(margin=1e300), TRAINS),
    "step-1e-300": (corpus(), dict(initial_step=1e-300), TRAINS),
    # a far trial's ridge overflows to +inf, which rejects it
    "step-1e300": (corpus(), dict(initial_step=1e300), TRAINS),
    # the pacing would overflow within max_outer_iters: rejected before any W-step
    "growth-1e300": (corpus(), dict(lam_growth=1e300, gamma_growth=1e300), ConfigInvalid),
    "growth-1e300-two-iterations": (corpus(), dict(lam_growth=1e300, gamma_growth=1e300, max_outer_iters=2), TRAINS),
    "gamma-ratio-0": (corpus(), dict(gamma_ratio=0.0), TRAINS),
    "gamma-ratio-1e300": (corpus(), dict(gamma_ratio=1e300), TRAINS),
    "init-fraction-1e-300": (corpus(), dict(init_fraction=1e-300), TRAINS),
    "init-fraction-1": (corpus(), dict(init_fraction=1.0), TRAINS),
    "shrink-1e-300": (corpus(), dict(shrink_factor=1e-300), TRAINS),
    "shrink-below-1": (corpus(), dict(shrink_factor=1.0 - 2.0**-53), TRAINS),
    "sufficient-decrease-1e-300": (corpus(), dict(sufficient_decrease=1e-300), TRAINS),
    "sufficient-decrease-below-1": (corpus(), dict(sufficient_decrease=1.0 - 2.0**-53), TRAINS),
}


def check_run(dataset, overrides, outcome):
    cfg = TrainConfig(**{"embedding_dim": 3, "max_outer_iters": 3, "max_inner_steps": 5, **overrides})
    if outcome is not TRAINS:
        with pytest.raises(outcome):
            train(dataset, cfg)
        return
    params, history = train(dataset, cfg)
    assert params.is_finite()
    assert len(history) == cfg.max_outer_iters
    for r in history.records:
        assert np.isfinite([r.objective_entry, r.objective_after_w, r.objective, r.lam, r.gamma]).all()


@pytest.mark.parametrize("normalized", [False, True], ids=["raw", "cosine"])
@pytest.mark.parametrize("scale", SCALES, ids=[f"{s:g}" for s in SCALES])
def test_feature_scale(scale, normalized):
    check_run(corpus(scale=scale), dict(normalized_similarity=normalized), SCALE_OUTCOMES[scale, normalized])


@pytest.mark.parametrize("case", CASES)
def test_extreme_case(case):
    check_run(*CASES[case])
