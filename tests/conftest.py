import dataclasses

import numpy as np
import pytest

from pacedrank.core import EmbeddingParams, ImportanceVector, build_tetrads, validate_dataset
from pacedrank.embed import forward
from pacedrank.loss import block_losses, forward_pass


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_dataset(rng, n=6, p=5, q=4):
    return validate_dataset(rng.standard_normal((n, p)), rng.standard_normal((n, q)))


def random_params(rng, d=3, p=5, q=4, scale=0.5):
    return EmbeddingParams.from_arrays(
        rng.standard_normal((d, p)) * scale,
        rng.standard_normal(d) * 0.1,
        rng.standard_normal((d, q)) * scale,
        rng.standard_normal(d) * 0.1,
    )


def random_instance(seed, n=6, p=5, q=4, d=3):
    """Dataset, params, full tetrads, and uniform-random weights."""
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng, n, p, q)
    params = random_params(rng, d, p, q)
    tetrads = build_tetrads(dataset)
    v = ImportanceVector(rng.uniform(0.0, 1.0, tetrads.total), tetrads.offsets)
    return dataset, params, tetrads, v


def cached_arrays(obj):
    """Names of the arrays obj holds beyond its dataclass fields, sorted: any per-tetrad index it caches."""
    fields = {f.name for f in dataclasses.fields(obj)}
    return sorted(name for name, x in vars(obj).items() if isinstance(x, np.ndarray) and name not in fields)


def point(params, dataset, blocks, normalized=False):
    """The forward pass at params for these blocks, which block_losses and the gradient read."""
    return forward_pass(forward(params, dataset, normalized), blocks)


def at_point(params, dataset, blocks, cfg, normalized=False):
    """(losses, pass) at params for these blocks: the point grad_loss_term and grad_params read."""
    fwd = point(params, dataset, blocks, normalized)
    return block_losses(params, dataset, blocks, cfg, fwd), fwd


def extreme_values():
    """Doubles that stress %.17g: the powers of ten from 1e-300 to 1e300 (every seventh
    negated too), both zeros, subnormals, the normal and largest extremes, nan, the
    infinities, and values whose 17 digits are all needed."""
    powers = 10.0 ** np.arange(-300, 301, dtype=np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf,
               0.1, 1.0 / 3.0, -2.5e-3, 1e22, 2.0**53 + 2.0, np.nextafter(1.0, 2.0)]
    return np.concatenate([powers, -powers[::7], special])
