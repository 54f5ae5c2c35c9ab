"""Feature-file I/O, deterministic splitting, and synthetic corpora.

The synthetic generator plants a shared low-dimensional latent behind both
modalities: x_i = A e_i + noise and z_i = B e_i + noise, so pair structure
is recoverable and a latent-space oracle can certify it. The skewed variant
inflates the noise on a chosen fraction of queries, producing a corpus
where easy tetrads concentrate in the clean queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .core import Dataset, check_seed, validate_dataset
from .errors import (
    ConfigInvalid,
    IoFailure,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    SplitTooSmall,
)

HARD_NOISE_FACTOR = 5.0


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the permutation seed."""

    train: float = 0.6
    validation: float = 0.2
    test: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.seed)
        for name, frac in (("train", self.train), ("validation", self.validation), ("test", self.test)):
            if not (0.0 < frac < 1.0):
                raise ConfigInvalid(f"{name} fraction must lie in (0, 1)")
        if abs(self.train + self.validation + self.test - 1.0) > 1e-9:
            raise ConfigInvalid("split fractions must sum to 1")


@dataclass(frozen=True)
class SynthSpec:
    """Planted-correspondence corpus parameters."""

    n: int
    latent: int
    p: int
    q: int
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.n < 4:
            raise ConfigInvalid("need at least 4 pairs")
        if self.latent < 1 or self.latent > min(self.p, self.q):
            raise ConfigInvalid("latent dimension must satisfy 1 <= latent <= min(p, q)")
        if not (self.noise >= 0.0 and math.isfinite(self.noise)):
            raise ConfigInvalid("noise std must be a nonnegative finite real")


def load_features(path) -> np.ndarray:
    """Parse a whitespace-separated feature file into an n x dim matrix.

    Lines starting with '#' and blank lines are skipped. The first data row
    fixes the width. Errors report 1-based line and column positions.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    rows = []
    width = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise RaggedRows(
                f"line {lineno}: expected {width} values, got {len(tokens)}"
            )
        row = np.empty(len(tokens))
        for col, tok in enumerate(tokens, start=1):
            try:
                value = float(tok)
            except ValueError as exc:
                raise ParseError(
                    f"line {lineno}, column {col}: cannot parse {tok!r} as a real"
                ) from exc
            if not math.isfinite(value):
                raise NonFiniteValue(f"line {lineno}, column {col}: non-finite value {tok!r}")
            row[col - 1] = value
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.vstack(rows)


def save_features(path, matrix) -> None:
    """Write a matrix in the feature-file format with 17 significant digits."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigInvalid("feature matrix must be 2-dimensional")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for row in matrix:
                fh.write(" ".join(f"{x:.17g}" for x in row))
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded permutation of range(n) sliced into the three parts."""
    n_train = int(n * spec.train)
    n_val = int(n * spec.validation)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise SplitTooSmall(f"cannot split {n} rows into nonempty parts with {spec}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def _take(dataset: Dataset, idx: np.ndarray) -> Dataset:
    ids = None
    if dataset.ids is not None:
        ids = [dataset.ids[i] for i in idx]
    return validate_dataset(dataset.images[idx], dataset.texts[idx], ids)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into train/validation/test, pairs kept aligned."""
    idx_train, idx_val, idx_test = split_indices(dataset.n, spec)
    return _take(dataset, idx_train), _take(dataset, idx_val), _take(dataset, idx_test)


def synth_components(spec: SynthSpec):
    """Draw the latent matrix, the two planted maps, and the noise blocks.

    Draw order is fixed (latents, maps, image noise, text noise) so that
    derived generators can reuse the identical base sample.
    """
    rng = np.random.default_rng(spec.seed)
    latents = rng.standard_normal((spec.n, spec.latent))
    map_img = rng.standard_normal((spec.p, spec.latent)) / math.sqrt(spec.latent)
    map_txt = rng.standard_normal((spec.q, spec.latent)) / math.sqrt(spec.latent)
    noise_img = rng.standard_normal((spec.n, spec.p))
    noise_txt = rng.standard_normal((spec.n, spec.q))
    return rng, latents, map_img, map_txt, noise_img, noise_txt


def synth_generate(spec: SynthSpec) -> Dataset:
    """Planted-correspondence corpus with homogeneous noise."""
    _, latents, map_img, map_txt, noise_img, noise_txt = synth_components(spec)
    images = latents @ map_img.T + spec.noise * noise_img
    texts = latents @ map_txt.T + spec.noise * noise_txt
    return validate_dataset(images, texts)


def skewed_synth(spec: SynthSpec, hard_query_fraction: float) -> Dataset:
    """Planted corpus where a fraction of queries get 5x noise on both sides.

    The base sample path is identical to synth_generate, so a fraction that
    rounds to zero hard queries reproduces it exactly. Hard rows are marked
    in the ids as "q####:hard", clean rows as "q####:clean".
    """
    if not (0.0 < hard_query_fraction < 1.0):
        raise ConfigInvalid("hard query fraction must lie in (0, 1)")
    rng, latents, map_img, map_txt, noise_img, noise_txt = synth_components(spec)
    n_hard = int(round(spec.n * hard_query_fraction))
    scale = np.ones(spec.n)
    hard = np.zeros(spec.n, dtype=bool)
    if n_hard > 0:
        hard_idx = rng.choice(spec.n, size=n_hard, replace=False)
        scale[hard_idx] = HARD_NOISE_FACTOR
        hard[hard_idx] = True
    images = latents @ map_img.T + spec.noise * scale[:, None] * noise_img
    texts = latents @ map_txt.T + spec.noise * scale[:, None] * noise_txt
    ids = [f"q{i:04d}:{'hard' if hard[i] else 'clean'}" for i in range(spec.n)]
    return validate_dataset(images, texts, ids)
