"""Typed errors raised across the package.

Every failure mode surfaced by the public API is one of these classes, so
callers can catch `PacedRankError` for blanket handling or the specific
class when they need to branch.
"""


class PacedRankError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(PacedRankError):
    """Matrices that must agree on a dimension do not."""


class NonFiniteValue(PacedRankError):
    """A NaN or infinity appeared where finite reals are required."""


class TooSmall(PacedRankError):
    """Dataset has fewer than the minimum number of pairs."""


class SampleTooLarge(PacedRankError):
    """Requested more negatives per query than exist."""


class DimensionMismatch(PacedRankError):
    """Input vector length does not match the embedding parameters."""


class IndexOutOfRange(PacedRankError):
    """A tetrad refers to a row outside the dataset."""


class AlignmentError(PacedRankError):
    """A grouped vector does not line up with its tetrad set."""


class EmptyGroup(PacedRankError):
    """A per-query solve was attempted on an empty loss group."""


class GroupTooLarge(PacedRankError):
    """Oracle solver invoked beyond its supported group size."""


class NonFiniteObjective(PacedRankError):
    """Training produced a non-finite objective or gradient, or cosine scores divide by a zero row norm."""


class ConfigInvalid(PacedRankError):
    """A configuration value violates its documented constraints."""


class InvalidCutoff(PacedRankError):
    """Average precision requested with a cutoff below 1."""


class SplitTooSmall(PacedRankError):
    """A requested split would leave some part with fewer than 2 rows."""


class IoFailure(PacedRankError):
    """Underlying file I/O failed."""


class ParseError(PacedRankError):
    """A feature or config file could not be parsed."""


class RaggedRows(PacedRankError):
    """Feature file rows have inconsistent widths."""


class VersionMismatch(PacedRankError):
    """Checkpoint was written by an incompatible format version."""


class CorruptCheckpoint(PacedRankError):
    """Checkpoint bytes are truncated, altered, or malformed."""
