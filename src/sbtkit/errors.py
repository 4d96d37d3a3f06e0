"""Exception and warning types shared across the toolkit."""

__all__ = [
    "SbtkitError", "ParamError", "DomainError", "DomainMismatch", "DegreeError",
    "PoleHit", "MapSingularity", "OriginError", "NormalizationError", "EmptyInput",
    "NumericOverflow", "NotSettled", "WindowError", "CrossCheckError",
    "StabilityRangeWarning", "UnstableWarning",
]


class SbtkitError(Exception):
    """Base class for all toolkit errors."""


class ParamError(SbtkitError):
    """A constructor argument violates its constraint."""


class DomainError(SbtkitError):
    """A value lies outside the mathematical domain of an operation."""


class DomainMismatch(SbtkitError):
    """Continuous and discrete systems were combined."""


class DegreeError(SbtkitError):
    """A polynomial has the wrong degree for the requested operation."""


class PoleHit(SbtkitError):
    """A transfer function was evaluated at (or too close to) a pole."""


class MapSingularity(SbtkitError):
    """The requested point maps through the singularity of the bilinear map."""


class OriginError(SbtkitError):
    """z = 0 has no finite logarithm, so no equivalent s-plane point."""


class CrossCheckError(SbtkitError, ArithmeticError):
    """Two independent numeric routes disagree, or a root fails its residual check."""


class NormalizationError(SbtkitError):
    """Coefficient normalization would divide by (nearly) zero."""


class EmptyInput(SbtkitError):
    """An aggregate operation received no data."""


class NumericOverflow(SbtkitError):
    """A simulated signal exceeded the divergence guard."""


class NotSettled(SbtkitError):
    """A steady-state measurement was requested before the transient decayed."""


class WindowError(SbtkitError):
    """A measurement window does not span an integer number of periods."""


class StabilityRangeWarning(UserWarning):
    """The shape factor lies outside [0.5, 1], so stability is not guaranteed."""


class UnstableWarning(UserWarning):
    """A discretized system has a pole outside the closed unit disk."""
