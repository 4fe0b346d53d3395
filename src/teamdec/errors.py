"""Exception hierarchy shared across the package.

Construction-time type errors raise ValidationError subclasses; analysis
routines raise AnalysisError subclasses so callers (and the CLI) can map
them to distinct exit codes.
"""

from __future__ import annotations


class TeamError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TeamError):
    """Malformed input: bad shapes, masses, labels, or annotations."""


class DimensionMismatch(ValidationError):
    """A table's shape disagrees with the declared index sets."""


class GroundMismatch(ValidationError):
    """Two partitions do not share the same ground set."""


class MalformedAnnotation(ValidationError):
    """A subsystem annotation is inconsistent with the problem."""


class AnalysisError(TeamError):
    """A well-formed input on which the requested analysis is undefined."""


class NonDeterministicMeasurement(AnalysisError):
    """A measurement kernel row is not a point mass where one is required."""


class CapExceeded(AnalysisError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} items exceeds cap {cap}")

    @classmethod
    def check(cls, count: int, cap: int) -> int:
        """``count``, or CapExceeded(count, cap) when it is over ``cap``."""
        if count > cap:
            raise CapExceeded(count, cap)
        return count


class AbsoluteContinuityFailure(AnalysisError):
    """A reference measure misses part of a kernel row's support."""

    def __init__(self, dm: int, y_label, history):
        self.dm = dm
        self.y_label = y_label
        self.history = history
        super().__init__(
            f"DM {dm}: reference has zero mass at y={y_label!r} reachable "
            f"from history {history!r}"
        )


class NotClassical(AnalysisError):
    """The information structure is not classical where classicality is required."""


class NonMember(AnalysisError):
    """A measure fails the strategic-measure membership required here."""


class StaticRequired(AnalysisError):
    """The operation is only defined for static information structures."""


class NonNumericActions(AnalysisError):
    """Action spaces lack the numeric embedding needed for convexity tests."""
