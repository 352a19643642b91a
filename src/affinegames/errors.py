"""Shared exception base for domain-level failures.

Every error that represents a well-formed input the solvers cannot or will
not handle (dimension caps, class preconditions, singular pivots, ...)
subclasses DomainError, mostly so the command line layer can map all of
them to a single exit code. Malformed input is a different animal and is
raised as InputFormatError by the JSON layer.
"""

__all__ = ["DomainError", "DimensionTooLarge"]


class DomainError(Exception):
    """A valid request the library declines: caps, class preconditions, etc."""


class DimensionTooLarge(DomainError):
    """Matrix or game dimension exceeds a fixed enumeration cap (CLASSIFY_CAP,
    ENUM_CAP or BRUTE_FORCE_CAP)."""
