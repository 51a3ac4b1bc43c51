"""Exception types raised across the package."""

from __future__ import annotations


class CdColorError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CdColorError):
    """Malformed graph input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(CdColorError):
    """Instance exceeds a documented solver capacity cap."""


class PreconditionError(CdColorError):
    """A solver precondition does not hold for the given input."""


class NotSplitError(PreconditionError):
    """Graph admits no partition into a clique and an independent set."""
