"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else surfaces as a plain ValueError/TypeError.
"""

from __future__ import annotations


class InclusionKitError(Exception):
    """Base class for package-specific errors."""


class AmbientMismatch(InclusionKitError):
    """Two objects live in different ambient spaces."""


class DimensionMismatch(InclusionKitError):
    """An argument has the wrong dimension for the requested operation."""


class ZeroInSet(InclusionKitError):
    """The query point is itself a member of the point set."""


class InvalidInput(InclusionKitError):
    """A problem instance violates a load-time contract."""


class SchemaError(InvalidInput):
    """A JSON document violates the input schema.

    ``pointer`` locates the offending value as a JSON pointer string.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


class NotInterior(InclusionKitError):
    """The origin is not interior to the hull of the factor set."""


class Unbounded(InclusionKitError):
    """A polytope is unbounded where a bounded one is required."""


class BudgetExceeded(InclusionKitError):
    """A resource cap was hit before the requested bound was reached."""
