"""Exception types shared across the package.

The command line maps these onto exit codes: precondition and resource
failures exit 2, insufficient series precision exits 3, and malformed
input (expression syntax or request schema) exits 4.
"""

from __future__ import annotations


class UniformizerError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(UniformizerError):
    """An operation was called on arguments outside its domain."""


class DimensionError(PreconditionError):
    """Elements of different groups or mismatched sizes were combined."""


class ValueOfZeroError(PreconditionError):
    """The value of the zero element was requested."""


class NotAUnitError(PreconditionError):
    """A residue was requested for an element of nonzero value."""


class NotInValuationRingError(PreconditionError):
    """An element of negative value appeared where the ring was required."""


class ResourceError(UniformizerError):
    """An iteration cap was exceeded and no fallback succeeded."""


class InsufficientPrecisionError(UniformizerError):
    """A series computation could not be decided at the available precision.

    ``needed`` carries a hint: a precision above the one that failed, so
    that a caller can rerun with at least that much.
    """

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


class InputError(UniformizerError):
    """Malformed textual or structured input."""


class ExprSyntaxError(InputError):
    """Expression parse failure, with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(InputError):
    """Request validation failure, with a path into the offending document."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path
