"""Exception types shared across the package."""

from __future__ import annotations


class EffortlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EffortlabError):
    """A data file could not be parsed. Carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class SchemaError(EffortlabError):
    """A data file violates the expected schema (columns, ids, codes)."""


class DomainError(EffortlabError):
    """An argument is outside the mathematical domain of an operation."""


class CollinearityError(EffortlabError):
    """A design matrix is rank deficient. Carries the dependent column."""

    def __init__(self, message: str, column: str | int | None = None):
        self.column = column
        super().__init__(message)


class InsufficientDataError(EffortlabError):
    """Too few rows for the requested fit."""


class DegenerateInputError(EffortlabError):
    """Input is constant or otherwise statistically degenerate."""
