"""Exception types shared across the package."""

from __future__ import annotations


class EffortlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EffortlabError):
    """A data file is not a table of the schema: a bad token, line,
    header or id. Carries the offending row number when one line is at
    fault."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DomainError(EffortlabError):
    """A value, record or argument that an operation does not accept."""


class CollinearityError(EffortlabError):
    """A design matrix is rank deficient. Carries the dependent column."""

    def __init__(self, message: str, column: str | int | None = None):
        self.column = column
        super().__init__(message)
