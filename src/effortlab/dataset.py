"""Parsing, validation, filtering, and summaries for effort datasets.

The canonical schema is the Desharnais project table: twelve attributes
per project, with PointsNonAdjust and PointsAdjust derived from the other
size fields. Files circulate as CSV and as a minimal ARFF-like format;
both are accepted here, and CSV is the normative interchange format.

Lines are read once, in order, a chunk at a time, and no copy of the
whole text is kept: a file's bytes are checked as UTF-8, and its lines
are decoded from them as the chunks are read. Each chunk's data lines
are joined and split once on commas, and each column is converted in
one pass. An int column is range-checked only in a chunk with a line
longer than 308 characters, since a shorter token is below 10**308,
inside the float range. A chunk with an underscore or a non-ASCII
character goes cell by cell, where such a token is rejected: `int` and
`float` would read `1_0` as 10, and a fullwidth or Arabic-Indic digit as
the ASCII one.
"""

from __future__ import annotations

import io
import math
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, lt
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DomainError, ParseError, SchemaError

COLUMNS = (
    "Project",
    "TeamExp",
    "ManagerExp",
    "YearEnd",
    "Length",
    "Effort",
    "Transactions",
    "Entities",
    "PointsNonAdjust",
    "Envergure",
    "PointsAdjust",
    "Language",
)

MISSING_MARKERS = frozenset({"", "?"})

_FLOAT_COLUMNS = frozenset({"Effort", "PointsNonAdjust", "PointsAdjust"})
_ID_COLUMN = "Project"

# Rows converted column by column at a time; bounds the tokens held at once.
_CHUNK_ROWS = 2048

# No int written in this many characters is beyond the float range.
_SHORT_LINE = 308

ADJUST_TOLERANCE = 0.02


class RawRecord(NamedTuple):
    """One data row as parsed; every non-id field may be absent (None)."""

    project_id: int
    team_exp: int | None = None
    manager_exp: int | None = None
    year_end: int | None = None
    length: int | None = None
    effort: float | None = None
    transactions: int | None = None
    entities: int | None = None
    points_non_adjust: float | None = None
    envergure: int | None = None
    points_adjust: float | None = None
    language: int | None = None


class ProjectRecord(NamedTuple):
    """One complete project row."""

    project_id: int
    team_exp: int
    manager_exp: int
    year_end: int
    length: int
    effort: float
    transactions: int
    entities: int
    points_non_adjust: float
    envergure: int
    points_adjust: float
    language: int


# The numeric attributes that `summarize` describes, in record order.
SUMMARY_ATTRIBUTES = tuple(name for name in ProjectRecord._fields
                           if name not in ("project_id", "language"))


class _Table(Sequence):
    """Records as one read-only sequence per field, each record built on
    access; a table equals a list holding the same records. `complete`
    states that no cell is None; False means unknown."""

    __slots__ = ("columns", "kind", "complete")

    def __init__(self, columns: list[Sequence], kind: type,
                 complete: bool = False) -> None:
        self.columns, self.kind = columns, kind  # kind: the record class
        self.complete = complete

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Table([c[index] for c in self.columns], self.kind,
                          self.complete)
        return tuple.__new__(self.kind, [c[index] for c in self.columns])

    def __iter__(self):
        return map(partial(tuple.__new__, self.kind), zip(*self.columns))

    def __eq__(self, other) -> bool:  # also makes a table unhashable
        return (list(self) == list(other)
                if isinstance(other, (list, _Table)) else NotImplemented)


def _columns_of(records: Iterable[tuple]) -> dict[str, Sequence]:
    """Each field's values by name, read off a table or transposed once."""
    columns = (records.columns if isinstance(records, _Table)
               else list(zip(*records)) or [()] * len(COLUMNS))
    return dict(zip(RawRecord._fields, columns))


@dataclass(frozen=True, slots=True)
class Violation:
    """A failed derivation check on one record."""

    project_id: int
    attribute: str
    expected: float
    actual: float

    def __str__(self) -> str:
        return (f"project {self.project_id}: {self.attribute} expected "
                f"{self.expected:g}, got {self.actual:g}")


@dataclass(frozen=True, slots=True)
class AttributeSummary:
    count: int
    mean: float
    minimum: float
    maximum: float
    sd: float


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """Per-attribute descriptive statistics over complete records."""

    attributes: dict[str, AttributeSummary]
    count: int


def _parse_value(token: str, column: str, row: int):
    token = token.strip()
    if token in MISSING_MARKERS:
        return None
    try:
        if "_" in token or not token.isascii():  # int() and float() take both
            raise ValueError
        value = float(token) if column in _FLOAT_COLUMNS else int(token)
    except ValueError:
        raise ParseError(
            f"non-numeric token {token!r} in column {column}", row=row
        ) from None
    if column == _ID_COLUMN:  # ids are never used as numbers
        return value
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        raise ParseError(
            f"out-of-range token {token!r} in column {column}", row=row
        ) from None
    if not finite:
        raise ParseError(
            f"non-finite token {token!r} in column {column}", row=row
        )
    return value


def _convert_column(tokens: list[str], convert, column: str,
                    row_nos: list[int], short_lines: bool,
                    plain: bool) -> tuple[list, bool]:
    """One column of a chunk in one pass of `convert`, and whether no cell
    is missing; the per-cell path only when the chunk is not `plain`, or
    some token is missing, malformed, not finite or (an int other than an
    id, in a chunk that is not `short_lines`) beyond the float range."""
    if plain:
        try:
            values = list(map(convert, tokens))
            if convert is float:
                if not all(map(math.isfinite, values)):
                    raise ValueError
            elif column != _ID_COLUMN and not short_lines:
                # OverflowError when the largest magnitude is beyond the range
                float(max(values)), float(min(values))
            return values, True
        except (ValueError, OverflowError):
            pass
    values = [_parse_value(t, column, r) for t, r in zip(tokens, row_nos)]
    return values, None not in values


def _chunk(lines: list[str], row_nos: list[int], width: int, specs: list,
           seen: set) -> tuple[tuple[list, ...], bool]:
    """Columns of a chunk, converted column by column, and whether no cell
    is missing. Raises the first failing check: each row's width, then
    each column in COLUMNS order, then a missing id, then a duplicate id;
    for a one-row chunk that is the row's own error."""
    commas = list(map(str.count, lines, repeat(",")))
    if commas.count(width - 1) != len(commas):
        row_no, n = next((r, n) for r, n in zip(row_nos, commas)
                         if n != width - 1)
        raise ParseError(f"expected {width} fields, got {n + 1}", row=row_no)
    text = ",".join(lines)
    cells = text.split(",")
    short_lines = max(map(len, lines)) <= _SHORT_LINE
    plain = text.isascii() and "_" not in text
    values, complete = zip(*(
        _convert_column(cells[i::width], convert, column, row_nos,
                        short_lines, plain)
        for i, convert, column in specs))
    ids = values[0]
    if None in ids:
        raise ParseError("missing project id", row=row_nos[ids.index(None)])
    if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        duplicate = next(i for i, n in Counter(ids).items()
                         if n > 1 or i in seen)
        raise SchemaError(f"duplicate project id {duplicate}")
    seen.update(ids)  # last: a chunk that fails is converted again
    return values, all(complete)


def _records_from_lines(lines: Iterator[str], row: int,
                        columns: list[str]) -> Sequence[RawRecord]:
    """Stripped lines that follow the header on physical row `row` are
    read a chunk at a time, and the data lines of each chunk (those not
    blank) are converted together. A chunk that fails is converted again
    one row at a time: every earlier row was clean, so the first row
    that fails alone raises the file's first error."""
    missing = [c for c in COLUMNS if c not in columns]
    if missing:
        raise SchemaError(f"missing attributes: {', '.join(missing)}")
    duplicate = [c for c in COLUMNS if columns.count(c) > 1]
    if duplicate:
        raise SchemaError(f"duplicate attributes: {', '.join(duplicate)}")
    specs = [(columns.index(c), float if c in _FLOAT_COLUMNS else int, c)
             for c in COLUMNS]
    table: list[list] = [[] for _ in COLUMNS]
    seen: set = set()
    complete = True
    for block in iter(lambda: list(islice(lines, _CHUNK_ROWS)), []):
        nos = list(compress(range(row + 1, row + 1 + len(block)), block))
        row += len(block)
        chunk = list(compress(block, block))
        if not chunk:
            continue
        try:
            parts = [_chunk(chunk, nos, len(columns), specs, seen)]
        except (ParseError, SchemaError):
            parts = [_chunk([line], [row_no], len(columns), specs, seen)
                     for line, row_no in zip(chunk, nos)]
        for values, whole in parts:
            complete = complete and whole
            for column, part in zip(table, values):
                column.extend(part)
    return _Table(table, RawRecord, complete)


def _parse_arff(lines: Iterator[str], row: int) -> Sequence[RawRecord]:
    """Declarations up to `@data`, then every line that is not blank is
    a data row; a `%` starts a comment on any line."""
    lines = (line.split("%", 1)[0].strip() for line in lines)
    columns: list[str] = []
    for row, line in enumerate(lines, start=row + 1):
        lowered = line.lower()
        if not line or lowered.startswith("@relation"):
            continue
        if lowered.startswith("@data"):
            break
        if not lowered.startswith("@attribute"):
            raise ParseError(f"unexpected line {line!r}", row=row)
        parts = line.split()
        if len(parts) < 2:
            raise ParseError("malformed attribute declaration", row=row)
        columns.append(parts[1].strip("'\""))
    if not columns:
        raise SchemaError("no attribute declarations found")
    return _records_from_lines(lines, row, columns)


def parse_dataset(stream: IO[str]) -> Sequence[RawRecord]:
    """Parse a dataset stream into RawRecords, one per data row, picking
    the format from its content: the ARFF-like format when its first
    non-blank character is `@` or `%`, CSV otherwise. A byte-order mark
    that starts the text is dropped. The stream's own iteration finds
    the lines, as the caller opened it, and they are read once, in
    order: rows are numbered by physical line, blank lines included."""
    lines = iter(stream)
    first = next(lines, "").removeprefix("\ufeff")
    stripped = map(str.strip, chain([first], lines))
    row, header = next(filter(itemgetter(1), enumerate(stripped, 1)),
                       (1, ""))
    if not header:
        raise ParseError("empty file", row=row)
    if header[0] in "@%":
        return _parse_arff(chain([header], stripped), row - 1)
    columns = [c.strip() for c in header.split(",")]
    return _records_from_lines(stripped, row, columns)


def _decode(data: bytes, digest) -> None:
    """Check that `data` is UTF-8, naming the line of the first bad
    byte, and feed it to `digest`."""
    if digest is not None:
        digest.update(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the parser's universal newlines break at \n, \r\n and \r alike
        line = len((exc.object[:exc.start] + b"x").splitlines())
        raise ParseError(
            f"line {line}: invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
        ) from None


def load_dataset(path: str, digest=None) -> Sequence[RawRecord]:
    """Parse a dataset file, as `parse_dataset` does.

    The file is read once, as UTF-8 with an optional byte-order mark. A
    hashlib object passed as `digest` is updated with exactly the bytes
    that were parsed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    _decode(data, digest)
    return parse_dataset(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                          newline=None))


def bundled_dataset_path() -> str:
    """Filesystem path of the dataset shipped with the package."""
    return str(resources.files("effortlab").joinpath("data/desharnais.csv"))


def filter_complete(records: Iterable[RawRecord]) -> Sequence[ProjectRecord]:
    """Keep records with all twelve fields present, preserving order."""
    columns = _columns_of(records)
    complete = isinstance(records, _Table) and records.complete
    if not complete and any(None in c for c in columns.values()):
        keep = [None not in row for row in zip(*columns.values())]
        columns = {name: list(compress(c, keep))
                   for name, c in columns.items()}
    table = _Table(list(columns.values()), ProjectRecord)
    # one pass per column; only if that fails (a NaN may) is each checked
    if (all(map(partial(lt, 0), columns["effort"]))
            and all(map(partial(lt, 0), columns["points_non_adjust"]))
            and all(map((1, 2, 3).__contains__, columns["language"]))):
        return table
    for rec in table:
        if rec.effort <= 0 or rec.points_non_adjust <= 0:
            what = "effort" if rec.effort <= 0 else "size"
            raise DomainError(f"project {rec.project_id}: {what} must be "
                              "positive")
        if rec.language not in (1, 2, 3):
            raise SchemaError(f"project {rec.project_id}: language code "
                              f"{rec.language} not in 1..3")
    return table


def _derived_violations(records: Iterable[tuple]) -> list[Violation]:
    """Check the two Table-derived size identities on every record, in
    one pass over the columns; the violations come in record order."""
    columns = _columns_of(records)
    rows = zip(*(columns[name] for name in (
        "project_id", "transactions", "entities", "points_non_adjust",
        "envergure", "points_adjust")))
    violations = []
    for project_id, transactions, entities, pna, envergure, pa in rows:
        expected_sum = transactions + entities
        if pna != expected_sum:
            violations.append(Violation(project_id, "points_non_adjust",
                                        expected_sum, pna))
        expected_adjust = pna * (0.65 + 0.01 * envergure)
        if (expected_adjust > 0 and abs(pa - expected_adjust)
                / expected_adjust > ADJUST_TOLERANCE):
            violations.append(Violation(project_id, "points_adjust",
                                        expected_adjust, pa))
    return violations


def validate_derived(record: ProjectRecord) -> list[Violation]:
    """Check the two Table-derived size identities on one record."""
    return _derived_violations([record])


def summarize(records: Sequence[ProjectRecord]) -> DatasetSummary:
    """Descriptive statistics per numeric attribute; every sum is added
    strictly left to right, as the built-in `sum()` did before Python
    3.12 made it compensated, so the bits do not depend on the Python
    version."""
    if not records:
        raise DomainError("cannot summarize an empty dataset")
    attributes = {}
    n = len(records)
    columns = _columns_of(records)
    for name in SUMMARY_ATTRIBUTES:
        values = list(map(float, columns[name]))
        mean = deque(accumulate(values, initial=0.0), maxlen=1)[0] / n
        squares = 0.0
        try:
            for v in values:  # a loop: no generator to resume per value
                squares += (v - mean) ** 2
            sd = math.sqrt(squares / (n - 1)) if n > 1 else 0.0
        except OverflowError:
            sd = math.inf
        if not math.isfinite(sd):  # also when the mean overflowed
            raise DomainError(f"{name} values are too large to summarize")
        attributes[name] = AttributeSummary(
            count=n, mean=mean, minimum=min(values), maximum=max(values),
            sd=sd,
        )
    return DatasetSummary(attributes=attributes, count=n)

