"""Parsing, validation, filtering, and summaries for effort datasets.

The canonical schema is the Desharnais project table: twelve attributes
per project, with PointsNonAdjust and PointsAdjust derived from the other
size fields. Files circulate as CSV and as a minimal ARFF-like format;
both are accepted here, and CSV is the normative interchange format.
"""

from __future__ import annotations

import io
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from operator import attrgetter
from typing import IO, Iterable, NamedTuple

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

ADJUST_TOLERANCE = 0.02

SUMMARY_ATTRIBUTES = (
    "team_exp",
    "manager_exp",
    "year_end",
    "length",
    "effort",
    "transactions",
    "entities",
    "points_non_adjust",
    "envergure",
    "points_adjust",
)


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

    def is_complete(self) -> bool:
        return None not in self


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


def _convert_column(tokens: tuple[str, ...], convert, column: str,
                    row_nos: list[int]) -> list:
    """One column of a chunk in one pass of `convert`; the per-cell path
    only when some token is missing, malformed, not finite or (an int
    other than an id) beyond the float range."""
    try:
        values = list(map(convert, tokens))
        if convert is float:
            if not all(map(math.isfinite, values)):
                raise ValueError
        elif column != _ID_COLUMN:
            # OverflowError when the largest magnitude is beyond the range
            float(max(values)), float(min(values))
        return values
    except (ValueError, OverflowError):
        return [_parse_value(t, column, r) for t, r in zip(tokens, row_nos)]


def _chunk(chunk: list[tuple[int, list[str]]], width: int, specs: list,
           seen: set) -> list[RawRecord]:
    """Records of a chunk, converted column by column. Raises the first
    failing check: each row's width, then each column in COLUMNS order,
    then a missing id, then a duplicate id; for a one-row chunk that is
    the row's own error."""
    for row_no, tokens in chunk:
        if len(tokens) != width:
            raise ParseError(
                f"expected {width} fields, got {len(tokens)}", row=row_no,
            )
    row_nos = [row_no for row_no, _ in chunk]
    cells = list(zip(*(tokens for _, tokens in chunk)))
    values = [_convert_column(cells[i], convert, column, row_nos)
              for i, convert, column in specs]
    ids = values[0]
    if None in ids:
        raise ParseError("missing project id", row=row_nos[ids.index(None)])
    if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        duplicate = next(i for i, n in Counter(ids).items()
                         if n > 1 or i in seen)
        raise SchemaError(f"duplicate project id {duplicate}")
    seen.update(ids)  # last: a chunk that fails is converted again
    return list(map(RawRecord, *values))


def _records_from_rows(rows: Iterable[tuple[int, list[str]]],
                       columns: list[str]) -> list[RawRecord]:
    """Rows are converted a chunk at a time. A chunk that fails is
    converted again one row at a time: every earlier row was clean, so
    the first row that fails alone raises the file's first error."""
    missing = [c for c in COLUMNS if c not in columns]
    if missing:
        raise SchemaError(f"missing attributes: {', '.join(missing)}")
    duplicate = [c for c in COLUMNS if columns.count(c) > 1]
    if duplicate:
        raise SchemaError(f"duplicate attributes: {', '.join(duplicate)}")
    specs = [(columns.index(c), float if c in _FLOAT_COLUMNS else int, c)
             for c in COLUMNS]
    records: list[RawRecord] = []
    seen: set = set()
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        try:
            records.extend(_chunk(chunk, len(columns), specs, seen))
        except (ParseError, SchemaError):
            for row in chunk:
                records.extend(_chunk([row], len(columns), specs, seen))
    return records


def _parse_csv(stream: IO[str]) -> list[RawRecord]:
    # rows are numbered by physical line, blank lines included
    lines = [(row_no, ln.rstrip("\r\n"))
             for row_no, ln in enumerate(stream, start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty file", row=1)
    columns = [c.strip() for c in lines[0][1].split(",")]
    rows = ((row_no, line.split(",")) for row_no, line in lines[1:])
    return _records_from_rows(rows, columns)


def _parse_arff(stream: IO[str]) -> list[RawRecord]:
    columns: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    in_data = False
    for row_no, raw in enumerate(stream, start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("malformed attribute declaration", row=row_no)
            columns.append(parts[1].strip("'\""))
            continue
        if lowered.startswith("@data"):
            in_data = True
            continue
        if not in_data:
            raise ParseError(f"unexpected line {line!r}", row=row_no)
        rows.append((row_no, line.split(",")))
    if not columns:
        raise SchemaError("no attribute declarations found")
    return _records_from_rows(iter(rows), columns)


def parse_dataset(stream: IO[str], format: str = "csv") -> list[RawRecord]:
    """Parse a dataset stream into RawRecords, one per data row."""
    if format == "csv":
        return _parse_csv(stream)
    if format == "arff-like":
        return _parse_arff(stream)
    raise DomainError(f"unknown format {format!r}")


def _decode(data: bytes, digest) -> str:
    if digest is not None:
        digest.update(data)
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"line {line}: invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
        ) from None


def load_dataset(path: str, digest=None) -> list[RawRecord]:
    """Parse a dataset file, picking the format from its content.

    The file is read once, as UTF-8 with an optional byte-order mark. A
    hashlib object passed as `digest` is updated with exactly the bytes
    that were parsed.
    """
    with open(path, "rb") as fh:
        text = _decode(fh.read(), digest)
    fmt = "arff-like" if text[:1] in ("@", "%") else "csv"
    return parse_dataset(io.StringIO(text, newline=None), format=fmt)


def bundled_dataset_path() -> str:
    """Filesystem path of the dataset shipped with the package."""
    return str(resources.files("effortlab").joinpath("data/desharnais.csv"))


def filter_complete(records: list[RawRecord]) -> list[ProjectRecord]:
    """Keep records with all twelve fields present, preserving order."""
    out = []
    for rec in records:
        if None in rec:
            continue
        if rec.effort <= 0:
            raise DomainError(
                f"project {rec.project_id}: effort must be positive"
            )
        if rec.points_non_adjust <= 0:
            raise DomainError(
                f"project {rec.project_id}: size must be positive"
            )
        if rec.language not in (1, 2, 3):
            raise SchemaError(
                f"project {rec.project_id}: language code {rec.language} "
                f"not in 1..3"
            )
        out.append(ProjectRecord._make(rec))
    return out


def validate_derived(record: ProjectRecord) -> list[Violation]:
    """Check the two Table-derived size identities on one record."""
    violations = []
    expected_sum = record.transactions + record.entities
    if record.points_non_adjust != expected_sum:
        violations.append(Violation(
            record.project_id, "points_non_adjust",
            expected_sum, record.points_non_adjust,
        ))
    expected_adjust = record.points_non_adjust * (
        0.65 + 0.01 * record.envergure)
    if expected_adjust > 0:
        rel = abs(record.points_adjust - expected_adjust) / expected_adjust
        if rel > ADJUST_TOLERANCE:
            violations.append(Violation(
                record.project_id, "points_adjust",
                expected_adjust, record.points_adjust,
            ))
    return violations


def summarize(records: list[ProjectRecord]) -> DatasetSummary:
    """Descriptive statistics per numeric attribute."""
    if not records:
        raise DomainError("cannot summarize an empty dataset")
    attributes = {}
    n = len(records)
    for name in SUMMARY_ATTRIBUTES:
        values = list(map(float, map(attrgetter(name), records)))
        mean = sum(values) / n
        try:
            sd = (math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
                  if n > 1 else 0.0)
        except OverflowError:
            sd = math.inf
        if not math.isfinite(sd):  # also when the mean overflowed
            raise DomainError(f"{name} values are too large to summarize")
        attributes[name] = AttributeSummary(
            count=n, mean=mean, minimum=min(values), maximum=max(values),
            sd=sd,
        )
    return DatasetSummary(attributes=attributes, count=n)


def serialize_records(records: Iterable[RawRecord | ProjectRecord]) -> str:
    """Render records back to canonical CSV text."""
    lines = [",".join(COLUMNS)]
    for rec in records:
        tokens = []
        for value in rec:
            if value is None:
                tokens.append("?")
            elif isinstance(value, float) and value == int(value):
                tokens.append(str(int(value)))
            else:
                tokens.append(str(value))
        lines.append(",".join(tokens))
    return "\n".join(lines) + "\n"
