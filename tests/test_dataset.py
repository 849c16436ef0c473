"""Parsing, validation, and summary of the project dataset."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effortlab as el
from effortlab import dataset
from effortlab.dataset import COLUMNS

from conftest import load_perfbench, serialize_records

HEADER = ",".join(COLUMNS)

ROW_1 = "1,1,4,85,12,5152,253,52,305,34,302,1"
ROW_2 = "2,0,0,86,4,5635,197,124,321,33,315,1"


def _parse(text):
    return el.parse_dataset(io.StringIO(text))


def test_bundled_counts(raw_records, complete_records):
    assert len(raw_records) == 81
    assert len(complete_records) == 77


def test_incomplete_rows_are_kept_in_raw_form(raw_records):
    incomplete = [r for r in raw_records if None in r]
    assert sorted(r.project_id for r in incomplete) == [38, 44, 65, 75]


def test_parse_single_row():
    records = _parse(f"{HEADER}\n{ROW_1}\n")
    assert len(records) == 1
    rec = records[0]
    assert rec.project_id == 1
    assert rec.team_exp == 1
    assert rec.effort == 5152
    assert rec.points_non_adjust == 305
    assert rec.language == 1


def test_both_missing_markers_accepted():
    body = "1,?,4,85,12,5880,331,141,472,17,387,1\n2,,0,86,4,5635,197,124,321,33,315,1"
    records = _parse(f"{HEADER}\n{body}\n")
    assert records[0].team_exp is None
    assert records[1].team_exp is None
    assert None in records[0]


def test_missing_column_is_schema_error():
    header = ",".join(COLUMNS[:-1])
    with pytest.raises(el.ParseError,
                       match="^missing attributes: Language$") as info:
        _parse(f"{header}\n1,1,4,85,12,5152,253,52,305,34,302\n")
    assert info.value.row is None


def test_duplicate_attribute_is_schema_error():
    # an unknown column may repeat; an attribute of the schema may not
    extra = f"Note,Note,{HEADER}\nx,y,{ROW_1}\n"
    assert _parse(extra)[0].effort == 5152
    with pytest.raises(el.ParseError, match="^duplicate attributes: Effort$"):
        _parse(f"Effort,{HEADER}\n1.0,{ROW_1}\n")


def test_duplicate_arff_attribute_is_schema_error():
    attrs = "\n".join(f"@attribute {c} numeric" for c in ("Effort", *COLUMNS))
    text = f"@relation projects\n{attrs}\n@data\n1.0,{ROW_1}\n"
    with pytest.raises(el.ParseError, match="^duplicate attributes: Effort$"):
        _parse(text)


def test_duplicate_project_id_is_schema_error():
    with pytest.raises(el.ParseError, match="duplicate"):
        _parse(f"{HEADER}\n{ROW_1}\n{ROW_1}\n")


def test_non_numeric_token_reports_row():
    with pytest.raises(el.ParseError, match="row 3"):
        _parse(f"{HEADER}\n{ROW_1}\n2,abc,0,86,4,5635,197,124,321,33,315,1\n")


def test_error_row_is_the_physical_line_after_blank_lines():
    text = f"{HEADER}\n\n{ROW_1}\n  \n2,x,0,86,4,5635,197,124,321,33,315,1\n"
    with pytest.raises(el.ParseError) as info:
        _parse(text)
    assert str(info.value) == "row 5: non-numeric token 'x' in column TeamExp"
    assert info.value.row == 5


def test_int_beyond_the_float_range_is_parse_error():
    big = "9" * 400
    bad = ROW_2.replace("2,0,", f"2,{big},", 1)
    with pytest.raises(el.ParseError) as info:
        _parse(f"{HEADER}\n{ROW_1}\n{bad}\n")
    assert str(info.value) == (
        f"row 3: out-of-range token '{big}' in column TeamExp")


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_range_ends_at_the_float_range(sign):
    # the largest int that rounds to a finite float loads; one more is out
    edge = 2 ** 1024 - 2 ** 970 - 1
    rows = [ROW_1.replace("1,1,", f"1,{sign}{edge},", 1),
            ROW_2.replace("2,0,", f"2,{sign}{edge},", 1)]
    records = _parse("\n".join([HEADER, *rows]) + "\n")
    assert [r.team_exp for r in records] == [int(f"{sign}{edge}")] * 2
    rows[1] = ROW_2.replace("2,0,", f"2,{sign}{edge + 1},", 1)
    with pytest.raises(el.ParseError, match="row 3: out-of-range token"):
        _parse("\n".join([HEADER, *rows]) + "\n")


def test_project_id_is_not_range_checked():
    big = "9" * 400
    row = ROW_2.replace("2,", f"{big},", 1)
    records = _parse(f"{HEADER}\n{ROW_1}\n{row}\n")
    assert records[1].project_id == int(big)
    # the row-by-row path, taken for the bad TeamExp, skips the id too
    bad = ROW_2.replace("2,0,", f"{big},x,", 1)
    with pytest.raises(el.ParseError) as info:
        _parse(f"{HEADER}\n{ROW_1}\n{bad}\n")
    assert str(info.value) == "row 3: non-numeric token 'x' in column TeamExp"


@pytest.mark.parametrize("bad_rows, message", [
    # A bad token in the last column of row 2 is reported before a bad
    # token in the first value column of row 3.
    (["1,1,4,85,12,5152,253,52,305,34,302,x",
      "2,y,0,86,4,5635,197,124,321,33,315,1"],
     "row 2: non-numeric token 'x' in column Language"),
    # A short row 3 is reported after a bad token in row 2.
    (["1,1,4,85,12,5152,253,52,305,34,302,1,",
      "2,0,0,86,4,5635,197,124,321,33,315"],
     "row 2: expected 12 fields, got 13"),
    (["?,1,4,85,12,5152,253,52,305,34,302,1",
      "2,y,0,86,4,5635,197,124,321,33,315,1"],
     "row 2: missing project id"),
])
def test_two_bad_rows_report_the_first(bad_rows, message):
    text = "\n".join([HEADER, *bad_rows]) + "\n"
    with pytest.raises(el.ParseError) as info:
        _parse(text)
    assert str(info.value) == message


def test_duplicate_id_before_a_bad_row_is_reported_first():
    text = f"{HEADER}\n{ROW_1}\n{ROW_1}\n2,abc,0,86,4,5635,197,124,321,33,315,1\n"
    with pytest.raises(el.ParseError, match="^duplicate project id 1$"):
        _parse(text)


def test_filter_complete_reports_first_bad_project():
    bad_language = ROW_1[:-1] + "4"
    bad_effort = ROW_2.replace(",5635,", ",0,")
    records = _parse(f"{HEADER}\n{bad_language}\n{bad_effort}\n")
    with pytest.raises(el.DomainError,
                       match="^project 1: language code 4 not in 1..3$"):
        el.filter_complete(records)
    records = _parse(f"{HEADER}\n{bad_effort}\n{bad_language}\n")
    with pytest.raises(el.DomainError,
                       match="^project 2: effort must be positive$"):
        el.filter_complete(records)


def test_wrong_arity_is_parse_error():
    with pytest.raises(el.ParseError):
        _parse(f"{HEADER}\n1,2,3\n")


def test_columns_may_be_reordered():
    cols = list(COLUMNS)
    cols[1], cols[2] = cols[2], cols[1]
    row = ROW_1.split(",")
    row[1], row[2] = row[2], row[1]
    records = _parse(",".join(cols) + "\n" + ",".join(row) + "\n")
    assert records[0].team_exp == 1
    assert records[0].manager_exp == 4


@pytest.mark.parametrize("column, token", [
    ("Project", "1_0"), ("TeamExp", "1_0"), ("Effort", "5_152"),
    ("TeamExp", "\u0663"), ("TeamExp", "\uff13"), ("Effort", "\u0663")])
def test_underscores_and_non_ascii_digits_are_not_numbers(column, token):
    # int() and float() read "1_0" as 10 and an Arabic-Indic or fullwidth
    # digit as the ASCII one; the second row keeps the chunk at two rows
    cells = ROW_2.split(",")
    cells[COLUMNS.index(column)] = token
    with pytest.raises(el.ParseError) as info:
        _parse(f"{HEADER}\n{ROW_1}\n{','.join(cells)}\n")
    assert str(info.value) == (
        f"row 3: non-numeric token {token!r} in column {column}")
    # padded and signed tokens still parse, in a plain chunk and in one
    # sent cell by cell for its non-ASCII padding
    for padded in (" +3 ", "\u00a0+3\u00a0"):
        cells[COLUMNS.index(column)] = padded
        records = _parse(f"{HEADER}\n{ROW_1}\n{','.join(cells)}\n")
        assert records[1][COLUMNS.index(column)] == 3


# Cell tokens that are missing, malformed, not finite or out of range.
_FAULTS = ("", "?", "x", "nan", "1e999", "9" * 400, "2.5")


@st.composite
def _csv_texts(draw):
    """Small CSV texts with bad tokens, short and long rows, missing and
    repeated ids, space-padded tokens, lines ending in a carriage return
    and permuted headers; about half the rows are clean."""
    columns = draw(st.permutations(COLUMNS))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 7))):
        cells = [str(draw(st.integers(0, 99))) for _ in columns]
        cells[columns.index("Project")] = str(draw(st.integers(1, 5)))
        fault = draw(st.integers(0, 2 * len(_FAULTS) + 3))
        where = draw(st.integers(0, len(cells) - 1))
        if fault < len(_FAULTS):
            cells[where] = _FAULTS[fault]
        elif fault == len(_FAULTS):
            cells.pop()
        elif fault == len(_FAULTS) + 1:
            cells.append("1")
        elif fault == len(_FAULTS) + 2:
            cells[where] = f" {cells[where]} "
        elif fault == len(_FAULTS) + 3:
            cells[-1] += "\r"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(text):
    try:
        return _parse(text)
    except el.ParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_csv_texts())
def test_chunk_size_does_not_change_records_or_first_error(text):
    # set in the body: a function-scoped fixture trips hypothesis
    default = dataset._CHUNK_ROWS
    outcomes = []
    try:
        for rows in (1, 2, 3, default):
            dataset._CHUNK_ROWS = rows
            outcomes.append(_outcome(text))
    finally:
        dataset._CHUNK_ROWS = default
    assert all(outcome == outcomes[0] for outcome in outcomes)


def test_duplicate_id_across_the_chunk_boundary():
    first = [ROW_2.replace("2,", f"{i},", 1)
             for i in range(1, dataset._CHUNK_ROWS + 1)]
    again = ROW_2.replace("2,", "7,", 1)
    fresh = ROW_2.replace("2,", f"{dataset._CHUNK_ROWS + 1},", 1)
    records = _parse("\n".join([HEADER, *first, fresh]) + "\n")
    assert len(records) == dataset._CHUNK_ROWS + 1
    with pytest.raises(el.ParseError, match="^duplicate project id 7$"):
        _parse("\n".join([HEADER, *first, again]) + "\n")


@pytest.mark.parametrize("got", [11, 13], ids=["short", "long"])
def test_width_error_after_the_first_chunk_names_its_physical_line(got):
    rows = [ROW_2.replace("2,", f"{i},", 1) for i in range(1, 3001)]
    k = dataset._CHUNK_ROWS + 100
    rows[k] = ",".join((rows[k].split(",") + ["1"])[:got])
    # line 1 is the header and line 2 is blank, so rows[k] is line k + 3
    with pytest.raises(el.ParseError) as info:
        _parse("\n".join([HEADER, "", *rows]) + "\n")
    assert str(info.value) == f"row {k + 3}: expected 12 fields, got {got}"


def test_crlf_stream_without_newline_translation(tmp_path, raw_records):
    text = serialize_records(raw_records).replace("\n", "\r\n")
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode())
    assert _parse(text) == el.load_dataset(str(path)) == raw_records
    # the stream's own lines are used: with newline="" a lone CR ends one
    lone_cr = io.StringIO(text.replace("\r\n", "\r"), newline="")
    assert el.parse_dataset(lone_cr) == raw_records
    bad = text.replace(",1\r\n", ",x\r\n", 1)
    path.write_bytes(bad.encode())
    errors = []
    for parse in (lambda: _parse(bad), lambda: el.load_dataset(str(path))):
        with pytest.raises(el.ParseError) as info:
            parse()
        errors.append(str(info.value))
    assert errors == ["row 2: non-numeric token 'x' in column Language"] * 2


def _rows_with_missing_cell(k, n=2 * dataset._CHUNK_ROWS + 5):
    rows = [ROW_2.replace("2,", f"{i},", 1) for i in range(1, n + 1)]
    if k is not None:
        rows[k] = rows[k].replace(",0,86,", ",?,86,", 1)
    return "\n".join([HEADER, *rows]) + "\n"


@pytest.mark.parametrize("k", [0, 2 * dataset._CHUNK_ROWS + 4, None],
                         ids=["first-chunk", "last-chunk", "no-missing"])
def test_table_is_complete_only_without_a_missing_cell(k):
    records = _parse(_rows_with_missing_cell(k))
    complete = k is None
    assert records.complete is complete
    assert records[:3].complete is records[-3:].complete is complete
    assert len(el.filter_complete(records)) == len(records) - (not complete)


@pytest.mark.parametrize("k", [dataset._CHUNK_ROWS + 3, None],
                         ids=["missing", "no-missing"])
def test_rows_converted_one_at_a_time_keep_the_completeness(k, monkeypatch):
    # every chunk of more than one row fails, so each is converted again
    # one row at a time
    chunk = dataset._chunk

    def failing(lines, row_nos, *rest):
        if len(lines) > 1:
            raise el.ParseError("chunk failed", row=row_nos[0])
        return chunk(lines, row_nos, *rest)

    text = _rows_with_missing_cell(k)
    expected = list(_parse(text))
    monkeypatch.setattr(dataset, "_chunk", failing)
    records = _parse(text)
    assert records == expected
    assert records.complete is (k is None)
    assert records[dataset._CHUNK_ROWS:].complete is (k is None)
    assert len(el.filter_complete(records)) == len(records) - (k is not None)


def test_filter_complete_scans_a_list_of_records():
    full = el.RawRecord(*map(int, ROW_1.split(",")))
    part = el.RawRecord(*map(int, ROW_2.split(",")))._replace(team_exp=None)
    assert el.filter_complete([full, part]) == [full]
    assert el.filter_complete((part, full)) == [full]


def test_record_classes_list_the_columns_fields_in_one_order():
    # filter_complete copies a RawRecord into a ProjectRecord by position
    raw = el.RawRecord._fields
    assert el.ProjectRecord._fields == raw
    assert len(raw) == len(COLUMNS)


def test_records_are_immutable(raw_records, complete_records):
    for rec in (raw_records[0], complete_records[0]):
        with pytest.raises(AttributeError):
            rec.effort = 1.0


def test_record_repr_names_every_field(raw_records):
    assert repr(raw_records[0]) == (
        "RawRecord(project_id=1, team_exp=1, manager_exp=4, year_end=85, "
        "length=12, effort=5152.0, transactions=253, entities=52, "
        "points_non_adjust=305.0, envergure=34, points_adjust=302.0, "
        "language=1)")


def test_record_values_follow_the_columns(raw_records):
    with open(el.bundled_dataset_path()) as fh:
        header, row = next(fh).strip(), next(fh).strip()
    assert header == HEADER
    assert tuple(raw_records[0]) == tuple(map(float, row.split(",")))


def test_filter_complete_copies_each_record(raw_records, complete_records):
    by_id = {rec.project_id: rec for rec in raw_records}
    for rec in complete_records:
        assert type(rec) is el.ProjectRecord
        assert rec == by_id[rec.project_id]


def test_arff_like_matches_csv(raw_records):
    # indented lines and trailing comments read as the bare lines do
    attrs = "\n".join(f"  @attribute {c} numeric % {c}" for c in COLUMNS)
    rows = [f"\t{row} % row"
            for row in serialize_records(raw_records).splitlines()[1:]]
    text = f"% comment\n@relation projects\n{attrs}\n@data\n" + "\n".join(rows)
    assert _parse(text) == raw_records


def test_parse_dataset_reads_the_format_from_the_text(raw_records):
    csv = serialize_records(raw_records)
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    arff = f"@relation projects\n{attrs}\n@data\n" + csv.split("\n", 1)[1]
    # the format comes from the first non-blank character
    for prefix in ("", "\n", "  \n% c\n"):
        assert el.parse_dataset(io.StringIO(prefix + arff)) == raw_records
    assert el.parse_dataset(io.StringIO("\n \n" + csv)) == raw_records


def test_parse_dataset_drops_a_byte_order_mark(raw_records):
    with open(el.bundled_dataset_path(), encoding="utf-8") as fh:
        csv = fh.read()
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    arff = f"@relation projects\n{attrs}\n@data\n" + csv.split("\n", 1)[1]
    for text in (csv, arff):
        assert el.parse_dataset(io.StringIO("\ufeff" + text)) == raw_records


def test_load_dataset_autodetects_arff(tmp_path, raw_records):
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    rows = serialize_records(raw_records).splitlines()[1:]
    text = f"@relation projects\n{attrs}\n@data\n" + "\n".join(rows)
    path = tmp_path / "projects.arff"
    # the format comes from the first non-blank character
    for prefix in ("", "\n", "  \n% c\n"):
        path.write_text(prefix + text)
        assert el.load_dataset(str(path)) == raw_records
        # physical row numbers still count the leading lines
        path.write_text(prefix + text + "\n1,2")
        row = len((prefix + text).splitlines()) + 1
        with pytest.raises(el.ParseError, match=f"^row {row}: expected 12"):
            el.load_dataset(str(path))


@pytest.mark.parametrize("directive", ["@relation late", "@data",
                                       "@attribute Extra numeric"])
def test_arff_directive_after_data_is_a_row(directive):
    # after @data every line that is not blank is a data row
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    text = f"@relation projects\n{attrs}\n@data\n{ROW_1}\n{directive}\n"
    row = len(COLUMNS) + 4  # @relation, the attributes, @data, ROW_1
    with pytest.raises(el.ParseError,
                       match=f"^row {row}: expected 12 fields, got 1$"):
        _parse(text)


def test_parse_reads_the_stream_only_up_to_the_failing_chunk():
    def lines():
        yield f"{HEADER}\n"
        yield ROW_1.removesuffix(",1") + ",x\n"
        for i in range(2, 3002):
            yield ROW_2.replace("2,", f"{i},", 1) + "\n"
        raise AssertionError("read past the failing chunk")

    with pytest.raises(el.ParseError, match="^row 2: non-numeric token 'x' "
                       "in column Language$"):
        el.parse_dataset(lines())


def test_load_dataset_holds_no_whole_file_copy(tmp_path):
    # while the table is built, only the file's bytes and one chunk of
    # lines are held beside it, no copy of the whole text
    path = tmp_path / "generated.csv"
    load_perfbench("gen").write_dataset(str(path), 20_000, 0)
    tracemalloc.start()
    try:
        records = el.load_dataset(str(path))
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000
    assert peak <= 2.5 * size


def test_serialize_parse_round_trip(raw_records):
    text = serialize_records(raw_records)
    assert _parse(text) == raw_records


def test_round_trip_preserves_missing_markers(raw_records):
    text = serialize_records(raw_records)
    line = next(l for l in text.splitlines() if l.startswith("38,"))
    assert "?" in line


def test_filter_complete_idempotent(complete_records):
    text = serialize_records(complete_records)
    again = el.filter_complete(_parse(text))
    assert again == complete_records


def test_filter_complete_rejects_nonpositive_effort():
    bad = ROW_1.replace(",5152,", ",0,")
    records = _parse(f"{HEADER}\n{bad}\n")
    with pytest.raises(el.DomainError, match="effort"):
        el.filter_complete(records)


def test_filter_complete_rejects_nonpositive_size():
    bad = ROW_1.replace(",305,", ",0,")
    records = _parse(f"{HEADER}\n{bad}\n")
    with pytest.raises(el.DomainError):
        el.filter_complete(records)


def test_filter_complete_rejects_unknown_language():
    bad = ROW_1[:-1] + "4"
    records = _parse(f"{HEADER}\n{bad}\n")
    with pytest.raises(el.DomainError, match="language"):
        el.filter_complete(records)


def test_validate_derived_clean_on_bundled_data(complete_records):
    for record in complete_records:
        assert el.validate_derived(record) == []


def test_validate_derived_flags_bad_sum(complete_records):
    record = complete_records[0]
    broken = el.ProjectRecord(
        **{f: getattr(record, f) for f in (
            "project_id", "team_exp", "manager_exp", "year_end", "length",
            "effort", "transactions", "entities", "envergure",
            "points_adjust", "language")},
        points_non_adjust=record.points_non_adjust + 5,
    )
    violations = el.validate_derived(broken)
    assert any(v.attribute == "points_non_adjust" for v in violations)


def test_validate_derived_tolerates_small_adjust_drift(complete_records):
    record = complete_records[0]
    fields = {f: getattr(record, f) for f in (
        "project_id", "team_exp", "manager_exp", "year_end", "length",
        "effort", "transactions", "entities", "points_non_adjust",
        "envergure", "language")}
    nudged = el.ProjectRecord(**fields,
                              points_adjust=record.points_adjust * 1.01)
    assert el.validate_derived(nudged) == []
    broken = el.ProjectRecord(**fields,
                              points_adjust=record.points_adjust * 1.10)
    assert any(v.attribute == "points_adjust"
               for v in el.validate_derived(broken))


def test_validate_derived_checks_a_non_positive_expected_adjust(
        complete_records):
    # Envergure -100 makes the expected PointsAdjust negative, and no
    # relative drift of a positive count can reach it
    record = complete_records[0]._replace(envergure=-100)
    assert (record.points_non_adjust, record.points_adjust) == (305, 302)
    assert el.validate_derived(record) == [
        el.Violation(1, "points_adjust", 305 * (0.65 + 0.01 * -100), 302)]


def test_summary_means(complete_records):
    summary = el.summarize(complete_records)
    assert summary.count == 77
    assert summary.attributes["points_non_adjust"].mean == pytest.approx(298, abs=1)
    assert summary.attributes["points_adjust"].mean == pytest.approx(282, abs=1)


def test_summary_single_record_has_zero_sd(complete_records):
    summary = el.summarize(complete_records[:1])
    assert summary.count == 1
    for stats in summary.attributes.values():
        assert stats.sd == 0.0
        assert stats.minimum == stats.maximum == stats.mean


def test_summary_bounds_are_consistent(complete_records):
    summary = el.summarize(complete_records)
    for stats in summary.attributes.values():
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.sd >= 0.0


@pytest.mark.parametrize("efforts", [(1e200, 5152.0), (1e308, 1e308)],
                         ids=["square", "mean"])
def test_summary_beyond_the_float_range_is_domain_error(complete_records,
                                                        efforts):
    records = [r._replace(effort=e)
               for r, e in zip(complete_records, efforts)]
    with pytest.raises(el.DomainError, match="^effort values are too large"):
        el.summarize(records)


def test_summary_adds_left_to_right(complete_records):
    # a compensated sum, as Python 3.12's built-in, gives a mean of 0.5
    team_exps = (1, 10 ** 100, 1, -10 ** 100)
    records = [r._replace(team_exp=t)
               for r, t in zip(complete_records, team_exps)]
    assert el.summarize(records).attributes["team_exp"].mean == 0.0


def test_language_distribution(complete_records):
    counts = {1: 0, 2: 0, 3: 0}
    for record in complete_records:
        counts[record.language] += 1
    assert counts == {1: 44, 2: 23, 3: 10}


def _with_missing_cells(n=2 * dataset._CHUNK_ROWS + 5):
    """CSV text of n rows over several chunks; every seventh row misses
    one cell, each marker and column in turn, and every thirteenth fails
    the PointsAdjust identity."""
    lines = [HEADER]
    for i in range(1, n + 1):
        cells = ROW_1.split(",")
        cells[0] = str(i)
        cells[5] = str(1000 + i)
        if i % 13 == 0:
            cells[10] = "400"
        if i % 7 == 0:
            cells[1 + i % 11] = "?" if i % 2 else ""
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["bundled", "missing-cells"])
def table_and_rows(request, complete_records):
    """Complete records as the table filter_complete returns and as a
    plain list of the same records."""
    table = (complete_records if request.param == "bundled"
             else el.filter_complete(_parse(_with_missing_cells())))
    return table, list(table)


def _frame_bytes(frame):
    return (frame.columns, frame.matrix.tobytes(), frame.response.tobytes(),
            frame.project_ids)


def test_column_path_equals_row_path(table_and_rows):
    from effortlab.regression import FULL_MODEL, TERMS
    table, rows = table_and_rows
    assert not isinstance(table, list) and table == rows
    for features in (FULL_MODEL, TERMS):
        assert (_frame_bytes(el.build_frame(table, features))
                == _frame_bytes(el.build_frame(rows, features)))
    assert el.summarize(table) == el.summarize(rows)
    assert ([v for r in table for v in el.validate_derived(r)]
            == [v for r in rows for v in el.validate_derived(r)])
    assert el.filter_complete(rows) == table


def test_table_slice_builds_the_frame_of_the_same_rows(complete_records):
    head = complete_records[:9]
    assert head == list(complete_records)[:9]
    assert (_frame_bytes(el.build_frame(head))
            == _frame_bytes(el.build_frame(list(complete_records)[:9])))


def test_table_is_a_read_only_sequence_of_records(raw_records):
    rows = list(raw_records)
    assert len(raw_records) == len(rows) == 81
    assert raw_records[-1] == rows[-1]
    assert type(raw_records[-1]) is el.RawRecord
    assert raw_records[10:20:3] == rows[10:20:3]
    assert raw_records.index(rows[5]) == 5 and rows[5] in raw_records
    with pytest.raises(IndexError):
        raw_records[81]
    with pytest.raises(TypeError):
        raw_records[0] = rows[1]
    with pytest.raises(TypeError):
        hash(raw_records)


def test_filter_complete_shares_the_columns_of_a_complete_table():
    records = _parse(f"{HEADER}\n{ROW_1}\n{ROW_2}\n")
    complete = el.filter_complete(records)
    assert all(kept is parsed for kept, parsed
               in zip(complete.columns, records.columns))
    assert type(complete[0]) is el.ProjectRecord


def test_nan_effort_does_not_hide_a_later_nonpositive_effort():
    nan = el.RawRecord(*map(int, ROW_1.split(",")))._replace(
        effort=float("nan"))
    zero = el.RawRecord(*map(int, ROW_2.split(",")))._replace(effort=0.0)
    with pytest.raises(el.DomainError,
                       match="^project 2: effort must be positive$"):
        el.filter_complete([nan, zero])
    # a NaN effort alone passes, as it always has
    assert len(el.filter_complete([nan])) == 1
