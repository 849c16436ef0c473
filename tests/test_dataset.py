"""Parsing, validation, and summary of the project dataset."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effortlab as el
from effortlab import dataset
from effortlab.dataset import COLUMNS

HEADER = ",".join(COLUMNS)

ROW_1 = "1,1,4,85,12,5152,253,52,305,34,302,1"
ROW_2 = "2,0,0,86,4,5635,197,124,321,33,315,1"


def _parse(text, format="csv"):
    return el.parse_dataset(io.StringIO(text), format=format)


def test_bundled_counts(raw_records, complete_records):
    assert len(raw_records) == 81
    assert len(complete_records) == 77


def test_incomplete_rows_are_kept_in_raw_form(raw_records):
    incomplete = [r for r in raw_records if not r.is_complete()]
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
    assert not records[0].is_complete()


def test_missing_column_is_schema_error():
    header = ",".join(COLUMNS[:-1])
    with pytest.raises(el.SchemaError):
        _parse(f"{header}\n1,1,4,85,12,5152,253,52,305,34,302\n")


def test_duplicate_attribute_is_schema_error():
    # an unknown column may repeat; an attribute of the schema may not
    extra = f"Note,Note,{HEADER}\nx,y,{ROW_1}\n"
    assert _parse(extra)[0].effort == 5152
    with pytest.raises(el.SchemaError, match="^duplicate attributes: Effort$"):
        _parse(f"Effort,{HEADER}\n1.0,{ROW_1}\n")


def test_duplicate_arff_attribute_is_schema_error():
    attrs = "\n".join(f"@attribute {c} numeric" for c in ("Effort", *COLUMNS))
    text = f"@relation projects\n{attrs}\n@data\n1.0,{ROW_1}\n"
    with pytest.raises(el.SchemaError, match="^duplicate attributes: Effort$"):
        _parse(text, format="arff-like")


def test_duplicate_project_id_is_schema_error():
    with pytest.raises(el.SchemaError, match="duplicate"):
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
    with pytest.raises(el.SchemaError, match="^duplicate project id 1$"):
        _parse(text)


def test_filter_complete_reports_first_bad_project():
    bad_language = ROW_1[:-1] + "4"
    bad_effort = ROW_2.replace(",5635,", ",0,")
    records = _parse(f"{HEADER}\n{bad_language}\n{bad_effort}\n")
    with pytest.raises(el.SchemaError,
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


# Cell tokens that are missing, malformed, not finite or out of range.
_FAULTS = ("", "?", "x", "nan", "1e999", "9" * 400, "2.5")


@st.composite
def _csv_texts(draw):
    """Small CSV texts with bad tokens, short and long rows, missing and
    repeated ids and permuted headers; about half the rows are clean."""
    columns = draw(st.permutations(COLUMNS))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 7))):
        cells = [str(draw(st.integers(0, 99))) for _ in columns]
        cells[columns.index("Project")] = str(draw(st.integers(1, 5)))
        fault = draw(st.integers(0, 2 * len(_FAULTS) + 1))
        if fault < len(_FAULTS):
            cells[draw(st.integers(0, len(cells) - 1))] = _FAULTS[fault]
        elif fault == len(_FAULTS):
            cells.pop()
        elif fault == len(_FAULTS) + 1:
            cells.append("1")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(text):
    try:
        return _parse(text)
    except (el.ParseError, el.SchemaError) as exc:
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
    with pytest.raises(el.SchemaError, match="^duplicate project id 7$"):
        _parse("\n".join([HEADER, *first, again]) + "\n")


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
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    rows = el.serialize_records(raw_records).splitlines()[1:]
    text = f"% comment\n@relation projects\n{attrs}\n@data\n" + "\n".join(rows)
    records = _parse(text, format="arff-like")
    assert records == raw_records


def test_load_dataset_autodetects_arff(tmp_path, raw_records):
    attrs = "\n".join(f"@attribute {c} numeric" for c in COLUMNS)
    rows = el.serialize_records(raw_records).splitlines()[1:]
    path = tmp_path / "projects.arff"
    path.write_text(f"@relation projects\n{attrs}\n@data\n" + "\n".join(rows))
    assert el.load_dataset(str(path)) == raw_records


def test_unknown_format_rejected():
    with pytest.raises(el.DomainError):
        _parse(f"{HEADER}\n{ROW_1}\n", format="xml")


def test_serialize_parse_round_trip(raw_records):
    text = el.serialize_records(raw_records)
    assert _parse(text) == raw_records


def test_round_trip_preserves_missing_markers(raw_records):
    text = el.serialize_records(raw_records)
    line = next(l for l in text.splitlines() if l.startswith("38,"))
    assert "?" in line


def test_filter_complete_idempotent(complete_records):
    text = el.serialize_records(complete_records)
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
    with pytest.raises(el.SchemaError, match="language"):
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


def test_language_distribution(complete_records):
    counts = {1: 0, 2: 0, 3: 0}
    for record in complete_records:
        counts[record.language] += 1
    assert counts == {1: 44, 2: 23, 3: 10}
