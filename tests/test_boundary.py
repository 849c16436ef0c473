"""The input boundary: every file and flag ends in a report or an
EffortlabError with exit code 1, never in another exception."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effortlab as el
from effortlab import cli, errors
from effortlab.dataset import COLUMNS

# Tokens a damaged or hand-edited file may hold in any cell.
odd_tokens = st.one_of(
    st.sampled_from(["", "?", " ", "nan", "-inf", "1e999", "1e308", "1e200",
                     "1e30", "5e-324", "9" * 400, "x", "0", "-1", "1.5",
                     "-0", "1_000", "0x10", "+7", "4 2"]),
    st.integers(-10 ** 400, 10 ** 400).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)

# Plausible cells per column, so that some files get past the parser.
_PLAUSIBLE = {
    "TeamExp": st.integers(0, 4), "ManagerExp": st.integers(0, 7),
    "YearEnd": st.integers(82, 88), "Length": st.integers(1, 39),
    "Effort": st.floats(500.0, 25000.0), "Transactions": st.integers(9, 900),
    "Entities": st.integers(7, 400), "PointsNonAdjust": st.floats(70.0, 1200.0),
    "Envergure": st.integers(5, 52), "PointsAdjust": st.floats(60.0, 1100.0),
    "Language": st.integers(1, 3),
}


@st.composite
def csvish_rows(draw, max_rows=16):
    """A header and data rows; mostly plausible cells, some odd ones."""
    header = list(COLUMNS)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.permutations(header))[:draw(st.integers(1, 12))]
    rows = []
    for i in range(draw(st.integers(0, max_rows))):
        row = [str(i + 1)]
        for column in COLUMNS[1:]:
            if draw(st.integers(0, 19)) == 0:
                row.append(draw(odd_tokens))
            else:
                row.append(str(draw(_PLAUSIBLE[column])))
        if draw(st.integers(0, 29)) == 0:
            row = row[:draw(st.integers(0, 13))]
        rows.append(row)
    return header, rows


def _render(header, rows, arff, newline, blank_every):
    if arff:
        lines = ["@relation fuzz"]
        lines.extend(f"@attribute {c} numeric" for c in header)
        lines.append("@data")
    else:
        lines = [",".join(header)]
    for i, row in enumerate(rows):
        if blank_every and i % blank_every == 0:
            lines.append("")
        lines.append(",".join(row))
    return newline.join(lines) + newline


@st.composite
def dataset_bytes(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=400))
    header, rows = draw(csvish_rows())
    text = _render(header, rows, draw(st.booleans()),
                   draw(st.sampled_from(["\n", "\r\n"])),
                   draw(st.integers(0, 4)))
    return text.encode("utf-8")


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.csv"


@settings(max_examples=200, deadline=None)
@given(dataset_bytes())
def test_load_dataset_gives_records_or_an_effortlab_error(data_path, data):
    data_path.write_bytes(data)
    try:
        records = el.load_dataset(str(data_path))
        el.filter_complete(records)
    except el.EffortlabError:
        pass


model_flags = st.fixed_dictionaries({
    "--seed": st.integers(-3, 2 ** 70),
    "--seeds": st.integers(-1, 2),
    "--max-iter": st.integers(-1, 4),
}, optional={"--hidden": st.integers(-1, 4)})


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["validate", "summarize", "fit",
                                    "metrics", "ablate"]))
    argv = [command, "--format", draw(st.sampled_from(cli.FORMATS))]
    if command in ("fit", "metrics"):
        argv += ["--model", draw(st.sampled_from(["regression", "ann"])),
                 "--features",
                 draw(st.sampled_from([s.name for s in el.scenarios()]))]
    if command == "ablate":
        argv += ["--model", draw(st.sampled_from(["regression", "ann",
                                                  "both"]))]
    if command in ("fit", "metrics", "ablate"):
        for flag, value in draw(model_flags).items():
            argv += [flag, str(value)]
    return argv


def _bundled(column=None, token=None, first=None, keep=None):
    """The bundled file cut to `keep` data rows, with `column` set to
    `token` on its first `first` rows (on every row by default)."""
    lines = Path(el.bundled_dataset_path()).read_text().splitlines()
    rows = lines[1:][:keep]
    if column is not None:
        j = COLUMNS.index(column)
        for i, row in enumerate(rows[:first]):
            cells = row.split(",")
            cells[j] = token
            rows[i] = ",".join(cells)
    return ("\n".join([lines[0], *rows]) + "\n").encode()


@settings(max_examples=150, deadline=None)
@given(dataset_bytes(), cli_argv())
# an int beyond the float range once reached float() in frames and summaries
@example(_bundled("TeamExp", "9" * 400, first=1), ["summarize"])
@example(_bundled("Envergure", "9" * 400, first=1), ["validate"])
# squares of large floats overflowed in summaries and in scoring
@example(_bundled("Effort", "1e200", first=1), ["summarize"])
@example(_bundled("Effort", "1e200", first=1),
         ["ablate", "--model", "regression"])
# markdown rounding ran out of decimal digits at 1e26 and above
@example(_bundled("Effort", "1e30", first=1), ["summarize"])
def test_cli_gives_a_report_or_an_error_line(data_path, data, argv):
    data_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([*argv, "--dataset", str(data_path)])
    if code == 0 or (code == 1 and argv[0] == "validate" and out.getvalue()):
        assert out.getvalue()  # a report (validate exits 1 on violations)
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def _unchecked_filter(records):
    """filter_complete without its domain checks."""
    return [el.ProjectRecord._make(r) for r in records
            if r.is_complete()]


# One command per error class; None runs on the bundled file.
ERROR_CASES = {
    errors.ParseError: (["validate"], _bundled("Effort", "x")),
    errors.SchemaError: (["validate"], _bundled("Language", "4")),
    errors.DomainError: (["fit", "--model", "ann", "--seed", "-1"], None),
    errors.TransformError: (["fit"], _bundled("Effort", "0")),
    errors.CollinearityError: (["fit"], _bundled("Language", "1")),
    errors.InsufficientDataError: (["fit", "--model", "ann"],
                                   _bundled(keep=9)),
    errors.DegenerateInputError: (
        ["metrics", "--model", "ann", "--max-iter", "3"],
        _bundled("Effort", "5000")),
}


def test_every_error_class_has_a_contract_case():
    classes = {c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, el.EffortlabError)}
    assert classes - {el.EffortlabError} == set(ERROR_CASES)


@pytest.mark.parametrize("error_class", list(ERROR_CASES),
                         ids=lambda c: c.__name__)
def test_error_class_exits_one_with_one_error_line(error_class, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    argv, data = ERROR_CASES[error_class]
    if data is not None:
        (tmp_path / "data.csv").write_bytes(data)
        argv = [*argv, "--dataset", str(tmp_path / "data.csv")]
    if error_class is errors.TransformError:
        # filter_complete rejects effort <= 0 first, so no file reaches
        # the log transform with one; bypass it to check the exit code.
        monkeypatch.setattr(cli, "filter_complete", _unchecked_filter)
    raised = []
    dispatch = cli._dispatch

    def spy(args):
        try:
            return dispatch(args)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, "_dispatch", spy)
    code = cli.run(argv)
    out, err = capsys.readouterr()
    assert [type(exc) for exc in raised] == [error_class]
    assert (code, out, err) == (1, "", f"error: {raised[0]}\n")
