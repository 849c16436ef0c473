"""The input boundary: every file and flag ends in a report or an
EffortlabError with exit code 1, never in another exception."""

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effortlab as el
from effortlab import cli, errors
from effortlab.dataset import COLUMNS

from conftest import numpy_config

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


def _efforts(token_of):
    """The bundled file with each row's Effort set to `token_of(i, size)`,
    for the row's index and its PointsNonAdjust."""
    lines = Path(el.bundled_dataset_path()).read_text().splitlines()
    effort, size = COLUMNS.index("Effort"), COLUMNS.index("PointsNonAdjust")
    rows = [row.split(",") for row in lines[1:]]
    for i, cells in enumerate(rows):
        cells[effort] = token_of(i, float(cells[size]))
    return "\n".join([lines[0], *map(",".join, rows)]).encode() + b"\n"


_MEDIAN_SIZE = statistics.median(
    float(line.split(",")[COLUMNS.index("PointsNonAdjust")]) for line in
    Path(el.bundled_dataset_path()).read_text().splitlines()[1:])
# a smearing factor of inf, once written to JSON as null with exit 0
_HUGE_RESIDUAL = _efforts(lambda i, size: "1e308" if i == 0 else "1e-300")
# fitted efforts beyond the float range
_HUGE_FIT = _efforts(lambda i, size: "1e308" if size > _MEDIAN_SIZE
                     else "1e250")


def _row_one_copies(sizes, efforts):
    """Copies of the bundled row 1, numbered from 1, with each copy's
    PointsNonAdjust and Effort set from `sizes` and `efforts`."""
    lines = Path(el.bundled_dataset_path()).read_text().splitlines()
    effort, size = COLUMNS.index("Effort"), COLUMNS.index("PointsNonAdjust")
    rows = []
    for i, (s, e) in enumerate(zip(sizes, efforts), start=1):
        cells = lines[1].split(",")
        cells[0], cells[size], cells[effort] = str(i), str(s), str(e)
        rows.append(",".join(cells))
    return ("\n".join([lines[0], *rows]) + "\n").encode()


# files that the size-only model fits exactly: in the first two every
# standard error is 0, and one once crashed dividing by the residual
# variance, the other once ended in "t must be a number" after numpy
# warnings; the last two leave rounding noise in the residuals, and once
# printed a report (t = 3.3e15, R² 1.0000) with exit code 0
_EXACT_FITS = {
    "exact": _row_one_copies((16, 3, 2), (48, 9, 6)),
    "exact-effort-is-size": _row_one_copies((27, 16, 25, 25, 3, 2),
                                            (27, 16, 25, 25, 3, 2)),
    "exact-scaled": _row_one_copies((16, 3, 2),
                                    (48000000, 9000000, 6000000)),
    "exact-five-rows": _row_one_copies((16, 3, 2, 40, 7),
                                       (48, 9, 6, 120, 21)),
}


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
# a tiny but positive effort is used as given: an MMRE of 7.9e275, exit 0
@example(_bundled("Effort", "1e-300", first=1), ["metrics"])
# exp overflowed with a numpy warning on stderr
@example(_HUGE_RESIDUAL, ["fit", "--format", "json"])
@example(_HUGE_RESIDUAL, ["metrics"])
@example(_HUGE_FIT, ["metrics"])
@example(_HUGE_FIT, ["ablate", "--model", "regression"])
@example(_HUGE_FIT, ["metrics", "--model", "ann"])
# an exact fit once ended in a traceback or in numpy warnings
@example(_EXACT_FITS["exact"], ["fit", "--features", "size-only"])
@example(_EXACT_FITS["exact"], ["metrics", "--features", "size-only"])
@example(_EXACT_FITS["exact-effort-is-size"],
         ["fit", "--features", "size-only"])
@example(_EXACT_FITS["exact-effort-is-size"],
         ["metrics", "--features", "size-only"])
# a JSON ablation states every network setting, the fixed ones included
@example(_bundled(), ["ablate", "--format", "json", "--max-iter", "2"])
def test_cli_gives_a_report_or_an_error_line(data_path, schema, data, argv):
    data_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([*argv, "--dataset", str(data_path)])
    if code == 0 or (code == 1 and argv[0] == "validate" and out.getvalue()):
        assert out.getvalue()  # a report (validate exits 1 on violations)
        if "json" in argv:
            jsonschema.validate(json.loads(out.getvalue()), schema)
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def _unchecked_filter(records):
    """filter_complete without its domain checks."""
    return [el.ProjectRecord._make(r) for r in records
            if None not in r]


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


@pytest.mark.parametrize("command, data, message", [
    ("fit", _HUGE_RESIDUAL, "smearing factor overflows the float range"),
    ("metrics", _HUGE_FIT, "actual and predicted must be finite"),
], ids=["smearing", "fitted"])
def test_effort_overflow_is_one_named_error(command, data, message,
                                            tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    (tmp_path / "data.csv").write_bytes(data)
    code = cli.run([command, "--format", "json",
                    "--dataset", str(tmp_path / "data.csv")])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


# every row lacks its effort: parsed, but not one record is complete
_NO_COMPLETE = _bundled("Effort", "?", keep=3)


def test_validate_reports_a_file_with_no_complete_record(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    (tmp_path / "data.csv").write_bytes(_NO_COMPLETE)
    code = cli.run(["validate", "--format", "json",
                    "--dataset", str(tmp_path / "data.csv")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["body"] == {"n_parsed": 3, "n_complete": 0,
                                       "violations": []}


@pytest.mark.parametrize("command, data, message", [
    ("summarize", _NO_COMPLETE, "cannot summarize an empty dataset"),
    ("fit", _NO_COMPLETE, "need at least one record"),
    ("metrics", _NO_COMPLETE, "need at least one record"),
    ("ablate", _NO_COMPLETE, "need at least one record"),
    ("validate", b"@relation p\n@data\n1,2\n",
     "no attribute declarations found"),
    ("validate", b"@relation p\nhello\n@data\n",
     "row 2: unexpected line 'hello'"),
    ("validate", b"@relation p\n@attribute\n",
     "row 2: malformed attribute declaration"),
    *((f"{command} --features size-only", data,
       "the model fits the response exactly, so its standard errors are 0")
      for data in _EXACT_FITS.values() for command in ("fit", "metrics")),
], ids=["summarize-empty", "fit-empty", "metrics-empty", "ablate-empty",
        "arff-no-attributes", "arff-line-before-data",
        "arff-bare-attribute",
        *(f"{command}-{name}" for name in _EXACT_FITS
          for command in ("fit", "metrics"))])
def test_unusable_file_is_one_named_error(command, data, message, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.delenv("EFFORTLAB_DATASET", raising=False)
    (tmp_path / "data.csv").write_bytes(data)
    code = cli.run([*command.split(), "--dataset",
                    str(tmp_path / "data.csv")])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))


_BLAS = numpy_config().get("Build Dependencies", {}).get("blas", {})


@pytest.mark.skipif("openblas" not in _BLAS.get("name", "")
                    or platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="needs numpy's OpenBLAS on x86-64")
def test_exact_fit_is_named_under_another_kernel():
    # OpenBLAS's Haswell kernel leaves rounding noise where this one may
    # not; the child process alone runs with it
    cases = [*(f"{__file__}::test_unusable_file_is_one_named_error"
               f"[{command}-{name}]" for name in _EXACT_FITS
               for command in ("fit", "metrics")),
             f"{Path(__file__).with_name('test_regression.py')}::"
             "test_stepwise_raises_the_first_model_fit_ols_refuses[exact-fit]"]
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *cases], cwd=Path(__file__).resolve().parents[1],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"},
        capture_output=True, text=True)
    assert child.returncode == 0, child.stdout
    assert f"{len(cases)} passed" in child.stdout
