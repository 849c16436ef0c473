"""CLI behavior: exit codes, formats, stability, schema conformance."""

import codecs
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import effortlab as el
from effortlab import ablation, cli
from effortlab.cli import run
from effortlab.dataset import bundled_dataset_path

from conftest import load_perfbench, serialize_records


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_reports_counts(capsys):
    code, out, err = _capture(capsys, ["validate"])
    assert code == 0
    assert "Parsed records: 81" in out
    assert "Complete records: 77" in out
    assert "Violations: 0" in out
    assert err == ""


def test_checksum_embedded_everywhere(capsys):
    digest = _sha256(bundled_dataset_path())
    for argv in (["validate"], ["summarize"], ["fit"],
                 ["ablate", "--model", "regression"], ["metrics"]):
        _, out, _ = _capture(capsys, argv)
        assert digest in out


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = _capture(capsys, ["fit", "--nope"])
    assert code == 2


def test_missing_command_is_usage_error(capsys):
    assert _capture(capsys, [])[0] == 2


def test_unknown_features_is_usage_error(capsys):
    code, out, err = _capture(capsys, ["metrics", "--features", "nope"])
    assert (code, out) == (2, "")
    assert err.endswith(
        "\neffortlab metrics: error: argument --features: invalid choice: "
        "'nope' (choose from 'full', 'no-env', 'no-language', 'no-texp', "
        "'no-mexp', 'size-only')\n")


def test_features_choices_are_the_scenario_names():
    assert list(cli._SCENARIO_NAMES) == [s.name for s in el.scenarios()]


def test_model_choices_are_the_model_names():
    # the parser states them so that it loads no numpy
    models = ablation.MODEL_NAMES
    for name, (_, model) in cli._COMMANDS.items():
        if model is not None:
            choices, default = model
            extra = ("both",) if name == "ablate" else ()
            assert choices == models + extra, name
            assert default in choices, name


def test_unreadable_dataset_is_data_error(capsys, tmp_path):
    code, out, err = _capture(
        capsys, ["validate", "--dataset", str(tmp_path / "missing.csv")])
    assert code == 1
    assert "error:" in err


def test_empty_dataset_flag_is_a_missing_file(capsys, monkeypatch):
    # not the bundled file, which a script passing an unset variable
    # would analyse without being told
    code, out, err = _capture(capsys, ["validate", "--dataset", ""])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # an empty variable is unset, and the bundled file is read
    monkeypatch.setenv("EFFORTLAB_DATASET", "")
    code, out, _ = _capture(capsys, ["validate"])
    assert code == 0 and "Parsed records: 81" in out


def test_malformed_dataset_is_data_error(capsys, tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("Project,Effort\n1,100\n")
    code, _, err = _capture(capsys, ["validate", "--dataset", str(path)])
    assert code == 1
    assert "error:" in err


def _bundled_with(tmp_path, edit):
    """A copy of the bundled file with edit(bytes) applied."""
    path = tmp_path / "edited.csv"
    path.write_bytes(edit(Path(bundled_dataset_path()).read_bytes()))
    return str(path)


@pytest.mark.parametrize("command", [["summarize"],
                                     ["ablate", "--model", "regression"]])
@pytest.mark.parametrize("field, token, message", [
    (5, b"nan", "row 3: non-finite token 'nan' in column Effort"),
    (10, b"-inf", "row 3: non-finite token '-inf' in column PointsAdjust"),
    (8, b"1e999", "row 3: non-finite token '1e999' in column "
                  "PointsNonAdjust"),
    (1, b"inf", "row 3: non-numeric token 'inf' in column TeamExp"),
], ids=["Effort-nan", "PointsAdjust-inf", "PointsNonAdjust-overflow",
        "TeamExp-inf"])
def test_non_finite_token_is_data_error(capsys, tmp_path, command, field,
                                        token, message):
    def edit(data):
        lines = data.split(b"\n")
        cells = lines[2].split(b",")
        cells[field] = token
        lines[2] = b",".join(cells)
        return b"\n".join(lines)

    path = _bundled_with(tmp_path, edit)
    code, out, err = _capture(capsys, [*command, "--dataset", path])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_duplicate_attribute_is_data_error(capsys, tmp_path):
    def edit(data):
        lines = data.decode().splitlines()
        rows = [f"Effort,{lines[0]}", *(f"1.0,{line}" for line in lines[1:])]
        return ("\n".join(rows) + "\n").encode()

    path = _bundled_with(tmp_path, edit)
    code, out, err = _capture(capsys, ["fit", "--dataset", path])
    assert (code, out, err) == (1, "", "error: duplicate attributes: Effort\n")


def test_byte_order_mark_is_accepted(capsys, tmp_path):
    path = _bundled_with(tmp_path, lambda data: codecs.BOM_UTF8 + data)
    for command in ("validate", "summarize", "fit"):
        plain = json.loads(_capture(capsys, [command, "--format", "json"])[1])
        code, out, _ = _capture(capsys, [command, "--format", "json",
                                         "--dataset", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["body"] == plain["body"]
        assert doc["dataset_sha256"] == _sha256(path)
        assert doc["dataset_sha256"] != plain["dataset_sha256"]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"],
                         ids=["lf", "crlf", "cr"])
def test_non_utf8_bytes_are_data_error(newline, capsys, tmp_path):
    path = _bundled_with(tmp_path, lambda data: data.replace(
        b"\n2,", b"\n2\xff,", 1).replace(b"\n", newline))
    code, out, err = _capture(capsys, ["validate", "--dataset", path])
    assert (code, out) == (1, "")
    assert err == "error: line 3: invalid UTF-8 byte 0xff\n"
    with pytest.raises(el.ParseError):
        el.load_dataset(path)


def _constant(column, token):
    """An edit that sets `column` to `token` in every row."""
    def edit(data):
        lines = data.decode().splitlines()
        j = lines[0].split(",").index(column)
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[j] = token
        return ("\n".join([lines[0], *map(",".join, rows)]) + "\n").encode()
    return edit


@pytest.mark.parametrize("command", [["fit"], ["metrics"],
                                     ["ablate", "--model", "regression"]])
def test_constant_effort_is_named(capsys, tmp_path, command):
    path = _bundled_with(tmp_path, _constant("Effort", "5000"))
    code, out, err = _capture(capsys, [*command, "--dataset", path])
    assert (code, out, err) == (1, "", "error: response is constant\n")


def test_constant_effort_with_a_rounded_mean_is_named(capsys, tmp_path):
    path = _bundled_with(tmp_path, _constant("Effort", "5152.3"))
    code, out, err = _capture(capsys, ["metrics", "--model", "ann",
                                       "--max-iter", "3", "--dataset", path])
    assert (code, out) == (1, "")
    assert err == "error: actuals are constant; r_squared is undefined\n"


def test_constant_size_is_a_zero_network_input(capsys, tmp_path):
    # ln 16 and ln 37 each leave the input's sd at rounding noise with
    # one sign, ln 3 with the other: scaled by that sd, the input was -1,
    # -1 and +1; constant on its values, it is 0 for all three
    bodies = []
    for size in ("16", "37", "3"):
        path = _bundled_with(tmp_path, _constant("PointsNonAdjust", size))
        code, out, err = _capture(capsys, [
            "metrics", "--model", "ann", "--features", "size-only",
            "--format", "json", "--dataset", path])
        assert (code, err) == (0, "")
        bodies.append(json.loads(out)["body"])
    assert bodies[0] == bodies[1] == bodies[2]


def test_violations_flip_exit_code(capsys, tmp_path, raw_records):
    lines = serialize_records(raw_records).splitlines()
    first = lines[1].split(",")
    first[6] = str(int(first[6]) + 7)  # break the Transactions sum
    lines[1] = ",".join(first)
    path = tmp_path / "drifted.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = _capture(capsys, ["validate", "--dataset", str(path)])
    assert code == 1
    assert "Violations: 1" in out


def test_env_var_points_at_dataset(capsys, tmp_path, monkeypatch,
                                   raw_records):
    path = tmp_path / "copy.csv"
    path.write_text(serialize_records(raw_records))
    monkeypatch.setenv("EFFORTLAB_DATASET", str(path))
    code, out, _ = _capture(capsys, ["validate"])
    assert code == 0
    assert _sha256(str(path)) in out


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.md"
    code, out, _ = _capture(capsys, ["summarize", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert "Dataset summary" in target.read_text()


def test_out_to_unwritable_path_is_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "report.txt"
    code, out, err = _capture(capsys, ["validate", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "report.txt" in err
    assert "Traceback" not in err


def _subprocess_env():
    # the package under test, and the bundled dataset
    src = str(Path(el.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("EFFORTLAB_DATASET", None)
    return env


def test_python_dash_m_runs_the_cli():
    env = _subprocess_env()
    for module in ("effortlab", "effortlab.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "validate"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Complete records: 77" in proc.stdout
        assert proc.stderr == ""


def _fresh_interpreter(code: str):
    """Run `code` in a new interpreter and return what it printed as
    JSON; `loaded()` there lists numpy and the package's modules."""
    prelude = ("import json, os, sys\n"
               "def loaded():\n"
               "    return sorted(m for m in sys.modules if m == 'numpy'\n"
               "                  or m.startswith('effortlab.'))\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_import_and_data_commands_load_no_numpy(tmp_path):
    report = tmp_path / "fit.md"
    steps = _fresh_interpreter(
        "import effortlab\n"
        "steps = [loaded()]\n"
        "from effortlab.cli import run\n"
        "codes = [run([c, '--out', os.devnull])\n"
        "         for c in ('validate', 'summarize')]\n"
        "steps.append([codes, loaded()])\n"
        f"steps.append([run(['fit', '--out', {str(report)!r}]), loaded()])\n"
        "print(json.dumps(steps))\n")
    after_import, (codes, after_data), (fit_code, after_fit) = steps
    assert after_import == []
    assert codes == [0, 0]
    assert after_data == ["effortlab.cli", "effortlab.dataset",
                          "effortlab.errors", "effortlab.metrics"]
    assert fit_code == 0 and "numpy" in after_fit
    golden = Path(__file__).parent / "golden" / "fit.md"
    assert report.read_bytes() == golden.read_bytes()


def test_public_names_in_a_fresh_interpreter():
    dir_lists_all, same, modules = _fresh_interpreter(
        "import effortlab\n"
        "dir_lists_all = set(effortlab.__all__) <= set(dir(effortlab))\n"
        "names = {}\n"
        "exec('from effortlab import *', names)\n"
        "del names['__builtins__']\n"
        "same = sorted(name for name, value in names.items() if value is\n"
        "              getattr(sys.modules[value.__module__], name))\n"
        "modules = {name: value.__module__ for name, value in names.items()}\n"
        "print(json.dumps([dir_lists_all, same, modules]))\n")
    assert dir_lists_all
    assert len(el.__all__) == 45
    # each name is its defining module's own object
    assert same == sorted(el.__all__)
    # and that module is the one the package's table loads for it, not one
    # that re-exports the name and would load more than the name needs
    assert modules == {name: f"effortlab.{module}"
                       for name, module in el._MODULE_OF.items()}


def test_closed_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the report is written
    try:
        proc = subprocess.run([sys.executable, "-m", "effortlab", "fit"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_subprocess_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_byte_stable_outputs(capsys):
    for argv in (["fit", "--format", "json"],
                 ["ablate", "--model", "regression", "--format", "csv"],
                 ["summarize"],
                 ["metrics", "--model", "ann", "--seed", "3"]):
        first = _capture(capsys, argv)[1]
        second = _capture(capsys, argv)[1]
        assert first == second


def test_fit_markdown_table(capsys):
    _, out, _ = _capture(capsys, ["fit"])
    assert "| Variable | Coefficient | Std. error | t | P value | VIF |" in out
    assert "| intercept |" in out
    # sub-0.0005 p values render as a flat zero
    assert "| 0.000 |" in out
    assert "R^2 (log scale):" in out


def test_ablate_markdown_has_six_rows(capsys):
    _, out, _ = _capture(capsys, ["ablate", "--model", "regression"])
    for name in ("full", "no-env", "no-language", "no-texp", "no-mexp",
                 "size-only"):
        assert f"| {name} |" in out


def test_metric_rounding_rules(capsys):
    _, out, _ = _capture(capsys, ["metrics", "--features", "full"])
    row = next(line for line in out.splitlines()
               if line.startswith("|") and "MMRE" not in line
               and "---" not in line)
    cells = [c.strip() for c in row.strip("|").split("|")]
    mmre, pred, rmse, mean, r2 = cells
    assert "." in mmre and len(mmre.split(".")[1]) == 2
    assert "." not in pred and "." not in rmse and "." not in mean
    assert len(r2.split(".")[1]) == 1


def test_fixed_point_rendering_covers_the_float_range():
    assert cli._fmt(1e30, 2) == "1" + "0" * 30 + ".00"
    assert cli._fmt(-1.7976931348623157e308, 4) == (
        "-17976931348623157" + "0" * 292 + ".0000")
    assert cli._fmt(float("nan"), 2) == "NaN"
    assert cli._fmt(-0.004, 2) == "0.00"


@pytest.mark.parametrize("argv", [
    ["fit", "--model", "ann", "--seed", "-1"],
    ["ablate", "--model", "ann", "--seeds", "2", "--seed", "-1"],
], ids=["fit", "ablate"])
def test_negative_seed_is_data_error(capsys, argv):
    assert _capture(capsys, argv) == (1, "", "error: seed must be >= 0\n")


@pytest.mark.parametrize("argv, message", [
    (["fit", "--seed", "-1"], "seed must be >= 0"),
    (["fit", "--hidden", "-1"], "hidden_nodes must be >= 1"),
    (["fit", "--max-iter", "-5"], "max_iterations must be >= 0"),
    (["metrics", "--hidden", "0", "--max-iter", "-1"],
     "max_iterations must be >= 0"),
    (["ablate", "--model", "regression", "--hidden", "0"],
     "hidden_nodes must be >= 1"),
    # checked before the dataset is read
    (["fit", "--seed", "-1", "--dataset", "missing.csv"],
     "seed must be >= 0"),
    # sizes that could not be allocated are rejected before any array
    (["fit", "--model", "ann", "--hidden", str(10 ** 16), "--max-iter", "0"],
     "--hidden must be at most 10000"),
    (["fit", "--hidden", str(10 ** 18)], "--hidden must be at most 10000"),
    (["ablate", "--seeds", "10001", "--dataset", "missing.csv"],
     "--seeds must be at most 10000"),
], ids=["fit-seed", "fit-hidden", "fit-max-iter", "metrics", "ablate",
        "before-dataset", "hidden-1e16", "hidden-1e18", "seeds-cap"])
def test_model_flags_are_checked_whichever_model_runs(capsys, argv, message):
    assert _capture(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["fit", "--seeds", "0"],
    ["fit", "--model", "ann", "--seeds", "0"],
    ["metrics", "--seeds", "0"],
    ["ablate", "--model", "regression", "--seeds", "0"],
], ids=["fit", "fit-ann", "metrics", "ablate"])
def test_seeds_below_one_is_data_error(capsys, argv):
    assert _capture(capsys, argv) == (
        1, "", "error: --seeds must be at least 1\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 82. GiB"), "Unable to allocate 82. GiB"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_error_line(capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "run_scenario", exhausted)
    assert _capture(capsys, ["fit", "--model", "ann"]) == (
        1, "", f"error: {message}\n")


def test_ablation_csv_shape(capsys):
    _, out, _ = _capture(capsys,
                         ["ablate", "--model", "both", "--format", "csv",
                          "--max-iter", "20"])
    lines = out.strip().splitlines()
    assert lines[0].startswith("# dataset_sha256=")
    assert lines[1] == "scenario,model,n,mmre,pred_25,rmse,mean_error,r_squared"
    assert len(lines) == 2 + 12  # one row per (scenario, model)
    assert lines[2].startswith("full,regression,77,")


def test_json_reports_validate_against_schema(capsys, schema):
    for argv in (["validate"], ["summarize"], ["fit"], ["metrics"],
                 ["ablate", "--model", "both", "--max-iter", "10",
                  "--seeds", "2"]):
        _, out, _ = _capture(capsys, argv + ["--format", "json"])
        jsonschema.validate(json.loads(out), schema)


def test_intercept_only_fit_has_no_f_test(complete_records, schema):
    fit = el.fit_ols(el.build_frame(complete_records, []))
    assert math.isnan(fit.f_statistic) and math.isnan(fit.f_p_value)
    assert "F statistic: NaN (p = NaN)" in el.render_report(fit).splitlines()
    doc = json.loads(el.render_report(fit, "json"))
    jsonschema.validate(doc, schema)
    assert doc["body"]["f_statistic"] is None
    assert doc["body"]["f_p_value"] is None


def test_json_round_trips_without_loss(capsys, complete_records):
    _, out, _ = _capture(capsys, ["fit", "--format", "json"])
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")
    fit = el.fit_ols(el.build_frame(complete_records))
    assert doc["body"]["coefficients"] == [float(c) for c in fit.coefficients]


def test_json_ablation_carries_seeds_and_config(capsys):
    _, out, _ = _capture(capsys, ["ablate", "--model", "ann", "--seed", "7",
                                  "--seeds", "2", "--hidden", "4",
                                  "--max-iter", "15", "--format", "json"])
    body = json.loads(out)["body"]
    assert body["seeds"] == [7, 8]
    assert body["ann_config"]["hidden_nodes"] == 4
    assert body["ann_config"]["max_iterations"] == 15
    assert len(body["cells"]) == 6


def test_fit_ann_reports_metrics(capsys):
    code, out, _ = _capture(capsys, ["fit", "--model", "ann", "--seed", "1"])
    assert code == 0
    assert "Accuracy metrics" in out


def test_render_empty_table_is_header_only():
    table = el.AblationTable(scenarios=(), models=("regression",),
                             cells={}, n=0, seeds=())
    text = el.render_report(table, format="csv")
    assert text == "scenario,model,n,mmre,pred_25,rmse,mean_error,r_squared"
    markdown = el.render_report(table, format="markdown")
    rows = [l for l in markdown.splitlines()
            if l.startswith("|") and "---" not in l and "Scenario" not in l]
    assert rows == []


def test_render_report_rejects_unknown_type():
    with pytest.raises(el.EffortlabError):
        el.render_report(object())
    table = el.AblationTable(scenarios=(), models=(), cells={}, n=0,
                             seeds=())
    with pytest.raises(el.EffortlabError):
        el.render_report(table, format="yaml")


def test_metrics_matches_library_values(capsys, complete_records):
    _, out, _ = _capture(capsys, ["metrics", "--format", "json"])
    body = json.loads(out)["body"]
    expected = el.run_scenario(complete_records, el.scenarios()[0],
                               "regression")
    assert body["mmre"] == pytest.approx(expected.mmre)
    assert body["r_squared"] == pytest.approx(expected.r_squared)


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path, capsys):
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()  # fails if a wrapped name is missing
    try:
        code = cli.run(["validate", "--out", str(tmp_path / "report.md")])
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert code == 0
    assert "cli.render_validation" in names
    assert "dataset.validate" in names
    # the benchmark's rows and parse/filter times come from these
    assert tracer.counts["dataset.rows"] == 81
    assert {"dataset.load", "dataset.filter"} <= set(names)


def test_benchmark_tracer_leaves_the_package_names_as_it_found_them():
    # a public name first read while the tracer is installed is the
    # tracer's wrapper then, and its module's own object again after
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    during, after = _fresh_interpreter(
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import spans\n"
        "import effortlab as el\n"
        "import effortlab.regression as rg\n"
        "t = spans.Tracer()\n"
        "t.install()\n"
        "during = el.vif is rg.vif\n"
        "t.uninstall()\n"
        "print(json.dumps([during, el.vif is rg.vif]))\n")
    assert (during, after) == (True, True)


def test_model_commands_call_the_names_bound_on_the_cli(monkeypatch, capsys):
    # the benchmark's tracer replaces these names on effortlab.cli
    calls = []
    for name in ("build_frame", "fit_ols", "run_scenario", "run_ablation"):
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    for argv in (["fit"], ["metrics"], ["ablate", "--model", "regression"]):
        assert _capture(capsys, argv)[0] == 0
    assert calls == ["build_frame", "fit_ols", "run_scenario",
                     "run_ablation"]
