"""Tests of the benchmark itself (not of effortlab).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root. The file name keeps these tests out of the
program's own suite, which collects test_*.py only.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic():
    assert gen.generate_rows(300, 7) == gen.generate_rows(300, 7)
    assert gen.generate_rows(300, 7) != gen.generate_rows(300, 8)


def test_generator_identities():
    import effortlab.dataset as ds

    assert gen.COLUMNS == ds.COLUMNS
    assert gen.ADJUST_TOLERANCE == ds.ADJUST_TOLERANCE
    rows = gen.generate_rows(2000, 3)
    for (project, team, manager, year, length, effort, transactions,
         entities, pna, envergure, adjust, language) in rows:
        assert pna == transactions + entities
        expected = gen.expected_adjust(pna, envergure)
        assert abs(adjust - expected) / expected <= gen.ADJUST_TOLERANCE
        assert effort > 0 and language in (1, 2, 3)
        assert 0 <= team <= 4 and 0 <= manager <= 7 and 1 <= length <= 39
    assert [r[0] for r in rows] == list(range(1, 2001))


def test_generator_parameters_come_from_the_bundled_rows():
    import math
    import statistics

    import effortlab.ablation as ab
    import effortlab.dataset as ds
    import effortlab.regression as rg

    records = ds.filter_complete(ds.load_dataset(ds.bundled_dataset_path()))
    full = {s.name: s for s in ab.scenarios()}["full"]
    fit = rg.fit_ols(rg.build_frame(records, full.features))
    assert tuple(gen.FULL_FIT) == fit.columns
    for column, value in zip(fit.columns, fit.coefficients):
        assert gen.FULL_FIT[column] == pytest.approx(value, abs=6e-4)
    assert gen.NOISE_SD == pytest.approx(math.sqrt(fit.residual_variance),
                                         abs=6e-4)
    ln_t = [math.log(r.transactions) for r in records]
    ln_e = [math.log(r.entities) for r in records]
    assert gen.LN_TRANSACTIONS == pytest.approx(
        (statistics.mean(ln_t), statistics.stdev(ln_t)), abs=6e-4)
    assert gen.LN_ENTITIES == pytest.approx(
        (statistics.mean(ln_e), statistics.stdev(ln_e)), abs=6e-4)
    assert gen.LN_SIZE_CORRELATION == pytest.approx(
        statistics.correlation(ln_t, ln_e), abs=6e-4)
    assert gen.MIN_POINTS_NON_ADJUST == min(r.points_non_adjust
                                            for r in records)
    for weights, attribute in ((gen.LANGUAGE_WEIGHTS, "language"),
                               (gen.TEAM_EXP_WEIGHTS, "team_exp"),
                               (gen.MANAGER_EXP_WEIGHTS, "manager_exp"),
                               (gen.YEAR_END_WEIGHTS, "year_end")):
        assert weights == dict(sorted(collections.Counter(
            getattr(r, attribute) for r in records).items()))
    ln_pna = [math.log(r.points_non_adjust) for r in records]
    ln_length = [math.log(r.length) for r in records]
    slope, intercept = statistics.linear_regression(ln_pna, ln_length)
    residual_sd = math.sqrt(sum(
        (y - intercept - slope * x) ** 2
        for x, y in zip(ln_pna, ln_length)) / (len(records) - 2))
    assert gen.LN_LENGTH == pytest.approx(
        (intercept, slope, residual_sd,
         min(r.length for r in records), max(r.length for r in records)),
        abs=6e-4)
    envergure = [r.envergure for r in records]
    assert gen.ENVERGURE == pytest.approx(
        (statistics.mean(envergure), statistics.pstdev(envergure),
         min(envergure), max(envergure)), abs=6e-3)


def test_generated_file_validates_in_the_program(tmp_path):
    import effortlab.dataset as ds

    path = str(tmp_path / "g.csv")
    gen.write_dataset(path, 1000, 5)
    records = ds.filter_complete(ds.load_dataset(path))
    assert len(records) == 1000
    assert not [v for r in records for v in ds.validate_derived(r)]


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_children_once():
    trace = [
        _span("cli.run", 0.0, 10.0, -1),
        _span("ablation.run_ablation", 1.0, 7.0, 0),
        _span("ablation.run_scenario", 2.0, 5.0, 1),
        _span("ann.train", 2.5, 4.0, 2),
        _span("cli.render", 8.0, 9.0, 0),
    ]
    assert spans.self_times(trace) == pytest.approx([3.0, 3.0, 1.5, 1.5,
                                                     1.0])
    times = spans.layer_times(trace)
    assert times["cli.run_s"] == pytest.approx(10.0)
    assert times["cli.self_s"] == pytest.approx(3.0)
    assert times["cli.render_s"] == pytest.approx(1.0)
    assert times["ablation.run_s"] == pytest.approx(6.0)
    assert times["ablation.self_s"] == pytest.approx(4.5)
    assert times["ann.train_s"] == pytest.approx(1.5)


def test_self_time_takes_the_union_of_children():
    trace = [
        _span("regression.fit_ols", 0.0, 10.0, -1),
        _span("numerics.lstsq", 1.0, 4.0, 0),
        _span("numerics.lstsq", 3.0, 6.0, 0),
        _span("regression.vif", 9.0, 12.0, 0),
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tail_is_p80_whatever_the_sample_count():
    assert run.tail(list(range(1, 21))) == (16, 20)
    assert run.tail(list(range(1, 101))) == (80, 100)
    assert run.tail(list(range(1, 9))) == (7, 8)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 3)


def test_validation_loop_is_one_span_between_filter_and_render(tmp_path):
    import effortlab.cli

    path = str(tmp_path / "g.csv")
    gen.write_dataset(path, 500, 1)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        assert effortlab.cli.run(["validate", "--dataset", path,
                                  "--out", str(tmp_path / "v.txt")]) == 0
    names = [s[0] for s in tracer.spans]
    assert names.count("dataset.validate") == 1
    (_, start, end, parent, _), = [s for s in tracer.spans
                                   if s[0] == "dataset.validate"]
    by_name = {s[0]: s for s in tracer.spans if s[3] == parent}
    assert by_name["dataset.filter"][2] == start
    assert end <= by_name["cli.render_validation"][1]
    times = spans.layer_times(tracer.spans)
    assert times["dataset.validate_s"] == pytest.approx(end - start)
    assert "cli.render_validation_s" not in times


def test_tracer_restores_the_program():
    import effortlab.ablation
    import effortlab.ann

    before = (effortlab.ablation.train, effortlab.ann.forward)
    tracer = spans.Tracer()
    tracer.install()
    assert effortlab.ablation.train is not before[0]
    tracer.uninstall()
    assert (effortlab.ablation.train, effortlab.ann.forward) == before


def test_exact_ann_counts_on_seed_block_zero(tmp_path):
    dataset = os.path.join(ROOT, "src", "effortlab", "data",
                           "desharnais.csv")
    wl = workloads.AnnAblation(dataset, 0, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = wl.run()
    finally:
        tracer.uninstall()
    assert wl.check(result) == []
    values = run.layer_values(tracer.spans, tracer.counts)
    assert {k: values[k] for k in (
        "ann.trainings", "ann.iterations", "ann.gradient_calls",
        "ann.forward_calls", "ann.stop.improvement_below_delta",
        "ann.stop.holdout_worsening", "ann.stop.max_iterations",
        "ann.stop.gradient_below_min", "ablation.cells",
    )} == {
        "ann.trainings": 120, "ann.iterations": 6244,
        "ann.gradient_calls": 6364, "ann.forward_calls": 47971,
        "ann.stop.improvement_below_delta": 81,
        "ann.stop.holdout_worsening": 39, "ann.stop.max_iterations": 0,
        "ann.stop.gradient_below_min": 0, "ablation.cells": 6,
    }
    assert values["ann.accepted_step_ratio"] == pytest.approx(
        6244 / (47971 - 6244 - 3 * 120))


def test_ann_check_rejects_a_weak_table():
    cells = [{"scenario": s, "metrics": {"mmre": m, "r_squared": r}}
             for s, m, r in (("full", 0.50, 0.80), ("size-only", 0.70, 0.4))]
    doc = {"dataset_sha256": "x", "body": {"cells": cells}}
    problems = workloads.check_ann_table(0, json.dumps(doc), "x")
    assert len(problems) == 1 and "full MMRE" in problems[0]
    assert workloads.check_ann_table(1, "", "x") == ["ablate exited 1"]


def test_cli_check_needs_exit_zero_checksum_and_schema():
    def reject(doc):
        raise ValueError("bad")

    ok = workloads.check_cli_output(("fit",), 0, "sha abc", "abc", reject)
    assert ok == []
    assert workloads.check_cli_output(("fit",), 1, "abc", "abc", reject)
    assert workloads.check_cli_output(("fit",), 0, "", "abc", reject)
    assert workloads.check_cli_output(("fit", "--format", "json"), 0,
                                      '{"a": "abc"}', "abc", reject)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        run.PER_LAYER_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "cli-commands", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
