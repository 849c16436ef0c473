"""Command-line entry point.

Five subcommands: validate, summarize, fit, ablate, metrics. Reports go
to standard output (or --out) in markdown, csv, or json; diagnostics go
to standard error. Human formats round the way the result tables are
usually quoted; machine formats keep full precision. Every report
embeds a sha256 checksum of the dataset file it was computed from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import NamedTuple, Sequence

from .ablation import (AblationTable, run_ablation, run_scenario, scenarios)
from .ann import AnnConfig, check_config
from .dataset import (DatasetSummary, Violation, bundled_dataset_path,
                      filter_complete, load_dataset, summarize,
                      validate_derived)
from .errors import EffortlabError
from .metrics import MetricsReport
from .regression import RegressionFit, build_frame, fit_ols

SCHEMA_ID = "effortlab-report-v1"

FORMATS = ("markdown", "csv", "json")

# Enough digits to write any finite float at a few decimal places.
_FMT_CONTEXT = Context(prec=400)

_MODEL_TITLES = {"regression": "Regression model", "ann": "ANN model"}


def _fmt(value: float, places: int) -> str:
    """Fixed-point rendering with half-up rounding."""
    quantum = Decimal(1).scaleb(-places) if places else Decimal(1)
    d = Decimal(repr(float(value)))
    if d.is_finite():
        d = d.quantize(quantum, rounding=ROUND_HALF_UP, context=_FMT_CONTEXT)
    if d == 0:
        d = abs(d)
    return str(d)


class _Column(NamedTuple):
    heading: str | None  # markdown heading; None for a csv-only column
    key: str  # csv header and JSON key
    places: int | None = None  # markdown rounding; None for str()
    scale: int = 1  # markdown multiplier, 100 for percentages


@dataclass(frozen=True, slots=True)
class _Report:
    """One report as data, for the three writers below. A fact is
    (markdown label, csv comment key, value), with None for the format
    that omits it. Notes are markdown-only lines after the tables.
    Sections split the markdown rows into tables under heading lines;
    None puts all rows in one table."""

    kind: str
    title: str
    facts: Sequence[tuple[str | None, str | None, object]]
    columns: Sequence[_Column]
    rows: Sequence[Sequence]
    body: dict
    notes: Sequence[str] = ()
    sections: Sequence[tuple[Sequence[str], Sequence[Sequence]]] | None = None


def _md_table(columns: Sequence[_Column],
              rows: Sequence[Sequence]) -> list[str]:
    shown = [c for c in columns if c.heading is not None]
    lines = [
        "| " + " | ".join(c.heading for c in shown) + " |",
        "|" + "|".join(" --- " for _ in shown) + "|",
    ]
    for row in rows:
        cells = ["" if v is None else str(v) if c.places is None
                 else _fmt(v * c.scale, c.places)
                 for c, v in zip(columns, row) if c.heading is not None]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def _write_markdown(report: _Report, checksum: str | None) -> str:
    lines = [f"# {report.title}", ""]
    lines.extend(f"{label}: {value}" for label, _, value in report.facts
                 if label is not None)
    sections = report.sections
    if sections is None:
        sections = [((), report.rows)]
    for heading, rows in sections:
        lines.extend(["", *heading, *_md_table(report.columns, rows)])
    if report.notes:
        lines.extend(["", *report.notes])
    if checksum:
        lines.extend(["", f"Dataset sha256: {checksum}"])
    return "\n".join(lines)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    # repr of a numpy float names its type under numpy 2, so go via float
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(report: _Report, checksum: str | None) -> str:
    lines = [f"# dataset_sha256={checksum}"] if checksum else []
    lines.extend(f"# {key}={_csv_cell(value)}" for _, key, value
                 in report.facts if key is not None)
    lines.append(",".join(c.key for c in report.columns))
    lines.extend(",".join(map(_csv_cell, row)) for row in report.rows)
    return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(report: _Report, checksum: str | None) -> str:
    doc = {
        "schema": SCHEMA_ID,
        "kind": report.kind,
        "dataset_sha256": checksum,
        "body": _jsonable(report.body),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


_WRITERS = {"markdown": _write_markdown, "csv": _write_csv,
            "json": _write_json}

_METRIC_COLUMNS = (
    _Column(None, "n"),
    _Column("MMRE", "mmre", 2),
    _Column("PRED(0.25)", "pred_25", 0, 100),
    _Column("RMSE", "rmse", 0),
    _Column("Mean error", "mean_error", 0),
    _Column("R^2", "r_squared", 1, 100),
)


def _metric_values(report: MetricsReport) -> list:
    return [report.n, report.mmre, report.pred_25, report.rmse,
            report.mean_error, report.r_squared]


def _metrics_body(values: Sequence) -> dict:
    return dict(zip((c.key for c in _METRIC_COLUMNS), values))


def _ablation_report(table: AblationTable) -> _Report:
    rows = [[scen.name, model, *_metric_values(table.cell(scen.name, model))]
            for scen in table.scenarios for model in table.models]
    sections = []
    for model in table.models:
        heading = [f"## {_MODEL_TITLES[model]}", ""]
        if model == "ann" and table.seeds:
            heading += ["Seeds: " + ", ".join(map(str, table.seeds)), ""]
        sections.append((heading, [row for row in rows if row[1] == model]))
    config = table.ann_config
    body = {
        "n": table.n,
        "models": list(table.models),
        "seeds": list(table.seeds),
        # the seed of the configuration is replaced by the list above
        "ann_config": None if config is None else {
            k: v for k, v in asdict(config).items() if k != "seed"},
        "cells": [{"scenario": scenario, "model": model,
                   "metrics": _metrics_body(values)}
                  for scenario, model, *values in rows],
    }
    return _Report(
        "ablation", "Attribute ablation", [("Records", None, table.n)],
        [_Column("Scenario", "scenario"), _Column(None, "model"),
         *_METRIC_COLUMNS],
        rows, body, sections=sections)


_FIT_COLUMNS = (
    _Column("Variable", "variable"),
    _Column("Coefficient", "coefficient", 4),
    _Column("Std. error", "std_error", 4),
    _Column("t", "t_value", 2),
    _Column("P value", "p_value", 3),
    _Column("VIF", "vif", 3),
)


def _fit_report(fit: RegressionFit) -> _Report:
    rows = [[name, fit.coefficients[j], fit.standard_errors[j],
             fit.t_values[j], fit.p_values[j], fit.vif.get(name)]
            for j, name in enumerate(fit.columns)]
    facts = [("Records", "n", fit.n), (None, "df_residual", fit.df_residual),
             (None, "r_squared", fit.r_squared),
             (None, "f_statistic", fit.f_statistic),
             (None, "f_p_value", fit.f_p_value)]
    notes = [
        f"R^2 (log scale): {_fmt(fit.r_squared, 4)}",
        f"F statistic: {_fmt(fit.f_statistic, 2)}"
        f" (p = {_fmt(fit.f_p_value, 3)})",
        f"Residual degrees of freedom: {fit.df_residual}",
    ]
    body = {
        "columns": list(fit.columns),
        "coefficients": [float(c) for c in fit.coefficients],
        "standard_errors": [float(s) for s in fit.standard_errors],
        "t_values": [float(t) for t in fit.t_values],
        "p_values": [float(p) for p in fit.p_values],
        "vif": dict(fit.vif),
        "r_squared": fit.r_squared,
        "f_statistic": fit.f_statistic,
        "f_p_value": fit.f_p_value,
        "residual_sum_of_squares": fit.residual_sum_of_squares,
        "residual_variance": fit.residual_variance,
        "smearing_factor": fit.smearing_factor,
        "n": fit.n,
        "df_residual": fit.df_residual,
    }
    return _Report("fit", "Regression fit", facts, _FIT_COLUMNS, rows, body,
                   notes)


def _metrics_report(report: MetricsReport) -> _Report:
    values = _metric_values(report)
    return _Report("metrics", "Accuracy metrics",
                   [("Records", None, report.n)], _METRIC_COLUMNS,
                   [values], _metrics_body(values))


_BUILDERS = ((AblationTable, _ablation_report), (RegressionFit, _fit_report),
             (MetricsReport, _metrics_report))


def render_report(report: AblationTable | RegressionFit | MetricsReport,
                  format: str = "markdown",
                  checksum: str | None = None) -> str:
    """Render an analysis result in one of the three output formats."""
    if format not in FORMATS:
        raise EffortlabError(f"unknown format {format!r}")
    for cls, build in _BUILDERS:
        if isinstance(report, cls):
            return _WRITERS[format](build(report), checksum)
    raise EffortlabError(f"cannot render {type(report).__name__}")


_VIOLATION_COLUMNS = tuple(_Column(None, key) for key in
                           ("project_id", "attribute", "expected", "actual"))


def _render_validation(n_parsed: int, n_complete: int,
                       violations: Sequence[Violation], format: str,
                       checksum: str | None) -> str:
    # an expected sum of two ints is an int: kept in JSON, a float in csv
    rows = [[v.project_id, v.attribute, float(v.expected), v.actual]
            for v in violations]
    body = {"n_parsed": n_parsed, "n_complete": n_complete,
            "violations": [asdict(v) for v in violations]}
    report = _Report(
        "validate", "Dataset validation",
        [("Parsed records", "n_parsed", n_parsed),
         ("Complete records", "n_complete", n_complete),
         ("Violations", None, len(violations))],
        _VIOLATION_COLUMNS, rows, body, [f"- {v}" for v in violations],
        sections=())  # no markdown table, only the notes
    return _WRITERS[format](report, checksum)


_SUMMARY_COLUMNS = (
    _Column("Attribute", "attribute"),
    _Column("N", "count"),
    _Column("Mean", "mean", 2),
    _Column("Min", "min", 2),
    _Column("Max", "max", 2),
    _Column("Std. dev", "sd", 2),
)


def _render_summary(n_parsed: int, summary: DatasetSummary, format: str,
                    checksum: str | None) -> str:
    rows = [[name, s.count, s.mean, s.minimum, s.maximum, s.sd]
            for name, s in summary.attributes.items()]
    # the JSON key of the attribute column is "name"
    keys = ["name", *(c.key for c in _SUMMARY_COLUMNS[1:])]
    body = {"n_parsed": n_parsed, "n_complete": summary.count,
            "attributes": [dict(zip(keys, row)) for row in rows]}
    report = _Report(
        "summary", "Dataset summary",
        [("Parsed records", "n_parsed", n_parsed),
         ("Complete records", "n_complete", summary.count)],
        _SUMMARY_COLUMNS, rows, body)
    return _WRITERS[format](report, checksum)


def _model_flags(args: argparse.Namespace) -> tuple[list[int], AnnConfig]:
    """The seeds and network settings of a model command, checked with
    the network's own rules whichever model runs."""
    if args.seeds < 1:
        raise EffortlabError("--seeds must be at least 1")
    seeds = [args.seed + i for i in range(args.seeds)]
    overrides = {"hidden_nodes": args.hidden, "max_iterations": args.max_iter}
    config = AnnConfig(**{k: v for k, v in overrides.items() if v is not None})
    check_config(config, seeds)
    return seeds, config


def _dataset_path(args: argparse.Namespace) -> str:
    return (args.dataset or os.environ.get("EFFORTLAB_DATASET")
            or bundled_dataset_path())


# name: (help, --model choices, default model); None for no model flags
_COMMANDS = {
    "validate": ("parse the dataset and check derived columns", None),
    "summarize": ("per-attribute summary of the complete records", None),
    "fit": ("fit one model and report it (regression: coefficient table; "
            "ann: accuracy metrics)", (("regression", "ann"), "regression")),
    "ablate": ("run all six feature scenarios",
               (("regression", "ann", "both"), "both")),
    "metrics": ("accuracy criteria for one scenario and model",
                (("regression", "ann"), "regression")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effortlab",
        description="Effort-estimation toolkit for the bundled project "
                    "dataset: validation, regression and network fits, "
                    "accuracy metrics, and attribute-ablation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, model) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", metavar="<path>",
                       help="dataset file (default: $EFFORTLAB_DATASET, "
                            "then the bundled copy)")
        p.add_argument("--format", choices=FORMATS, default="markdown")
        p.add_argument("--out", metavar="<path>",
                       help="write the report here instead of stdout")
        if model is None:
            continue
        choices, default = model
        p.add_argument("--model", choices=choices, default=default)
        if name != "ablate":
            p.add_argument("--features",
                           choices=[s.name for s in scenarios()],
                           default="full")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seeds", type=int, default=1, metavar="<k>",
                       help="number of consecutive seeds; ann metrics are "
                            "the per-metric median across them")
        p.add_argument("--hidden", type=int, metavar="<n>",
                       help="hidden nodes (default: one per input)")
        p.add_argument("--max-iter", type=int, metavar="<n>",
                       help="training iteration cap")
    return parser


def _dispatch(args: argparse.Namespace) -> tuple[str, int]:
    # model flags are checked before the dataset is read
    if _COMMANDS[args.command][1] is not None:
        seeds, config = _model_flags(args)
    digest = hashlib.sha256()
    raw = load_dataset(_dataset_path(args), digest=digest)
    checksum = digest.hexdigest()
    complete = filter_complete(raw)

    if args.command == "validate":
        violations = [v for record in complete
                      for v in validate_derived(record)]
        text = _render_validation(len(raw), len(complete), violations,
                                  args.format, checksum)
        return text, (1 if violations else 0)

    if args.command == "summarize":
        text = _render_summary(len(raw), summarize(complete),
                               args.format, checksum)
        return text, 0

    if args.command == "ablate":
        result = run_ablation(complete, model=args.model, seeds=seeds,
                              ann_config=config)
    else:
        scen = {s.name: s for s in scenarios()}[args.features]
        if args.model == "regression" and args.command == "fit":
            result = fit_ols(build_frame(complete, scen.features))
        else:
            result = run_scenario(complete, scen, args.model, seeds=seeds,
                                  ann_config=config)
    return render_report(result, args.format, checksum), 0


def run(argv: Sequence[str]) -> int:
    """Parse arguments, run one command, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = _dispatch(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            try:
                print(text)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader has gone and wants no more; stdout is flushed
                # again at exit, so point it at devnull to keep that quiet
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return 1
    except (EffortlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
