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
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Sequence

from .ablation import (AblationTable, run_ablation, run_scenario, scenarios)
from .ann import AnnConfig
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

_METRIC_HEADER = ["MMRE", "PRED(0.25)", "RMSE", "Mean error", "R^2"]
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


def _metric_row(report: MetricsReport) -> list[str]:
    return [
        _fmt(report.mmre, 2),
        _fmt(report.pred_25 * 100, 0),
        _fmt(report.rmse, 0),
        _fmt(report.mean_error, 0),
        _fmt(report.r_squared * 100, 1),
    ]


def _machine(value: float) -> str:
    return repr(float(value))


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _jsonable(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _json_report(kind: str, body: dict, checksum: str | None) -> str:
    doc = {
        "schema": SCHEMA_ID,
        "kind": kind,
        "dataset_sha256": checksum,
        "body": _jsonable(body),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def _md_footer(lines: list[str], checksum: str | None) -> str:
    if checksum:
        lines.extend(["", f"Dataset sha256: {checksum}"])
    return "\n".join(lines)


def _csv_lines(header: str, rows: list[str], checksum: str | None,
               extra_comments: Sequence[str] = ()) -> str:
    lines = []
    if checksum:
        lines.append(f"# dataset_sha256={checksum}")
    lines.extend(extra_comments)
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines)


def _metrics_body(report: MetricsReport) -> dict:
    return {
        "mmre": report.mmre,
        "pred_25": report.pred_25,
        "rmse": report.rmse,
        "mean_error": report.mean_error,
        "r_squared": report.r_squared,
        "n": report.n,
    }


def _render_ablation(table: AblationTable, format: str,
                     checksum: str | None) -> str:
    if format == "markdown":
        lines = ["# Attribute ablation", "", f"Records: {table.n}"]
        for model in table.models:
            lines.extend(["", f"## {_MODEL_TITLES[model]}", ""])
            if model == "ann" and table.seeds:
                seed_list = ", ".join(str(s) for s in table.seeds)
                lines.extend([f"Seeds: {seed_list}", ""])
            rows = [[scen.name] + _metric_row(table.cell(scen.name, model))
                    for scen in table.scenarios]
            lines.extend(_md_table(["Scenario"] + _METRIC_HEADER, rows))
        return _md_footer(lines, checksum)
    if format == "csv":
        rows = []
        for scen in table.scenarios:
            for model in table.models:
                cell = table.cell(scen.name, model)
                rows.append(",".join([
                    scen.name, model, str(cell.n),
                    _machine(cell.mmre), _machine(cell.pred_25),
                    _machine(cell.rmse), _machine(cell.mean_error),
                    _machine(cell.r_squared),
                ]))
        return _csv_lines(
            "scenario,model,n,mmre,pred_25,rmse,mean_error,r_squared",
            rows, checksum,
        )
    body = {
        "n": table.n,
        "models": list(table.models),
        "seeds": list(table.seeds),
        "ann_config": None if table.ann_config is None else {
            "hidden_nodes": table.ann_config.hidden_nodes,
            "max_iterations": table.ann_config.max_iterations,
            "convergence_tolerance": table.ann_config.convergence_tolerance,
            "min_improvement_delta": table.ann_config.min_improvement_delta,
            "min_gradient": table.ann_config.min_gradient,
            "holdout_fraction": table.ann_config.holdout_fraction,
        },
        "cells": [
            {
                "scenario": scen.name,
                "model": model,
                "metrics": _metrics_body(table.cell(scen.name, model)),
            }
            for scen in table.scenarios
            for model in table.models
        ],
    }
    return _json_report("ablation", body, checksum)


def _render_fit(fit: RegressionFit, format: str,
                checksum: str | None) -> str:
    if format == "markdown":
        rows = []
        for j, name in enumerate(fit.columns):
            rows.append([
                name,
                _fmt(fit.coefficients[j], 4),
                _fmt(fit.standard_errors[j], 4),
                _fmt(fit.t_values[j], 2),
                _fmt(fit.p_values[j], 3),
                _fmt(fit.vif[name], 3) if name in fit.vif else "",
            ])
        lines = ["# Regression fit", "", f"Records: {fit.n}", ""]
        lines.extend(_md_table(
            ["Variable", "Coefficient", "Std. error", "t", "P value", "VIF"],
            rows,
        ))
        lines.extend([
            "",
            f"R^2 (log scale): {_fmt(fit.r_squared, 4)}",
            f"F statistic: {_fmt(fit.f_statistic, 2)}"
            f" (p = {_fmt(fit.f_p_value, 3)})",
            f"Residual degrees of freedom: {fit.df_residual}",
        ])
        return _md_footer(lines, checksum)
    if format == "csv":
        rows = []
        for j, name in enumerate(fit.columns):
            vif_txt = _machine(fit.vif[name]) if name in fit.vif else ""
            rows.append(",".join([
                name,
                _machine(fit.coefficients[j]),
                _machine(fit.standard_errors[j]),
                _machine(fit.t_values[j]),
                _machine(fit.p_values[j]),
                vif_txt,
            ]))
        comments = [
            f"# n={fit.n}",
            f"# df_residual={fit.df_residual}",
            f"# r_squared={_machine(fit.r_squared)}",
            f"# f_statistic={_machine(fit.f_statistic)}",
            f"# f_p_value={_machine(fit.f_p_value)}",
        ]
        return _csv_lines(
            "variable,coefficient,std_error,t_value,p_value,vif",
            rows, checksum, extra_comments=comments,
        )
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
    return _json_report("fit", body, checksum)


def _render_metrics(report: MetricsReport, format: str,
                    checksum: str | None) -> str:
    if format == "markdown":
        lines = ["# Accuracy metrics", "", f"Records: {report.n}", ""]
        lines.extend(_md_table(_METRIC_HEADER, [_metric_row(report)]))
        return _md_footer(lines, checksum)
    if format == "csv":
        row = ",".join([
            str(report.n), _machine(report.mmre), _machine(report.pred_25),
            _machine(report.rmse), _machine(report.mean_error),
            _machine(report.r_squared),
        ])
        return _csv_lines("n,mmre,pred_25,rmse,mean_error,r_squared",
                          [row], checksum)
    return _json_report("metrics", _metrics_body(report), checksum)


def render_report(report: AblationTable | RegressionFit | MetricsReport,
                  format: str = "markdown",
                  checksum: str | None = None) -> str:
    """Render an analysis result in one of the three output formats."""
    if format not in FORMATS:
        raise EffortlabError(f"unknown format {format!r}")
    if isinstance(report, AblationTable):
        return _render_ablation(report, format, checksum)
    if isinstance(report, RegressionFit):
        return _render_fit(report, format, checksum)
    if isinstance(report, MetricsReport):
        return _render_metrics(report, format, checksum)
    raise EffortlabError(f"cannot render {type(report).__name__}")


def _render_validation(n_parsed: int, n_complete: int,
                       violations: Sequence[Violation], format: str,
                       checksum: str | None) -> str:
    if format == "markdown":
        lines = [
            "# Dataset validation",
            "",
            f"Parsed records: {n_parsed}",
            f"Complete records: {n_complete}",
            f"Violations: {len(violations)}",
        ]
        if violations:
            lines.append("")
            lines.extend(f"- {v}" for v in violations)
        return _md_footer(lines, checksum)
    if format == "csv":
        comments = [f"# n_parsed={n_parsed}", f"# n_complete={n_complete}"]
        rows = [",".join([str(v.project_id), v.attribute,
                          _machine(v.expected), _machine(v.actual)])
                for v in violations]
        return _csv_lines("project_id,attribute,expected,actual",
                          rows, checksum, extra_comments=comments)
    body = {
        "n_parsed": n_parsed,
        "n_complete": n_complete,
        "violations": [
            {
                "project_id": v.project_id,
                "attribute": v.attribute,
                "expected": v.expected,
                "actual": v.actual,
            }
            for v in violations
        ],
    }
    return _json_report("validate", body, checksum)


def _render_summary(n_parsed: int, summary: DatasetSummary, format: str,
                    checksum: str | None) -> str:
    if format == "markdown":
        rows = [
            [name, str(s.count), _fmt(s.mean, 2), _fmt(s.minimum, 2),
             _fmt(s.maximum, 2), _fmt(s.sd, 2)]
            for name, s in summary.attributes.items()
        ]
        lines = [
            "# Dataset summary",
            "",
            f"Parsed records: {n_parsed}",
            f"Complete records: {summary.count}",
            "",
        ]
        lines.extend(_md_table(
            ["Attribute", "N", "Mean", "Min", "Max", "Std. dev"], rows,
        ))
        return _md_footer(lines, checksum)
    if format == "csv":
        comments = [f"# n_parsed={n_parsed}",
                    f"# n_complete={summary.count}"]
        rows = [",".join([name, str(s.count), _machine(s.mean),
                          _machine(s.minimum), _machine(s.maximum),
                          _machine(s.sd)])
                for name, s in summary.attributes.items()]
        return _csv_lines("attribute,count,mean,min,max,sd",
                          rows, checksum, extra_comments=comments)
    body = {
        "n_parsed": n_parsed,
        "n_complete": summary.count,
        "attributes": [
            {
                "name": name,
                "count": s.count,
                "mean": s.mean,
                "min": s.minimum,
                "max": s.maximum,
                "sd": s.sd,
            }
            for name, s in summary.attributes.items()
        ],
    }
    return _json_report("summary", body, checksum)


def _scenario_by_name(name: str):
    for scen in scenarios():
        if scen.name == name:
            return scen
    raise EffortlabError(f"unknown scenario {name!r}")


def _ann_config(args: argparse.Namespace) -> AnnConfig:
    overrides = {}
    if getattr(args, "hidden", None) is not None:
        overrides["hidden_nodes"] = args.hidden
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iterations"] = args.max_iter
    return AnnConfig(**overrides)


def _seed_list(args: argparse.Namespace) -> list[int]:
    if args.seeds < 1:
        raise EffortlabError("--seeds must be at least 1")
    return [args.seed + i for i in range(args.seeds)]


def _dataset_path(args: argparse.Namespace) -> str:
    if args.dataset:
        return args.dataset
    env = os.environ.get("EFFORTLAB_DATASET")
    if env:
        return env
    return bundled_dataset_path()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effortlab",
        description="Effort-estimation toolkit for the bundled project "
                    "dataset: validation, regression and network fits, "
                    "accuracy metrics, and attribute-ablation tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", metavar="<path>",
                       help="dataset file (default: $EFFORTLAB_DATASET, "
                            "then the bundled copy)")
        p.add_argument("--format", choices=FORMATS, default="markdown")
        p.add_argument("--out", metavar="<path>",
                       help="write the report here instead of stdout")

    def add_model_flags(p: argparse.ArgumentParser, models: tuple[str, ...],
                        default: str) -> None:
        p.add_argument("--model", choices=models, default=default)
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

    validate_p = sub.add_parser(
        "validate", help="parse the dataset and check derived columns")
    add_common(validate_p)

    summarize_p = sub.add_parser(
        "summarize", help="per-attribute summary of the complete records")
    add_common(summarize_p)

    fit_p = sub.add_parser(
        "fit", help="fit one model and report it (regression: coefficient "
                    "table; ann: accuracy metrics)")
    add_common(fit_p)
    add_model_flags(fit_p, ("regression", "ann"), "regression")

    ablate_p = sub.add_parser(
        "ablate", help="run all six feature scenarios")
    add_common(ablate_p)
    ablate_p.add_argument("--model", choices=("regression", "ann", "both"),
                          default="both")
    ablate_p.add_argument("--seed", type=int, default=0)
    ablate_p.add_argument("--seeds", type=int, default=1, metavar="<k>")
    ablate_p.add_argument("--hidden", type=int, metavar="<n>")
    ablate_p.add_argument("--max-iter", type=int, metavar="<n>")

    metrics_p = sub.add_parser(
        "metrics", help="accuracy criteria for one scenario and model")
    add_common(metrics_p)
    add_model_flags(metrics_p, ("regression", "ann"), "regression")

    return parser


def _dispatch(args: argparse.Namespace) -> tuple[str, int]:
    digest = hashlib.sha256()
    raw = load_dataset(_dataset_path(args), digest=digest)
    checksum = digest.hexdigest()
    complete = filter_complete(raw)

    if args.command == "validate":
        violations: list[Violation] = []
        for record in complete:
            violations.extend(validate_derived(record))
        text = _render_validation(len(raw), len(complete), violations,
                                  args.format, checksum)
        return text, (1 if violations else 0)

    if args.command == "summarize":
        text = _render_summary(len(raw), summarize(complete),
                               args.format, checksum)
        return text, 0

    if args.command == "fit":
        scen = _scenario_by_name(args.features)
        if args.model == "regression":
            fit = fit_ols(build_frame(complete, scen.features))
            return render_report(fit, args.format, checksum), 0
        report = run_scenario(complete, scen, "ann",
                              seeds=_seed_list(args),
                              ann_config=_ann_config(args))
        return render_report(report, args.format, checksum), 0

    if args.command == "ablate":
        table = run_ablation(complete, model=args.model,
                             seeds=_seed_list(args),
                             ann_config=_ann_config(args))
        return render_report(table, args.format, checksum), 0

    if args.command == "metrics":
        scen = _scenario_by_name(args.features)
        report = run_scenario(complete, scen, args.model,
                              seeds=_seed_list(args),
                              ann_config=_ann_config(args))
        return render_report(report, args.format, checksum), 0

    raise EffortlabError(f"unknown command {args.command!r}")


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
            print(text)
    except (EffortlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
