"""Attribute-removal study.

Runs the six feature scenarios (full model, four single-attribute
removals, size only) through the regression and/or the network, scores
each cell on raw effort with the five accuracy criteria, and ranks the
removable attributes by how much their absence hurts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

# train is not called here, but stays bound: perfbench/spans.py wraps
# effortlab.ablation.train
from .ann import AnnConfig, predict_frame, train, train_seeds  # noqa: F401
from .dataset import ProjectRecord, _columns_of
from .errors import DomainError
from .metrics import MetricsReport, evaluate
from .regression import (FULL_MODEL, ModelFrame, _design_columns, _subset,
                         build_frame, fit_ols)

MODEL_NAMES = ("regression", "ann")


@dataclass(frozen=True, slots=True)
class Scenario:
    name: str
    features: tuple[str, ...]
    removed: str | None


@dataclass(frozen=True, eq=False)
class AblationTable:
    scenarios: tuple[Scenario, ...]
    models: tuple[str, ...]
    cells: dict[tuple[str, str], MetricsReport]
    n: int
    seeds: tuple[int, ...]
    ann_config: AnnConfig | None = None

    def cell(self, scenario: str, model: str) -> MetricsReport:
        return self.cells[(scenario, model)]


@dataclass(frozen=True, slots=True)
class RankedAttribute:
    attribute: str
    delta_mmre: float
    delta_r2: float


@dataclass(frozen=True, slots=True)
class AttributeRanking:
    model: str
    entries: tuple[RankedAttribute, ...]


def scenarios() -> tuple[Scenario, ...]:
    """The six scenarios, in report order."""
    removals = (("no-env", "envergure"), ("no-language", "language"),
                ("no-texp", "team_exp"), ("no-mexp", "manager_exp"))
    return (
        Scenario("full", FULL_MODEL, None),
        *(Scenario(name, tuple(t for t in FULL_MODEL if t != removed),
                   removed)
          for name, removed in removals),
        Scenario("size-only", ("ln_size",), None),
    )


def _median_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    return MetricsReport(n=reports[0].n, **{
        f.name: float(np.median([getattr(r, f.name) for r in reports]))
        for f in fields(MetricsReport) if f.name != "n"})


def _score(frame: ModelFrame, actual: Sequence[float], model: str,
           seeds: Sequence[int], ann_config: AnnConfig) -> MetricsReport:
    """Score one model on a frame against the raw efforts."""
    if model == "regression":
        fit = fit_ols(frame)
        with np.errstate(over="ignore"):  # evaluate names an infinity
            predicted = np.exp(frame.matrix @ fit.coefficients)
        return evaluate(actual, predicted.tolist())
    reports = [evaluate(actual, predict_frame(net, frame).tolist())
               for net, _ in train_seeds(frame, ann_config, seeds)]
    return _median_report(reports)


def run_scenario(records: Sequence[ProjectRecord], scenario: Scenario,
                 model: str, seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig = AnnConfig()) -> MetricsReport:
    """Score one scenario/model cell on raw effort over all records."""
    if model not in MODEL_NAMES:
        raise DomainError(f"unknown model {model!r}")
    return _score(build_frame(records, scenario.features),
                  _columns_of(records)["effort"], model, seeds, ann_config)


def run_ablation(records: Sequence[ProjectRecord], model: str = "both",
                 seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig = AnnConfig()) -> AblationTable:
    """All six scenarios for the requested model(s).

    Regression cells are deterministic; ann cells are the per-metric
    median over the given seeds.
    """
    if model == "both":
        models = MODEL_NAMES
    elif model in MODEL_NAMES:
        models = (model,)
    else:
        raise DomainError(f"model must be one of {MODEL_NAMES + ('both',)}")
    scens = scenarios()
    full = build_frame(records, FULL_MODEL)
    actual = _columns_of(records)["effort"]
    cells: dict[tuple[str, str], MetricsReport] = {}
    for scen in scens:  # each subset equals the scenario's own frame
        frame = _subset(full, [full.columns.index(c)
                               for c in _design_columns(scen.features)])
        for m in models:
            cells[(scen.name, m)] = _score(frame, actual, m, seeds,
                                           ann_config)
    uses_ann = "ann" in models
    return AblationTable(
        scenarios=scens,
        models=models,
        cells=cells,
        n=len(records),
        seeds=tuple(seeds) if uses_ann else (),
        ann_config=ann_config if uses_ann else None,
    )


def rank_attributes(table: AblationTable,
                    model: str = "regression") -> AttributeRanking:
    """Order the removable attributes by MMRE degradation against the
    full model, breaking ties toward the larger R-squared drop."""
    if model not in table.models:
        raise DomainError(f"table has no {model!r} cells")
    full = table.cell("full", model)
    entries = []
    for scen in table.scenarios:
        if scen.removed is None:
            continue
        cell = table.cell(scen.name, model)
        entries.append(RankedAttribute(
            attribute=scen.removed,
            delta_mmre=cell.mmre - full.mmre,
            delta_r2=cell.r_squared - full.r_squared,
        ))
    entries.sort(key=lambda e: (-e.delta_mmre, e.delta_r2))
    return AttributeRanking(model=model, entries=tuple(entries))
