"""Attribute-removal study.

Runs the six feature scenarios (full model, four single-attribute
removals, size only) through the regression and/or the network, scores
each cell on raw effort with the five accuracy criteria, and ranks the
removable attributes by how much their absence hurts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

# train is not called here, but stays bound: perfbench/spans.py wraps
# effortlab.ablation.train
from .ann import AnnConfig, predict_frame, train, train_seeds  # noqa: F401
from .dataset import ProjectRecord
from .errors import DomainError
from .metrics import MetricsReport, evaluate
from .regression import FeatureSet, build_frame, fit_ols

MODEL_NAMES = ("regression", "ann")


@dataclass(frozen=True, slots=True)
class Scenario:
    name: str
    features: FeatureSet
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
    full = FeatureSet()
    return (
        Scenario("full", full, None),
        Scenario("no-env", replace(full, envergure=False), "envergure"),
        Scenario("no-language", replace(full, language=False), "language"),
        Scenario("no-texp", replace(full, team_exp=False), "team_exp"),
        Scenario("no-mexp", replace(full, manager_exp=False), "manager_exp"),
        Scenario("size-only", FeatureSet(language=False, team_exp=False,
                                         manager_exp=False, envergure=False),
                 None),
    )


def _median_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    def med(attr: str) -> float:
        return float(np.median([getattr(r, attr) for r in reports]))

    return MetricsReport(
        mmre=med("mmre"),
        pred_25=med("pred_25"),
        rmse=med("rmse"),
        mean_error=med("mean_error"),
        r_squared=med("r_squared"),
        n=reports[0].n,
    )


def run_scenario(records: Sequence[ProjectRecord], scenario: Scenario,
                 model: str, seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig | None = None) -> MetricsReport:
    """Score one scenario/model cell on raw effort over all records."""
    if model not in MODEL_NAMES:
        raise DomainError(f"unknown model {model!r}")
    frame = build_frame(records, scenario.features)
    actual = list(map(attrgetter("effort"), records))
    if model == "regression":
        fit = fit_ols(frame)
        predicted = np.exp(frame.matrix @ fit.coefficients)
        return evaluate(actual, predicted.tolist())
    if not seeds:
        raise DomainError("need at least one seed for the ann model")
    base = ann_config if ann_config is not None else AnnConfig()
    reports = [evaluate(actual, predict_frame(net, frame).tolist())
               for net, _ in train_seeds(frame, base, seeds)]
    return _median_report(reports)


def run_ablation(records: Sequence[ProjectRecord], model: str = "both",
                 seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig | None = None) -> AblationTable:
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
    cells: dict[tuple[str, str], MetricsReport] = {}
    for scen in scens:
        for m in models:
            cells[(scen.name, m)] = run_scenario(
                records, scen, m, seeds=seeds, ann_config=ann_config,
            )
    uses_ann = "ann" in models
    base = ann_config if ann_config is not None else AnnConfig()
    return AblationTable(
        scenarios=scens,
        models=models,
        cells=cells,
        n=len(records),
        seeds=tuple(seeds) if uses_ann else (),
        ann_config=base if uses_ann else None,
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
