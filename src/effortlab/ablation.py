"""Attribute-removal study.

Runs the six feature scenarios (full model, four single-attribute
removals, size only) through the regression and/or the network, scores
each cell on raw effort with the five accuracy criteria, and ranks the
removable attributes by how much their absence hurts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .ann import AnnConfig, _predict_frame, _train_frames
# train is not called here, but stays bound: perfbench/spans.py wraps
# effortlab.ablation.train
from .ann import train  # noqa: F401
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


def _score_cells(records: Sequence[ProjectRecord],
                 scens: Sequence[Scenario], models: Sequence[str],
                 seeds: Sequence[int], ann_config: AnnConfig
                 ) -> dict[tuple[str, str], MetricsReport]:
    """Each scenario/model cell on raw effort over all records, in
    scenario x model order. A cell is the per-criterion median of the
    scores of its prediction rows: one row per network of the seeds, and
    one for the regression.

    One frame holds every scenario's terms, and each scenario's frame is
    a column subset of it, equal to the scenario's own frame. The
    regression cells come first, one subset at a time, since on large
    data the subsets add up; then the networks of every scenario train
    together.
    """
    for model in models:
        if model not in MODEL_NAMES:
            raise DomainError(
                f"unknown model {model!r}: a cell is 'regression' or 'ann', "
                "and an ablation also takes 'both'")
    full = build_frame(records, tuple(dict.fromkeys(
        term for scen in scens for term in scen.features)))
    actual = np.asarray(_columns_of(records)["effort"], dtype=np.float64)

    def frame_of(scen: Scenario) -> ModelFrame:
        return _subset(full, [full.columns.index(c)
                              for c in _design_columns(scen.features)])

    def score(predictions: Iterable[np.ndarray]) -> MetricsReport:
        reports = [evaluate(actual, p) for p in predictions]
        return MetricsReport(n=reports[0].n, **{
            f.name: float(np.median([getattr(r, f.name) for r in reports]))
            for f in fields(MetricsReport) if f.name != "n"})

    cells: dict[tuple[str, str], MetricsReport] = {}
    if "regression" in models:
        for scen in scens:
            frame = frame_of(scen)
            with np.errstate(over="ignore"):  # evaluate names an infinity
                predicted = np.exp(frame.matrix @ fit_ols(frame).coefficients)
            cells[(scen.name, "regression")] = score([predicted])
    if "ann" in models:
        frames = list(map(frame_of, scens))
        for scen, frame, trained in zip(
                scens, frames, _train_frames(frames, ann_config, seeds)):
            cells[(scen.name, "ann")] = score(
                _predict_frame([net for net, _ in trained], frame))
    return {(scen.name, m): cells[(scen.name, m)]
            for scen in scens for m in models}


def run_scenario(records: Sequence[ProjectRecord], scenario: Scenario,
                 model: str, seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig = AnnConfig()) -> MetricsReport:
    """Score one scenario/model cell on raw effort over all records."""
    return _score_cells(records, (scenario,), (model,), seeds,
                        ann_config)[(scenario.name, model)]


def run_ablation(records: Sequence[ProjectRecord], model: str = "both",
                 seeds: Sequence[int] = (0,),
                 ann_config: AnnConfig = AnnConfig()) -> AblationTable:
    """All six scenarios for the requested model(s).

    Regression cells are deterministic; ann cells are the per-metric
    median over the given seeds.
    """
    models = MODEL_NAMES if model == "both" else (model,)
    scens = scenarios()
    uses_ann = "ann" in models
    return AblationTable(
        scenarios=scens,
        models=models,
        cells=_score_cells(records, scens, models, seeds, ann_config),
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
