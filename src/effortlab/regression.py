"""Log-linear effort regression.

Builds design matrices from complete project records, fits OLS with the
usual inference table (standard errors, t statistics, p values, model F,
VIF), and runs bidirectional stepwise selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .dataset import ProjectRecord, _columns_of
from .errors import CollinearityError, DomainError
from .numerics import f_upper_tail_p, solve_least_squares

# Each design column in design-matrix order: the model term it belongs to,
# the record field it reads, and the map from a field value to its entry
# (None: the value as it is). A term enters or leaves the model whole:
# language is two dummies, and 4GL (3) is their baseline.
_COLUMNS = {
    "ln_size": ("ln_size", "points_non_adjust", math.log),
    "ln_transactions": ("ln_transactions", "transactions", math.log),
    "ln_entities": ("ln_entities", "entities", math.log),
    "lang_1": ("language", "language", {1: 1.0, 2: 0.0, 3: 0.0}.__getitem__),
    "lang_2": ("language", "language", {1: 0.0, 2: 1.0, 3: 0.0}.__getitem__),
    "team_exp": ("team_exp", "team_exp", None),
    "manager_exp": ("manager_exp", "manager_exp", None),
    "envergure": ("envergure", "envergure", None),
}
# The response as a source of the same form: column, field, map.
_RESPONSE = ("ln_effort", "effort", math.log)
# Each model term and the design columns it adds, in design-matrix order.
TERMS = {term: tuple(c for c, (t, *_) in _COLUMNS.items() if t == term)
         for term, *_ in _COLUMNS.values()}
FULL_MODEL = ("ln_size", "language", "team_exp", "manager_exp", "envergure")
_TERM_OF = {column: term for column, (term, *_) in _COLUMNS.items()}

ALPHA = 0.05  # the stepwise entry and removal level


@dataclass(frozen=True, eq=False)
class ModelFrame:
    """Design matrix plus ln(effort) response for a set of records."""

    columns: tuple[str, ...]
    matrix: np.ndarray
    response: np.ndarray
    project_ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.project_ids)

    def predictor_columns(self) -> tuple[str, ...]:
        return tuple(c for c in self.columns if c != "intercept")


@dataclass(frozen=True, eq=False)
class RegressionFit:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray
    residual_sum_of_squares: float
    residual_variance: float
    r_squared: float
    f_statistic: float
    f_p_value: float
    vif: dict[str, float]
    n: int
    df_residual: int
    smearing_factor: float = 1.0

    def coefficient(self, column: str) -> float:
        return float(self.coefficients[self.columns.index(column)])

    def p_value(self, column: str) -> float:
        return float(self.p_values[self.columns.index(column)])


@dataclass(frozen=True, slots=True)
class StepwiseStep:
    action: str
    predictor: str
    p_value: float


@dataclass(frozen=True, eq=False)
class StepwiseTrace:
    steps: tuple[StepwiseStep, ...]
    selected: tuple[str, ...]
    fit: RegressionFit


def _design_columns(features: Iterable[str]) -> tuple[str, ...]:
    """An intercept and the named terms' columns, in TERMS order."""
    wanted = tuple(features)
    for name in wanted:
        if name not in TERMS:
            raise DomainError(f"unknown term {name!r}; choose from "
                              f"{tuple(TERMS)}")
    return ("intercept",) + tuple(
        column for term, columns in TERMS.items() if term in wanted
        for column in columns)


def build_frame(records: Sequence[ProjectRecord],
                features: Iterable[str] = FULL_MODEL) -> ModelFrame:
    """Design matrix of an intercept and the named terms' columns in TERMS
    order, each filled from its field and map in one table, `_COLUMNS`.
    The goldens pin math.log's values bit for bit, and the C-contiguous
    layout is kept because least-squares results depend on it.

    Where a value cannot be formed, raises DomainError naming the project
    for the first bad record in order and its first bad value in column
    order, the response last: ln of a non-positive value, a language code
    outside 1..3, or a missing, NaN, infinite or non-numeric value.
    """
    columns = _design_columns(features)
    if not records:
        raise DomainError("need at least one record")
    fields = _columns_of(records)
    sources = [(name, *_COLUMNS[name][1:]) for name in columns[1:]]
    matrix = np.empty((len(records), len(columns)))
    matrix[:, 0] = 1.0
    try:
        for j, (_, field, entry) in enumerate(sources, 1):
            values = fields[field]
            matrix[:, j] = list(map(entry, values)) if entry else values
        _, field, entry = _RESPONSE
        response = np.array(list(map(entry, fields[field])))
        # a missing cell that no ln or code lookup met fills as NaN, and
        # an infinite value passes as it is
        if not (np.isfinite(matrix).all() and np.isfinite(response).all()):
            raise DomainError("a design value is not finite")
    except (DomainError, KeyError, OverflowError, TypeError, ValueError):
        # Name the first bad record in order, and its first bad value.
        for rec in records:
            for name, field, entry in (*sources, _RESPONSE):
                value, problem = getattr(rec, field), f"{field} is missing"
                try:
                    if value is not None:
                        cell = entry(value) if entry else float(value)
                        problem = (None if math.isfinite(cell) else
                                   f"{field} is NaN" if math.isnan(cell) else
                                   f"{field} is not finite")
                except KeyError:
                    problem = f"language code {value} not in 1..3"
                except ValueError if entry is math.log else ():
                    # the one ValueError of math.log: a value <= 0
                    problem = f"cannot take ln of {name[3:]} = {value}"
                except (OverflowError, TypeError, ValueError):
                    problem = f"{field} is not a number in the float range"
                if problem:
                    raise DomainError(
                        f"project {rec.project_id}: {problem}") from None
        raise
    return ModelFrame(
        columns=columns,
        matrix=matrix,
        response=response,
        project_ids=tuple(fields["project_id"]),
    )


def build_candidate_frame(records: Sequence[ProjectRecord]) -> ModelFrame:
    """Frame holding every stepwise candidate term."""
    return build_frame(records, TERMS)


def _subset(frame: ModelFrame, keep: Sequence[int]) -> ModelFrame:
    # sorted, and take copies in C order: the layout build_frame gives
    idx = sorted(keep)
    return ModelFrame(
        columns=tuple(frame.columns[i] for i in idx),
        matrix=frame.matrix.take(idx, axis=1),
        response=frame.response,
        project_ids=frame.project_ids,
    )


def vif(frame: ModelFrame,
        unscaled_covariance: np.ndarray) -> dict[str, float]:
    """Variance inflation factor of each non-intercept column.

    VIF_j = SST_j * [(X'X)^-1]_jj, read off the fit's unscaled
    covariance: [(X'X)^-1]_jj is 1 / RSS_j of regressing column j on all
    the others, so this is 1 / (1 - R_j^2) without that regression.
    """
    out: dict[str, float] = {}
    for j, name in enumerate(frame.columns):
        if name == "intercept":
            continue
        target = frame.matrix[:, j]
        # on the values: a rounded mean leaves a constant column an SST
        # that is tiny but not zero
        if target.min() == target.max():
            raise DomainError(f"column {name!r} is constant")
        sst = float(np.sum((target - target.mean()) ** 2))
        out[name] = min(sst * float(unscaled_covariance[j, j]), 1e12)
    return out


def fit_ols(frame: ModelFrame) -> RegressionFit:
    """OLS on the log scale with the full inference table attached."""
    if frame.columns[0] != "intercept":
        raise DomainError("frame must start with an intercept column")
    n, p = frame.matrix.shape
    if n <= p:
        raise DomainError(f"need more rows than columns, got {n}x{p}")
    y = frame.response
    if y.min() == y.max():
        raise DomainError("response is constant")
    try:
        sol = solve_least_squares(frame.matrix, frame.response)
    except CollinearityError as exc:
        name = frame.columns[exc.column]
        raise CollinearityError(
            f"column {name!r} is linearly dependent on the others",
            column=exc.column,
        ) from None
    df_resid = n - p
    resid_var = sol.residual_sum_of_squares / df_resid
    se = np.sqrt(resid_var * np.diag(sol.unscaled_covariance))
    # an exact fit: no standard error, or residuals that are rounding
    # noise on the response's own scale, whatever the kernel
    if not se.all() or (sol.residual_sum_of_squares
                        <= (n * np.finfo(float).eps) ** 2 * float(y @ y)):
        raise DomainError("the model fits the response exactly, "
                          "so its standard errors are 0")
    t = sol.coefficients / se
    # a two-sided t test is the F(1, df) test of t squared
    pvals = np.array([f_upper_tail_p(tj * tj, 1, df_resid)
                      for tj in t.tolist()])

    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - sol.residual_sum_of_squares / sst
    if p > 1:
        f_stat = ((sst - sol.residual_sum_of_squares) / (p - 1)) / resid_var
        f_p = f_upper_tail_p(f_stat, p - 1, df_resid)
    else:
        f_stat = float("nan")
        f_p = float("nan")

    with np.errstate(over="ignore"):
        smearing = float(np.mean(np.exp(sol.residuals)))
    if not math.isfinite(smearing):
        raise DomainError("smearing factor overflows the float range")
    return RegressionFit(
        columns=frame.columns,
        coefficients=sol.coefficients,
        standard_errors=se,
        t_values=t,
        p_values=pvals,
        residual_sum_of_squares=sol.residual_sum_of_squares,
        residual_variance=resid_var,
        r_squared=r2,
        f_statistic=f_stat,
        f_p_value=f_p,
        vif=vif(frame, sol.unscaled_covariance),
        n=n,
        df_residual=df_resid,
        smearing_factor=smearing,
    )


def _terms_of(frame: ModelFrame) -> dict[str, list[int]]:
    """Each selectable term's design columns, ordered by their first
    column; a column outside TERMS is a term of its own."""
    terms: dict[str, list[int]] = {}
    for j, name in enumerate(frame.columns):
        if name != "intercept":
            terms.setdefault(_TERM_OF.get(name, name), []).append(j)
    return terms


def stepwise_select(frame: ModelFrame) -> StepwiseTrace:
    """Bidirectional stepwise selection over the frame's terms.

    Starts from the intercept-only model. Each round first tries the
    best entry (smallest partial-F p value below ALPHA, ties broken by
    column order), then retests everything already in the model and
    removes the worst term whose p value rose above ALPHA. Stops when a
    full round changes nothing.

    Every model tested is a `fit_ols` fit, so a model that `fit_ols`
    refuses stops the search with that error.
    """
    terms = _terms_of(frame)
    if not terms:
        raise DomainError("frame has no candidate terms")
    included: list[str] = []
    steps: list[StepwiseStep] = []
    # Each model is fitted once: a round's base model is shared by every
    # candidate, and the selection's fit is one of them.
    fits: dict[tuple[int, ...], RegressionFit] = {}

    def fit(names: Iterable[str]) -> RegressionFit:
        key = tuple(sorted(chain([0], *map(terms.get, names))))
        if key not in fits:
            fits[key] = fit_ols(_subset(frame, key))
        return fits[key]

    def p_value(names: list[str], term: str) -> float:
        """Partial-F p value of adding `term` to the model on `names`."""
        reduced, full = fit(names), fit([*names, term])
        df_term = len(terms[term])
        f = ((reduced.residual_sum_of_squares - full.residual_sum_of_squares)
             / df_term / full.residual_variance)
        return f_upper_tail_p(max(f, 0.0), df_term, full.df_residual)

    for _ in range(2 * len(terms)):
        taken = len(steps)
        entry = min(((p, order, name)
                     for order, name in enumerate(terms)
                     if name not in included
                     for p in [p_value(included, name)] if p < ALPHA),
                    default=None)
        if entry is not None:
            p, _, name = entry
            included.append(name)
            steps.append(StepwiseStep("add", name, p))
        removal = max(((p, name) for name in included
                       for p in [p_value([n for n in included if n != name],
                                         name)] if p > ALPHA),
                      key=lambda e: e[0], default=None)
        if removal is not None:
            p, name = removal
            included.remove(name)
            steps.append(StepwiseStep("remove", name, p))
        if len(steps) == taken:
            break

    return StepwiseTrace(
        steps=tuple(steps),
        selected=tuple(name for name in terms if name in included),
        fit=fit(included),
    )
