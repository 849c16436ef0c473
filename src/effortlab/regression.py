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
from .errors import (CollinearityError, DegenerateInputError, DomainError,
                     TransformError)
from .numerics import f_upper_tail_p, solve_least_squares

# Each model term and the design columns it adds, in design-matrix order.
# A term enters or leaves the model whole: language is two dummies.
TERMS = {
    "ln_size": ("ln_size",),
    "ln_transactions": ("ln_transactions",),
    "ln_entities": ("ln_entities",),
    "language": ("lang_1", "lang_2"),
    "team_exp": ("team_exp",),
    "manager_exp": ("manager_exp",),
    "envergure": ("envergure",),
}
FULL_MODEL = ("ln_size", "language", "team_exp", "manager_exp", "envergure")
_TERM_OF = {column: term for term, columns in TERMS.items()
            for column in columns}

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


_LN_SOURCES = {"ln_size": "points_non_adjust",
               "ln_transactions": "transactions", "ln_entities": "entities",
               "ln_effort": "effort"}
# Two dummies for the three language codes; 4GL (3) is the baseline.
_DUMMIES = {"lang_1": {1: 1.0, 2: 0.0, 3: 0.0},
            "lang_2": {1: 0.0, 2: 1.0, 3: 0.0}}
_PLAIN = ("team_exp", "manager_exp", "envergure")


def _column(name: str, fields: dict[str, Sequence]):
    """One design column, or the response as ln_effort, over the fields.

    Where a value cannot be formed, raises the error of the first record
    in order whose value is bad: TransformError naming the project for a
    non-positive ln source, DomainError for an unknown language code.
    """
    if name == "intercept":
        return [1.0] * len(fields["project_id"])
    if name in _LN_SOURCES:
        values = fields[_LN_SOURCES[name]]
        try:
            return list(map(math.log, values))
        except ValueError:
            project_id, value = next(
                (i, v) for i, v in zip(fields["project_id"], values) if v <= 0)
            raise TransformError(f"cannot take ln of {name[3:]} = {value}",
                                 project_id=project_id) from None
    if name in _DUMMIES:
        try:
            return list(map(_DUMMIES[name].__getitem__, fields["language"]))
        except KeyError as exc:  # the first bad code
            raise DomainError("language code must be 1, 2 or 3, got "
                              f"{exc.args[0]}") from None
    if name in _PLAIN:
        return fields[name]
    raise DomainError(f"unknown design column {name!r}")


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
    order, filled one column at a time with math.log, whose values the
    goldens pin bit for bit; the C-contiguous layout is kept because
    least-squares results depend on it."""
    columns = _design_columns(features)
    if not records:
        raise DomainError("need at least one record")
    fields = _columns_of(records)
    matrix = np.empty((len(records), len(columns)))
    try:
        for j, name in enumerate(columns):
            matrix[:, j] = _column(name, fields)
        response = np.array(_column("ln_effort", fields))
        # a missing cell that no ln or code lookup met fills as NaN
        if np.isnan(matrix).any() or np.isnan(response).any():
            raise DomainError("a design value is NaN")
    except (TransformError, DomainError, TypeError):
        # Report the first bad record in order, and its first bad value.
        for rec in records:
            for name in columns[1:] + ("ln_effort",):
                field = _LN_SOURCES.get(name) or (
                    "language" if name in _DUMMIES else name)
                if getattr(rec, field) is None:
                    raise DomainError(f"project {rec.project_id}: {field} "
                                      "is missing") from None
                _column(name, _columns_of((rec,)))
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
        raise DegenerateInputError("the model fits the response exactly, "
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
