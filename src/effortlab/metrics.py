"""Accuracy criteria for effort predictions.

All metrics operate on raw (untransformed) actual/predicted pairs:
MMRE, PRED(0.25), RMSE, mean error, and R-squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateInputError, DomainError

PRED_LEVEL = 0.25


@dataclass(frozen=True, slots=True)
class EvaluationPair:
    actual: float
    predicted: float


@dataclass(frozen=True, slots=True)
class MetricsReport:
    mmre: float
    pred_25: float
    rmse: float
    mean_error: float
    r_squared: float
    n: int


def _as_pairs(pairs: Iterable[EvaluationPair]) -> Sequence[EvaluationPair]:
    out = tuple(pairs)
    if not out:
        raise DomainError("need at least one evaluation pair")
    for p in out:
        if not (math.isfinite(p.actual) and math.isfinite(p.predicted)):
            raise DomainError("actual and predicted must be finite")
        if p.actual <= 0:
            raise DomainError(f"actual must be positive, got {p.actual}")
    return out


def mre(pair: EvaluationPair) -> float:
    """Magnitude of relative error for one pair."""
    if pair.actual <= 0:
        raise DomainError(f"actual must be positive, got {pair.actual}")
    return abs(pair.actual - pair.predicted) / pair.actual


def mmre(pairs: Iterable[EvaluationPair]) -> float:
    out = _as_pairs(pairs)
    return sum(mre(p) for p in out) / len(out)


def pred(pairs: Iterable[EvaluationPair], level: float = PRED_LEVEL) -> float:
    """Fraction of pairs whose MRE is at most `level`."""
    if level <= 0:
        raise DomainError(f"level must be positive, got {level}")
    out = _as_pairs(pairs)
    hits = sum(1 for p in out if mre(p) <= level)
    return hits / len(out)


def rmse(pairs: Iterable[EvaluationPair]) -> float:
    out = _as_pairs(pairs)
    return math.sqrt(
        sum((p.actual - p.predicted) ** 2 for p in out) / len(out)
    )


def mean_error(pairs: Iterable[EvaluationPair]) -> float:
    """Mean of (actual - predicted); positive means underestimation."""
    out = _as_pairs(pairs)
    return sum(p.actual - p.predicted for p in out) / len(out)


def r_squared(pairs: Iterable[EvaluationPair]) -> float:
    """1 - SSE/SST around the mean of the actuals.

    A single pair (or any sample with constant actuals) has zero total
    variation, so the ratio is undefined; that case raises
    DegenerateInputError rather than returning a sentinel.
    """
    out = _as_pairs(pairs)
    actual = [p.actual for p in out]
    # on the values: a rounded mean leaves a constant sample a tiny sst
    if min(actual) == max(actual):
        raise DegenerateInputError(
            "actuals are constant; r_squared is undefined"
        )
    mean_actual = sum(actual) / len(out)
    sst = sum((a - mean_actual) ** 2 for a in actual)
    sse = sum((p.actual - p.predicted) ** 2 for p in out)
    return 1.0 - sse / sst


def evaluate(pairs: Iterable[EvaluationPair]) -> MetricsReport:
    """Compute all five criteria over one set of pairs.

    The pairs are checked once, as _as_pairs checks them. Each sum runs
    over the same terms in the same order as in the criterion's own
    function, so every value is bit-identical to calling the five one by
    one.
    """
    out = tuple(pairs)
    actual = [p.actual for p in out]
    predicted = [p.predicted for p in out]
    if not (actual and all(map(math.isfinite, actual))
            and all(map(math.isfinite, predicted)) and min(actual) > 0):
        _as_pairs(out)  # raises the error of the first bad pair
    n = len(out)
    errors = [a - p for a, p in zip(actual, predicted)]
    mres = [abs(e) / a for e, a in zip(errors, actual)]
    try:
        sse = sum(e ** 2 for e in errors)
        mean_actual = sum(actual) / n
        sst = sum((a - mean_actual) ** 2 for a in actual)
    except OverflowError:
        sse = sst = math.inf
    if min(actual) == max(actual):
        raise DegenerateInputError(
            "actuals are constant; r_squared is undefined"
        )
    report = MetricsReport(
        mmre=sum(mres) / n,
        pred_25=sum(1 for m in mres if m <= PRED_LEVEL) / n,
        rmse=math.sqrt(sse / n),
        mean_error=sum(errors) / n,
        r_squared=1.0 - sse / sst,
        n=n,
    )
    if not all(map(math.isfinite, (report.mmre, report.rmse,
                                   report.mean_error, report.r_squared))):
        raise DomainError("accuracy criteria overflow the float range")
    return report
