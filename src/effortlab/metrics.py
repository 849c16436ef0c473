"""Accuracy criteria for effort predictions.

`evaluate` scores raw (untransformed) actual and predicted values,
given as two equal-length sequences, on all five criteria in one pass:
MMRE, PRED(0.25), RMSE, mean error and R-squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DegenerateInputError, DomainError

PRED_LEVEL = 0.25


@dataclass(frozen=True, slots=True)
class MetricsReport:
    mmre: float
    pred_25: float
    rmse: float
    mean_error: float
    r_squared: float
    n: int


def _checked(actual: Iterable[float],
             predicted: Iterable[float]) -> tuple[list[float], list[float]]:
    """Both sequences as float lists; raises the error of the first bad
    pair, in order."""
    actual = list(map(float, actual))
    predicted = list(map(float, predicted))
    if len(actual) != len(predicted):
        raise DomainError(f"got {len(actual)} actual values but "
                          f"{len(predicted)} predicted values")
    if not actual:
        raise DomainError("need at least one evaluation pair")
    for a, p in zip(actual, predicted):
        if not (math.isfinite(a) and math.isfinite(p)):
            raise DomainError("actual and predicted must be finite")
        if a <= 0:
            raise DomainError(f"actual must be positive, got {a}")
    return actual, predicted


def evaluate(actual: Iterable[float],
             predicted: Iterable[float]) -> MetricsReport:
    """Compute all five criteria over one set of pairs, in one pass.

    Actuals without variation leave R-squared undefined, so they raise
    DegenerateInputError; any criterion beyond the float range raises
    DomainError.
    """
    actual, predicted = _checked(actual, predicted)
    n = len(actual)
    errors = [a - p for a, p in zip(actual, predicted)]
    mres = [abs(e) / a for e, a in zip(errors, actual)]
    try:
        sse = sum(e ** 2 for e in errors)
        mean_actual = sum(actual) / n
        sst = sum((a - mean_actual) ** 2 for a in actual)
    except OverflowError:
        sse = sst = math.inf
    # on the values: a rounded mean leaves a constant sample a tiny sst,
    # and squares that underflow leave a varying sample none
    if min(actual) == max(actual) or not sst > 0.0:
        why = ("are constant" if min(actual) == max(actual)
               else "vary too little")
        raise DegenerateInputError(f"actuals {why}; r_squared is undefined")
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
