"""Accuracy criteria for effort predictions.

`evaluate` scores raw (untransformed) actual and predicted values,
given as two equal-length sequences, on all five criteria in one pass
over numpy arrays: MMRE, PRED(0.25), RMSE, mean error and R-squared.
Every sum runs strictly left to right, as the built-in `sum()` of
Python 3.11 does, and every square is libm's `pow`, as Python's
`e ** 2` is, so the criteria have the same bits on any Python version.
numpy is imported on the first call, not with the module.
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


def evaluate(actual: Iterable[float],
             predicted: Iterable[float]) -> MetricsReport:
    """Compute all five criteria over one set of pairs, in one pass.

    Bad input raises the error of the first bad pair, in order. Actuals
    without variation leave R-squared undefined, so they raise
    DegenerateInputError; any criterion beyond the float range raises
    DomainError.
    """
    import numpy as np

    def floats(values) -> np.ndarray:
        return np.asarray(values if isinstance(values, np.ndarray)
                          else list(values), dtype=np.float64)

    def total(values: np.ndarray) -> float:
        # sequential, unlike numpy's pairwise `sum`
        return float(np.add.accumulate(values)[-1])

    def overflows(values: np.ndarray, squares: np.ndarray) -> bool:
        # Python's `e ** 2` raises OverflowError for a finite e only
        return bool(np.any(np.isinf(squares) & np.isfinite(values)))

    A, P = floats(actual), floats(predicted)
    n = len(A)
    if n != len(P):
        raise DomainError(f"got {n} actual values but "
                          f"{len(P)} predicted values")
    if not n:
        raise DomainError("need at least one evaluation pair")
    finite = np.isfinite(A) & np.isfinite(P)
    bad = ~finite | (A <= 0)
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise DomainError("actual and predicted must be finite")
        raise DomainError(f"actual must be positive, got {float(A[i])}")
    # a criterion beyond the float range is named below
    with np.errstate(over="ignore", invalid="ignore"):
        E = A - P
        M = np.abs(E) / A
        D = A - total(A) / n
        E2, D2 = np.float_power(E, 2.0), np.float_power(D, 2.0)
        if overflows(E, E2) or overflows(D, D2):
            sse = sst = math.inf  # R-squared overflows whichever did
        else:
            sse, sst = total(E2), total(D2)
        mmre, mean_error = total(M) / n, total(E) / n
    # on the values: a rounded mean leaves a constant sample a tiny sst,
    # and squares that underflow leave a varying sample none
    constant = A.min() == A.max()
    if constant or not sst > 0.0:
        why = "are constant" if constant else "vary too little"
        raise DegenerateInputError(f"actuals {why}; r_squared is undefined")
    report = MetricsReport(
        mmre=mmre,
        pred_25=np.count_nonzero(M <= PRED_LEVEL) / n,
        rmse=math.sqrt(sse / n),
        mean_error=mean_error,
        r_squared=1.0 - sse / sst,
        n=n,
    )
    if not all(map(math.isfinite, (report.mmre, report.rmse,
                                   report.mean_error, report.r_squared))):
        raise DomainError("accuracy criteria overflow the float range")
    return report
