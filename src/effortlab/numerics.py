"""Self-contained numerical kernel.

Dense least squares via Householder QR, the regularized incomplete
beta function, and the F distribution's upper tail, the one tail every
p value is read from: a two-sided Student-t p value is the F(1, df)
tail of t squared, as t(df)^2 ~ F(1, df). Nothing here knows about
projects or effort; the regression layer builds on these primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError, DomainError

RANK_PIVOT_THRESHOLD = 1e-10

_BETA_EPS = 1e-14
_BETA_TINY = 1e-300
_BETA_MAX_ITER = 500


@dataclass(frozen=True, slots=True)
class LinearSystemSolution:
    coefficients: np.ndarray
    residuals: np.ndarray
    residual_sum_of_squares: float
    unscaled_covariance: np.ndarray


def solve_least_squares(design: np.ndarray,
                        response: np.ndarray) -> LinearSystemSolution:
    """Minimize ||design @ beta - response|| by Householder QR."""
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise DomainError("design must be a 2-d matrix")
    n, p = X.shape
    if p < 1 or n < p:
        raise DomainError(f"need rows >= columns >= 1, got {n}x{p}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DomainError("design and response must be finite")

    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    scale = diag.max()
    if scale == 0.0:
        raise CollinearityError("design matrix is zero", column=0)
    small = diag < RANK_PIVOT_THRESHOLD * scale
    if small.any():
        col = int(np.nonzero(small)[0][0])
        raise CollinearityError(
            f"column {col} is linearly dependent on earlier columns",
            column=col,
        )

    qty = Q.T @ y
    beta = _back_substitute(R, qty)
    resid = y - X @ beta
    rss = float(resid @ resid)
    r_inv = _back_substitute(R, np.eye(p))
    unscaled = r_inv @ r_inv.T
    return LinearSystemSolution(
        coefficients=beta,
        residuals=resid,
        residual_sum_of_squares=rss,
        unscaled_covariance=unscaled,
    )


def _back_substitute(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b for upper-triangular R; b is (p,) or (p, m)."""
    p = R.shape[1]
    x = np.zeros((p,) + b.shape[1:])
    for i in range(p - 1, -1, -1):
        x[i] = (b[i] - R[i, i + 1:] @ x[i + 1:]) / R[i, i]
    return x


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by the continued-fraction expansion (Lentz's method)."""
    if a <= 0 or b <= 0:
        raise DomainError("shape parameters must be positive")
    if x < 0 or x > 1:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_TINY:
        d = _BETA_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # the even and then the odd step of the continued fraction
        for coef in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                     -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coef * d
            if abs(d) < _BETA_TINY:
                d = _BETA_TINY
            c = 1.0 + coef / c
            if abs(c) < _BETA_TINY:
                c = _BETA_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise DomainError(
        f"incomplete beta failed to converge for a={a}, b={b}, x={x}"
    )


def f_upper_tail_p(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F distribution."""
    if df1 < 1 or df2 < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if not f >= 0:  # NaN too
        raise DomainError(f"f must be >= 0, got {f}")
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return min(1.0, regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x))
