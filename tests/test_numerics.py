"""Numerical kernel against independent oracles (scipy, brute force)."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

import effortlab as el
from effortlab.numerics import (f_upper_tail_p, regularized_incomplete_beta,
                                solve_least_squares)


def _random_system(rng, n=None, p=None):
    n = n or int(rng.integers(5, 20))
    p = p or int(rng.integers(1, min(5, n)))
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    return X, y


class TestLeastSquares:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            X, y = _random_system(rng)
            sol = solve_least_squares(X, y)
            ref = np.linalg.solve(X.T @ X, X.T @ y)
            assert sol.coefficients == pytest.approx(ref, abs=1e-8)

    def test_residual_and_covariance(self):
        rng = np.random.default_rng(1)
        X, y = _random_system(rng, n=12, p=3)
        sol = solve_least_squares(X, y)
        resid = y - X @ sol.coefficients
        assert np.array_equal(sol.residuals, resid)
        assert sol.residual_sum_of_squares == pytest.approx(resid @ resid)
        assert sol.unscaled_covariance == pytest.approx(
            np.linalg.inv(X.T @ X), abs=1e-10)

    def test_exact_solution_when_consistent(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        beta = np.array([2.0, -3.0])
        sol = solve_least_squares(X, X @ beta)
        assert sol.coefficients == pytest.approx(beta)
        assert sol.residual_sum_of_squares == pytest.approx(0.0, abs=1e-20)

    def test_duplicate_column_names_the_culprit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10)
        X = np.column_stack([np.ones(10), x, 2 * x])
        with pytest.raises(el.CollinearityError) as info:
            solve_least_squares(X, rng.normal(size=10))
        assert info.value.column == 2

    def test_zero_matrix_rejected(self):
        with pytest.raises(el.CollinearityError):
            solve_least_squares(np.zeros((5, 2)), np.zeros(5))

    def test_non_finite_rejected(self):
        X = np.ones((5, 1))
        X[0, 0] = np.nan
        with pytest.raises(el.DomainError):
            solve_least_squares(X, np.zeros(5))

    def test_underdetermined_rejected(self):
        with pytest.raises(el.DomainError):
            solve_least_squares(np.ones((2, 3)), np.zeros(2))


class TestIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = rng.uniform(0.1, 30, size=2)
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                scipy.special.betainc(a, b, x), abs=1e-10)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_reflection_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = rng.uniform(0.1, 20, size=2)
            x = float(rng.uniform(0, 1))
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_bad_arguments(self):
        with pytest.raises(el.DomainError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(el.DomainError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestTailProbabilities:
    # A two-sided t(df) p value is the F(1, df) upper tail of t squared,
    # which is how the package computes every t test.
    def test_t_reference_value(self):
        assert f_upper_tail_p(2.228 * 2.228, 1, 10) == pytest.approx(
            0.050, abs=0.0005)

    def test_t_matches_scipy(self):
        rng = np.random.default_rng(5)
        cases = [(float(rng.normal(scale=3)), int(rng.integers(1, 200)))
                 for _ in range(100)]
        for t, df in cases + [(0.5, 14), (1.7, 14), (2.9, 14)]:
            assert f_upper_tail_p(t * t, 1, df) == pytest.approx(
                2 * scipy.stats.t.sf(abs(t), df), abs=1e-12)

    def test_t_matches_density_integration(self):
        # integrate the t density directly as a scipy-free cross-check
        t, df = 2.228, 10
        const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
            / math.sqrt(df * math.pi)
        xs = np.linspace(-t, t, 200001)
        density = const * (1 + xs ** 2 / df) ** (-(df + 1) / 2)
        inside = np.trapezoid(density, xs)
        assert f_upper_tail_p(t * t, 1, df) == pytest.approx(1 - inside,
                                                             abs=1e-6)

    def test_t_symmetry_and_range(self):
        assert f_upper_tail_p(-1.3 * -1.3, 1, 7) == f_upper_tail_p(
            1.3 * 1.3, 1, 7)
        assert f_upper_tail_p(0.0, 1, 7) == pytest.approx(1.0)
        assert f_upper_tail_p(math.inf * math.inf, 1, 7) == 0.0

    def test_t_bad_df(self):
        with pytest.raises(el.DomainError):
            f_upper_tail_p(1.0, 1, 0)

    def test_f_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            f = float(rng.uniform(0, 10))
            df1 = int(rng.integers(1, 30))
            df2 = int(rng.integers(1, 200))
            assert f_upper_tail_p(f, df1, df2) == pytest.approx(
                scipy.stats.f.sf(f, df1, df2), abs=1e-12)

    def test_f_bad_arguments(self):
        with pytest.raises(el.DomainError):
            f_upper_tail_p(-1.0, 2, 3)
        with pytest.raises(el.DomainError):
            f_upper_tail_p(1.0, 0, 3)
        # a NaN fails the range check at once, not in the continued fraction
        with pytest.raises(el.DomainError, match="^f must be >= 0, got nan$"):
            f_upper_tail_p(math.nan, 1, 3)
