"""Accuracy criteria on hand-computed examples."""

import math

import numpy as np
import pytest

import effortlab as el
from effortlab.metrics import EvaluationPair as Pair


PAIRS = [Pair(100.0, 120.0), Pair(200.0, 150.0), Pair(400.0, 410.0)]
# mre: 0.2, 0.25, 0.025


def test_mre():
    assert el.mre(Pair(100.0, 120.0)) == pytest.approx(0.2)
    assert el.mre(Pair(200.0, 150.0)) == pytest.approx(0.25)


def test_mre_rejects_nonpositive_actual():
    with pytest.raises(el.DomainError):
        el.mre(Pair(0.0, 1.0))


def test_mmre():
    assert el.mmre(PAIRS) == pytest.approx((0.2 + 0.25 + 0.025) / 3)


def test_pred_counts_hits_at_threshold():
    assert el.pred(PAIRS) == 1.0
    # the level bound is inclusive: mre of exactly 0.2 still counts
    assert el.pred(PAIRS, level=0.2) == pytest.approx(2 / 3)
    assert el.pred(PAIRS, level=0.1) == pytest.approx(1 / 3)
    assert el.pred(PAIRS, level=0.01) == 0.0


def test_rmse():
    expected = math.sqrt((400 + 2500 + 100) / 3)
    assert el.rmse(PAIRS) == pytest.approx(expected)


def test_mean_error_sign_convention():
    # positive means the model underestimates
    assert el.mean_error(PAIRS) == pytest.approx((-20 + 50 - 10) / 3)
    assert el.mean_error([Pair(100.0, 40.0)]) == pytest.approx(60.0)


def test_r_squared():
    mean = (100 + 200 + 400) / 3
    sst = sum((a - mean) ** 2 for a in (100, 200, 400))
    sse = 400 + 2500 + 100
    assert el.r_squared(PAIRS) == pytest.approx(1 - sse / sst)


def test_r_squared_perfect_fit():
    pairs = [Pair(a, a) for a in (10.0, 20.0, 30.0)]
    assert el.r_squared(pairs) == pytest.approx(1.0)


def test_r_squared_degenerate_single_pair():
    with pytest.raises(el.DegenerateInputError):
        el.r_squared([Pair(100.0, 90.0)])


def test_r_squared_degenerate_constant_actuals():
    with pytest.raises(el.DegenerateInputError):
        el.r_squared([Pair(5.0, 4.0), Pair(5.0, 6.0)])


def test_constant_actuals_with_a_rounded_mean_are_degenerate():
    # the mean of 77 copies of 5152.3 rounds, so the sum of squares
    # around it is not exactly zero
    pairs = [Pair(5152.3, 5000.0 + i) for i in range(77)]
    assert sum((p.actual - sum(q.actual for q in pairs) / 77) ** 2
               for p in pairs) != 0.0
    with pytest.raises(el.DegenerateInputError,
                       match="actuals are constant"):
        el.r_squared(pairs)
    with pytest.raises(el.DegenerateInputError,
                       match="actuals are constant"):
        el.evaluate(pairs)


def test_evaluate_bundles_all_criteria():
    report = el.evaluate(PAIRS)
    assert report.mmre == pytest.approx(el.mmre(PAIRS))
    assert report.pred_25 == pytest.approx(el.pred(PAIRS))
    assert report.rmse == pytest.approx(el.rmse(PAIRS))
    assert report.mean_error == pytest.approx(el.mean_error(PAIRS))
    assert report.r_squared == pytest.approx(el.r_squared(PAIRS))
    assert report.n == 3


def _random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    actual = rng.lognormal(8.0, 1.0, n)
    predicted = actual * rng.lognormal(0.0, 0.4, n)
    return [Pair(float(a), float(p)) for a, p in zip(actual, predicted)]


@pytest.mark.parametrize("pairs", [PAIRS, _random_pairs(2000, 3),
                                   _random_pairs(77, 11)])
def test_evaluate_equals_composed_metrics_bit_for_bit(pairs):
    report = el.evaluate(iter(pairs))
    got = np.array([report.mmre, report.pred_25, report.rmse,
                    report.mean_error, report.r_squared])
    want = np.array([el.mmre(pairs), el.pred(pairs), el.rmse(pairs),
                     el.mean_error(pairs), el.r_squared(pairs)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert report.n == len(pairs)


def test_evaluate_reports_first_bad_pair():
    # The first pair that fails any check is the one reported.
    pairs = [Pair(10.0, 9.0), Pair(-3.0, 1.0), Pair(5.0, float("inf"))]
    with pytest.raises(el.DomainError, match="got -3.0$"):
        el.evaluate(pairs)
    pairs[1], pairs[2] = pairs[2], pairs[1]
    with pytest.raises(el.DomainError, match="must be finite$"):
        el.evaluate(pairs)
    with pytest.raises(el.DegenerateInputError):
        el.evaluate([Pair(5.0, 4.0), Pair(5.0, 6.0)])


def test_empty_input_rejected():
    with pytest.raises(el.DomainError):
        el.mmre([])


def test_non_finite_rejected():
    with pytest.raises(el.DomainError):
        el.rmse([Pair(10.0, float("nan"))])


@pytest.mark.parametrize("pairs", [
    [Pair(1e200, 1.0), Pair(2.0, 1.0)],         # a square overflows
    [Pair(1e308, -1e308), Pair(2.0, 1.0)],      # an error overflows
    [Pair(5e-324, 1e300), Pair(2.0, 1.0)],      # an MRE overflows
], ids=["square", "error", "mre"])
def test_evaluate_rejects_criteria_beyond_the_float_range(pairs):
    with pytest.raises(el.DomainError, match="overflow the float range"):
        el.evaluate(pairs)


def test_rmse_dominates_mean_error():
    assert el.rmse(PAIRS) >= abs(el.mean_error(PAIRS))
