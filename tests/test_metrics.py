"""Accuracy criteria on hand-computed examples."""

import dataclasses
import math
import operator
from functools import reduce

import numpy as np
import pytest

import effortlab as el

ACTUAL = [100.0, 200.0, 400.0]
PREDICTED = [120.0, 150.0, 410.0]
# mre: 0.2, 0.25, 0.025


def _criterion(field, actual, predicted):
    return getattr(el.evaluate(actual, predicted), field)


def test_mre():
    # the MRE of pairs that all share one MRE is their MMRE
    assert _criterion("mmre", [100.0, 200.0],
                      [120.0, 240.0]) == pytest.approx(0.2)
    assert _criterion("mmre", [200.0, 400.0],
                      [150.0, 300.0]) == pytest.approx(0.25)


def test_mre_rejects_nonpositive_actual():
    with pytest.raises(el.DomainError, match="got 0.0$"):
        _criterion("mmre", [0.0], [1.0])


def test_mmre():
    assert _criterion("mmre", ACTUAL, PREDICTED) == pytest.approx(
        (0.2 + 0.25 + 0.025) / 3)


def test_pred_counts_hits_at_threshold():
    assert _criterion("pred_25", ACTUAL, PREDICTED) == 1.0
    # the 0.25 bound is inclusive: an mre of exactly 0.25 still counts
    assert _criterion("pred_25", [100.0, 200.0], [75.0, 150.0]) == 1.0
    assert _criterion("pred_25", [100.0, 200.0, 400.0],
                      [75.0, 148.0, 504.0]) == pytest.approx(1 / 3)
    with pytest.raises(TypeError):
        el.evaluate(ACTUAL, PREDICTED, level=0.2)


def test_rmse():
    expected = math.sqrt((400 + 2500 + 100) / 3)
    assert _criterion("rmse", ACTUAL, PREDICTED) == pytest.approx(expected)


def test_mean_error_sign_convention():
    # positive means the model underestimates
    assert _criterion("mean_error", ACTUAL, PREDICTED) == pytest.approx(
        (-20 + 50 - 10) / 3)
    assert _criterion("mean_error", [100.0, 200.0],
                      [40.0, 140.0]) == pytest.approx(60.0)


def test_r_squared():
    mean = (100 + 200 + 400) / 3
    sst = sum((a - mean) ** 2 for a in (100, 200, 400))
    sse = 400 + 2500 + 100
    assert _criterion("r_squared", ACTUAL, PREDICTED) == pytest.approx(
        1 - sse / sst)


def test_r_squared_perfect_fit():
    values = [10.0, 20.0, 30.0]
    assert _criterion("r_squared", values, values) == pytest.approx(1.0)


def test_r_squared_degenerate_single_pair():
    with pytest.raises(el.DomainError, match="^actuals are constant"):
        _criterion("r_squared", [100.0], [90.0])


def test_r_squared_degenerate_constant_actuals():
    with pytest.raises(el.DomainError, match="^actuals are constant"):
        _criterion("r_squared", [5.0, 5.0], [4.0, 6.0])


def test_constant_actuals_with_a_rounded_mean_are_degenerate():
    # the mean of 77 copies of 5152.3 rounds, so the sum of squares
    # around it is not exactly zero
    actual = [5152.3] * 77
    predicted = [5000.0 + i for i in range(77)]
    assert sum((a - sum(actual) / 77) ** 2 for a in actual) != 0.0
    with pytest.raises(el.DomainError,
                       match="actuals are constant"):
        el.evaluate(actual, predicted)


def test_actuals_whose_squares_underflow_are_degenerate():
    # they differ, but every squared deviation rounds to zero
    actual = [1e-170, 2e-170]
    with pytest.raises(el.DomainError,
                       match="^actuals vary too little"):
        el.evaluate(actual, actual)


def test_evaluate_bundles_all_criteria():
    mean = (100 + 200 + 400) / 3
    sst = sum((a - mean) ** 2 for a in (100, 200, 400))
    report = el.evaluate(ACTUAL, PREDICTED)
    assert dataclasses.asdict(report) == pytest.approx({
        "mmre": (0.2 + 0.25 + 0.025) / 3, "pred_25": 1.0,
        "rmse": math.sqrt(3000 / 3), "mean_error": 20 / 3,
        "r_squared": 1 - 3000 / sst, "n": 3})
    # Python floats, not numpy scalars, in every criterion
    assert list(map(type, dataclasses.astuple(report))) == [float] * 5 + [int]


def _random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    actual = rng.lognormal(8.0, 1.0, n)
    predicted = actual * rng.lognormal(0.0, 0.4, n)
    return actual.tolist(), predicted.tolist()


def _total(terms):
    """A strictly left-to-right sum, as `sum()` was before Python 3.12
    made it compensated."""
    return reduce(operator.add, terms, 0.0)


def _reference_criteria(actual, predicted):
    """The five criteria as the per-pair functions once computed them,
    each over its own generator of pair terms."""
    n = len(actual)
    pairs = list(zip(actual, predicted))
    mres = [abs(a - p) / a for a, p in pairs]
    mean_actual = _total(actual) / n
    sse = _total((a - p) ** 2 for a, p in pairs)
    return [_total(mres) / n,
            sum(1 for m in mres if m <= 0.25) / n,
            math.sqrt(_total((a - p) ** 2 for a, p in pairs) / n),
            _total(a - p for a, p in pairs) / n,
            1.0 - sse / _total((a - mean_actual) ** 2 for a in actual)]


@pytest.mark.parametrize("pairs", [(ACTUAL, PREDICTED),
                                   _random_pairs(2000, 3),
                                   _random_pairs(77, 11),
                                   # its sequential SSE differs between
                                   # e ** 2 and e * e
                                   _random_pairs(77, 382)])
def test_evaluate_equals_composed_metrics_bit_for_bit(pairs):
    actual, predicted = pairs
    report = el.evaluate(iter(actual), np.array(predicted))
    got = np.array([report.mmre, report.pred_25, report.rmse,
                    report.mean_error, report.r_squared])
    want = np.array(_reference_criteria(actual, predicted))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert report.n == len(actual)


def test_evaluate_sums_left_to_right():
    # errors 1, 1e100, 1, -1e100: a left-to-right sum loses both ones to
    # rounding, where a compensated sum (Python 3.12's `sum()`) keeps them
    report = el.evaluate([2.0, 2e100, 2.0, 1e100], [1.0, 1e100, 1.0, 2e100])
    assert report.mean_error == 0.0


def test_evaluate_reports_first_bad_pair():
    # The first pair that fails any check is the one reported.
    actual = [10.0, -3.0, 5.0]
    predicted = [9.0, 1.0, float("inf")]
    with pytest.raises(el.DomainError, match="got -3.0$"):
        el.evaluate(actual, predicted)
    with pytest.raises(el.DomainError, match="must be finite$"):
        el.evaluate([10.0, 5.0, -3.0], [9.0, float("inf"), 1.0])
    with pytest.raises(el.DomainError, match="^actuals are constant"):
        el.evaluate([5.0, 5.0], [4.0, 6.0])


def test_empty_input_rejected():
    with pytest.raises(el.DomainError):
        _criterion("mmre", [], [])


def test_non_finite_rejected():
    with pytest.raises(el.DomainError):
        _criterion("rmse", [10.0], [float("nan")])


@pytest.mark.parametrize("evaluate", [el.evaluate], ids=["evaluate"])
def test_lengths_must_match(evaluate):
    # zip would score the first two pairs and drop the third
    with pytest.raises(el.DomainError,
                       match="^got 3 actual values but 2 predicted values$"):
        evaluate(ACTUAL, PREDICTED[:2])
    with pytest.raises(el.DomainError, match="got 2 actual .* 3 predicted"):
        evaluate(ACTUAL[:2], PREDICTED)


OVERFLOWING = {
    "square": ([1e200, 2.0], [1.0, 1.0]),       # a square overflows
    "error": ([1e308, 2.0], [-1e308, 1.0]),     # an error overflows
    "mre": ([5e-324, 2.0], [1e300, 1.0]),       # an MRE overflows
    "sst": ([1e200, 2.0], [1e200, 2.0]),        # only sst overflows
    # no square overflows, but their sum does
    "sst-sum": ([1e154, 3e154, 1e154, 3e154],
                [1.5e154, 2.5e154, 1.5e154, 2.5e154]),
}


@pytest.mark.parametrize("pairs", OVERFLOWING.values(),
                         ids=OVERFLOWING.keys())
def test_evaluate_rejects_criteria_beyond_the_float_range(pairs):
    with pytest.raises(el.DomainError, match="overflow the float range"):
        el.evaluate(*pairs)


def test_rmse_dominates_mean_error():
    assert _criterion("rmse", ACTUAL, PREDICTED) >= abs(
        _criterion("mean_error", ACTUAL, PREDICTED))
