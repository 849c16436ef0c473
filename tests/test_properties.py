"""Property-based checks over the library's stated invariants."""

import io

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import effortlab as el
from effortlab.ann import _init_network
from effortlab.metrics import PRED_LEVEL, _scores
from effortlab.numerics import (regularized_incomplete_beta,
                                solve_least_squares, t_two_sided_p)

from conftest import serialize_records

shapes = st.floats(min_value=0.05, max_value=50.0,
                   allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False)


@given(shapes, shapes, unit)
def test_incomplete_beta_reflection(a, b, x):
    # tiny x values do not survive the 1 - x reflection in floats, so
    # the two sides would be evaluated at inconsistent arguments
    assume(1.0 - (1.0 - x) == x)
    lhs = regularized_incomplete_beta(a, b, x)
    rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
    assert abs(lhs - rhs) <= 1e-10


@given(shapes, shapes, unit)
def test_incomplete_beta_within_unit_interval(a, b, x):
    value = regularized_incomplete_beta(a, b, x)
    assert 0.0 <= value <= 1.0


@given(st.floats(-50, 50, allow_nan=False), st.integers(1, 500))
def test_t_p_value_properties(t, df):
    p = t_two_sided_p(t, df)
    assert 0.0 <= p <= 1.0
    assert p == t_two_sided_p(-t, df)
    # widening |t| can only shrink the tail
    assert t_two_sided_p(abs(t) + 1.0, df) <= p + 1e-12


def _criteria(actual, predicted):
    # the pairs' actuals may be constant, which only R-squared rejects
    return _scores(actual, predicted, need_r_squared=False)


pair_lists = st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=1e5),
              st.floats(min_value=-1e5, max_value=1e5)),
    min_size=1, max_size=30,
).map(lambda pairs: tuple(map(list, zip(*pairs))))


@given(pair_lists, st.randoms())
def test_metrics_permutation_invariant(pairs, rnd):
    order = list(range(len(pairs[0])))
    rnd.shuffle(order)
    shuffled = [[values[i] for i in order] for values in pairs]
    got, want = _criteria(*shuffled), _criteria(*pairs)
    assert got.mmre == pytest.approx(want.mmre)
    assert got.pred_25 == want.pred_25
    assert got.rmse == pytest.approx(want.rmse)
    assert got.mean_error == pytest.approx(want.mean_error)


@given(pair_lists, st.floats(min_value=0.01, max_value=100.0))
@example(([1.0], [0.75]), 0.01)
def test_metrics_scale_behavior(pairs, scale):
    scaled = [[v * scale for v in values] for values in pairs]
    got, want = _criteria(*scaled), _criteria(*pairs)
    assert got.mmre == pytest.approx(want.mmre, rel=1e-9)
    # an MRE at the level can round to either side of it once scaled
    mres = [abs(a - p) / a for a, p in zip(*pairs)]
    if all(m != pytest.approx(PRED_LEVEL, rel=1e-9) for m in mres):
        assert got.pred_25 == pytest.approx(want.pred_25)
    assert got.rmse == pytest.approx(want.rmse * scale, rel=1e-9)
    assert got.mean_error == pytest.approx(
        want.mean_error * scale, rel=1e-9, abs=1e-9)


@given(pair_lists)
@example(([24233.760543180993] * 3, [4777.0] * 3))
def test_rmse_dominates_mean_error(pairs):
    # equal errors make rmse and |mean error| the same real number, and
    # rounding can leave rmse an ulp below; allow a few ulps of |me|
    report = _criteria(*pairs)
    me = abs(report.mean_error)
    assert report.rmse + 1e-12 + 4 * np.spacing(me) >= me


@given(pair_lists)
def test_mmre_nonnegative_and_pred_in_unit(pairs):
    report = _criteria(*pairs)
    assert report.mmre >= 0.0
    assert 0.0 <= report.pred_25 <= 1.0


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_least_squares_agrees_with_normal_equations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 25))
    p = int(rng.integers(1, 5))
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    sol = solve_least_squares(X, y)
    ref = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.max(np.abs(sol.coefficients - ref)) < 1e-8


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6),
       st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=-20.0, max_value=20.0))
def test_r_squared_invariant_under_affine_rescaling(seed, scale, shift):
    rng = np.random.default_rng(seed)
    n = 15
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    frame = el.ModelFrame(columns=("intercept", "x1", "x2"), matrix=X,
                          response=rng.normal(size=n),
                          project_ids=tuple(range(1, n + 1)))
    rescaled = X.copy()
    rescaled[:, 1] = scale * rescaled[:, 1] + shift
    other = el.ModelFrame(columns=frame.columns, matrix=rescaled,
                          response=frame.response,
                          project_ids=frame.project_ids)
    assert el.fit_ols(other).r_squared == pytest.approx(
        el.fit_ols(frame).r_squared, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_stepwise_terminates_within_bound(seed, n_terms):
    rng = np.random.default_rng(seed)
    n = 40
    X = np.column_stack([np.ones(n), rng.normal(size=(n, n_terms))])
    columns = ("intercept",) + tuple(f"x{i}" for i in range(n_terms))
    y = rng.normal(size=n) + X[:, 1]
    frame = el.ModelFrame(columns=columns, matrix=X, response=y,
                          project_ids=tuple(range(1, n + 1)))
    trace = el.stepwise_select(frame)
    assert len(trace.steps) <= 2 * n_terms
    assert set(trace.selected) <= set(columns[1:])


raw_values = dict(
    project_id=st.integers(1, 10 ** 6),
    team_exp=st.none() | st.integers(0, 10),
    manager_exp=st.none() | st.integers(0, 10),
    year_end=st.none() | st.integers(80, 99),
    length=st.none() | st.integers(1, 60),
    effort=st.none() | st.floats(min_value=1.0, max_value=1e6),
    transactions=st.none() | st.integers(1, 2000),
    entities=st.none() | st.integers(1, 2000),
    points_non_adjust=st.none() | st.floats(min_value=1.0, max_value=5000.0),
    envergure=st.none() | st.integers(0, 60),
    points_adjust=st.none() | st.floats(min_value=1.0, max_value=5000.0),
    language=st.none() | st.integers(1, 3),
)


@given(st.lists(st.builds(el.RawRecord, **raw_values),
                unique_by=lambda r: r.project_id,
                min_size=1, max_size=8))
def test_serialize_parse_round_trip(records):
    text = serialize_records(records)
    assert el.parse_dataset(io.StringIO(text)) == records


@given(st.lists(st.builds(el.RawRecord, **raw_values),
                unique_by=lambda r: r.project_id,
                min_size=1, max_size=8))
def test_filter_complete_idempotent(records):
    try:
        complete = el.filter_complete(records)
    except (el.DomainError, el.SchemaError):
        return
    text = serialize_records(complete)
    assert el.filter_complete(el.parse_dataset(io.StringIO(text))) == complete


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-100.0, max_value=100.0))
def test_normality_statistic_affine_invariant(seed, scale, shift):
    sample = np.random.default_rng(seed).normal(size=30)
    base = el.normality_test(sample)
    moved = el.normality_test(scale * sample + shift)
    assert moved.statistic == pytest.approx(base.statistic, abs=1e-8)
    assert moved.is_normal_at_95 == base.is_normal_at_95


@given(st.integers(0, 10 ** 4))
def test_network_init_bounds(seed):
    w = _init_network(4, 3, seed=seed)
    assert np.all(np.abs(w) <= 0.5)
