"""Acceptance gate: every headline result at its stated tolerance.

One test per criterion; each prints a single PASS line with the values
it checked so a -s run reads as a checklist. Tolerances and runtime
budgets are asserted, not aspirational.
"""

import inspect
import math
import time

import numpy as np
import pytest
import scipy.stats

import effortlab as el
from effortlab.ann import _init_network, gradient
from effortlab.numerics import (f_upper_tail_p, regularized_incomplete_beta,
                                solve_least_squares)

from conftest import half_sse

EXPECTED_COEFFICIENTS = {
    "intercept": 1.46,
    "ln_size": 0.88,
    "lang_1": 1.41,
    "lang_2": 1.38,
    "team_exp": -0.0471,
    "manager_exp": 0.0623,
    "envergure": 0.0204,
}

EXPECTED_VIF = {
    "ln_size": 1.31,
    "lang_1": 2.565,
    "lang_2": 2.378,
    "team_exp": 1.51,
    "manager_exp": 1.507,
    "envergure": 1.515,
}


def _elapsed(t0):
    return time.monotonic() - t0


def test_criterion_1_dataset_integrity():
    t0 = time.monotonic()
    raw = el.load_dataset(el.bundled_dataset_path())
    complete = el.filter_complete(raw)
    assert len(raw) == 81
    assert len(complete) == 77
    summary = el.summarize(complete)
    pna = summary.attributes["points_non_adjust"].mean
    pa = summary.attributes["points_adjust"].mean
    assert pna == pytest.approx(298, abs=1)
    assert pa == pytest.approx(282, abs=1)
    took = _elapsed(t0)
    assert took < 1.0
    print(f"PASS dataset integrity: 81 parsed, 77 complete, "
          f"mean PNA {pna:.2f}, mean PA {pa:.2f} ({took:.2f}s)")


def test_criterion_2_full_model_coefficients(complete_records):
    t0 = time.monotonic()
    fit = el.fit_ols(el.build_frame(complete_records))
    for name, expected in EXPECTED_COEFFICIENTS.items():
        actual = fit.coefficient(name)
        if abs(expected) < 0.1:
            assert actual == pytest.approx(expected, abs=0.02), name
        else:
            assert actual == pytest.approx(expected, rel=0.02), name
        assert math.copysign(1, actual) == math.copysign(1, expected), name
    assert fit.coefficient("manager_exp") > 0
    took = _elapsed(t0)
    assert took < 1.0
    rendered = ", ".join(f"{n}={fit.coefficient(n):.4f}"
                         for n in EXPECTED_COEFFICIENTS)
    print(f"PASS coefficient reproduction: {rendered} ({took:.2f}s)")


def test_criterion_3_p_values_and_vif(complete_records):
    fit = el.fit_ols(el.build_frame(complete_records))
    assert fit.p_value("team_exp") == pytest.approx(0.258, abs=0.02)
    assert fit.p_value("manager_exp") == pytest.approx(0.089, abs=0.01)
    for name in ("ln_size", "lang_1", "lang_2", "envergure"):
        assert fit.p_value(name) < 0.0005, name
    for name, expected in EXPECTED_VIF.items():
        assert fit.vif[name] == pytest.approx(expected, abs=0.05), name
        assert fit.vif[name] < 5.0
    print(f"PASS anova table: p(TExp)={fit.p_value('team_exp'):.3f}, "
          f"p(MExp)={fit.p_value('manager_exp'):.3f}, "
          f"VIF={[round(fit.vif[n], 3) for n in EXPECTED_VIF]}")


def test_criterion_4_regression_ablation_rows(complete_records):
    t0 = time.monotonic()
    table = el.run_ablation(complete_records, model="regression")
    full = table.cell("full", "regression")
    assert full.mmre == pytest.approx(0.32, abs=0.03)
    assert full.pred_25 * 100 == pytest.approx(46, abs=5)
    assert full.rmse == pytest.approx(2305, rel=0.10)
    assert full.mean_error == pytest.approx(325, rel=0.20)
    assert full.r_squared * 100 == pytest.approx(79.3, abs=3)

    size_only = table.cell("size-only", "regression")
    assert size_only.mmre == pytest.approx(0.61, abs=0.05)
    assert size_only.r_squared * 100 == pytest.approx(42.4, abs=4)

    no_language = table.cell("no-language", "regression")
    assert no_language.mmre == pytest.approx(0.57, abs=0.05)

    deltas = {
        scen.removed: table.cell(scen.name, "regression").mmre - full.mmre
        for scen in table.scenarios if scen.removed
    }
    assert max(deltas, key=deltas.get) == "language"
    assert size_only.mmre >= 1.8 * full.mmre
    took = _elapsed(t0)
    assert took < 5.0
    print(f"PASS ablation grid: full MMRE {full.mmre:.3f} / "
          f"RMSE {full.rmse:.0f} / R2 {full.r_squared*100:.1f}, "
          f"size-only MMRE {size_only.mmre:.3f}, "
          f"no-language MMRE {no_language.mmre:.3f} ({took:.2f}s)")


def test_criterion_5_stepwise_selection(complete_records):
    t0 = time.monotonic()
    assert el.regression.ALPHA == 0.05
    trace = el.stepwise_select(el.build_candidate_frame(complete_records))
    assert set(trace.selected) == {"ln_size", "language", "envergure"}
    took = _elapsed(t0)
    assert took < 1.0
    print(f"PASS stepwise: selected {trace.selected} ({took:.2f}s)")


def test_criterion_6_network_properties(complete_records, full_frame):
    t0 = time.monotonic()

    # (a) analytic gradient against central differences, 20 seeded setups
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 7))
        h = int(rng.integers(1, 7))
        n = int(rng.integers(5, 30))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w = _init_network(d, h, seed=int(rng.integers(10 ** 6)))
        g = gradient(w, X, y, h)
        eps = 1e-6
        fd = np.zeros_like(w)
        for i in range(len(w)):
            up, down = w.copy(), w.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (half_sse(up, X, y, h)
                     - half_sse(down, X, y, h)) / (2 * eps)
        scale = np.maximum(np.abs(g) + np.abs(fd), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - fd) / scale)))
    assert worst < 1e-5

    # (b) determinism
    _, trace_a = el.train(full_frame, seed=21)
    _, trace_b = el.train(full_frame, seed=21)
    assert trace_a.train_sse == trace_b.train_sse
    assert trace_a.holdout_sse == trace_b.holdout_sse
    assert trace_a.stop_reason == trace_b.stop_reason

    # (c) median accuracy over five seeds, full vs size-only
    seeds = [0, 1, 2, 3, 4]
    by_name = {s.name: s for s in el.scenarios()}
    full = el.run_scenario(complete_records, by_name["full"], "ann",
                           seeds=seeds)
    size_only = el.run_scenario(complete_records, by_name["size-only"],
                                "ann", seeds=seeds)
    assert full.mmre <= 0.45
    assert full.r_squared * 100 >= 65
    assert size_only.mmre - full.mmre >= 0.15
    took = _elapsed(t0)
    assert took < 120.0
    print(f"PASS network: max grad err {worst:.2e}, traces deterministic, "
          f"median full MMRE {full.mmre:.3f} R2 {full.r_squared*100:.1f}, "
          f"size-only MMRE {size_only.mmre:.3f} ({took:.1f}s)")


def test_criterion_7_numerics_oracles():
    value = f_upper_tail_p(2.228 * 2.228, 1, 10)  # two-sided t(10) at 2.228
    assert value == pytest.approx(0.050, abs=0.0005)

    rng = np.random.default_rng(99)
    worst_beta = 0.0
    for _ in range(1000):
        a, b = rng.uniform(0.05, 30.0, size=2)
        x = float(rng.uniform(0.0, 1.0))
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        worst_beta = max(worst_beta, abs(lhs - rhs))
    assert worst_beta <= 1e-10

    worst_ls = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 20))
        p = int(rng.integers(1, min(6, n)))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        ours = solve_least_squares(X, y).coefficients
        ref = np.linalg.solve(X.T @ X, X.T @ y)
        worst_ls = max(worst_ls, float(np.max(np.abs(ours - ref))))
    assert worst_ls <= 1e-8
    print(f"PASS numerics: t p-value {value:.5f}, "
          f"reflection err {worst_beta:.1e}, "
          f"least-squares err {worst_ls:.1e}")


# The 95% critical value of the Anderson-Darling test for normality with
# estimated mean and variance.
AD_CRITICAL_95 = 0.752

# scipy 1.17 warns unless a p-value method is chosen; older releases
# have no such parameter. The statistic is the same either way.
_ANDERSON_OPTIONS = (
    {"method": "interpolate"}
    if "method" in inspect.signature(scipy.stats.anderson).parameters
    else {})


def _anderson_darling(values):
    """The statistic with the small-sample factor 1 + 0.75/n + 2.25/n^2."""
    n = len(values)
    a2 = scipy.stats.anderson(values, dist="norm",
                              **_ANDERSON_OPTIONS).statistic
    return float(a2) * (1.0 + 0.75 / n + 2.25 / n ** 2)


def test_criterion_8_normality_conclusions(complete_records):
    outcomes = {}
    for attr in ("effort", "points_non_adjust", "transactions", "entities"):
        values = [float(getattr(r, attr)) for r in complete_records]
        raw = _anderson_darling(values)
        logged = _anderson_darling([math.log(v) for v in values])
        assert raw >= AD_CRITICAL_95, attr  # normality rejected
        assert logged < AD_CRITICAL_95, attr
        outcomes[attr] = (round(raw, 2), round(logged, 2))
    print(f"PASS normality: raw fail / ln pass for {sorted(outcomes)}; "
          f"statistics {outcomes}")
