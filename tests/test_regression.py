"""Frame construction, OLS diagnostics, stepwise selection, prediction."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

import effortlab as el
from conftest import load_perfbench
from effortlab import numerics, regression
from effortlab.regression import ALPHA


def _record(**overrides):
    base = dict(project_id=1, team_exp=2, manager_exp=3, year_end=86,
                length=10, effort=3000.0, transactions=150, entities=100,
                points_non_adjust=250.0, envergure=25, points_adjust=230.0,
                language=1)
    base.update(overrides)
    return el.ProjectRecord(**base)


def test_encode_language():
    # two dummies for the three language codes; 4GL (3) is the baseline
    records = [_record(project_id=code, language=code) for code in (1, 2, 3)]
    frame = el.build_frame(records, ["language"])
    assert frame.columns[1:] == ("lang_1", "lang_2")
    assert frame.matrix[:, 1:].tolist() == [[1.0, 0.0], [0.0, 1.0],
                                            [0.0, 0.0]]


def test_encode_language_rejects_unknown():
    records = [_record(project_id=1), _record(project_id=2, language=4),
               _record(project_id=3, language=0)]
    with pytest.raises(el.DomainError,
                       match=r"^project 2: language code 4 not in 1\.\.3$"):
        el.build_frame(records, ["language"])


def test_frame_column_order(full_frame):
    assert full_frame.columns == (
        "intercept", "ln_size", "lang_1", "lang_2",
        "team_exp", "manager_exp", "envergure",
    )


def test_frame_content(complete_records, full_frame):
    rec = complete_records[0]
    row = full_frame.matrix[0]
    assert row[0] == 1.0
    assert row[1] == pytest.approx(math.log(rec.points_non_adjust))
    assert tuple(row[2:4]) == {1: (1, 0), 2: (0, 1), 3: (0, 0)}[rec.language]
    assert row[4] == rec.team_exp
    assert full_frame.response[0] == pytest.approx(math.log(rec.effort))
    assert full_frame.project_ids[0] == rec.project_id


def test_feature_subset_drops_columns(complete_records):
    frame = el.build_frame(
        complete_records, ["ln_size", "team_exp", "manager_exp"])
    assert frame.columns == ("intercept", "ln_size", "team_exp",
                             "manager_exp")


def test_candidate_frame_columns(complete_records):
    frame = el.build_candidate_frame(complete_records)
    assert frame.columns == (
        "intercept", "ln_size", "ln_transactions", "ln_entities",
        "lang_1", "lang_2", "team_exp", "manager_exp", "envergure",
    )


def _rowwise_frame(records, columns):
    """The frame builders' former row-by-row construction, kept as the
    bitwise reference: one list of Python floats per record."""
    def cell(name, rec):
        if name == "intercept":
            return 1.0
        if name.startswith("ln_"):
            attr = {"ln_size": "points_non_adjust"}.get(name, name[3:])
            return math.log(getattr(rec, attr))
        if name in ("lang_1", "lang_2"):
            return float(rec.language == int(name[-1]))
        return float(getattr(rec, name))

    matrix = np.array([[cell(c, rec) for c in columns] for rec in records],
                      dtype=float)
    response = np.array([math.log(rec.effort) for rec in records],
                        dtype=float)
    return matrix, response


def _random_records(n, seed):
    rng = np.random.default_rng(seed)
    return [
        _record(project_id=i, team_exp=int(rng.integers(0, 5)),
                manager_exp=int(rng.integers(0, 8)),
                effort=float(rng.lognormal(8.0, 1.0)),
                transactions=int(rng.integers(1, 900)),
                entities=int(rng.integers(1, 500)),
                points_non_adjust=float(rng.lognormal(5.5, 0.8)),
                envergure=int(rng.integers(0, 60)),
                language=int(rng.integers(1, 4)))
        for i in range(1, n + 1)
    ]


@pytest.mark.parametrize("source", ["bundled", "random"])
def test_frames_match_rowwise_reference_bit_for_bit(source,
                                                    complete_records):
    records = (complete_records if source == "bundled"
               else _random_records(500, 7))
    frames = [el.build_frame(records, s.features) for s in el.scenarios()]
    frames.append(el.build_candidate_frame(records))
    for frame in frames:
        matrix, response = _rowwise_frame(records, frame.columns)
        assert frame.matrix.flags.c_contiguous
        assert frame.matrix.dtype == np.float64
        assert np.array_equal(frame.matrix.view(np.int64),
                              matrix.view(np.int64))
        assert np.array_equal(frame.response.view(np.int64),
                              response.view(np.int64))
        assert frame.project_ids == tuple(r.project_id for r in records)


def test_first_bad_record_in_order_is_reported(raw_records):
    # Record 2 fails only on its effort, the last value the row-wise
    # build reached; record 3 fails on its size, the first design column.
    records = [_record(), _record(project_id=2, effort=0.0),
               _record(project_id=3, points_non_adjust=-1.0)]
    with pytest.raises(el.DomainError,
                       match=r"^project 2: cannot take ln of effort = 0\.0$"):
        el.build_frame(records)
    records[1] = _record(project_id=2, entities=0)
    with pytest.raises(el.DomainError,
                       match=r"^project 2: cannot take ln of entities = 0$"):
        el.build_candidate_frame(records)
    records[1] = _record(project_id=2, language=7)
    with pytest.raises(el.DomainError,
                       match=r"^project 2: language code 7 not in 1\.\.3$"):
        el.build_frame(records)
    # a missing cell names its project and field, in the response as in a
    # design column
    records[1] = _record(project_id=2, effort=None)
    with pytest.raises(el.DomainError,
                       match=r"^project 2: effort is missing$"):
        el.build_frame(records)
    # records that skipped filter_complete: projects 38, 44, 65 and 75 each
    # miss team_exp or manager_exp, which fill a frame as NaN
    with pytest.raises(el.DomainError,
                       match=r"^project 38: team_exp is missing$"):
        el.build_frame(raw_records)
    # a NaN, an infinity, a string or an int past the float range, on
    # library records
    for field, value, problem in [
            ("effort", math.nan, "is NaN"),
            ("team_exp", math.nan, "is NaN"),
            ("effort", math.inf, "is not finite"),
            ("points_non_adjust", math.inf, "is not finite"),
            ("team_exp", -math.inf, "is not finite"),
            ("team_exp", "abc", "is not a number in the float range"),
            ("envergure", 10 ** 400, "is not a number in the float range")]:
        records[1] = _record(project_id=2, **{field: value})
        with pytest.raises(el.DomainError,
                           match=rf"^project 2: {field} {problem}$"):
            el.build_frame(records)
    # record order first: project 4's NaN before project 10's effort
    records = [_record(project_id=i) for i in range(1, 11)]
    records[3] = _record(project_id=4, team_exp=math.nan)
    records[9] = _record(project_id=10, effort=0.0)
    with pytest.raises(el.DomainError, match=r"^project 4: team_exp is NaN$"):
        el.build_frame(records)


def test_design_columns_come_from_one_table(complete_records):
    # every column reads a field of the record type, as the response does
    fields = {field for _, field, _ in regression._COLUMNS.values()}
    assert fields | {"effort"} <= set(el.ProjectRecord._fields)
    # the terms and their columns, key order included, that stepwise and
    # the ablation read
    assert list(regression.TERMS.items()) == [
        ("ln_size", ("ln_size",)),
        ("ln_transactions", ("ln_transactions",)),
        ("ln_entities", ("ln_entities",)),
        ("language", ("lang_1", "lang_2")),
        ("team_exp", ("team_exp",)),
        ("manager_exp", ("manager_exp",)),
        ("envergure", ("envergure",)),
    ]
    assert list(regression._TERM_OF.items()) == [
        ("ln_size", "ln_size"), ("ln_transactions", "ln_transactions"),
        ("ln_entities", "ln_entities"), ("lang_1", "language"),
        ("lang_2", "language"), ("team_exp", "team_exp"),
        ("manager_exp", "manager_exp"), ("envergure", "envergure"),
    ]
    assert el.build_candidate_frame(complete_records).columns == (
        "intercept", *regression._COLUMNS)


def test_nonpositive_effort_names_its_project():
    records = [_record(), _record(project_id=2, effort=-5.0)]
    with pytest.raises(el.DomainError,
                       match=r"^project 2: cannot take ln of effort = -5\.0$"):
        el.build_frame(records)


def test_build_frame_takes_terms_in_any_order(complete_records):
    frame = el.build_frame(complete_records,
                           ["envergure", "language", "ln_size"])
    assert frame.columns == ("intercept", "ln_size", "lang_1", "lang_2",
                             "envergure")
    with pytest.raises(el.DomainError, match="unknown term 'size'"):
        el.build_frame(complete_records, ["ln_size", "size"])


def test_fit_matches_numpy_reference(complete_records, full_frame):
    fit = el.fit_ols(full_frame)
    X, y = full_frame.matrix, full_frame.response
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    assert fit.coefficients == pytest.approx(beta, abs=1e-10)

    resid = y - X @ beta
    df = len(y) - X.shape[1]
    sigma2 = float(resid @ resid) / df
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(X.T @ X)))
    assert fit.standard_errors == pytest.approx(se, abs=1e-10)
    assert fit.t_values == pytest.approx(beta / se, abs=1e-10)
    assert fit.df_residual == df
    assert fit.n == 77


@pytest.mark.parametrize("scenario", ["full", "size-only"])
def test_fit_p_values_match_the_t_distribution(complete_records, scenario):
    features = {s.name: s.features for s in el.scenarios()}[scenario]
    fit = el.fit_ols(el.build_frame(complete_records, features))
    expected = 2 * scipy.stats.t.sf(np.abs(fit.t_values), fit.df_residual)
    assert fit.p_values == pytest.approx(expected, abs=1e-12)


def test_fit_r_squared_is_log_scale(full_frame):
    fit = el.fit_ols(full_frame)
    y = full_frame.response
    sse = fit.residual_sum_of_squares
    sst = float(np.sum((y - y.mean()) ** 2))
    assert fit.r_squared == pytest.approx(1 - sse / sst)
    assert 0.7 < fit.r_squared < 0.9


def test_model_f_test(full_frame):
    fit = el.fit_ols(full_frame)
    y = full_frame.response
    sst = float(np.sum((y - y.mean()) ** 2))
    p = len(full_frame.columns)
    expected = ((sst - fit.residual_sum_of_squares) / (p - 1)) \
        / fit.residual_variance
    assert fit.f_statistic == pytest.approx(expected)
    assert fit.f_p_value < 1e-6


def _auxiliary_vifs(frame):
    """SST_j / RSS_j from regressing each non-intercept column on all the
    others, by numpy's SVD least squares."""
    X = frame.matrix
    out = {}
    for j, name in enumerate(frame.columns):
        if name == "intercept":
            continue
        others = [k for k in range(X.shape[1]) if k != j]
        beta = np.linalg.lstsq(X[:, others], X[:, j], rcond=None)[0]
        resid = X[:, j] - X[:, others] @ beta
        sst = float(np.sum((X[:, j] - X[:, j].mean()) ** 2))
        out[name] = sst / float(resid @ resid)
    return out


def test_vif_matches_auxiliary_regressions(complete_records):
    frames = [el.build_frame(complete_records, s.features)
              for s in el.scenarios()]
    frames.append(el.build_candidate_frame(complete_records))
    for frame in frames:
        fit = el.fit_ols(frame)
        assert "intercept" not in fit.vif
        expected = _auxiliary_vifs(frame)
        assert fit.vif.keys() == expected.keys()
        for name, value in expected.items():
            assert fit.vif[name] == pytest.approx(value, rel=1e-12), name
    # without an intercept the others' regression is uncentred while SST
    # stays centred, so a VIF can fall below 1; the identity still holds
    frame = el.ModelFrame(columns=frames[0].columns[1:],
                          matrix=frames[0].matrix[:, 1:],
                          response=frames[0].response,
                          project_ids=frames[0].project_ids)
    cov = numerics.solve_least_squares(frame.matrix,
                                       frame.response).unscaled_covariance
    got = el.vif(frame, cov)
    for name, value in _auxiliary_vifs(frame).items():
        assert got[name] == pytest.approx(value, rel=1e-12), name
    assert got["ln_size"] < 1.0


def test_fit_makes_one_least_squares_solve(full_frame, monkeypatch):
    solves = []

    def counted(design, response):
        solves.append(design.shape)
        return numerics.solve_least_squares(design, response)

    monkeypatch.setattr(el.regression, "solve_least_squares", counted)
    el.fit_ols(full_frame)
    assert solves == [full_frame.matrix.shape]


def test_single_predictor_vif_is_one(complete_records):
    frame = el.build_frame(complete_records, ["ln_size"])
    fit = el.fit_ols(frame)
    assert fit.vif == {"ln_size": pytest.approx(1.0)}


def test_fit_requires_leading_intercept(full_frame):
    shuffled = el.ModelFrame(
        columns=full_frame.columns[1:] + ("intercept",),
        matrix=np.column_stack([full_frame.matrix[:, 1:],
                                full_frame.matrix[:, 0]]),
        response=full_frame.response,
        project_ids=full_frame.project_ids,
    )
    with pytest.raises(el.DomainError):
        el.fit_ols(shuffled)


def test_constant_response_is_named(full_frame):
    # ln(5000) repeated: the rounded mean leaves an SST of about 2e-28
    constant = el.ModelFrame(
        columns=full_frame.columns,
        matrix=full_frame.matrix,
        response=np.full(full_frame.n, math.log(5000.0)),
        project_ids=full_frame.project_ids,
    )
    with pytest.raises(el.DomainError, match="^response is constant$"):
        el.fit_ols(constant)


def test_vif_names_constant_column(full_frame):
    # 0.7 repeated does not have an exact mean either
    frame = el.ModelFrame(
        columns=("ln_size", "flat"),
        matrix=np.column_stack([full_frame.matrix[:, 1],
                                np.full(full_frame.n, 0.7)]),
        response=full_frame.response,
        project_ids=full_frame.project_ids,
    )
    cov = numerics.solve_least_squares(frame.matrix,
                                       frame.response).unscaled_covariance
    with pytest.raises(el.DomainError, match="^column 'flat' is constant$"):
        el.vif(frame, cov)


def test_collinear_frame_names_column(complete_records, full_frame):
    doubled = el.ModelFrame(
        columns=full_frame.columns + ("ln_size_copy",),
        matrix=np.column_stack([full_frame.matrix,
                                full_frame.matrix[:, 1]]),
        response=full_frame.response,
        project_ids=full_frame.project_ids,
    )
    with pytest.raises(el.CollinearityError) as info:
        el.fit_ols(doubled)
    assert info.value.column == 7
    assert "ln_size_copy" in str(info.value)


def test_r_squared_invariant_under_predictor_rescaling(full_frame):
    fit = el.fit_ols(full_frame)
    scaled = el.ModelFrame(
        columns=full_frame.columns,
        matrix=full_frame.matrix * np.array([1, 100, 1, 1, 0.01, 1, 3.5]),
        response=full_frame.response,
        project_ids=full_frame.project_ids,
    )
    refit = el.fit_ols(scaled)
    assert refit.r_squared == pytest.approx(fit.r_squared, abs=1e-12)
    assert refit.f_statistic == pytest.approx(fit.f_statistic, rel=1e-9)


def test_stepwise_selects_expected_terms(complete_records):
    trace = el.stepwise_select(el.build_candidate_frame(complete_records))
    assert set(trace.selected) == {"ln_size", "language", "envergure"}


def test_stepwise_groups_language_dummies_wherever_they_stand(
        complete_records):
    frame = el.build_candidate_frame(complete_records)
    order = ("intercept", "lang_2", "team_exp", "ln_entities", "ln_size",
             "lang_1", "envergure", "ln_transactions", "manager_exp")
    keep = [frame.columns.index(name) for name in order]
    permuted = el.ModelFrame(columns=order, matrix=frame.matrix[:, keep],
                             response=frame.response,
                             project_ids=frame.project_ids)
    trace = el.stepwise_select(permuted)
    assert set(trace.selected) == {"ln_size", "language", "envergure"}
    assert [s.predictor for s in trace.steps] == [
        "ln_size", "language", "envergure"]
    assert {"lang_1", "lang_2"} <= set(trace.fit.columns)


def test_stepwise_trace_is_pinned(complete_records):
    trace = el.stepwise_select(el.build_candidate_frame(complete_records))
    assert [(s.action, s.predictor, s.p_value.hex())
            for s in trace.steps] == [
        ("add", "ln_size", "0x1.10ce54d5e5aeep-29"),
        ("add", "language", "0x1.86f08d338da3dp-42"),
        ("add", "envergure", "0x1.7996a16a04b3cp-23"),
    ]
    assert trace.selected == ("ln_size", "language", "envergure")
    assert [float(c).hex() for c in trace.fit.coefficients] == [
        "0x1.9b59120aa8c5ep+0", "0x1.b05ea4f174a0ep-1",
        "0x1.5a8ca1f6a068fp+0", "0x1.63875cdfc049cp+0",
        "0x1.a0fbdf438d5bdp-6",
    ]


def _counted_solves(monkeypatch):
    """The list that grows by one per solve_least_squares call that
    regression makes."""
    calls = []
    solve = regression.solve_least_squares

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(regression, "solve_least_squares", counted)
    return calls


def _generated_records(path, n, seed):
    """Rows drawn by perfbench/gen.py."""
    load_perfbench("gen").write_dataset(str(path), n, seed)
    return el.filter_complete(el.load_dataset(str(path)))


def test_stepwise_breaks_a_p_value_tie_by_column_order(tmp_path,
                                                       monkeypatch):
    records = _generated_records(tmp_path / "gen.csv", 5000, 0)
    # in round 1 both ln_size and language enter with p == 0.0; language
    # would win a tie broken by name
    for term in ("ln_size", "language"):
        assert el.fit_ols(el.build_frame(records, [term])).f_p_value == 0.0
    frame = el.build_candidate_frame(records)
    calls = _counted_solves(monkeypatch)
    trace = el.stepwise_select(frame)
    assert trace.steps[0] == el.StepwiseStep("add", "ln_size", 0.0)
    assert [(s.action, s.predictor) for s in trace.steps] == [
        ("add", "ln_size"), ("add", "language"), ("add", "envergure"),
        ("add", "manager_exp"), ("add", "team_exp")]
    # one solve per distinct model; the final fit is one of them
    assert len(calls) == 34


def test_stepwise_solves_each_model_once(complete_records, monkeypatch):
    frame = el.build_candidate_frame(complete_records)
    calls = _counted_solves(monkeypatch)
    el.stepwise_select(frame)
    # 8 + 6 + 6 + 4 distinct models over four rounds: one solve per
    # distinct model; the final fit is one of them
    assert len(calls) == 24


def test_stepwise_needs_a_candidate_term(complete_records, monkeypatch):
    calls = _counted_solves(monkeypatch)
    frame = el.build_frame(complete_records, [])
    with pytest.raises(el.DomainError, match="^frame has no candidate terms$"):
        el.stepwise_select(frame)
    assert calls == []


def test_stepwise_needs_an_intercept_first(full_frame, monkeypatch):
    calls = _counted_solves(monkeypatch)
    frame = regression._subset(full_frame, range(1, len(full_frame.columns)))
    with pytest.raises(el.DomainError,
                       match="^frame must start with an intercept column$"):
        el.stepwise_select(frame)
    assert calls == []


@pytest.mark.parametrize("rows, error, message, solves", [
    # team_exp is the fifth candidate: the intercept-only model and four
    # one-term models solve before it
    (lambda records: [r._replace(team_exp=2) for r in records],
     el.CollinearityError,
     "column 'team_exp' is linearly dependent on the others", 6),
    (lambda records: records[:2], el.DomainError,
     "need more rows than columns, got 2x2", 1),
    (lambda records: [r._replace(effort=r.points_non_adjust)
                      for r in records],
     el.DomainError,
     "the model fits the response exactly, so its standard errors are 0", 2),
], ids=["constant-column", "too-few-rows", "exact-fit"])
def test_stepwise_raises_the_first_model_fit_ols_refuses(
        complete_records, monkeypatch, rows, error, message, solves):
    frame = el.build_candidate_frame(rows(complete_records))
    calls = _counted_solves(monkeypatch)
    with pytest.raises(error, match=f"^{message}$") as info:
        el.stepwise_select(frame)
    assert type(info.value) is error
    assert len(calls) == solves


def test_stepwise_trace_records_decisions(complete_records):
    trace = el.stepwise_select(el.build_candidate_frame(complete_records))
    assert all(step.action in ("add", "remove") for step in trace.steps)
    added = [s.predictor for s in trace.steps if s.action == "add"]
    removed = [s.predictor for s in trace.steps if s.action == "remove"]
    for name in trace.selected:
        assert added.count(name) == removed.count(name) + 1
    for step in trace.steps:
        if step.action == "add":
            assert step.p_value < ALPHA
        else:
            assert step.p_value > ALPHA


def _proxy_frame(seed=5, n=60):
    """x1 tracks the response, z1 + z2, best on its own; x2 and x3 track
    z1 and z2 closely, so once both are in, x1 adds nothing."""
    rng = np.random.default_rng(seed)
    z1, z2 = rng.normal(size=n), rng.normal(size=n)
    x1 = z1 + z2 + 0.5 * rng.normal(size=n)
    x2 = z1 + 0.1 * rng.normal(size=n)
    x3 = z2 + 0.1 * rng.normal(size=n)
    y = z1 + z2 + 0.3 * rng.normal(size=n)
    return el.ModelFrame(columns=("intercept", "x1", "x2", "x3"),
                         matrix=np.column_stack([np.ones(n), x1, x2, x3]),
                         response=y, project_ids=tuple(range(1, n + 1)))


def test_stepwise_removes_a_term_made_redundant():
    frame = _proxy_frame()
    trace = el.stepwise_select(frame)
    assert [(s.action, s.predictor) for s in trace.steps] == [
        ("add", "x1"), ("add", "x2"), ("add", "x3"), ("remove", "x1")]
    assert trace.selected == ("x2", "x3")
    assert trace.fit.columns == ("intercept", "x2", "x3")

    def rss(names):
        cols = [frame.columns.index(c) for c in ("intercept", *names)]
        X = frame.matrix[:, cols]
        beta = np.linalg.lstsq(X, frame.response, rcond=None)[0]
        resid = frame.response - X @ beta
        return float(resid @ resid)

    included = []
    for step in trace.steps:
        after = ([*included, step.predictor] if step.action == "add"
                 else [c for c in included if c != step.predictor])
        small, large = sorted((included, after), key=len)
        df = frame.n - 1 - len(large)
        f_stat = (rss(small) - rss(large)) / (rss(large) / df)
        expected = scipy.stats.f.sf(f_stat, 1, df)
        assert step.p_value == pytest.approx(expected, rel=1e-8), step
        assert (step.p_value < ALPHA) == (step.action == "add")
        included = after


def _led_by_envergure(n=200, seed=3):
    """Records whose effort follows envergure most, so that stepwise adds
    it first, ahead of terms that come before it in TERMS."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(1, n + 1):
        env, texp = int(rng.integers(0, 60)), int(rng.integers(0, 5))
        size = float(rng.lognormal(5.5, 0.8))
        effort = math.exp(5 + 0.05 * env + 0.15 * texp
                          + 0.3 * math.log(size) + 0.4 * rng.normal())
        records.append(_record(
            project_id=i, team_exp=texp,
            manager_exp=int(rng.integers(0, 8)), effort=effort,
            transactions=int(rng.integers(1, 900)),
            entities=int(rng.integers(1, 500)), points_non_adjust=size,
            envergure=env, language=int(rng.integers(1, 4))))
    return records


def _fit_bytes(fit):
    return {f.name: (value.tobytes() if isinstance(value, np.ndarray)
                     else value)
            for f in dataclasses.fields(fit)
            for value in [getattr(fit, f.name)]}


def test_stepwise_final_fit_is_the_fit_of_its_selection():
    records = _led_by_envergure()
    trace = el.stepwise_select(el.build_candidate_frame(records))
    added = [s.predictor for s in trace.steps if s.action == "add"]
    assert added[0] == "envergure" and tuple(added) != trace.selected
    assert (_fit_bytes(trace.fit)
            == _fit_bytes(el.fit_ols(el.build_frame(records, trace.selected))))


def test_stepwise_step_count_bounded(complete_records):
    frame = el.build_candidate_frame(complete_records)
    trace = el.stepwise_select(frame)
    n_terms = 7  # three sizes, language pair, three ordinal attributes
    assert len(trace.steps) <= 2 * n_terms


def test_stepwise_final_fit_uses_selected_terms(complete_records):
    trace = el.stepwise_select(el.build_candidate_frame(complete_records))
    expected = {"intercept"}
    for term in trace.selected:
        expected.update(("lang_1", "lang_2") if term == "language"
                        else (term,))
    assert set(trace.fit.columns) == expected


def test_predict_effort_known_coefficients():
    # exp(1.46 + 0.88 ln 298 - 0.0471*2 + 0.0623*2 + 0.0204*30) ~ 1231.3
    fit = el.RegressionFit(
        columns=("intercept", "ln_size", "lang_1", "lang_2", "team_exp",
                 "manager_exp", "envergure"),
        coefficients=np.array([1.46, 0.88, 1.41, 1.38, -0.0471, 0.0623,
                               0.0204]),
        standard_errors=np.zeros(7), t_values=np.zeros(7),
        p_values=np.zeros(7), residual_sum_of_squares=0.0,
        residual_variance=0.0, r_squared=1.0, f_statistic=0.0,
        f_p_value=1.0, vif={}, n=77, df_residual=70,
    )
    record = _record(points_non_adjust=298.0, team_exp=2, manager_exp=2,
                     envergure=30, language=3)
    frame = el.build_frame([record])
    assert frame.columns == fit.columns
    assert math.exp(frame.matrix[0] @ fit.coefficients) == pytest.approx(
        1231.3, abs=0.5)


def test_smearing_factor_is_mean_exp_residual(full_frame):
    # a raw-effort prediction is uncorrected; the caller multiplies by it
    fit = el.fit_ols(full_frame)
    resid = full_frame.response - full_frame.matrix @ fit.coefficients
    assert fit.smearing_factor == pytest.approx(float(np.mean(np.exp(resid))))
    assert fit.smearing_factor > 1.0


@pytest.mark.parametrize("build", [el.build_frame, el.build_candidate_frame])
def test_one_record_frame_equals_frame_row_bit_for_bit(build,
                                                       complete_records):
    # a one-record frame is how a single project is predicted
    frame = build(complete_records)
    for i, rec in enumerate(complete_records):
        row = build([rec]).matrix[0]
        assert np.array_equal(row.view(np.int64),
                              frame.matrix[i].view(np.int64))


@pytest.mark.parametrize("bad", [dict(points_non_adjust=0.0),
                                 dict(language=4)],
                         ids=["size-0", "language-4"])
def test_predict_effort_raises_what_build_frame_raises(bad):
    record = _record(project_id=5, **bad)
    with pytest.raises(el.EffortlabError) as built:
        el.build_frame([record])
    assert str(built.value) in ("project 5: cannot take ln of size = 0.0",
                                "project 5: language code 4 not in 1..3")
