"""Scenario grid, seed handling, and attribute ranking."""

import numpy as np
import pytest

import effortlab as el


def test_scenario_order_and_removals():
    scens = el.scenarios()
    assert [s.name for s in scens] == [
        "full", "no-env", "no-language", "no-texp", "no-mexp", "size-only",
    ]
    assert scens[0].removed is None
    assert scens[1].removed == "envergure"
    assert scens[2].removed == "language"
    assert scens[3].removed == "team_exp"
    assert scens[4].removed == "manager_exp"
    assert scens[5].removed is None
    assert scens[5].features == ("ln_size",)


def test_every_scenario_keeps_size():
    for scen in el.scenarios():
        assert "ln_size" in scen.features


def test_scenario_features_are_the_full_model_less_the_removed_term():
    full = el.regression.FULL_MODEL
    *removals, size_only = el.scenarios()
    for scen in removals:
        assert scen.features == tuple(t for t in full if t != scen.removed)
    assert size_only.features == ("ln_size",)


def test_regression_cells_match_single_runs(complete_records):
    table = el.run_ablation(complete_records, model="regression")
    for scen in el.scenarios():
        single = el.run_scenario(complete_records, scen, "regression")
        assert table.cell(scen.name, "regression") == single


def test_regression_cells_are_seed_independent(complete_records):
    a = el.run_ablation(complete_records, model="regression", seeds=[0])
    b = el.run_ablation(complete_records, model="regression", seeds=[99])
    assert a.cells == b.cells
    assert a.seeds == b.seeds == ()
    assert a.ann_config is None


def test_cells_cover_all_records(complete_records):
    table = el.run_ablation(complete_records, model="regression")
    assert table.n == 77
    for cell in table.cells.values():
        assert cell.n == 77


def test_both_models_give_twelve_cells(complete_records):
    table = el.run_ablation(complete_records, model="both", seeds=[0],
                            ann_config=el.AnnConfig(max_iterations=20))
    assert len(table.cells) == 12
    assert table.models == ("regression", "ann")
    assert table.seeds == (0,)
    assert table.ann_config.max_iterations == 20


def test_unknown_model_rejected(complete_records):
    with pytest.raises(el.DomainError):
        el.run_ablation(complete_records, model="tree")
    with pytest.raises(el.DomainError):
        el.run_scenario(complete_records, el.scenarios()[0], "tree")


def test_ann_needs_at_least_one_seed(complete_records):
    with pytest.raises(el.DomainError):
        el.run_scenario(complete_records, el.scenarios()[0], "ann", seeds=[])


def test_median_over_seeds_is_per_metric(complete_records):
    scen = el.scenarios()[0]
    config = el.AnnConfig(max_iterations=60)
    seeds = [0, 1, 2]
    singles = [el.run_scenario(complete_records, scen, "ann", seeds=[s],
                               ann_config=config)
               for s in seeds]
    combined = el.run_scenario(complete_records, scen, "ann", seeds=seeds,
                               ann_config=config)
    for attr in ("mmre", "pred_25", "rmse", "mean_error", "r_squared"):
        expected = float(np.median([getattr(r, attr) for r in singles]))
        assert getattr(combined, attr) == pytest.approx(expected)


def test_log_r_squared_nonincreasing_under_removal(complete_records):
    fits = {
        scen.name: el.fit_ols(el.build_frame(complete_records, scen.features))
        for scen in el.scenarios()
    }
    full = fits["full"].r_squared
    size_only = fits["size-only"].r_squared
    for name, fit in fits.items():
        if name == "full":
            continue
        assert fit.r_squared <= full + 1e-12
        if name != "size-only":
            assert size_only <= fit.r_squared + 1e-12


def test_language_removal_hurts_most(complete_records):
    table = el.run_ablation(complete_records, model="regression")
    ranking = el.rank_attributes(table)
    assert ranking.entries[0].attribute == "language"
    assert ranking.entries[0].delta_mmre > 0.15


def test_ranking_on_bundled_data(complete_records):
    table = el.run_ablation(complete_records, model="regression")
    ranking = el.rank_attributes(table)
    assert [e.attribute for e in ranking.entries] == [
        "language", "envergure", "manager_exp", "team_exp",
    ]


def test_ranking_orders_synthetic_table():
    def report(mmre, r2):
        return el.MetricsReport(mmre=mmre, pred_25=0.5, rmse=100.0,
                                mean_error=10.0, r_squared=r2, n=77)

    scens = el.scenarios()
    cells = {
        ("full", "regression"): report(0.30, 0.80),
        ("no-env", "regression"): report(0.40, 0.70),
        ("no-language", "regression"): report(0.40, 0.50),
        ("no-texp", "regression"): report(0.31, 0.79),
        ("no-mexp", "regression"): report(0.35, 0.75),
        ("size-only", "regression"): report(0.60, 0.40),
    }
    table = el.AblationTable(scenarios=scens, models=("regression",),
                             cells=cells, n=77, seeds=())
    ranking = el.rank_attributes(table)
    # equal mmre deltas: the larger r-squared drop (no-language) wins
    assert [e.attribute for e in ranking.entries] == [
        "language", "envergure", "manager_exp", "team_exp",
    ]


def test_ranking_requires_model_cells(complete_records):
    table = el.run_ablation(complete_records, model="regression")
    with pytest.raises(el.DomainError):
        el.rank_attributes(table, model="ann")


def _generated_records(n=2000, seed=11):
    rng = np.random.default_rng(seed)
    size = rng.lognormal(5.5, 0.8, n)
    return [el.ProjectRecord(i + 1, int(rng.integers(0, 5)),
                             int(rng.integers(0, 8)), 86, 10,
                             float(size[i] * rng.lognormal(3.0, 0.5)),
                             int(rng.integers(1, 900)),
                             int(rng.integers(1, 500)), float(size[i]),
                             int(rng.integers(0, 60)), 100.0,
                             int(rng.integers(1, 4)))
            for i in range(n)]


@pytest.mark.parametrize("source", ["bundled", "generated"])
def test_ablation_builds_one_frame_and_subsets_it(source, complete_records,
                                                  monkeypatch):
    records = (complete_records if source == "bundled"
               else _generated_records())
    built, scored = [], []
    build, score = el.ablation.build_frame, el.ablation._regression_report

    def spy_build(*args, **kwargs):
        built.append(args[1:])
        return build(*args, **kwargs)

    def spy_score(frame, *args):
        scored.append(frame)
        return score(frame, *args)

    monkeypatch.setattr(el.ablation, "build_frame", spy_build)
    monkeypatch.setattr(el.ablation, "_regression_report", spy_score)
    table = el.run_ablation(records, model="regression")
    assert built == [(el.regression.FULL_MODEL,)]
    for scen, frame in zip(el.scenarios(), list(scored), strict=True):
        fresh = build(records, scen.features)
        assert frame.matrix.flags.c_contiguous
        assert frame.columns == fresh.columns
        assert frame.matrix.tobytes() == fresh.matrix.tobytes()
        assert frame.response.tobytes() == fresh.response.tobytes()
        assert table.cell(scen.name, "regression") == el.run_scenario(
            records, scen, "regression")


def test_full_regression_error_comes_before_the_networks(complete_records):
    # the full regression cell is scored before any network trains, so on
    # too few records for both models its error is the one raised
    with pytest.raises(el.DomainError, match="need more rows than columns"):
        el.run_ablation(complete_records[:5], model="both", seeds=[0])


def test_ann_cells_match_single_runs(complete_records):
    config = el.AnnConfig(max_iterations=20)
    table = el.run_ablation(complete_records, model="ann", seeds=[0, 1],
                            ann_config=config)
    for scen in el.scenarios():
        assert table.cell(scen.name, "ann") == el.run_scenario(
            complete_records, scen, "ann", seeds=[0, 1], ann_config=config)
