"""Network mechanics: initialization, gradients, training behavior."""

import dataclasses

import numpy as np
import pytest

import effortlab as el
from effortlab import ann
from effortlab.ann import (HOLDOUT_PATIENCE, STOP_GRADIENT_BELOW_MIN,
                           STOP_HOLDOUT_WORSENING,
                           STOP_IMPROVEMENT_BELOW_DELTA, STOP_MAX_ITERATIONS,
                           _sigmoid, parameter_count)

from conftest import half_sse


def _fd_gradient(w, X, y, h, eps=1e-6):
    out = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        out[i] = (half_sse(up, X, y, h) - half_sse(down, X, y, h)) / (2 * eps)
    return out


def _two_branch_sigmoid(z):
    # reference logistic: the kernel must match it bit for bit
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_forward(params, X, h):
    d = X.shape[1]
    hidden = _two_branch_sigmoid(X @ params[:h * d].reshape(h, d).T
                                 + params[h * d:h * d + h])
    return hidden @ params[h * d + h:h * d + 2 * h] + params[-1]


def _reference_gradient(params, X, y, h):
    d = X.shape[1]
    w_out = params[h * d + h:h * d + 2 * h]
    hidden = _two_branch_sigmoid(X @ params[:h * d].reshape(h, d).T
                                 + params[h * d:h * d + h])
    delta_out = hidden @ w_out + params[-1] - y
    delta_hidden = np.outer(delta_out, w_out) * hidden * (1 - hidden)
    return np.concatenate([(delta_hidden.T @ X).ravel(),
                           delta_hidden.sum(axis=0), hidden.T @ delta_out,
                           [delta_out.sum()]])


def _sse(params, X, y, h):
    return 2.0 * half_sse(params, X, y, h)


def _reference_train(frame, config, seed):
    # the training loop as it was before trials shared one hidden pass:
    # separate loss, gradient and holdout passes; must match bit for bit.
    # The fixed settings are read when called, so a patched one applies.
    keep = [frame.columns.index(c) for c in frame.predictor_columns()]
    X_all, y_all = frame.matrix[:, keep], frame.response
    n = len(y_all)
    rng = np.random.default_rng(seed)
    k = max(1, round(ann.HOLDOUT_FRACTION * n))
    order = rng.permutation(n)
    holdout_idx, train_idx = np.sort(order[:k]), np.sort(order[k:])
    X_train = X_all[train_idx]
    constant = X_train.min(axis=0) == X_train.max(axis=0)
    mean = np.where(constant, X_train[0], X_train.mean(axis=0))
    sd = np.where(constant, 1.0, X_train.std(axis=0))
    Z = (X_all - mean) / sd
    Z_train, y_train = Z[train_idx], y_all[train_idx]
    Z_hold, y_hold = Z[holdout_idx], y_all[holdout_idx]
    d = len(keep)
    h = config.hidden_nodes if config.hidden_nodes is not None else d
    w = ann._init_network(d, h, seed)
    n_params = len(w)

    loss = half_sse(w, Z_train, y_train, h)
    train_hist = [2.0 * loss]
    hold_hist = [_sse(w, Z_hold, y_hold, h)]
    best_sse, best_w, best_iter = hold_hist[0], w.copy(), 0
    patience = 0
    stop = STOP_MAX_ITERATIONS
    g = ann.gradient(w, Z_train, y_train, h)
    direction = -g
    step = 0.5
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        g_sq = float(g @ g)
        if np.sqrt(g_sq) < ann.MIN_GRADIENT:
            stop = STOP_GRADIENT_BELOW_MIN
            break
        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -g
            slope = float(g @ direction)
        step = min(1.0, 2.0 * step)
        new_loss = half_sse(w + step * direction, Z_train, y_train, h)
        while new_loss > loss + 1e-4 * step * slope:
            step *= 0.5
            if step < 1e-20:
                break
            new_loss = half_sse(w + step * direction, Z_train, y_train, h)
        if step < 1e-20:
            stop = STOP_IMPROVEMENT_BELOW_DELTA
            break
        w = w + step * direction
        g_new = ann.gradient(w, Z_train, y_train, h)
        if it % n_params == 0:
            beta = 0.0
        else:
            beta = max(0.0, float(g_new @ (g_new - g)) / g_sq)
        direction = -g_new + beta * direction
        g = g_new
        iterations = it
        improvement = loss - new_loss
        relative = improvement / max(loss, 1e-20)
        loss = new_loss
        train_hist.append(2.0 * loss)
        hold_sse = _sse(w, Z_hold, y_hold, h)
        hold_hist.append(hold_sse)
        if hold_sse < best_sse:
            best_sse, best_w, best_iter = hold_sse, w.copy(), it
            patience = 0
        else:
            patience += 1
            if patience >= HOLDOUT_PATIENCE:
                stop = STOP_HOLDOUT_WORSENING
                break
        if (improvement < ann.MIN_IMPROVEMENT_DELTA
                or relative < ann.CONVERGENCE_TOLERANCE):
            stop = STOP_IMPROVEMENT_BELOW_DELTA
            break
    return best_w, (iterations, stop, tuple(train_hist), tuple(hold_hist),
                    best_iter, best_sse)


def _assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def test_sigmoid_bitwise_matches_two_branch_reference():
    edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0,
                      5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8])
    _assert_bitwise(_sigmoid(edges.copy()), _two_branch_sigmoid(edges))
    rng = np.random.default_rng(2014)
    for scale in (1e-300, 1e-12, 1e-3, 0.1, 1.0, 4.0, 30.0, 300.0, 1e4):
        for shape in ((62, 7), (15, 3), (101,)):
            z = rng.normal(scale=scale, size=shape)
            _assert_bitwise(_sigmoid(z.copy()), _two_branch_sigmoid(z))


def test_kernels_bitwise_match_references():
    rng = np.random.default_rng(5)
    for d, h, n in ((7, 7, 62), (1, 3, 12), (4, 2, 15)):
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w = ann._init_network(d, h, seed=d * h)
        _assert_bitwise(ann.forward(w, X, h), _reference_forward(w, X, h))
        _assert_bitwise(ann.gradient(w, X, y, h),
                        _reference_gradient(w, X, y, h))


def test_kernels_bitwise_equal_across_input_kinds():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 5))
    X_int = rng.integers(-3, 4, size=(20, 5))
    y = rng.normal(size=20)
    w = ann._init_network(5, 4, seed=3)
    for fast, other in ((X, X.tolist()), (X[:1], X[0]),
                        (X_int.astype(float), X_int)):
        _assert_bitwise(ann.forward(w, other, 4), ann.forward(w, fast, 4))
        m = len(fast)
        _assert_bitwise(ann.gradient(w, other, list(y[:m]), 4),
                        ann.gradient(w, fast, y[:m], 4))


def test_parameter_count():
    # h rows of d weights, h hidden biases, h output weights, one bias
    assert parameter_count(6, 6) == 6 * 6 + 6 + 6 + 1
    assert parameter_count(1, 3) == 3 + 3 + 3 + 1


def test_init_network_range_and_shape():
    w = ann._init_network(5, 4, seed=0)
    assert w.shape == (parameter_count(5, 4),)
    assert np.all(w >= -0.5) and np.all(w <= 0.5)


def test_init_network_deterministic():
    assert np.array_equal(ann._init_network(6, 6, seed=9),
                          ann._init_network(6, 6, seed=9))
    assert not np.array_equal(ann._init_network(6, 6, seed=9),
                              ann._init_network(6, 6, seed=10))


def test_forward_matches_manual_computation():
    # one input, one hidden node: out = w_out * sigmoid(w*x + b) + b_out
    params = np.array([2.0, -1.0, 3.0, 0.5])
    x = np.array([[1.5]])
    hidden = 1.0 / (1.0 + np.exp(-(2.0 * 1.5 - 1.0)))
    assert ann.forward(params, x, 1)[0] == pytest.approx(3.0 * hidden + 0.5)


def test_forward_extreme_inputs_stay_finite():
    params = ann._init_network(2, 3, seed=1)
    x = np.array([[1e4, -1e4]])
    assert np.isfinite(ann.forward(params, x, 3)).all()


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    for _ in range(5):
        d = int(rng.integers(1, 6))
        h = int(rng.integers(1, 6))
        n = int(rng.integers(5, 25))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        w = ann._init_network(d, h, seed=int(rng.integers(1000)))
        g = ann.gradient(w, X, y, h)
        fd = _fd_gradient(w, X, y, h)
        scale = np.maximum(np.abs(g) + np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / scale) < 1e-5


def test_train_requires_ten_records(complete_records):
    frame = el.build_frame(complete_records[:9])
    with pytest.raises(el.InsufficientDataError):
        el.train(frame)


def test_train_requires_a_predictor(complete_records):
    frame = el.build_frame(complete_records, [])
    assert frame.columns == ("intercept",)
    with pytest.raises(el.DomainError,
                       match="^frame has no predictor columns$"):
        el.train(frame)


def test_zero_iterations_returns_initial_weights(full_frame):
    config = el.AnnConfig(max_iterations=0)
    model, trace = el.train(full_frame, config, seed=5)
    d = len(full_frame.columns) - 1
    assert np.array_equal(model.weights, ann._init_network(d, d, seed=5))
    assert model.seed == 5
    assert trace.iterations == 0
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert len(trace.train_sse) == 1


def test_default_hidden_nodes_equal_inputs(full_frame):
    model, _ = el.train(full_frame, el.AnnConfig(max_iterations=5))
    assert model.hidden_nodes == len(model.feature_columns) == 6


def test_training_sse_never_increases(full_frame):
    _, trace = el.train(full_frame, seed=2)
    diffs = np.diff(trace.train_sse)
    assert np.all(diffs <= 1e-12)


def _assert_matches(trained, expected):
    model, trace = trained
    weights, summary = expected
    _assert_bitwise(model.weights, weights)
    assert (trace.iterations, trace.stop_reason, trace.train_sse,
            trace.holdout_sse, trace.best_iteration,
            trace.best_holdout_sse) == summary
    _assert_bitwise(trace.train_sse, summary[2])
    _assert_bitwise(trace.holdout_sse, summary[3])


def test_training_bitwise_matches_reference_loop(complete_records):
    # hidden sizes of 8 and more catch an output layer applied to the
    # stacked training and holdout rows in one product; each seed must
    # match both trained alone and trained in one batch of ten. All 77
    # rows split 62/15 into training and holdout rows, the first 50 40/10.
    for records in (complete_records, complete_records[:50]):
        for frame in (el.build_frame(records),
                      el.build_frame(records, ["ln_size"])):
            for hidden in (None, 1, 8, 12, 30):
                base = el.AnnConfig(hidden_nodes=hidden)
                batch = ann._train_frames([frame], base, range(10))[0]
                for seed, trained in enumerate(batch):
                    expected = _reference_train(frame, base, seed)
                    _assert_matches(el.train(frame, base, seed), expected)
                    _assert_matches(trained, expected)


@pytest.mark.parametrize("overrides, constants, reasons", [
    ({"max_iterations": 0}, {}, {STOP_MAX_ITERATIONS}),
    ({"max_iterations": 3}, {}, {STOP_MAX_ITERATIONS}),
    # seed 8 stops on a small improvement at the cap, iteration 57
    ({"max_iterations": 57}, {},
     {STOP_MAX_ITERATIONS, STOP_IMPROVEMENT_BELOW_DELTA}),
    ({}, {"MIN_GRADIENT": 0.5}, {STOP_GRADIENT_BELOW_MIN,
                                 STOP_HOLDOUT_WORSENING,
                                 STOP_IMPROVEMENT_BELOW_DELTA}),
    ({}, {}, {STOP_HOLDOUT_WORSENING, STOP_IMPROVEMENT_BELOW_DELTA}),
], ids=["max-iter-0", "max-iter-3", "max-iter-57", "min-gradient", "default"])
def test_batch_with_mixed_stops_matches_reference_loop(
        full_frame, monkeypatch, overrides, constants, reasons):
    # seeds that stop in different rounds and for different reasons
    # leave the batch without disturbing the others
    for name, value in constants.items():
        monkeypatch.setattr(ann, name, value)
    base = el.AnnConfig(**overrides)
    batch = ann._train_frames([full_frame], base, range(10))[0]
    assert {trace.stop_reason for _, trace in batch} == reasons
    for seed, trained in enumerate(batch):
        _assert_matches(trained,
                        _reference_train(full_frame, base, seed))


def test_batch_keeps_initial_weights_that_stay_best():
    # efforts that are noise around 1 person-hour: on several seeds no
    # step beats the initial holdout error, so the initial weights are
    # returned after the stacks they came from were overwritten
    rng = np.random.default_rng(3)
    records = []
    for i in range(20):
        size = float(rng.uniform(80, 600))
        records.append(el.ProjectRecord(
            project_id=i + 1, team_exp=int(rng.integers(0, 5)),
            manager_exp=int(rng.integers(0, 5)), year_end=86, length=10,
            effort=float(np.exp(rng.normal())), transactions=100,
            entities=100, points_non_adjust=size, envergure=20,
            points_adjust=size * 0.85, language=1))
    frame = el.build_frame(records, ["ln_size"])
    batch = ann._train_frames([frame], el.AnnConfig(), range(10))[0]
    assert any(trace.best_iteration == 0 and trace.iterations > 0
               for _, trace in batch)
    for seed, trained in enumerate(batch):
        _assert_matches(trained, _reference_train(frame, el.AnnConfig(),
                                                  seed))


def test_batch_returns_results_in_the_order_of_the_seeds(full_frame):
    seeds = [7, 3, 7, 12, 0, 3]  # duplicates, gaps, not sorted
    base = el.AnnConfig(hidden_nodes=4)
    batch = ann._train_frames([full_frame], base, seeds)[0]
    assert [(model.config, model.seed) for model, _ in batch] == [
        (base, seed) for seed in seeds]
    for seed, trained in zip(seeds, batch):
        _assert_matches(trained,
                        _reference_train(full_frame, base, seed))


def test_seed_blocks_match_reference_loop(full_frame, monkeypatch):
    blocks = []

    def recorded(jobs, config, _original=ann._train_block):
        blocks.append([seed for _, seed in jobs])
        return _original(jobs, config)
    monkeypatch.setattr(ann, "_SEED_BLOCK", 3)
    monkeypatch.setattr(ann, "_train_block", recorded)
    base = el.AnnConfig(hidden_nodes=3)
    batch = ann._train_frames([full_frame], base, range(7))[0]
    assert blocks == [[0, 1, 2], [3, 4, 5], [6]]
    for seed, trained in enumerate(batch):
        _assert_matches(trained,
                        _reference_train(full_frame, base, seed))


def test_block_of_several_frames_matches_reference_loop(complete_records,
                                                         monkeypatch):
    # no-env, no-texp and no-mexp have five inputs each, so their jobs
    # share blocks; each job must keep the bits of its frame and seed
    blocks = []

    def recorded(jobs, config, _original=ann._train_block):
        blocks.append([(frame.columns, seed) for frame, seed in jobs])
        return _original(jobs, config)
    monkeypatch.setattr(ann, "_SEED_BLOCK", 4)
    monkeypatch.setattr(ann, "_train_block", recorded)
    scens = el.scenarios()
    frames = [el.build_frame(complete_records, scens[i].features)
              for i in (1, 3, 4)]
    seeds = [5, 2, 5]
    base = el.AnnConfig(max_iterations=40)
    trained = ann._train_frames(frames, base, seeds)
    jobs = [(frame.columns, seed) for frame in frames for seed in seeds]
    assert blocks == [jobs[:4], jobs[4:8], jobs[8:]]
    assert blocks[0][2][0] != blocks[0][3][0]  # two frames in one block
    for frame, results in zip(frames, trained, strict=True):
        assert len(results) == len(seeds)
        for seed, (model, trace) in zip(seeds, results):
            _assert_matches((model, trace),
                            _reference_train(frame, base, seed))
            alone, _ = ann._train_frames([frame], base, [seed])[0][0]
            assert model.feature_columns == frame.predictor_columns()
            _assert_bitwise(model.input_mean, alone.input_mean)
            _assert_bitwise(model.input_sd, alone.input_sd)


def test_ablation_trains_one_block_per_predictor_width(complete_records,
                                                       monkeypatch):
    events = []

    def checked(*args, _original=ann.check_config):
        events.append("check_config")
        return _original(*args)

    def recorded(jobs, config, _original=ann._train_block):
        events.append([(len(frame.predictor_columns()), seed)
                       for frame, seed in jobs])
        return _original(jobs, config)
    monkeypatch.setattr(ann, "check_config", checked)
    monkeypatch.setattr(ann, "_train_block", recorded)
    el.run_ablation(complete_records, model="both", seeds=[0, 1],
                    ann_config=el.AnnConfig(max_iterations=3))
    # full, then no-env with no-texp and no-mexp, no-language, size-only
    assert events == ["check_config", [(6, 0), (6, 1)], [(5, 0), (5, 1)] * 3,
                      [(4, 0), (4, 1)], [(1, 0), (1, 1)]]


def test_scoring_stacks_at_most_a_block_of_networks(complete_records,
                                                    full_frame, monkeypatch):
    config = el.AnnConfig(max_iterations=20)
    seeds = [0, 1, 2, 3, 4]
    models = [model for model, _ in ann._train_frames(
        [full_frame], config, seeds)[0]]
    alone = [el.predict_frame(model, full_frame) for model in models]
    table = el.run_ablation(complete_records, model="ann", seeds=seeds,
                            ann_config=config)
    stacks = []

    def recorded(params, inputs, hidden_nodes, _original=ann.forward):
        stacks.append(len(params))
        return _original(params, inputs, hidden_nodes)
    monkeypatch.setattr(ann, "_SEED_BLOCK", 2)
    monkeypatch.setattr(ann, "forward", recorded)
    for predicted, expected in zip(ann._predict_frame(models, full_frame),
                                   alone, strict=True):
        _assert_bitwise(predicted, expected)
    assert stacks == [2, 2, 1]
    assert el.run_ablation(complete_records, model="ann", seeds=seeds,
                           ann_config=config).cells == table.cells


def test_negative_seed_in_a_batch_raises_before_any_training(full_frame,
                                                             monkeypatch):
    calls = []
    for name in ("_init_network", "_evaluate", "_backprop"):
        monkeypatch.setattr(ann, name, lambda *args: calls.append(args))
    monkeypatch.setattr(ann, "_SEED_BLOCK", 2)
    for seeds, message in (([0, 1, 2, -1, 4], "^seed must be >= 0$"),
                           ([], "^need at least one seed$")):
        with pytest.raises(el.DomainError, match=message):
            ann._train_frames([full_frame], el.AnnConfig(), seeds)
    assert calls == []


def test_line_search_is_warm_started(full_frame, monkeypatch):
    # Each search starts at twice the last accepted step, capped at 1,
    # so an iteration costs about two loss evaluations on these seeds.
    # Every trial is one _evaluate call and every iteration one _backprop
    # call, plus one of each at the initial weights.
    calls = {"_evaluate": 0, "_backprop": 0, "gradient": 0}
    for name in calls:
        def counted(*args, _original=getattr(ann, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(ann, name, counted)
    # line-search evaluations per seed, as counted before the shared pass
    expected = {0: 140, 1: 145, 2: 203, 3: 177, 4: 153}
    for seed, searches in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        _, trace = el.train(full_frame, seed=seed)
        assert trace.iterations > 0
        assert calls["_evaluate"] - 1 == searches
        assert searches <= 3 * trace.iterations
        assert calls["_backprop"] == trace.iterations + 1
        assert calls["gradient"] == 0


def test_best_holdout_never_worse_than_initial(full_frame):
    for seed in range(4):
        _, trace = el.train(full_frame, seed=seed)
        assert trace.best_holdout_sse <= trace.holdout_sse[0]
        assert trace.best_holdout_sse == min(trace.holdout_sse)


def test_identical_seeds_identical_traces(full_frame):
    _, a = el.train(full_frame, seed=33)
    _, b = el.train(full_frame, seed=33)
    assert a == b or (
        a.iterations == b.iterations
        and a.stop_reason == b.stop_reason
        and a.train_sse == b.train_sse
        and a.holdout_sse == b.holdout_sse
        and a.best_iteration == b.best_iteration
    )


def test_different_seeds_differ(full_frame):
    _, a = el.train(full_frame, seed=0)
    _, b = el.train(full_frame, seed=1)
    assert a.train_sse != b.train_sse


def test_stop_reason_is_always_known(full_frame):
    known = {STOP_MAX_ITERATIONS, STOP_GRADIENT_BELOW_MIN,
             STOP_IMPROVEMENT_BELOW_DELTA, STOP_HOLDOUT_WORSENING}
    for seed in range(6):
        _, trace = el.train(full_frame, seed=seed)
        assert trace.stop_reason in known


def test_patience_stop_leaves_best_behind(full_frame):
    _, trace = el.train(full_frame, seed=0)
    if trace.stop_reason == STOP_HOLDOUT_WORSENING:
        assert trace.iterations - trace.best_iteration >= HOLDOUT_PATIENCE


def test_max_iterations_cap(full_frame):
    _, trace = el.train(full_frame, el.AnnConfig(max_iterations=3), seed=0)
    assert trace.iterations <= 3
    assert trace.stop_reason == STOP_MAX_ITERATIONS


def test_learns_noiseless_linear_map():
    rng = np.random.default_rng(12)
    records = []
    for i in range(40):
        size = float(rng.uniform(80, 600))
        effort = 20.0 * size ** 0.9
        records.append(el.ProjectRecord(
            project_id=i + 1, team_exp=int(rng.integers(0, 5)),
            manager_exp=int(rng.integers(0, 5)), year_end=86, length=10,
            effort=effort, transactions=100, entities=100,
            points_non_adjust=size, envergure=20,
            points_adjust=size * 0.85, language=1))
    frame = el.build_frame(records, ["ln_size"])
    model, trace = el.train(frame, seed=3)
    assert trace.train_sse[-1] < 0.05 * trace.train_sse[0]
    predictions = el.predict_frame(model, frame)
    actual = np.array([r.effort for r in records])
    mmre = float(np.mean(np.abs(actual - predictions) / actual))
    assert mmre < 0.15


def test_predict_single_record_matches_frame(complete_records, full_frame):
    model, _ = el.train(full_frame, seed=4)
    batch = el.predict_frame(model, full_frame)
    one = el.predict_frame(model, el.build_frame([complete_records[10]]))[0]
    assert one == pytest.approx(batch[10])
    assert np.all(batch > 0)


def test_predict_frame_names_the_feature_columns_it_lacks(
        complete_records, full_frame):
    model, _ = el.train(full_frame, seed=0, config=el.AnnConfig(
        max_iterations=2))
    frame = el.build_frame(complete_records, ["ln_size", "team_exp"])
    with pytest.raises(el.DomainError, match=(
            "^frame lacks the network's feature columns 'lang_1', "
            "'lang_2', 'manager_exp', 'envergure'$")):
        el.predict_frame(model, frame)


def test_config_holds_only_the_flag_settings():
    # --hidden and --max-iter; every other setting is a fixed constant
    assert tuple(f.name for f in dataclasses.fields(el.AnnConfig)) == (
        "hidden_nodes", "max_iterations")
    for name in ("holdout_fraction", "min_gradient", "min_improvement_delta",
                 "convergence_tolerance", "seed"):
        with pytest.raises(TypeError):
            el.AnnConfig(**{name: 0.1})
    assert (ann.HOLDOUT_FRACTION, ann.HOLDOUT_PATIENCE, ann.MIN_GRADIENT,
            ann.MIN_IMPROVEMENT_DELTA, ann.CONVERGENCE_TOLERANCE) == (
        0.20, 50, 1e-6, 1e-6, 1e-5)


def test_negative_seed_rejected(full_frame):
    with pytest.raises(el.DomainError, match="^seed must be >= 0$"):
        el.train(full_frame, seed=-1)
