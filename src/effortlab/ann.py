"""One-hidden-layer perceptron trained by conjugate gradient.

The network maps standardized design columns to ln(effort): a logistic
hidden layer followed by a linear output. Training minimizes half the
sum of squared errors with Polak-Ribiere conjugate gradient, an Armijo
backtracking line search, and early stopping on a seeded holdout split.
The line search is warm-started: each one begins at twice the previous
accepted step, capped at 1, a heuristic of this package in the spirit of
the initial-step choices in Nocedal & Wright, Numerical Optimization,
section 3.5. Everything is deterministic given the seed.

Each training trial (the initial point and every line-search step)
makes one hidden-layer pass over the training rows stacked above the
holdout rows; it gives the loss, the holdout error and the activations
that backpropagation reuses at the accepted step. The output layer runs
per block, since a matrix-vector product's rounding depends on its row
count and one product over all rows would change the trained weights.

The kernels are tuned for small arrays but stay bit-identical to the
reference formulas; tests/test_ann.py and tests/golden/ pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ProjectRecord
from .errors import DomainError, InsufficientDataError
from .regression import ModelFrame, feature_row

STOP_MAX_ITERATIONS = "max_iterations"
STOP_GRADIENT_BELOW_MIN = "gradient_below_min"
STOP_IMPROVEMENT_BELOW_DELTA = "improvement_below_delta"
STOP_HOLDOUT_WORSENING = "holdout_worsening"

HOLDOUT_PATIENCE = 50

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20


@dataclass(frozen=True, slots=True)
class AnnConfig:
    """Training knobs. hidden_nodes=None means one node per input."""

    hidden_nodes: int | None = None
    max_iterations: int = 10000
    convergence_tolerance: float = 1e-5
    min_improvement_delta: float = 1e-6
    min_gradient: float = 1e-6
    holdout_fraction: float = 0.20
    seed: int = 0


@dataclass(frozen=True, eq=False)
class AnnModel:
    weights: np.ndarray
    hidden_nodes: int
    feature_columns: tuple[str, ...]
    input_mean: np.ndarray
    input_sd: np.ndarray
    config: AnnConfig


@dataclass(frozen=True, eq=False)
class TrainingTrace:
    iterations: int
    stop_reason: str
    train_sse: tuple[float, ...]
    holdout_sse: tuple[float, ...]
    best_holdout_sse: float
    best_iteration: int


def parameter_count(n_inputs: int, hidden_nodes: int) -> int:
    return hidden_nodes * n_inputs + 2 * hidden_nodes + 1


def init_network(n_inputs: int, hidden_nodes: int, seed: int) -> np.ndarray:
    """Flat weight vector drawn uniformly from [-0.5, 0.5].

    Layout: hidden weights (row-major, one row per hidden node), hidden
    biases, output weights, output bias.
    """
    if n_inputs < 1 or hidden_nodes < 1:
        raise DomainError("need at least one input and one hidden node")
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, parameter_count(n_inputs, hidden_nodes))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) cannot overflow: 1/(1+e) for z >= 0, e/(1+e) below
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def _matrix(x) -> np.ndarray:
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


def _hidden(params: np.ndarray, X: np.ndarray, h: int) -> np.ndarray:
    # hidden weights (h rows of X's width) and biases lead the layout
    hd = h * X.shape[1]
    z = X @ params[:hd].reshape(h, -1).T
    z += params[hd:hd + h]
    return _sigmoid(z)


def _output(params: np.ndarray, a: np.ndarray, h: int) -> np.ndarray:
    # output weights and bias are the last h + 1 parameters
    return a @ params[-1 - h:-1] + params[-1]


def _backprop(params: np.ndarray, X: np.ndarray, activations: np.ndarray,
              delta_out: np.ndarray, h: int) -> np.ndarray:
    g_w_out = activations.T @ delta_out
    g_b_out = delta_out.sum()
    delta_hidden = delta_out[:, None] * params[-1 - h:-1]
    delta_hidden *= activations
    delta_hidden *= 1 - activations
    g_w_hidden = delta_hidden.T @ X
    g_b_hidden = delta_hidden.sum(axis=0)
    return np.concatenate([
        g_w_hidden.ravel(), g_b_hidden, g_w_out, [g_b_out],
    ])


def forward(params: np.ndarray, inputs: np.ndarray,
            hidden_nodes: int) -> np.ndarray:
    """Network outputs (ln-effort scale) for standardized inputs."""
    activations = _hidden(params, _matrix(inputs), hidden_nodes)
    return _output(params, activations, hidden_nodes)


def gradient(params: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
             hidden_nodes: int) -> np.ndarray:
    """Gradient of half the sum of squared errors, by backpropagation."""
    X = _matrix(inputs)
    activations = _hidden(params, X, hidden_nodes)
    delta_out = (_output(params, activations, hidden_nodes)
                 - np.asarray(targets, dtype=float))
    return _backprop(params, X, activations, delta_out, hidden_nodes)


def _half_sse(params: np.ndarray, X: np.ndarray, y: np.ndarray,
              hidden_nodes: int) -> float:
    # the plain loss, kept as the finite-difference oracle of the tests
    resid = forward(params, X, hidden_nodes) - y
    return 0.5 * float(resid @ resid)


def _evaluate(params: np.ndarray, Z_fit: np.ndarray, y_fit: np.ndarray,
              n_train: int, h: int):
    """Half training SSE, holdout SSE, training activations, residuals."""
    a = _hidden(params, Z_fit, h)
    r_train = _output(params, a[:n_train], h) - y_fit[:n_train]
    r_hold = _output(params, a[n_train:], h) - y_fit[n_train:]
    return (0.5 * float(r_train @ r_train), float(r_hold @ r_hold),
            a[:n_train], r_train)


def _standardize(matrix: np.ndarray):
    mean = matrix.mean(axis=0)
    sd = matrix.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mean, sd


def train(frame: ModelFrame,
          config: AnnConfig = AnnConfig()) -> tuple[AnnModel, TrainingTrace]:
    """Train on a frame's non-intercept columns against ln(effort).

    The holdout rows are a seeded random fifth of the data (by default);
    input standardization uses training rows only. Returns the weights
    with the best holdout error seen, not the last iterate.
    """
    if config.max_iterations < 0:
        raise DomainError("max_iterations must be >= 0")
    if config.seed < 0:
        raise DomainError("seed must be >= 0")
    if not 0.0 < config.holdout_fraction < 0.5:
        raise DomainError("holdout_fraction must be in (0, 0.5)")
    feature_columns = frame.predictor_columns()
    if not feature_columns:
        raise DomainError("frame has no predictor columns")
    keep = [frame.columns.index(c) for c in feature_columns]
    X_all = frame.matrix[:, keep]
    y_all = frame.response
    n = len(y_all)
    if n < 10:
        raise InsufficientDataError(f"need at least 10 records, got {n}")

    rng = np.random.default_rng(config.seed)
    k = max(1, round(config.holdout_fraction * n))
    order = rng.permutation(n)
    holdout_idx = np.sort(order[:k])
    train_idx = np.sort(order[k:])

    mean, sd = _standardize(X_all[train_idx])
    # training rows first, then holdout rows: one hidden pass covers both
    fit_idx = np.concatenate([train_idx, holdout_idx])
    Z_fit = (X_all[fit_idx] - mean) / sd
    y_fit = y_all[fit_idx]
    n_train = len(train_idx)
    Z_train = Z_fit[:n_train]

    d = len(feature_columns)
    h = config.hidden_nodes if config.hidden_nodes is not None else d
    if h < 1:
        raise DomainError("hidden_nodes must be >= 1")
    w = init_network(d, h, config.seed)
    n_params = len(w)

    loss, hold_sse, a, r = _evaluate(w, Z_fit, y_fit, n_train, h)
    train_hist = [2.0 * loss]
    hold_hist = [hold_sse]
    best_sse = hold_sse
    # w is only ever rebound to a new array, never written in place
    best_w = w
    best_iter = 0
    patience = 0
    stop = STOP_MAX_ITERATIONS

    g = _backprop(w, Z_train, a, r, h)
    direction = -g
    step = 0.5  # so the first search starts at 1
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        g_sq = float(g @ g)
        if math.sqrt(g_sq) < config.min_gradient:
            stop = STOP_GRADIENT_BELOW_MIN
            break

        slope = float(g @ direction)
        if slope >= 0.0:
            direction = -g
            slope = float(g @ direction)

        step = min(1.0, 2.0 * step)
        w_new = w + step * direction
        new_loss, hold_sse, a, r = _evaluate(w_new, Z_fit, y_fit, n_train, h)
        while new_loss > loss + _ARMIJO_C * step * slope:
            step *= 0.5
            if step < _MIN_STEP:
                break
            w_new = w + step * direction
            new_loss, hold_sse, a, r = _evaluate(w_new, Z_fit, y_fit,
                                                 n_train, h)
        if step < _MIN_STEP:
            stop = STOP_IMPROVEMENT_BELOW_DELTA
            break

        w = w_new
        g_new = _backprop(w, Z_train, a, r, h)
        if it % n_params == 0:
            beta = 0.0
        else:
            beta = max(0.0, float(g_new @ (g_new - g)) / g_sq)
        direction = -g_new + beta * direction
        g = g_new
        iterations = it

        improvement = loss - new_loss
        relative = improvement / max(loss, _MIN_STEP)
        loss = new_loss
        train_hist.append(2.0 * loss)
        hold_hist.append(hold_sse)

        if hold_sse < best_sse:
            best_sse = hold_sse
            best_w = w
            best_iter = it
            patience = 0
        else:
            patience += 1
            if patience >= HOLDOUT_PATIENCE:
                stop = STOP_HOLDOUT_WORSENING
                break

        if (improvement < config.min_improvement_delta
                or relative < config.convergence_tolerance):
            stop = STOP_IMPROVEMENT_BELOW_DELTA
            break

    model = AnnModel(
        weights=best_w,
        hidden_nodes=h,
        feature_columns=feature_columns,
        input_mean=mean,
        input_sd=sd,
        config=config,
    )
    trace = TrainingTrace(
        iterations=iterations,
        stop_reason=stop,
        train_sse=tuple(train_hist),
        holdout_sse=tuple(hold_hist),
        best_holdout_sse=best_sse,
        best_iteration=best_iter,
    )
    return model, trace


def predict_frame(model: AnnModel, frame: ModelFrame) -> np.ndarray:
    """Raw effort predictions for every row of a frame."""
    keep = [frame.columns.index(c) for c in model.feature_columns]
    Z = (frame.matrix[:, keep] - model.input_mean) / model.input_sd
    return np.exp(forward(model.weights, Z, model.hidden_nodes))


def predict_effort_ann(model: AnnModel, record: ProjectRecord) -> float:
    """Raw effort prediction for a single record."""
    row = feature_row(model.feature_columns, record)
    z = (row - model.input_mean) / model.input_sd
    return float(np.exp(forward(model.weights, z, model.hidden_nodes))[0])
