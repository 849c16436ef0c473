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

Networks train in lockstep, up to _SEED_BLOCK at a time. A job is one
(frame, seed) pair, and the jobs of frames with the same row and
predictor counts (so networks of one shape) share blocks, whichever
frame they came from. Each live job has exactly one pending trial, its
current line-search step or the first step of its next iteration, so a
round is one _evaluate over the stacked trials, each job's own Armijo
test, and one _backprop over the jobs that accepted. Step, slope,
restarts, patience and stopping stay per job; a job that stops leaves
the stacks. The bits are those of the job trained alone: a stacked
np.matmul makes the 2-D product's BLAS call slice by slice, numpy
computes a per-job (1, P) @ (P, 1) product as the 1-D dot, and each sum
reduces the same axis of each slice. np.einsum and reordered sums round
differently. Predictions stack the same way: one forward pass scores
up to _SEED_BLOCK networks trained on a frame.

The kernels are tuned for small arrays but stay bit-identical to the
reference formulas; tests/test_ann.py and tests/golden/ pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .regression import ModelFrame

STOP_MAX_ITERATIONS = "max_iterations"
STOP_GRADIENT_BELOW_MIN = "gradient_below_min"
STOP_IMPROVEMENT_BELOW_DELTA = "improvement_below_delta"
STOP_HOLDOUT_WORSENING = "holdout_worsening"

# The paper's holdout share and stopping thresholds.
HOLDOUT_FRACTION = 0.20
HOLDOUT_PATIENCE = 50
MIN_GRADIENT = 1e-6
MIN_IMPROVEMENT_DELTA = 1e-6
CONVERGENCE_TOLERANCE = 1e-5

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-20

# Jobs stacked in one lockstep block, and networks in one scoring pass.
# The cost per training is flat from 20 jobs up, so larger blocks would
# only hold more memory; 64 holds the three five-input scenarios of a
# 20-seed ablation in one block.
_SEED_BLOCK = 64


@dataclass(frozen=True, slots=True)
class AnnConfig:
    """Training knobs. hidden_nodes=None means one node per input."""

    hidden_nodes: int | None = None
    max_iterations: int = 10000


@dataclass(frozen=True, eq=False)
class AnnModel:
    weights: np.ndarray
    hidden_nodes: int
    feature_columns: tuple[str, ...]
    input_mean: np.ndarray
    input_sd: np.ndarray
    config: AnnConfig
    seed: int


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


def _init_network(n_inputs: int, hidden_nodes: int,
                  seed: int) -> np.ndarray:
    """Flat weight vector drawn uniformly from [-0.5, 0.5].

    Layout: hidden weights (row-major, one row per hidden node), hidden
    biases, output weights, output bias.
    """
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, parameter_count(n_inputs, hidden_nodes))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic of z, written over z and returned."""
    # e = exp(-|z|) cannot overflow: 1/(1+e) for z >= 0, e/(1+e) below;
    # e <= 1, so the maximum picks 1.0 or e exactly, without a branch.
    # In place, a stack of networks makes one temporary the size of z,
    # not six: freeing several can hand the heap back to the system, and
    # the next round would fault its pages in again.
    numerator = (z >= 0).astype(float)
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    np.maximum(e, numerator, out=numerator)
    return np.divide(numerator, np.add(e, 1.0, out=e), out=e)


# The kernels take one network's parameters (P,) with inputs (n, d), or a
# stack (S, P) with inputs (S, n, d).

def _hidden(params: np.ndarray, X: np.ndarray, h: int) -> np.ndarray:
    # hidden weights (h rows of X's width) and biases lead the layout
    hd = h * X.shape[-1]
    w = params[..., :hd].reshape(*params.shape[:-1], h, -1)
    z = X @ w.swapaxes(-1, -2)
    z += params[..., None, hd:hd + h]
    return _sigmoid(z)


def _output(params: np.ndarray, a: np.ndarray, h: int) -> np.ndarray:
    # output weights and bias are the last h + 1 parameters
    return (a @ params[..., -1 - h:-1, None])[..., 0] + params[..., -1:]


def _backprop(params: np.ndarray, X: np.ndarray, activations: np.ndarray,
              delta_out: np.ndarray, h: int) -> np.ndarray:
    g_w_out = (activations.swapaxes(-1, -2) @ delta_out[..., None])[..., 0]
    delta_hidden = delta_out[..., None] * params[..., None, -1 - h:-1]
    delta_hidden *= activations
    delta_hidden *= 1 - activations
    g_w_hidden = delta_hidden.swapaxes(-1, -2) @ X
    return np.concatenate([
        g_w_hidden.reshape(*params.shape[:-1], -1),
        delta_hidden.sum(axis=-2), g_w_out,
        delta_out.sum(axis=-1, keepdims=True),
    ], axis=-1)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one dot product per stacked row
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def forward(params: np.ndarray, inputs: np.ndarray,
            hidden_nodes: int) -> np.ndarray:
    """Network outputs (ln-effort scale) for standardized inputs."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    return _output(params, _hidden(params, X, hidden_nodes), hidden_nodes)


def gradient(params: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
             hidden_nodes: int) -> np.ndarray:
    """Gradient of half the sum of squared errors, by backpropagation."""
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    activations = _hidden(params, X, hidden_nodes)
    delta_out = (_output(params, activations, hidden_nodes)
                 - np.asarray(targets, dtype=float))
    return _backprop(params, X, activations, delta_out, hidden_nodes)


def _evaluate(W: np.ndarray, Z: np.ndarray, Y: np.ndarray, n_train: int,
              h: int):
    """Per stacked network: half training SSE, holdout SSE, training
    activations and residuals."""
    a = _hidden(W, Z, h)
    r_train = _output(W, a[:, :n_train], h) - Y[:, :n_train]
    r_hold = _output(W, a[:, n_train:], h) - Y[:, n_train:]
    return (0.5 * _dots(r_train, r_train), _dots(r_hold, r_hold),
            a[:, :n_train], r_train)


def _standardize(matrix: np.ndarray):
    """Each column's mean and sd over the rows. A column that is constant
    on its values has sd 1 and its value as the mean, so that its input
    is exactly 0: the sd of a constant column is often rounding noise,
    not 0."""
    low, high = matrix.min(axis=0), matrix.max(axis=0)
    constant = low == high
    return (np.where(constant, low, matrix.mean(axis=0)),
            np.where(constant, 1.0, matrix.std(axis=0)))


def check_config(config: AnnConfig, seeds: Sequence[int]) -> None:
    """Raise DomainError for settings that no training accepts."""
    if config.max_iterations < 0:
        raise DomainError("max_iterations must be >= 0")
    if not seeds:
        raise DomainError("need at least one seed")
    if any(seed < 0 for seed in seeds):
        raise DomainError("seed must be >= 0")
    if config.hidden_nodes is not None and config.hidden_nodes < 1:
        raise DomainError("hidden_nodes must be >= 1")


def train(frame: ModelFrame, config: AnnConfig = AnnConfig(),
          seed: int = 0) -> tuple[AnnModel, TrainingTrace]:
    """Train on a frame's non-intercept columns against ln(effort).

    The seed draws the initial weights and the holdout rows, a random
    fifth of the data; input standardization uses training rows only.
    Returns the weights with the best holdout error seen, not the last
    iterate.
    """
    return _train_frames([frame], config, [seed])[0][0]


def _train_frames(frames: Sequence[ModelFrame], config: AnnConfig,
                  seeds: Sequence[int]
                  ) -> list[list[tuple[AnnModel, TrainingTrace]]]:
    """What train gives for each frame and seed: one list per frame, in
    the order of the frames, of one result per seed, in the order of the
    seeds.

    The config, every seed and then every frame are checked before any
    training. A job is one (frame, seed) pair; the jobs of frames with
    the same row and predictor counts train in lockstep, a block at a
    time, frame by frame and seed by seed.
    """
    check_config(config, seeds)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, frame in enumerate(frames):
        width = len(frame.predictor_columns())
        if not width:
            raise DomainError("frame has no predictor columns")
        n = len(frame.response)
        if n < 10:
            raise DomainError(f"need at least 10 records, got {n}")
        groups.setdefault((n, width), []).extend((i, seed) for seed in seeds)
    trained: list[list[tuple[AnnModel, TrainingTrace]]] = [[] for _ in frames]
    for jobs in groups.values():
        for b in range(0, len(jobs), _SEED_BLOCK):
            block = jobs[b:b + _SEED_BLOCK]
            results = _train_block([(frames[i], seed) for i, seed in block],
                                   config)
            for (i, _), result in zip(block, results):
                trained[i].append(result)
    return trained


@dataclass(slots=True, eq=False)
class _Run:
    """The state of one seed's training that is not stacked."""

    loss: float
    best: float
    best_w: np.ndarray
    train_hist: list[float]
    hold_hist: list[float]
    step: float = 0.5  # so the first search starts at 1
    slope: float = 0.0
    g_sq: float = 0.0
    iterations: int = 0
    best_iter: int = 0
    patience: int = 0
    stop: str = ""


def _train_block(jobs: Sequence[tuple[ModelFrame, int]], config: AnnConfig
                 ) -> list[tuple[AnnModel, TrainingTrace]]:
    """Train one network per (frame, seed) job, all together; the frames
    have the same row and predictor counts."""
    first = jobs[0][0]
    n, d, S = len(first.response), len(first.predictor_columns()), len(jobs)
    h = config.hidden_nodes if config.hidden_nodes is not None else d
    k = max(1, round(HOLDOUT_FRACTION * n))
    n_train = n - k
    n_params = parameter_count(d, h)
    Z, Y, W = np.empty((S, n, d)), np.empty((S, n)), np.empty((S, n_params))
    inputs = []  # each job's feature columns, input mean and input sd
    for i, (frame, seed) in enumerate(jobs):
        columns = frame.predictor_columns()
        X_all = frame.matrix[:, [frame.columns.index(c) for c in columns]]
        order = np.random.default_rng(seed).permutation(n)
        holdout_idx, train_idx = np.sort(order[:k]), np.sort(order[k:])
        mean, sd = _standardize(X_all[train_idx])
        inputs.append((columns, mean, sd))
        # training rows first, then holdout rows: one hidden pass covers both
        fit_idx = np.concatenate([train_idx, holdout_idx])
        Z[i] = (X_all[fit_idx] - mean) / sd
        Y[i] = frame.response[fit_idx]
        W[i] = _init_network(d, h, seed)

    loss, hold, A, R = _evaluate(W, Z, Y, n_train, h)
    # W is written in place below, so the best weights are copies
    runs = [_Run(v, s, w.copy(), [2.0 * v], [s])
            for v, s, w in zip(loss.tolist(), hold.tolist(), W)]
    live = runs
    G = _backprop(W, Z[:, :n_train], A, R, h)
    D = -G
    # positions of the runs that accepted their step, with their new G, D
    go, G_go, D_go = list(range(len(runs))), G, D
    while True:
        if go:  # the runs that go on begin their next iteration
            for j, g_sq, slope in zip(go, _dots(G_go, G_go).tolist(),
                                      _dots(G_go, D_go).tolist()):
                run = live[j]
                if run.stop:
                    continue
                if run.iterations >= config.max_iterations:
                    run.stop = STOP_MAX_ITERATIONS
                elif math.sqrt(g_sq) < MIN_GRADIENT:
                    run.stop = STOP_GRADIENT_BELOW_MIN
                else:
                    if slope >= 0.0:
                        D[j] = -G[j]
                        slope = float(G[j] @ D[j])
                    run.g_sq, run.slope = g_sq, slope
                    run.step = min(1.0, 2.0 * run.step)
        alive = [j for j, run in enumerate(live) if not run.stop]
        if not alive:
            break
        if len(alive) < len(live):
            live = [live[j] for j in alive]
            Z, Y, W, D, G = Z[alive], Y[alive], W[alive], D[alive], G[alive]

        T = W + np.array([run.step for run in live])[:, None] * D
        del A, R  # so that two trials' activations are never held at once
        new_loss, hold, A, R = _evaluate(T, Z, Y, n_train, h)
        new_loss, hold = new_loss.tolist(), hold.tolist()
        go = []
        for j, run in enumerate(live):
            if new_loss[j] > run.loss + _ARMIJO_C * run.step * run.slope:
                run.step *= 0.5
                if run.step < _MIN_STEP:
                    run.stop = STOP_IMPROVEMENT_BELOW_DELTA
            else:
                go.append(j)
        if not go:
            continue
        rows = slice(None) if len(go) == len(live) else np.array(go)
        T_go = T[rows]
        G_go = _backprop(T_go, Z[rows, :n_train], A[rows], R[rows], h)
        betas = []
        for j, num in zip(go, _dots(G_go, G_go - G[rows]).tolist()):
            run = live[j]
            run.iterations += 1
            betas.append(0.0 if run.iterations % n_params == 0
                         else max(0.0, num / run.g_sq))
            improvement = run.loss - new_loss[j]
            relative = improvement / max(run.loss, _MIN_STEP)
            run.loss = new_loss[j]
            run.train_hist.append(2.0 * run.loss)
            run.hold_hist.append(hold[j])
            if hold[j] < run.best:
                run.best, run.best_w = hold[j], T[j].copy()
                run.best_iter, run.patience = run.iterations, 0
            else:
                run.patience += 1
                if run.patience >= HOLDOUT_PATIENCE:
                    run.stop = STOP_HOLDOUT_WORSENING
            if not run.stop and (improvement < MIN_IMPROVEMENT_DELTA
                                 or relative < CONVERGENCE_TOLERANCE):
                run.stop = STOP_IMPROVEMENT_BELOW_DELTA
        D_go = -G_go + np.array(betas)[:, None] * D[rows]
        W[rows], D[rows], G[rows] = T_go, D_go, G_go
    return [(AnnModel(weights=run.best_w, hidden_nodes=h,
                      feature_columns=columns, input_mean=mean,
                      input_sd=sd, config=config, seed=seed),
             TrainingTrace(iterations=run.iterations, stop_reason=run.stop,
                           train_sse=tuple(run.train_hist),
                           holdout_sse=tuple(run.hold_hist),
                           best_holdout_sse=run.best,
                           best_iteration=run.best_iter))
            for run, (columns, mean, sd), (_, seed)
            in zip(runs, inputs, jobs)]


def predict_frame(model: AnnModel, frame: ModelFrame) -> np.ndarray:
    """Raw effort predictions for every row of a frame."""
    return next(_predict_frame([model], frame))


def _predict_frame(models: Sequence[AnnModel], frame: ModelFrame
                   ) -> Iterator[np.ndarray]:
    """predict_frame of each network, in order, from one stacked forward
    pass per _SEED_BLOCK networks; the networks share their feature
    columns and hidden nodes."""
    first = models[0]
    missing = [c for c in first.feature_columns if c not in frame.columns]
    if missing:
        raise DomainError("frame lacks the network's feature columns "
                          + ", ".join(map(repr, missing)))
    keep = [frame.columns.index(c) for c in first.feature_columns]
    X = frame.matrix[:, keep]
    for b in range(0, len(models), _SEED_BLOCK):
        block = models[b:b + _SEED_BLOCK]
        mean = np.array([model.input_mean for model in block])[:, None]
        sd = np.array([model.input_sd for model in block])[:, None]
        weights = np.array([model.weights for model in block])
        with np.errstate(over="ignore"):  # evaluate names an infinity
            predicted = np.exp(forward(weights, (X - mean) / sd,
                                       first.hidden_nodes))
        yield from predicted
