"""Trainers: MAML, FOMAML, TB-MAML plus conventional and transfer baselines.

The meta-learners share one inner adaptation (full-batch gradient descent
on a task's support set) and one outer update of the initialization, in
meta_train: the meta-gradient of the post-adaptation query losses
(_meta_gradients), rescaled per coordinate by Adam and scaled by a step
size. The three algorithms differ in nothing else. MAML differentiates the
query loss through the adaptation (second-order); FOMAML takes the query
gradient at the adapted weights and applies it to the initialization
unchanged; TB-MAML is per-task second-order MAML whose outer step size is
biased by a per-task importance weight u in [-1, 1]:

    step_j = beta + gamma * u_j

Both baselines (train_baseline) and the importance vector share one
cross-transfer primitive, cross_transfer: fit a fresh model on a source
batch, fine-tune a copy on each target's support, and score it.
Conventional is the case without a source: 0 source epochs. The
importance vector is computed once, up front: train a model per task,
measure how well each transfers to every other task's few-shot split,
min-max the per-task average losses to [-1, 1] and negate (low transfer
loss means high importance).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .autodiff import Tensor, grad, no_grad
from .model import init_params, loss as model_loss, predict_positions, sgd_step
from .seeding import substream, substream_int
from .tasks import Scenario, batch_from, split_task

logger = logging.getLogger(__name__)

__all__ = [
    "MetaConfig",
    "ImportanceVector",
    "TaskData",
    "build_task_data",
    "inner_adapt",
    "Adam",
    "fit_params",
    "cross_transfer",
    "pick_transfer_source",
    "importance_from_losses",
    "compute_importance",
    "meta_train",
    "train_baseline",
    "adapt_and_eval",
    "META_ALGORITHMS",
]

META_ALGORITHMS = ("maml", "fomaml", "tb-maml")

CONVERGENCE_WINDOW, CONVERGENCE_RTOL = 50, 1e-3  # meta_train's early stop; see its docstring
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass(frozen=True)
class MetaConfig:
    """Frozen step sizes, budgets and seeds shared by every trainer; change
    a field with dataclasses.replace, which runs the checks again.

    alpha: inner (adaptation) step size.
    beta: outer meta-step size.
    gamma: importance-bias intensity; kept <= beta so beta + gamma*u stays
        non-negative for u in [-1, 1].
    """

    alpha: float = 0.01
    beta: float = 0.001
    gamma: float = 0.0005
    inner_steps: int = 5
    shots: int = 5
    meta_iterations: int = 1000
    meta_batch_size: int = 4
    seed: int = 0
    importance_epochs: int = 300
    baseline_epochs: int = 500
    baseline_lr: float = 0.03
    finetune_epochs: int = 100

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(f"alpha and beta must be > 0 (got {self.alpha}, {self.beta})")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.gamma > self.beta:
            raise ValueError(
                f"gamma must be <= beta to keep the biased step non-negative "
                f"(got gamma={self.gamma}, beta={self.beta})"
            )
        for name, least in (
            ("inner_steps", 0), ("shots", 0), ("meta_iterations", 0), ("importance_epochs", 0),
            ("baseline_epochs", 0), ("finetune_epochs", 0),
            ("meta_batch_size", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not self.baseline_lr > 0:
            raise ValueError(f"baseline_lr must be > 0, got {self.baseline_lr}")
        for name in ("alpha", "beta", "gamma", "baseline_lr"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class ImportanceVector:
    """Per-training-task importance weights with their audit trail.

    values: u per task, in [-1, 1], aligned to the task order used to
        compute them; all zeros when every average loss is equal.
    average_losses: the per-task cross-transfer average loss vector.
    loss_matrix: cell (i, j) is the loss of the model trained on task i
        after fine-tuning on task j's support (NaN on the diagonal).
    task_ids: the scenario ids of that task order; meta_train requires
        them to equal its training scenario ids.
    """

    values: np.ndarray
    average_losses: np.ndarray
    loss_matrix: np.ndarray
    task_ids: list


@dataclass
class TaskData:
    """One task's split, stacked into normalized training batches."""

    scenario_id: str
    support: tuple  # (X, Y)
    query: tuple  # (X, Y)


def build_task_data(scenario: Scenario, shots: int, seed: int) -> TaskData:
    """Split a scenario with a seed derived from (seed, scenario id, shots).

    The derivation ignores everything else about the run, so any two
    trainers handed the same seed see identical support/query sets.
    """
    support, query = split_task(scenario, shots, substream_int(seed, "split", scenario.id, shots))
    return TaskData(scenario.id, batch_from(support), batch_from(query))


# looks model_loss up at call time, so a rebinding of meta.model_loss (the
# benchmark tracer's) is seen, which a default argument of model_loss would miss
def _default_loss(params: dict, batch) -> Tensor:
    return model_loss(params, batch)


def inner_adapt(
    params: dict,
    support,
    alpha: float,
    steps: int,
    create_graph: bool = False,
    loss_fn: Callable = _default_loss,
) -> dict:
    """`steps` full-batch gradient-descent steps on the support loss.

    With create_graph=True the produced parameters stay differentiable
    with respect to the originals, which is what lets the outer update
    include the second-order term.
    """
    current = params
    for _ in range(steps):
        task_loss = loss_fn(current, support)
        grads = grad(task_loss, current.values(), create_graph=create_graph)
        current = sgd_step(current, grads, alpha, graph=create_graph)
    return current


class Adam:
    """Full-batch Adam, the one optimizer of every training phase.

    fit_params runs it at a learning rate for the baseline, transfer-source
    and importance fits. meta_train runs it as the outer step: it rescales
    the meta-gradient per coordinate and applies the algorithm's step size,
    beta or beta + gamma*u for the importance-biased trainer. A plain outer
    rule cannot cross the cm^2 loss surface: gradient magnitudes differ by
    4+ orders between the head and the conv stack, so any single step size
    either freezes the features or explodes the head. The step size scales
    the rescaled direction linearly, so the per-task step modulation and the
    identities between the trainers hold on this step as on the plain rule.
    """

    def __init__(self, params: dict):
        self.m = [np.zeros_like(t.data) for t in params.values()]
        self.v = [np.zeros_like(t.data) for t in params.values()]
        self.t = 0

    def step(self, params: dict, grads, lr: float) -> dict:
        """New leaf parameters after one step; aborts on non-finite values."""
        self.t += 1
        directions = []
        for i, g in enumerate(grads):
            self.m[i] = ADAM_B1 * self.m[i] + (1 - ADAM_B1) * g.data
            self.v[i] = ADAM_B2 * self.v[i] + (1 - ADAM_B2) * g.data**2
            m_hat = self.m[i] / (1 - ADAM_B1**self.t)
            v_hat = self.v[i] / (1 - ADAM_B2**self.t)
            directions.append(Tensor(m_hat / (np.sqrt(v_hat) + ADAM_EPS)))
        return sgd_step(params, directions, lr, graph=False)


def fit_params(params: dict, batch, epochs: int, lr: float) -> dict:
    """Full-batch Adam fit, for the non-meta training phases.

    The adaptation path must stay plain gradient descent (its update rule
    is part of the meta-objective), but baseline/source/importance-phase
    training just needs to fit a scenario; plain GD is hopeless on a
    cm^2-scale MSE surface, Adam is not. Deterministic: no minibatching.
    An empty batch, like 0 epochs, returns params unchanged.
    """
    if epochs <= 0 or len(batch[1]) == 0:
        return params
    optimizer = Adam(params)
    current = params
    for _ in range(epochs):
        # task_loss keeps this epoch's graph alive until the next forward pass:
        # freed at once, malloc trims the heap top every epoch and the page
        # faults on regrowth slow compute_importance by about a quarter
        task_loss = model_loss(current, batch)
        current = optimizer.step(current, grad(task_loss, current.values()), lr)
    return current


def cross_transfer(
    init_seed: int, source, targets: Iterable[TaskData],
    source_epochs: int, finetune_epochs: int, lr: float, score: Callable,
) -> list:
    """Fit a fresh model on a source batch, then per target fine-tune and score.

    The model starts from init_params(init_seed) and is fit on the source
    (X, Y) batch for source_epochs; at 0 source epochs `source` is never
    read and may be None. For each target a copy is fine-tuned on the
    target's support for finetune_epochs, and score(params, target) is
    returned, in target order. targets is read once, in order, so a
    generator may build each target as it is reached.
    """
    base = fit_params(init_params(init_seed), source, source_epochs, lr)
    scores = []
    for target in targets:
        scores.append(score(fit_params(base, target.support, finetune_epochs, lr), target))
        del target  # so a generator builds the next target where this one was
    return scores


def pick_transfer_source(candidates: Sequence[Scenario], seed: int) -> Scenario:
    """The transfer baseline's source scenario, drawn from the seed's own substream."""
    if not candidates:
        raise ValueError("transfer needs at least 1 source scenario, got 0")
    return candidates[int(substream(seed, "transfer-source").integers(len(candidates)))]


def _task_gradient(cell):
    """One task's share of a meta-gradient: (gradient arrays, query loss).

    cell is (params, task, cfg, second_order, loss_fn), with params a dict
    of name -> array, so a pool cell pickles no Tensor. The task's graph
    dies when this returns.
    """
    arrays, task, cfg, second_order, loss_fn = cell
    params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    adapted = inner_adapt(
        params, task.support, cfg.alpha, cfg.inner_steps, create_graph=second_order, loss_fn=loss_fn,
    )
    q = loss_fn(adapted, task.query)
    return [g.data for g in grad(q, (params if second_order else adapted).values())], q.item()


def _task_gradients(cells) -> list:
    """_task_gradient of each cell in order, one task's graph at a time:
    one pool cell of a meta-batch."""
    return [_task_gradient(cell) for cell in cells]


def _meta_gradients(
    params: dict,
    tasks: Sequence[TaskData],
    cfg: MetaConfig,
    second_order: bool,
    loss_fn: Callable,
):
    """Gradient of the summed post-adaptation query loss w.r.t. params,
    and the query loss at each position of `tasks`.

    Second order differentiates through the adaptation; first order takes
    the query gradients at the adapted weights (which line up with the
    initialization tensor-for-tensor). Each distinct task is one
    _task_gradient call, and the gradients are summed in batch order.

    A task that appears more than once (the same TaskData object; tasks are
    keyed by identity, never compared with ==) is adapted and differentiated
    once, and its gradient and query loss are added again at each repeat,
    which gives the same sum and loss list, bit for bit, as adapting it
    every time.

    With 2 or more distinct tasks, all but the first go to the pool
    (evaluation._map_cells), and the caller adapts the first meanwhile; a
    batch of one distinct task never touches the pool. The pool gets them
    as at most worker_count() cells, each a run of consecutive tasks that
    one worker adapts in order (_task_gradients), so the batch and the
    no-op that follows it fit the executor's call queue at once. Every
    process computes at one BLAS thread, so where a task runs changes no
    bit. The caller builds one graph, its first task's, which dies once
    its gradient is taken, and holds each distinct task's gradient arrays
    until the sum is done. In a pool worker, or at one worker, the other
    tasks run inline after the first, one graph at a time.
    """
    from . import evaluation  # evaluation imports this module

    distinct = list({id(task): task for task in tasks}.values())
    arrays = {name: p.data for name, p in params.items()}
    cells = [(arrays, task, cfg, second_order, loss_fn) for task in distinct]
    rest, workers = cells[1:], evaluation.worker_count()
    size = max(1, -(-len(rest) // workers))  # ceil, and 1 for no rest
    runs = [rest[i : i + size] for i in range(0, len(rest), size)]
    others = evaluation._map_cells(_task_gradients, runs, workers) if runs else ()
    first = _task_gradient(cells[0])
    results = {id(task): result for task, result in zip(distinct, [first, *itertools.chain(*others)])}
    grads, query_losses = None, []
    for task in tasks:
        g, loss_value = results[id(task)]
        query_losses.append(loss_value)
        grads = g if grads is None else [a + b for a, b in zip(grads, g)]
    return [Tensor(g) for g in grads], query_losses


def effective_step(cfg: MetaConfig, importance: float) -> float:
    return cfg.beta + cfg.gamma * importance


def importance_from_losses(average_losses) -> np.ndarray:
    """Min-max the loss vector to [-1, 1], then negate.

    Lower cross-task loss means the task's model transfers better, so it
    gets higher importance. All-equal losses map to all zeros.
    """
    losses = np.asarray(average_losses, dtype=np.float64)
    lo, hi = losses.min(), losses.max()
    if hi == lo:
        return np.zeros_like(losses)
    return -(2.0 * (losses - lo) / (hi - lo) - 1.0)


def _query_loss(params: dict, task: TaskData) -> float:
    with no_grad():
        return model_loss(params, task.query).item()


def _importance_row(cell) -> list:
    """Row i of the importance loss matrix, without its diagonal entry.

    cell is (cfg, i, scenarios), with scenarios the caller's list, shared
    by every row. The row builds task i's full-scenario batch and, one at
    a time as cross_transfer reaches them, the other tasks' few-shot
    splits, so a split dies once it is scored. The same code runs in a
    pool worker and inline.
    """
    cfg, i, scenarios = cell
    targets = (build_task_data(s, cfg.shots, cfg.seed) for j, s in enumerate(scenarios) if j != i)
    return cross_transfer(
        substream_int(cfg.seed, "importance-init", i), batch_from(scenarios[i].samples), targets,
        cfg.importance_epochs, cfg.inner_steps, cfg.baseline_lr, _query_loss,
    )


def compute_importance(scenarios: Sequence[Scenario], cfg: MetaConfig) -> ImportanceVector:
    """Cross-transfer importance over the meta-training tasks.

    For each task i: train a fresh model on all of task i's samples for a
    fixed number of epochs; for each j != i fine-tune a copy on task j's
    k-shot support and evaluate on task j's query. Tasks whose models
    transfer well (low average loss) get importance near +1.

    Each row i is one experiment cell (evaluation._run_cells), (cfg, i,
    scenarios), which builds its own batch and splits (_importance_row):
    this function builds none, and a row's batches die with the row. The
    n rows build n(n-1) splits, against n if they were built here once.
    A script that calls this, meta_train("tb-maml") without an importance
    vector, or meta_train("maml"|"fomaml") at more than 1 worker keeps
    the call under an `if __name__ == "__main__":` guard.
    """
    from . import evaluation  # evaluation imports this module

    n = len(scenarios)
    if n < 2:
        raise ValueError(f"importance needs at least 2 training tasks, got {n}")
    cells = [(cfg, i, scenarios) for i in range(n)]
    rows = evaluation._run_cells(_importance_row, cells, evaluation.worker_count())
    matrix = np.full((n, n), np.nan)
    for i, row in enumerate(rows):
        matrix[i, [j for j in range(n) if j != i]] = row
    average = np.nanmean(matrix, axis=1)
    return ImportanceVector(
        values=importance_from_losses(average),
        average_losses=average,
        loss_matrix=matrix,
        task_ids=[s.id for s in scenarios],
    )


def _check_meta_train(
    algorithm: str, scenarios: Sequence[Scenario], cfg: MetaConfig,
    importance: Optional[ImportanceVector] = None,
) -> None:
    """meta_train's checks of its arguments, which need no computation; a
    caller that computes an importance vector for meta_train runs them first."""
    if algorithm not in META_ALGORITHMS:
        raise ValueError(f"unknown meta algorithm {algorithm!r}; expected {META_ALGORITHMS}")
    if not scenarios:
        raise ValueError("meta_train: empty meta-training set")
    if cfg.shots < 1:
        raise ValueError(
            f"meta_train needs shots >= 1: the inner adaptation fits each task's "
            f"support set, which is empty at shots={cfg.shots}"
        )
    if algorithm != "tb-maml" and importance is not None:
        raise ValueError(f"{algorithm} takes no importance vector; only tb-maml biases its steps by one")


def meta_train(
    algorithm: str,
    scenarios: Sequence[Scenario],
    cfg: MetaConfig,
    importance: Optional[ImportanceVector] = None,
    trace: Optional[list] = None,
    stop: Optional[dict] = None,
) -> dict:
    """Run one meta-training loop and return the learned initialization.

    scenarios are the meta-training tasks. Stops after meta_iterations, or
    earlier once the mean query loss over the last CONVERGENCE_WINDOW (50)
    iterations improves on the mean over the window before it by less than
    CONVERGENCE_RTOL (1e-3) times that earlier mean: a relative rule, so
    it reads the same on any loss scale. The first check comes after
    2 * CONVERGENCE_WINDOW iterations. Appends (iteration, task_id,
    query_loss) rows to `trace` when given. Fills `stop`, when given, with
    why training stopped, as one of three records:
    - {"reason": "budget", "iterations": n} once meta_iterations are spent;
    - {"reason": "converged", "iterations": n, "window_means": [earlier,
      last]} when the last window's mean is at most the earlier one but
      improves on it by less than the rule asks;
    - {"reason": "worsened", "iterations": n, "window_means": [earlier,
      last]} when the last window's mean is above the earlier one, which
      is also logged as a warning.
    The stopping rule is the same for "converged" and "worsened".

    Each iteration samples meta_batch_size tasks with replacement. MAML
    and FOMAML adapt and differentiate each distinct task of the batch
    once and count it at every position it was drawn (_meta_gradients),
    so a repeated task weighs as often as it was drawn and the trace has
    one row per draw. A batch of 2 or more distinct tasks runs all but
    the first in the evaluation pool of worker_count() workers, in
    parallel with the caller, so a script that calls this keeps the call
    under an `if __name__ == "__main__":` guard. TB-MAML steps after every
    task, one task at a time, in the caller. `importance` is for tb-maml
    only; MAML and FOMAML reject one.
    """
    scenarios = list(scenarios)
    _check_meta_train(algorithm, scenarios, cfg, importance)
    tasks = [build_task_data(s, cfg.shots, cfg.seed) for s in scenarios]

    if algorithm == "tb-maml":
        if importance is None:
            importance = compute_importance(scenarios, cfg)
        if len(importance.values) != len(tasks):
            raise ValueError(
                f"importance vector has {len(importance.values)} entries "
                f"for {len(tasks)} training tasks"
            )
        ids = [t.scenario_id for t in tasks]
        if list(importance.task_ids) != ids:
            raise ValueError(
                f"importance is for tasks {importance.task_ids}, not the training tasks {ids}"
            )
        if not np.all(np.abs(importance.values) <= 1.0):  # also false for NaN
            raise ValueError(f"importance values {importance.values} are not all finite and in [-1, 1]")

    params = init_params(substream_int(cfg.seed, "init"))
    sampler = substream(cfg.seed, "sampling")
    optimizer = Adam(params)
    second_order = algorithm != "fomaml"
    history: list = []
    window = CONVERGENCE_WINDOW

    def outer_update(current, batch, step_size):
        grads, losses = _meta_gradients(current, batch, cfg, second_order, _default_loss)
        return optimizer.step(current, grads, step_size), losses

    for iteration in range(cfg.meta_iterations):
        idx = sampler.integers(0, len(tasks), size=cfg.meta_batch_size)
        if algorithm == "tb-maml":
            losses = []
            for i in idx:
                step_size = effective_step(cfg, float(importance.values[i]))
                params, q = outer_update(params, [tasks[i]], step_size)
                losses.extend(q)
        else:
            params, losses = outer_update(params, [tasks[i] for i in idx], cfg.beta)
        if trace is not None:
            for i, q in zip(idx, losses):
                trace.append((iteration, tasks[i].scenario_id, q))
        history.append(float(np.mean(losses)))
        if len(history) >= 2 * window:
            recent = float(np.mean(history[-window:]))
            previous = float(np.mean(history[-2 * window : -window]))
            if previous - recent < CONVERGENCE_RTOL * previous:
                reason = "worsened" if recent > previous else "converged"
                (logger.warning if reason == "worsened" else logger.info)(
                    "%s %s after %d iterations (window avg %.6g -> %.6g)",
                    algorithm, reason, iteration + 1, previous, recent,
                )
                record = {"reason": reason, "iterations": iteration + 1, "window_means": [previous, recent]}
                break
    else:
        record = {"reason": "budget", "iterations": cfg.meta_iterations}
    if stop is not None:
        stop.update(record)
    return params


def train_baseline(
    source: Optional[Scenario], targets: Sequence[TaskData], cfg: MetaConfig,
    score: Callable = lambda tuned, _: tuned,
) -> list:
    """score(params, target) of a baseline per target; by default the params.

    Transfer (a source scenario) fits all of the source for baseline_epochs,
    then fine-tunes a copy on each target's support for finetune_epochs.
    Conventional (source None) fits only each target's support, for
    baseline_epochs. Both start from the seed's "init" substream.
    """
    batch = None if source is None else batch_from(source.samples)
    epochs = (0, cfg.baseline_epochs) if source is None else (cfg.baseline_epochs, cfg.finetune_epochs)
    return cross_transfer(substream_int(cfg.seed, "init"), batch, targets, *epochs, cfg.baseline_lr, score)


def adapt_and_eval(params: dict, task: TaskData, cfg: MetaConfig) -> np.ndarray:
    """Adapt on the test task's support, then distance errors on its query (cm)."""
    adapted = params
    if task.support[0].shape[0]:
        adapted = inner_adapt(params, task.support, cfg.alpha, cfg.inner_steps)
    xq, yq = task.query
    preds = predict_positions(adapted, xq)
    return np.linalg.norm(preds - yq, axis=1)
