"""Metrics and the three benchmark experiments.

- cross_scenario_matrix: how badly a conventionally trained model
  degrades on other scenarios (the generalization gap).
- benchmark: the main few-shot comparison across algorithms and shot
  counts, pooled over seeded repeats that re-partition the scenarios.
- task_count_sweep: meta-learner error as the number of training tasks
  shrinks.

Every cell derives its randomness from (seed, repeat, scenario, shots)
substreams, never from the algorithm, so all algorithms see identical
partitions and identical k-shot support sets.

The benchmark and the sweep share one cell, _benchmark_cell: a repeat's
seeded partition and k-shot splits, then the errors of one algorithm on
the test tasks, as EvalReport entries. A sweep cell is a benchmark cell
at cfg.shots on a seeded subsample of the repeat's training scenarios.
The errors come from one function, _errors: it meta-trains a
meta-learner and adapts it to each test task, or trains a baseline with
meta.train_baseline and scores it without adaptation.

Each experiment is also a plan (benchmark_plan, matrix_plan,
sweep_plan): its cells plus a function that assembles the result from
their outputs. Each plan owns the checks of its experiment, lists them
in its docstring and runs them when it is built, raising a ValueError
that names the offending value and its allowed range; no caller repeats
them. run_plans runs the cells of any number of plans as one batch. Each
of the three experiment functions runs its own plan; `metaloc bench`
runs all three as one batch, so no worker idles at the end of one
experiment while another's cells wait.

Cells run in one pool of METALOC_THREADS spawned workers that starts on
first use and serves every later batch. Three kinds of batch use it: the
experiment cells (run_plans), the rows of meta.compute_importance, and
the distinct tasks but the first of a MAML or FOMAML meta-batch, which
the caller adapts itself meanwhile (meta._meta_gradients). An importance
row is sent the scenarios and builds its own batch and splits where it
runs, so the caller holds none of them. A batch inside a cell (a
benchmark cell's meta-training or tb-maml's importance vector), or at
one worker once BLAS is pinned, runs inline. Every process computes at
one BLAS thread, so results do not depend on the worker count. A worker
ignores SIGINT and numpy's floating-point warnings, and ends itself once
the process that started it is gone, so a killed command leaves none
behind; on a Ctrl-C, cli.main terminates the workers. A spawned worker
imports the caller's main module, so a script that calls an experiment,
run_plans, meta.compute_importance, meta.meta_train("tb-maml") without
an importance vector or meta.meta_train("maml"|"fomaml") at more than 1
worker keeps that call under an `if __name__ == "__main__":` guard.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _BLAS_PINNED, meta
from .meta import MetaConfig, adapt_and_eval, build_task_data, meta_train
from .model import predict_positions
from .seeding import substream, substream_int
from .tasks import Scenario, batch_from, partition_tasks

__all__ = [
    "ALL_ALGORITHMS",
    "DEFAULT_THRESHOLDS_CM",
    "EvalReport",
    "distances",
    "cdf",
    "cross_scenario_matrix",
    "benchmark",
    "task_count_sweep",
    "benchmark_plan",
    "matrix_plan",
    "sweep_plan",
    "run_plans",
    "worker_count",
]

ALL_ALGORITHMS = ("conventional", "transfer", "maml", "fomaml", "tb-maml")

DEFAULT_THRESHOLDS_CM = tuple(float(t) for t in range(0, 310, 10))


def distances(predicted: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distances in cm between predicted and true positions."""
    return np.linalg.norm(np.asarray(predicted) - np.asarray(labels), axis=1)


def _query_errors(params, task) -> np.ndarray:
    """Distance errors (cm) of params on the task's query set, without adaptation."""
    return distances(predict_positions(params, task.query[0]), task.query[1])


def cdf(errors, thresholds) -> np.ndarray:
    """Fraction of errors strictly below each threshold."""
    errs = np.asarray(errors, dtype=np.float64)
    if errs.size == 0:
        raise ValueError("cdf: empty error list")
    return np.array([float(np.mean(errs < t)) for t in thresholds])


@dataclass
class EvalReport:
    """Per-(algorithm, shots) error populations plus summaries.

    entries: records {algorithm, shots, repeat, scenario, errors}, as the
    benchmark cells return them.
    """

    entries: list = field(default_factory=list)

    def populations(self) -> dict:
        """{(algorithm, shots): pooled errors as float64}, in sorted key order."""
        pooled: dict = {}
        for e in self.entries:
            pooled.setdefault((e["algorithm"], e["shots"]), []).extend(e["errors"])
        return {key: np.asarray(pooled[key], dtype=np.float64) for key in sorted(pooled)}

    def summary(self) -> list:
        return [
            {
                "algorithm": algorithm,
                "shots": shots,
                "count": int(pop.size),
                "mean_cm": float(pop.mean()),
                "median_cm": float(np.median(pop)),
                "q25_cm": float(np.percentile(pop, 25)),
                "q75_cm": float(np.percentile(pop, 75)),
            }
            for (algorithm, shots), pop in self.populations().items()
        ]

    def cdf_table(self) -> list:
        """CDF rows per cell at DEFAULT_THRESHOLDS_CM, the last forced out to fraction 1.0."""
        rows = []
        for (algorithm, shots), pop in self.populations().items():
            ts = list(DEFAULT_THRESHOLDS_CM)
            top = float(np.floor(pop.max()) + 1.0)
            if ts[-1] <= pop.max():
                ts.append(top)
            for t, frac in zip(ts, cdf(pop, ts)):
                rows.append(
                    {
                        "algorithm": algorithm,
                        "shots": shots,
                        "threshold_cm": float(t),
                        "fraction": float(frac),
                    }
                )
        return rows


def worker_count() -> int:
    """Worker processes for the experiment cells.

    METALOC_THREADS, when set, must be a positive integer; anything else
    is a ValueError naming the variable and the value. Unset, it is the
    number of CPUs this process may run on.
    """
    raw = os.environ.get("METALOC_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"METALOC_THREADS must be a positive integer, got {raw!r}")
    return workers


_pool = None  # (workers, ProcessPoolExecutor) shared by every experiment in this process


def _init_worker() -> None:
    """Pool initializer. The worker ignores SIGINT, so a Ctrl-C, which
    signals the whole process group, leaves the command's own process to
    report it (cli.main) and prints no traceback per worker. numpy's
    floating-point warnings are off, because the engine's finite checks
    report a non-finite value once, as a NumericError. A daemon thread
    ends the worker once the process that started it is gone, as after a
    SIGKILL or SIGTERM of the command.

    An orphaned worker is re-parented, so os.getppid() changes; without
    that thread it would wait on the executor's call queue for ever. The
    parent's pid is the one the parent recorded, so a parent that died
    before this ran is noticed too.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    np.seterr(all="ignore")
    parent = multiprocessing.parent_process().pid

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _map_cells(fn, cells, workers: int):
    """Iterator of fn over cells, order preserved, from this process's pool
    of `workers` spawned workers; every cell is submitted before it returns.
    Inline and lazy in a pool worker, so no second pool starts, and at one
    worker once the BLAS pin is confirmed. A worker that dies raises
    BrokenProcessPool, at submission or while the results are read, and
    drops the pool, so the next batch starts a new one.
    """
    global _pool
    if multiprocessing.parent_process() is not None or (workers == 1 and _BLAS_PINNED):
        return map(fn, cells)
    if _pool is not None and _pool[0] != workers:
        _close_pool()
    if _pool is None:
        context = multiprocessing.get_context("spawn")
        _pool = (workers, ProcessPoolExecutor(workers, mp_context=context, initializer=_init_worker))
    results = _pooled(fn, cells)
    next(results)  # runs to its first yield: every cell is submitted
    return results


def _pooled(fn, cells):
    """Submit every cell to the pool and yield once, then yield the
    results in order; a BrokenProcessPool from either step drops the pool.

    A no-op call follows the cells. The executor's queue feeder thread
    holds the last item it pickled until it pickles another, so without
    it this process would keep the batch's last pickled cell until the
    next batch. The no-op is pickled as soon as the call queue (workers
    + 1 items) has room, which is at once for a batch of up to `workers`
    cells.
    """
    global _pool
    try:
        results = _pool[1].map(fn, cells)
        _pool[1].submit(int)  # int() is the no-op
        yield
        yield from results
    except BrokenProcessPool:
        _pool = None  # a worker died; the next call starts a new pool
        raise


def _run_cells(fn, cells, workers: int) -> list:
    """The results of _map_cells as a list."""
    return list(_map_cells(fn, cells, workers))


def _close_pool() -> None:
    """Shut this process's pool down and free its workers; the next batch
    starts a new one."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def _kill_pool() -> None:
    """Drop this process's pool at once: cancel the cells not started and
    terminate the workers, which would otherwise finish the cells they
    run before the process could exit."""
    global _pool
    if _pool is not None:
        executor = _pool[1]
        workers = list(executor._processes.values())  # shutdown(wait=False) forgets them
        executor.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.terminate()
        _pool = None


def _call(job):
    """Run one cell of any experiment: job is (cell function, cell)."""
    fn, cell = job
    return fn(cell)


def run_plans(*plans) -> list:
    """Run the cells of every plan as one pool batch; each plan's result, in order.

    A plan is (jobs, assemble), as the *_plan functions return it: jobs
    is a list of (cell function, cell) pairs, and assemble turns the
    outputs of those jobs, in order, into the experiment's result. Every
    check of every plan has run before the first cell is submitted, and
    no worker waits for another experiment's last cell.
    """
    outputs = _run_cells(_call, [job for jobs, _ in plans for job in jobs], worker_count())
    results, start = [], 0
    for jobs, assemble in plans:
        results.append(assemble(outputs[start : start + len(jobs)]))
        start += len(jobs)
    return results


def _repeat_split(scenarios, cfg: MetaConfig, repeat: int, shots: int, test_count: int):
    """One repeat's training scenarios, test tasks and config (seeded by the repeat).

    The partition and the k-shot splits derive from (seed, repeat) only,
    so every algorithm and every task count of a repeat shares them.
    """
    seed = substream_int(cfg.seed, "repeat", repeat)
    train, test = partition_tasks(scenarios, test_count, substream_int(seed, "partition"))
    test_tasks = [build_task_data(s, shots, seed) for s in test]
    return train, test_tasks, replace(cfg, seed=seed, shots=shots)


def _errors(algorithm, train, test_tasks, run_cfg) -> list:
    """[(scenario id, errors)] of the test tasks for `algorithm` trained on
    the `train` scenarios. A meta-learner adapts its meta-trained
    initialization to each task; a baseline is scored as fine-tuned, with
    transfer's source drawn from `train`.
    """
    if algorithm in meta.META_ALGORITHMS:
        params = meta_train(algorithm, train, run_cfg)
        return [(t.scenario_id, adapt_and_eval(params, t, run_cfg)) for t in test_tasks]
    if algorithm not in ("conventional", "transfer"):
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}")
    source = meta.pick_transfer_source(train, run_cfg.seed) if algorithm == "transfer" else None
    return meta.train_baseline(
        source, test_tasks, run_cfg, lambda tuned, task: (task.scenario_id, _query_errors(tuned, task))
    )


# ---------------------------------------------------------------------------
# experiment 1: cross-scenario generalization gap


def _matrix_cell(args):
    scenarios, cfg, i = args
    row = meta.cross_transfer(
        substream_int(cfg.seed, "matrix-init", i), batch_from(scenarios[i].samples),
        [build_task_data(s, cfg.shots, cfg.seed) for s in scenarios],
        cfg.baseline_epochs, 0, cfg.baseline_lr,  # no fine-tune
        lambda tuned, task: float(np.mean(_query_errors(tuned, task))),
    )
    return np.array(row)


def matrix_plan(scenarios, cfg):
    """cross_scenario_matrix as a plan for run_plans. Its check: there are
    at least 2 scenarios.
    """
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError(f"cross_scenario_matrix needs at least 2 scenarios, got {len(scenarios)}")
    jobs = [(_matrix_cell, (scenarios, cfg, i)) for i in range(len(scenarios))]
    return jobs, np.stack


def cross_scenario_matrix(scenarios: Sequence[Scenario], cfg: MetaConfig) -> np.ndarray:
    """Cell (i, j): mean error of the model trained on all of scenario i,
    with no fine-tune, on scenario j's query set (the split at cfg.shots).
    """
    return run_plans(matrix_plan(scenarios, cfg))[0]


# ---------------------------------------------------------------------------
# experiment 2: few-shot benchmark across algorithms


def _benchmark_cell(args):
    """One (repeat, algorithm, shots, count) cell of the benchmark or the
    sweep; returns its EvalReport entries, one per test scenario.

    count None trains on every training scenario of the repeat; an integer
    trains on the first `count` of them in a seeded order that every
    algorithm of the repeat shares: a sweep cell is a benchmark cell on a
    training subsample.
    """
    scenarios, algorithm, shots, repeat, cfg, test_count, count = args
    train, test_tasks, run_cfg = _repeat_split(scenarios, cfg, repeat, shots, test_count)
    if count is not None:
        order = substream(run_cfg.seed, "subsample", count).permutation(len(train))
        train = [train[i] for i in order[:count]]
    return [
        {"algorithm": algorithm, "shots": shots, "repeat": repeat, "scenario": sid, "errors": errs.tolist()}
        for sid, errs in _errors(algorithm, train, test_tasks, run_cfg)
    ]


def _train_count(scenarios, test_count) -> int:
    """How many of `scenarios` are left for training once test_count are
    held out for testing; test_count must be in 1..len(scenarios) - 1."""
    n = len(scenarios)
    if not 0 < test_count < n:
        raise ValueError(f"test_count {test_count} outside 1..{n - 1} for {n} scenarios")
    return n - test_count


def _no_repeats(what: str, values) -> None:
    """A value listed twice would run its cells twice and count their errors twice."""
    repeated = sorted({v for i, v in enumerate(values) if v in values[:i]})
    if repeated:
        raise ValueError(f"{what} {repeated} listed more than once")


def benchmark_plan(scenarios, algorithms, shot_counts, repeats, cfg, test_count=5):
    """benchmark as a plan for run_plans. Its checks:

    - no algorithm and no shot count is listed twice;
    - every algorithm is one of ALL_ALGORITHMS;
    - every shot count is at least 0, and at least 1 when a meta-learner
      is listed: it adapts on each task's support set, empty at 0 shots;
    - test_count is in 1..len(scenarios) - 1;
    - with tb-maml, at least 2 training scenarios are left for its
      importance vector.
    """
    scenarios = list(scenarios)
    _no_repeats("algorithms", algorithms)
    _no_repeats("shot counts", shot_counts)
    for algorithm in algorithms:
        if algorithm not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}")
    meta_algos = [a for a in algorithms if a in meta.META_ALGORITHMS]
    least = 1 if meta_algos else 0
    bad = [k for k in shot_counts if k < least]
    if bad:
        why = f" with meta-learners {meta_algos}" if meta_algos else ""
        raise ValueError(f"shot counts {bad} below {least}{why}")
    train_count = _train_count(scenarios, test_count)
    if "tb-maml" in algorithms and train_count < 2:
        raise ValueError(
            f"tb-maml needs at least 2 training scenarios for its importance vector, "
            f"got {train_count} ({len(scenarios)} scenarios, {test_count} for testing)"
        )
    jobs = [
        (_benchmark_cell, (scenarios, algorithm, int(shots), repeat, cfg, test_count, None))
        for repeat in range(repeats)
        for algorithm in algorithms
        for shots in shot_counts
    ]
    return jobs, lambda groups: EvalReport([e for g in groups for e in g])


def benchmark(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str],
    shot_counts: Sequence[int],
    repeats: int,
    cfg: MetaConfig,
    test_count: int = 5,
) -> EvalReport:
    """Few-shot comparison pooled over seeded repeats.

    Each repeat re-partitions the scenarios into meta-train/meta-test and
    re-derives every split; all algorithms inside a repeat share them.
    """
    return run_plans(benchmark_plan(scenarios, algorithms, shot_counts, repeats, cfg, test_count))[0]


# ---------------------------------------------------------------------------
# experiment 3: error over the number of training tasks


# no body of its own: perfbench/tracer.py and tests/test_tracer_bindings.py bind this name
_sweep_cell = _benchmark_cell


def sweep_plan(scenarios, algorithms, counts, repeats, cfg, test_count=5):
    """task_count_sweep as a plan for run_plans: each cell is a benchmark
    cell at cfg.shots on a seeded subsample of `count` training scenarios.
    Its checks:

    - no algorithm and no count is listed twice;
    - every algorithm is a meta-learner;
    - test_count is in 1..len(scenarios) - 1;
    - every count is in 1..the training scenarios left;
    - with tb-maml, every count is at least 2, for its importance vector.
    """
    scenarios = list(scenarios)
    _no_repeats("algorithms", algorithms)
    _no_repeats("task counts", counts)
    for algorithm in algorithms:
        if algorithm not in meta.META_ALGORITHMS:
            raise ValueError(f"task_count_sweep is for meta-learners, got {algorithm!r}")
    available = _train_count(scenarios, test_count)
    bad = [c for c in counts if not 1 <= c <= available]
    if bad:
        raise ValueError(
            f"task counts {bad} outside 1..{available}, the training scenarios left of "
            f"{len(scenarios)} after test_count {test_count}"
        )
    low = [c for c in counts if c < 2]
    if "tb-maml" in algorithms and low:
        raise ValueError(
            f"tb-maml needs task counts of at least 2 for its importance vector, got {low}"
        )
    jobs = [
        (_benchmark_cell, (scenarios, algorithm, cfg.shots, repeat, cfg, test_count, int(count)))
        for repeat in range(repeats)
        for algorithm in algorithms
        for count in counts
    ]

    def assemble(groups) -> dict:
        pooled: dict = {}
        for (_, (_, algorithm, *_, count)), group in zip(jobs, groups):
            pooled.setdefault((algorithm, count), []).extend(e for entry in group for e in entry["errors"])
        return {key: float(np.mean(errors)) for key, errors in pooled.items()}

    return jobs, assemble


def task_count_sweep(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str],
    counts: Sequence[int],
    repeats: int,
    cfg: MetaConfig,
    test_count: int = 5,
) -> dict:
    """Mean error per (algorithm, training-task count), pooled over repeats.

    Returns {(algorithm, count): mean error in cm over every test sample
    of every repeat}.
    """
    return run_plans(sweep_plan(scenarios, algorithms, counts, repeats, cfg, test_count))[0]
