"""Metrics and the three benchmark experiments.

- cross_scenario_matrix: how badly a conventionally trained model
  degrades on other scenarios (the generalization gap), with or without
  a k-shot fine-tune.
- benchmark: the main few-shot comparison across algorithms and shot
  counts, pooled over seeded repeats that re-partition the scenarios.
- task_count_sweep: meta-learner error as the number of training tasks
  shrinks.

Every cell derives its randomness from (seed, repeat, scenario, shots)
substreams, never from the algorithm, so all algorithms see identical
partitions and identical k-shot support sets.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import meta
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

    entries: records {algorithm, shots, repeat, scenario, errors}.
    metadata: seeds/config of the run that produced the report.
    """

    entries: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, algorithm: str, shots: int, repeat: int, scenario: str, errors) -> None:
        self.entries.append(
            {
                "algorithm": algorithm,
                "shots": int(shots),
                "repeat": int(repeat),
                "scenario": scenario,
                "errors": [float(e) for e in np.asarray(errors).ravel()],
            }
        )

    def population(self, algorithm: str, shots: int) -> np.ndarray:
        pooled = [
            e
            for entry in self.entries
            if entry["algorithm"] == algorithm and entry["shots"] == shots
            for e in entry["errors"]
        ]
        return np.asarray(pooled, dtype=np.float64)

    def cells(self) -> list:
        return sorted({(e["algorithm"], e["shots"]) for e in self.entries})

    def summary(self) -> list:
        rows = []
        for algorithm, shots in self.cells():
            pop = self.population(algorithm, shots)
            rows.append(
                {
                    "algorithm": algorithm,
                    "shots": shots,
                    "count": int(pop.size),
                    "mean_cm": float(pop.mean()),
                    "median_cm": float(np.median(pop)),
                    "q25_cm": float(np.percentile(pop, 25)),
                    "q75_cm": float(np.percentile(pop, 75)),
                }
            )
        return rows

    def cdf_table(self, thresholds=DEFAULT_THRESHOLDS_CM) -> list:
        """CDF rows per cell; the last row is forced out to fraction 1.0."""
        rows = []
        for algorithm, shots in self.cells():
            pop = self.population(algorithm, shots)
            ts = list(thresholds)
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
    """Worker processes for embarrassingly parallel cells (METALOC_THREADS)."""
    raw = os.environ.get("METALOC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_cells(fn, cells, workers: int):
    """Map fn over cells, optionally in processes; order preserved."""
    if workers <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# experiment 1: cross-scenario generalization gap


def _matrix_cell(args):
    scenarios, cfg, fine_tune_shots, i = args
    row = meta.cross_transfer(
        substream_int(cfg.seed, "matrix-init", i), batch_from(scenarios[i].samples),
        [build_task_data(s, cfg.shots, cfg.seed) for s in scenarios],
        cfg.baseline_epochs, cfg.finetune_epochs if fine_tune_shots else 0, cfg.baseline_lr,
        lambda tuned, task: float(np.mean(_query_errors(tuned, task))),
    )
    return np.array(row)


def cross_scenario_matrix(
    scenarios: Sequence[Scenario],
    cfg: MetaConfig,
    fine_tune_shots: int = 0,
) -> np.ndarray:
    """Cell (i, j): mean error of the model trained on scenario i, tested
    on scenario j's query, optionally fine-tuned with k shots of j first.

    fine_tune_shots must be 0 or cfg.shots (the split that defines each
    scenario's query set).
    """
    scenarios = list(scenarios)
    if len(scenarios) < 2:
        raise ValueError("cross_scenario_matrix needs at least 2 scenarios")
    if fine_tune_shots not in (0, cfg.shots):
        raise ValueError(
            f"fine_tune_shots must be 0 or cfg.shots={cfg.shots}, got {fine_tune_shots}"
        )
    cells = [(scenarios, cfg, fine_tune_shots, i) for i in range(len(scenarios))]
    rows = _run_cells(_matrix_cell, cells, worker_count())
    return np.stack(rows)


# ---------------------------------------------------------------------------
# experiment 2: few-shot benchmark across algorithms


def _benchmark_cell(args):
    """One (repeat, algorithm, shots) cell; returns report entries."""
    scenarios, algorithm, shots, repeat, cfg, test_count = args
    repeat_seed = substream_int(cfg.seed, "repeat", repeat)
    run_cfg = replace(cfg, seed=repeat_seed, shots=shots)
    task_set = partition_tasks(scenarios, test_count, substream_int(repeat_seed, "partition"))
    test_tasks = [build_task_data(s, shots, repeat_seed) for s in task_set.test_scenarios()]

    if algorithm in meta.META_ALGORITHMS:
        params = meta_train(algorithm, task_set, run_cfg)
        results = [(t.scenario_id, adapt_and_eval(params, t, run_cfg)) for t in test_tasks]
    elif algorithm == "conventional":
        results = [
            (t.scenario_id, _query_errors(meta.train_conventional(t, run_cfg), t)) for t in test_tasks
        ]
    elif algorithm == "transfer":
        source = meta.pick_transfer_source(task_set.train_scenarios(), repeat_seed)
        results = meta.cross_transfer(
            substream_int(repeat_seed, "init"), batch_from(source.samples), test_tasks,
            run_cfg.baseline_epochs, run_cfg.finetune_epochs, run_cfg.baseline_lr,
            lambda tuned, task: (task.scenario_id, _query_errors(tuned, task)),
        )
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}")
    return [(algorithm, shots, repeat, sid, errs) for sid, errs in results]


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
    scenarios = list(scenarios)
    for algorithm in algorithms:
        if algorithm not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALL_ALGORITHMS}")
    report = EvalReport(
        metadata={
            "algorithms": list(algorithms),
            "shot_counts": [int(s) for s in shot_counts],
            "repeats": int(repeats),
            "test_count": int(test_count),
            "seed": cfg.seed,
            "scenario_count": len(scenarios),
        }
    )
    cells = [
        (scenarios, algorithm, shots, repeat, cfg, test_count)
        for repeat in range(repeats)
        for algorithm in algorithms
        for shots in shot_counts
    ]
    for group in _run_cells(_benchmark_cell, cells, worker_count()):
        for algorithm, shots, repeat, sid, errs in group:
            report.add(algorithm, shots, repeat, sid, errs)
    return report


# ---------------------------------------------------------------------------
# experiment 3: error over the number of training tasks


def _sweep_cell(args):
    scenarios, algorithm, count, repeat, cfg, test_count = args
    repeat_seed = substream_int(cfg.seed, "repeat", repeat)
    run_cfg = replace(cfg, seed=repeat_seed)
    task_set = partition_tasks(scenarios, test_count, substream_int(repeat_seed, "partition"))
    train = task_set.train_scenarios()
    # same subsampled task subset for every algorithm at a given seed/count
    order = substream(repeat_seed, "subsample", count).permutation(len(train))
    subset = [train[i] for i in order[:count]]
    test_tasks = [
        build_task_data(s, cfg.shots, repeat_seed) for s in task_set.test_scenarios()
    ]
    params = meta_train(algorithm, subset, run_cfg)
    errors = np.concatenate([adapt_and_eval(params, t, run_cfg) for t in test_tasks])
    return algorithm, count, repeat, errors


def task_count_sweep(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str],
    counts: Sequence[int],
    repeats: int,
    cfg: MetaConfig,
    test_count: int = 5,
) -> dict:
    """Mean error per (algorithm, training-task count), pooled over repeats.

    Returns {(algorithm, count): {"mean_cm", "per_repeat": [...]}}.
    """
    scenarios = list(scenarios)
    for algorithm in algorithms:
        if algorithm not in meta.META_ALGORITHMS:
            raise ValueError(f"task_count_sweep is for meta-learners, got {algorithm!r}")
    available = len(scenarios) - test_count
    if max(counts) > available:
        raise ValueError(
            f"max count {max(counts)} exceeds available training scenarios {available}"
        )
    cells = [
        (scenarios, algorithm, int(count), repeat, cfg, test_count)
        for repeat in range(repeats)
        for algorithm in algorithms
        for count in counts
    ]
    pooled: dict = {}
    for algorithm, count, repeat, errors in _run_cells(_sweep_cell, cells, worker_count()):
        slot = pooled.setdefault(
            (algorithm, count), {"per_repeat": [], "errors": []}
        )
        slot["per_repeat"].append(float(np.mean(errors)))
        slot["errors"].extend(float(e) for e in errors)
    return {
        key: {
            "mean_cm": float(np.mean(val["errors"])),
            "per_repeat": val["per_repeat"],
        }
        for key, val in pooled.items()
    }
