"""The three benchmark workloads: inputs, one closed-loop job, outputs.

Every workload is closed loop: one caller runs one job at a time and
starts the next only after the previous one returns. The data seed only
selects which synthetic rooms are generated; the program receives the
generated scenarios and runs at its own default seeds.

A job's outputs are flattened to ``{key: numpy array or str}`` so that
one routine compares them for determinism, against a stored reference,
and for the invariants each workload states.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from metaloc import meta, tasks
from metaloc.seeding import substream_int

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Job:
    """One finished job: wall time, work done, and its outputs."""

    wall: float
    work: float  # in the workload's unit of work
    work_time: float  # seconds the work took (wall, or the training part)
    outputs: dict
    iter_ms: list = field(default_factory=list)


def grid_diagonal_cm() -> float:
    grid = tasks.GridSpec()
    return math.hypot((grid.rows - 1) * grid.spacing_cm, (grid.cols - 1) * grid.spacing_cm)


def diverged_share(task_means) -> float:
    """Share of adapted test tasks whose mean error exceeds 10x the grid diagonal."""
    means = np.asarray(task_means, dtype=np.float64)
    return float(np.mean(~(means <= 10.0 * grid_diagonal_cm())))


def generate(seed: int, count: int) -> list:
    """The scenarios ``metaloc gen --seed seed`` would write, in memory."""
    return [
        tasks.generate_scenario(substream_int(seed, "data", k), scenario_id=f"scenario_{k:03d}")
        for k in range(count)
    ]


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class StampedList(list):
    """A ``trace`` list for ``meta_train`` that notes when each row arrives."""

    def __init__(self):
        super().__init__()
        self.stamps: list = []

    def append(self, row):
        self.stamps.append(time.perf_counter())
        super().append(row)

    def iteration_ends(self) -> list:
        """When each outer iteration ended: the stamp of its first row."""
        return [self.stamps[i] for i, row in enumerate(self) if i == 0 or row[0] != self[i - 1][0]]


class MamlTrain:
    """Second-order MAML ``meta_train`` at the default config, then held-out eval."""

    name = "maml-train"
    unit = "outer iterations"
    throughput = "outer_iters_per_s"

    def __init__(self, tiny: bool = False):
        self.train_count, self.test_count = (2, 1) if tiny else (8, 2)
        self.cfg = meta.MetaConfig(meta_iterations=2 if tiny else 10)

    def setup(self, seed: int, work_dir: Path):
        return generate(seed, self.train_count + self.test_count)

    def run(self, scenarios) -> Job:
        train, held_out = scenarios[: self.train_count], scenarios[self.train_count :]
        rows = StampedList()
        start = time.perf_counter()
        params = meta.meta_train("maml", train, self.cfg, trace=rows)
        trained = time.perf_counter()
        test_tasks = [meta.build_task_data(s, self.cfg.shots, self.cfg.seed) for s in held_out]
        errors = [meta.adapt_and_eval(params, t, self.cfg) for t in test_tasks]
        end = time.perf_counter()

        # an iteration ends when its first row is appended; the first
        # iteration of a job also carries meta_train's own set-up, so only
        # the intervals between iteration ends are latency samples
        ends = rows.iteration_ends()
        outputs = {f"param.{n}": t.data.copy() for n, t in params.items()}
        outputs.update({f"errors.{t.scenario_id}": e for t, e in zip(test_tasks, errors)})
        return Job(
            wall=end - start,
            work=len(ends),
            work_time=trained - start,
            outputs=outputs,
            iter_ms=list(np.diff(ends) * 1e3),
        )

    def invariants(self, out: dict) -> list:
        problems = []
        for key, value in out.items():
            if key.startswith("param.") and not np.all(np.isfinite(value)):
                problems.append(f"{key}: non-finite parameters")
            if key.startswith("errors."):
                query = 12 * (tasks.ChannelConfig().samples_per_rp - self.cfg.shots)
                if value.shape != (query,) or np.any(value < 0):
                    problems.append(f"{key}: expected {query} non-negative errors, got {value.shape}")
        return problems

    def quality(self, out: dict) -> dict:
        errors = [v for k, v in out.items() if k.startswith("errors.")]
        return {
            "median_error_cm": float(np.median(np.concatenate(errors))),
            "diverged_frac": diverged_share([e.mean() for e in errors]),
        }


class Importance:
    """``compute_importance`` (first-order cross-transfer) on generated scenarios."""

    name = "importance"
    unit = "fit samples"
    throughput = "fit_samples_per_s"

    def __init__(self, tiny: bool = False):
        self.count = 3 if tiny else 6
        self.cfg = meta.MetaConfig(importance_epochs=2 if tiny else 20)

    def setup(self, seed: int, work_dir: Path):
        return generate(seed, self.count)

    def fit_samples(self, scenarios) -> int:
        """Epochs x batch rows over every fit_params call, from the config."""
        cfg = self.cfg
        full = sum(len(s.samples) for s in scenarios) * cfg.importance_epochs
        support = [cfg.shots * len(s.samples_by_rp()) for s in scenarios]
        tune = sum(support[j] for i in range(len(scenarios)) for j in range(len(scenarios)) if i != j)
        return full + tune * cfg.inner_steps

    def run(self, scenarios) -> Job:
        start = time.perf_counter()
        vector = meta.compute_importance(scenarios, self.cfg)
        wall = time.perf_counter() - start
        outputs = {
            "values": vector.values,
            "average_losses": vector.average_losses,
            "loss_matrix": vector.loss_matrix,
            "task_ids": ",".join(vector.task_ids),
        }
        return Job(wall=wall, work=self.fit_samples(scenarios), work_time=wall, outputs=outputs)

    def invariants(self, out: dict) -> list:
        problems = []
        matrix, average, values = out["loss_matrix"], out["average_losses"], out["values"]
        n = len(values)
        off = ~np.eye(n, dtype=bool)
        if matrix.shape != (n, n) or not np.all(np.isnan(matrix[~off])):
            problems.append("loss_matrix: expected n x n with a NaN diagonal")
        elif not (np.all(np.isfinite(matrix[off])) and np.all(matrix[off] >= 0)):
            problems.append("loss_matrix: off-diagonal losses must be finite and >= 0")
        elif not np.allclose(average, matrix[off].reshape(n, n - 1).mean(axis=1), rtol=1e-12):
            problems.append("average_losses: not the row means of loss_matrix")
        lo, hi = average.min(), average.max()
        expected = np.zeros(n) if hi == lo else 1.0 - 2.0 * (average - lo) / (hi - lo)
        if not np.allclose(values, expected, rtol=1e-12, atol=1e-15):
            problems.append("values: not the negated min-max of average_losses")
        return problems

    def quality(self, out: dict) -> dict:
        return {}


# `metaloc bench` at a size where one job takes seconds, not hours
BENCH_FLAGS = [
    "--algos", "conventional,transfer,fomaml,tb-maml",
    "--shots", "5",
    "--repeats", "1",
    "--test-scenarios", "2",
    "--matrix-scenarios", "2",
    "--counts", "2",
    "--meta-iterations", "1",
    "--baseline-epochs", "5",
    "--finetune-epochs", "2",
    "--importance-epochs", "2",
]
TINY_BENCH_FLAGS = BENCH_FLAGS[:12] + [
    "--meta-iterations", "1",
    "--baseline-epochs", "2",
    "--finetune-epochs", "1",
    "--importance-epochs", "1",
    "--inner-steps", "1",
]
BENCH_FILES = ("summary.json", "errors.csv", "matrix.csv", "sweep.csv")
JOB_TIMEOUT_S = 60  # one job takes seconds; a run must end within 180 s
WORKERS = 2  # METALOC_THREADS of a timed `metaloc bench`: nproc here


FLOAT_COLUMNS = {"errors.csv": "error_cm", "matrix.csv": "mean_error_cm", "sweep.csv": "mean_error_cm"}
TASK_COLUMNS = ("algorithm", "shots", "repeat", "scenario")  # one adapted test task in errors.csv


def _flatten_csv(name: str, text: str) -> dict:
    """The float column as an array; every other column as one string."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    columns = {col: [r[c] for r in body] for c, col in enumerate(header)}
    value = FLOAT_COLUMNS[name]
    out = {f"{name}:{value}": np.array([float(x) for x in columns.pop(value)], dtype=np.float64)}
    for col, cells in columns.items():
        out[f"{name}:{col}"] = "|".join(cells)
    return out


def _flatten_summary(text: str) -> dict:
    rows = json.loads(text)
    numeric = ("count", "mean_cm", "median_cm", "q25_cm", "q75_cm")
    out = {f"summary.json:{k}": np.array([r[k] for r in rows], dtype=np.float64) for k in numeric}
    out["summary.json:keys"] = "|".join(f"{r['algorithm']}/{r['shots']}" for r in rows)
    return out


class BenchCli:
    """``metaloc gen`` as set-up, then ``metaloc bench`` as a subprocess."""

    name = "bench-cli"
    unit = "cells"
    throughput = "cells_per_s"

    def __init__(self, tiny: bool = False):
        self.count = 4 if tiny else 6
        self.flags = TINY_BENCH_FLAGS if tiny else BENCH_FLAGS

    @property
    def flag(self) -> dict:
        return dict(zip(self.flags[::2], self.flags[1::2]))

    def cells(self) -> int:
        """Benchmark, matrix and sweep cells one ``bench`` run completes."""
        flag = self.flag
        algos = flag["--algos"].split(",")
        meta_algos = [a for a in algos if a in meta.META_ALGORITHMS]
        repeats = int(flag["--repeats"])
        shots = len(flag["--shots"].split(","))
        counts = len(flag["--counts"].split(","))
        return repeats * (len(algos) * shots + len(meta_algos) * counts) + int(flag["--matrix-scenarios"])

    def _metaloc(self, args, workers: int, traced=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["METALOC_THREADS"] = str(workers)
        if traced is None:
            cmd = [sys.executable, "-m", "metaloc.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(traced), *args]
        start = time.perf_counter()
        # own session, so a timeout also ends the pool workers
        with subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                _, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"metaloc {args[0]} exited {proc.returncode}: {stderr.strip()[-500:]}")
        return wall

    def setup(self, seed: int, work_dir: Path, traced=None):
        data = work_dir / f"data-{seed}"
        shutil.rmtree(data, ignore_errors=True)
        self._metaloc(["gen", "--scenarios", str(self.count), "--seed", str(seed), "--out", str(data)], 1, traced)
        return data

    def run(self, data: Path, traced=None, workers: int = WORKERS) -> Job:
        out = data.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        wall = self._metaloc(
            ["bench", "--data", str(data), "--out", str(out), *self.flags],
            workers,
            traced,
        )
        if not (out / "run.json").is_file():
            raise RuntimeError("metaloc bench wrote no run.json manifest")
        outputs = {}
        for name in BENCH_FILES:
            text = (out / name).read_text()
            outputs.update(_flatten_summary(text) if name == "summary.json" else _flatten_csv(name, text))
        return Job(wall=wall, work=self.cells(), work_time=wall, outputs=outputs)

    def _groups(self, out: dict, columns) -> dict:
        """errors.csv values grouped by the given key columns, in file order."""
        keys = zip(*(out[f"errors.csv:{c}"].split("|") for c in columns))
        groups: dict = {}
        for key, err in zip(keys, out["errors.csv:error_cm"]):
            groups.setdefault(key, []).append(err)
        return groups

    def invariants(self, out: dict) -> list:
        problems = []
        errors = out["errors.csv:error_cm"]
        if errors.size == 0 or np.any(errors < 0):
            problems.append("errors.csv: expected non-negative distances")
        flag = self.flag
        n = int(flag["--matrix-scenarios"])
        if out["matrix.csv:mean_error_cm"].shape != (n * n,):
            problems.append(f"matrix.csv: expected {n * n} cells")
        meta_algos = [a for a in flag["--algos"].split(",") if a in meta.META_ALGORITHMS]
        rows = len(meta_algos) * len(flag["--counts"].split(","))
        sweep = out["sweep.csv:mean_error_cm"]
        if sweep.shape != (rows,) or np.any(np.isnan(sweep)):
            problems.append(f"sweep.csv: expected {rows} rows without NaN")
        # summary.json pools the same errors that errors.csv rounds to 6 decimals
        groups = self._groups(out, ("algorithm", "shots"))
        cells = out["summary.json:keys"].split("|")
        for i, cell in enumerate(cells):
            pop = np.asarray(groups.get(tuple(cell.split("/")), []))
            count, median = out["summary.json:count"][i], out["summary.json:median_cm"][i]
            if pop.size != count or not np.isclose(np.median(pop), median, rtol=1e-9, atol=1e-6):
                problems.append(f"summary.json {cell}: count/median disagree with errors.csv")
        if len(cells) != len(groups):
            problems.append("summary.json: cells differ from errors.csv")
        return problems

    def quality(self, out: dict) -> dict:
        return {
            "median_error_cm": float(np.median(out["errors.csv:error_cm"])),
            "diverged_frac": diverged_share(
                [np.mean(v) for v in self._groups(out, TASK_COLUMNS).values()]
            ),
        }


WORKLOADS = {w.name: w for w in (MamlTrain, Importance, BenchCli)}
