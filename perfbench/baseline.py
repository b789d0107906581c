"""Regenerate the ROADMAP baseline table with one command.

    python3 perfbench/baseline.py [--seed N] [--reps R]

Each row is the median of R repetitions at the default ``MetaConfig``
(5 inner steps, meta-batch 4, k=5: 60 support and 420 query samples per
task), on scenarios generated from the seed. Outer-iteration rows are
the intervals between successive iterations of ``meta_train`` (taken
when it appends to its ``trace`` list), so they exclude its set-up. The
node counts come from the tracer in ``tracer.py`` and are exact.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import PINNED_SEED  # noqa: E402
from metaloc import meta, model, tasks  # noqa: E402


def _outer_iteration_s(algorithm: str, scenarios, reps: int) -> float:
    rows = workloads.StampedList()
    meta.meta_train(algorithm, scenarios, meta.MetaConfig(meta_iterations=reps + 1), trace=rows)
    return statistics.median(np.diff(rows.iteration_ends()))


def table(seed: int, reps: int) -> list:
    """[(workload, seconds)] in the order of the ROADMAP table."""
    scenarios = workloads.generate(seed, 8)
    cfg = meta.MetaConfig()
    task = meta.build_task_data(scenarios[0], cfg.shots, cfg.seed)
    params = model.init_params(0)
    full = tasks.batch_from(scenarios[0].samples)
    epochs = 20

    work = ROOT / ".perfbench-work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = work / "scenario.json"
        tasks.save_scenario(scenarios[0], path)
        load_s = workloads.median_time(lambda: tasks.load_scenario(path), reps)
        load_kb = path.stat().st_size / 1e3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    return [
        ("second-order outer iteration (MAML)", _outer_iteration_s("maml", scenarios, reps)),
        ("first-order outer iteration (FOMAML)", _outer_iteration_s("fomaml", scenarios, reps)),
        ("`predict_positions`, 420 samples", workloads.median_time(lambda: model.predict_positions(params, task.query[0]), reps)),
        ("`fit_params`, 100 Adam epochs on a 60-sample support",
         workloads.median_time(lambda: meta.fit_params(params, task.support, 100, cfg.baseline_lr), reps)),
        ("one Adam epoch on a full 480-sample scenario",
         workloads.median_time(lambda: meta.fit_params(params, full, epochs, cfg.baseline_lr), reps) / epochs),
        ("`generate_scenario`", workloads.median_time(lambda: tasks.generate_scenario(seed), reps)),
        (f"`load_scenario` ({load_kb:.0f} KB of JSON)", load_s),
    ]


def node_counts(seed: int) -> dict:
    """Graph nodes recorded per second-order outer iteration, by op kind."""
    with tracer.Tracer() as spans:
        meta.meta_train("maml", workloads.generate(seed, 8), meta.MetaConfig(meta_iterations=1))
    nodes = dict(spans.nodes["meta_train"])
    return {"total": sum(nodes.values()), **dict(sorted(nodes.items(), key=lambda kv: -kv[1]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {np.__version__}")
    print("| workload | time |\n|---|---|")
    for name, seconds in table(args.seed, args.reps):
        shown = f"{seconds:.2f} s" if seconds >= 0.1 else f"{seconds * 1e3:.1f} ms"
        print(f"| {name} | {shown} |")
    counts = node_counts(args.seed)
    print(f"\nnodes per second-order outer iteration: {counts.pop('total')}")
    print(", ".join(f"{op} {n}" for op, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
