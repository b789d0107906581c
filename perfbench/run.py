"""metaloc benchmark: three closed-loop workloads, end-to-end and per-module metrics.

Run from the repository root:

    python3 perfbench/run.py --workload maml-train [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the checkout the script sits in
(``metaloc gen`` and ``metaloc bench`` run as ``python3 -m metaloc.cli``
with ``PYTHONPATH=src``); without ``src/metaloc`` the script exits 2.
OpenBLAS, OMP and ``METALOC_THREADS`` variables are left as found and
recorded; only ``bench-cli`` sets ``METALOC_THREADS=2`` for its
subprocess, so no run has more than 2 worker processes (the pool's).

Workloads (all closed loop: one caller, one job at a time)
----------------------------------------------------------
- ``maml-train``: second-order MAML ``meta.meta_train`` at the default
  ``MetaConfig`` (5 inner steps, meta-batch 4, k=5) for 10 outer
  iterations on 8 generated scenarios, then ``meta.adapt_and_eval`` on 2
  held-out ones, in-process. Almost all its time is ``create_graph=True``
  backward passes in ``autodiff``.
- ``importance``: ``meta.compute_importance`` on 6 generated scenarios
  with 20 importance epochs: Adam ``fit_params`` on full 480-sample
  scenarios, 5-epoch fine-tunes on 60-sample supports, ``no_grad``
  scoring. First-order only, with larger BLAS batches.
- ``bench-cli``: ``metaloc gen`` (6 scenarios) as set-up, then ``metaloc
  bench`` as a subprocess with conventional, transfer, fomaml and tb-maml,
  the cross-scenario matrix and a task-count sweep, at one meta-iteration,
  one repeat, reduced epochs and ``METALOC_THREADS=2``. The only workload
  that loads scenario JSON, runs the process pool and writes CSV files and
  manifests.

A run with ``--trace 0`` sets up the inputs repeatedly, for at least
``SETUP_BUDGET_S`` and ``SETUP_MIN_REPEATS`` times or ``SETUP_MAX_REPEATS``
times (``setup_s`` is the median), runs one untimed check job (warm-up
and reference check), then runs jobs on the ``--seed`` inputs until
``--seconds`` have passed (default: ``run_seconds`` of ``BENCHMARK.json``).

Seeds
-----
``--seed`` picks the generated rooms. ``PINNED_SEED`` (2305) is the
default and 13453 the seed a claim is re-checked on; both have stored
reference outputs (``--write-reference`` regenerates them). A run at any other seed still checks one job at the
pinned seed against its reference before timing.

Output check
------------
Every job's outputs must (a) meet the workload's invariants, (b) equal the
first timed job bit for bit, and (c) match the stored reference within
``outcheck.RTOL`` when one exists for the seed. ``maml-train`` compares
the final parameters and held-out errors, ``importance`` the importance
vector, average losses and loss matrix, ``bench-cli`` ``summary.json``,
``errors.csv``, ``matrix.csv`` and ``sweep.csv``. A traced job must equal
the untraced one, and ``bench-cli`` must give the same files with 1 and 2
workers. Any failure makes ``correct`` false and the exit code 1.

Result schema
-------------
The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

``attempted`` counts jobs (check job included); ``failed`` counts jobs
that raised, exited non-zero or failed the output check. With ``--trace
0`` the metrics are the ``END_TO_END`` names, with ``--trace 1`` the
``PER_LAYER`` names, exactly as ``BENCHMARK.json`` lists them. The lines
before it are a human-readable report (every metric with unit and
direction, including the per-workload ones below) and one ``detail`` JSON
line holding the environment record, sample counts, job walls and all
figures.

End-to-end metrics (every workload, tracing off)
------------------------------------------------
- ``setup_s``: median time to generate the workload's inputs.
- ``wall_s``: median wall time of one job.
- ``work_per_s``: median over jobs of units of work per second. The unit
  is the workload's: outer iterations per second of ``meta_train``
  (``outer_iters_per_s``), epochs x batch rows over every ``fit_params``
  call per second (``fit_samples_per_s``), or benchmark, matrix and sweep
  cells per second of ``metaloc bench`` (``cells_per_s``).
- ``peak_rss_mb``: peak resident set; for ``bench-cli`` the largest of
  this process and any child or pool worker.

Reported but not gated, because they are 0 or undefined on some workload:
``outer_iter_ms.p50`` and ``outer_iter_ms.tail`` (``maml-train``; tail is
the highest percentile with at least 10 iterations beyond it, printed as
``pNN of n``), ``median_error_cm`` and ``diverged_frac`` (share of adapted
test tasks whose mean error exceeds 10x the grid diagonal; ``maml-train``,
``bench-cli``), and ``failed_frac`` (all).

Per-module metrics (``--trace 1``) and the end-to-end metric each moves
-----------------------------------------------------------------------
One untraced job, then the same job traced; spans come from wrapping the
module attributes the program calls through (see ``tracer.py``). Times
are seconds summed over processes; counts are exact and repeat run to
run. A metric that a workload does not exercise reads 0.

- autodiff: ``grad.calls``, ``grad.first_order_s``, ``grad.create_graph_s``
  (self time) move ``maml-train`` ``wall_s``/``work_per_s``; only
  ``first_order_s`` moves ``importance``. ``nodes_created_per_iter``,
  ``nodes_reachable_per_iter`` (graph nodes ``toposort`` finds from each
  first-order ``grad`` output inside ``meta_train``: the meta-loss for
  MAML; the 14 parameter leaves it also returns are not nodes),
  ``node_useful_ratio`` and ``nodes.<op>`` are counted inside
  ``meta_train`` per outer iteration (``maml-train``, ``bench-cli``) and
  move ``maml-train``.
- model: ``loss.calls``, ``loss.s``, ``predict_positions.calls``/``.s``;
  ``layer.<layer>.{fwd,bwd,bwd2}_us`` from ``layers.py``. ``bwd2`` moves
  ``maml-train`` only; ``fwd`` and ``bwd`` move both in-process workloads.
- meta: ``inner_adapt.calls``/``.self_s`` and ``meta_train.self_s`` (the
  outer Adam step) move ``maml-train``; ``fit_params.calls``/``.self_s``
  move ``importance`` and ``bench-cli`` and nothing on ``maml-train``;
  ``build_task_data.s`` moves ``wall_s`` on every workload, most on
  ``bench-cli``.
- tasks: ``generate_scenario.s`` moves ``setup_s``; ``load_scenario.s``,
  ``load_scenario.mb_per_s``, ``batch_from.calls``/``.s`` move ``bench-cli``.
- evaluation: ``benchmark.s``, ``cross_scenario_matrix.s``,
  ``task_count_sweep.s``, ``pool_speedup`` (wall at 1 worker over wall at
  2) and ``pool_bytes_per_cell`` (computed pickled size of one cell's
  arguments) move ``bench-cli`` only.
- cli: ``cli.load_s`` and ``cli.io_s`` (``cmd_bench`` self time: outside
  loading and the experiments) move ``bench-cli``.
- ``trace.overhead_frac``: traced job wall over untraced job wall, minus 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import outcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PINNED_SEED = 2305
# set-up is timed over repeats until both minimums are met, or the cap is
SETUP_BUDGET_S = 3.0
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 30

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# the per-workload views printed in the report
REPORTED = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("outer_iters_per_s", "1/s", "higher"),
    ("outer_iter_ms.p50", "ms", "lower"),
    ("outer_iter_ms.tail", "ms", "lower"),
    ("fit_samples_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("median_error_cm", "cm", "lower"),
    ("diverged_frac", "share", "lower"),
    ("failed_frac", "share", "lower"),
)

NODE_OPS = (
    "add", "sub", "mul", "scale", "matmul", "transpose", "permute", "relu", "reshape",
    "sum_all", "sum_to", "broadcast_to", "pad_last", "crop_last", "unfold_last",
    "fold_last", "maxpool1d", "pool_scatter", "pool_gather",
)
LAYER_NAMES = ("conv1", "pool1", "conv2", "pool2", "dense1", "dense2", "dense3", "dense4", "dense5", "mse")


def _per_layer():
    out = [
        ("grad.calls", "count", "lower"),
        ("grad.first_order_s", "s", "lower"),
        ("grad.create_graph_s", "s", "lower"),
        ("nodes_created_per_iter", "count", "lower"),
        ("nodes_reachable_per_iter", "count", "lower"),
        ("node_useful_ratio", "ratio", "higher"),
    ]
    out += [(f"nodes.{op}", "count", "lower") for op in NODE_OPS + ("other",)]
    out += [
        ("loss.calls", "count", "lower"),
        ("loss.s", "s", "lower"),
        ("predict_positions.calls", "count", "lower"),
        ("predict_positions.s", "s", "lower"),
    ]
    out += [(f"layer.{n}.{p}_us", "us", "lower") for n in LAYER_NAMES for p in ("fwd", "bwd", "bwd2")]
    out += [
        ("inner_adapt.calls", "count", "lower"),
        ("inner_adapt.self_s", "s", "lower"),
        ("meta_train.self_s", "s", "lower"),
        ("fit_params.calls", "count", "lower"),
        ("fit_params.self_s", "s", "lower"),
        ("build_task_data.s", "s", "lower"),
        ("generate_scenario.s", "s", "lower"),
        ("load_scenario.s", "s", "lower"),
        ("load_scenario.mb_per_s", "MB/s", "higher"),
        ("batch_from.calls", "count", "lower"),
        ("batch_from.s", "s", "lower"),
        ("benchmark.s", "s", "lower"),
        ("cross_scenario_matrix.s", "s", "lower"),
        ("task_count_sweep.s", "s", "lower"),
        ("pool_speedup", "ratio", "higher"),
        ("pool_bytes_per_cell", "bytes", "lower"),
        ("cli.load_s", "s", "lower"),
        ("cli.io_s", "s", "lower"),
        ("trace.overhead_frac", "share", "lower"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# helpers


def tail_percentile(n: int):
    """Highest whole percentile with at least 10 samples beyond it, or None."""
    if n < 11:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n))


def environment(workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    env = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "METALOC_THREADS")}
    if workload.name == "bench-cli":
        from workloads import WORKERS

        env["METALOC_THREADS (bench subprocess)"] = str(WORKERS)
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "env": env,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def time_setup(workload, seed: int, work_dir: Path, tiny: bool):
    """(inputs, set-up times): repeats ``workload.setup`` so the median is steady."""
    budget, least = (0.0, 1) if tiny else (SETUP_BUDGET_S, SETUP_MIN_REPEATS)
    times = []
    while len(times) < SETUP_MAX_REPEATS and (len(times) < least or sum(times) < budget):
        start = time.perf_counter()
        inputs = workload.setup(seed, work_dir)
        times.append(time.perf_counter() - start)
    return inputs, times


class Runner:
    """Runs jobs and applies the output check; a job fails at most once.

    Each attempt needs its own label, so that every failed attempt counts.
    """

    def __init__(self, workload, tiny: bool):
        self.workload = workload
        self.tiny = tiny
        self.attempted = 0
        self.failed_jobs: set = set()
        self.problems: list = []

    @property
    def failed(self) -> int:
        return len(self.failed_jobs)

    def job(self, inputs, label: str, **kwargs):
        self.attempted += 1
        gc.collect()  # every job starts from the same heap, untimed
        try:
            job = self.workload.run(inputs, **kwargs)
        except Exception as exc:  # a failed job is counted and reported, not fatal
            self.fail(label, [f"{type(exc).__name__}: {exc}"])
            return None
        self.fail(label, self.workload.invariants(job.outputs))
        return job

    def fail(self, label: str, problems: list) -> None:
        if problems:
            self.failed_jobs.add(label)
            self.problems += [f"{label}: {p}" for p in problems]

    def check_same(self, job, first, label: str) -> None:
        """``job`` (named ``label``) must repeat ``first`` bit for bit."""
        if job is not None and first is not None:
            self.fail(label, outcheck.identical(job.outputs, first.outputs))

    def check_reference(self, job, seed: int, label: str) -> str:
        if job is None:
            return "not checked: the check job failed"
        if self.tiny:
            return "not checked at --tiny size"
        path = outcheck.reference_path(self.workload.name, seed)
        problems = outcheck.compare(job.outputs, outcheck.load(path))
        self.fail(label, problems)
        if problems:
            return f"MISMATCH against {path.name}"
        return f"matches {path.name} within rtol={outcheck.RTOL:g}"

    def reference_seed(self, seed: int) -> int:
        if self.tiny or outcheck.reference_path(self.workload.name, seed).is_file():
            return seed
        return PINNED_SEED


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(workload, seed: int, seconds: float, work_dir: Path, tiny: bool):
    """Untraced run: set-up, check job, then timed jobs for `seconds`."""
    runner = Runner(workload, tiny)
    inputs, setup_times = time_setup(workload, seed, work_dir, tiny)

    ref_seed = runner.reference_seed(seed)
    check_inputs = inputs if ref_seed == seed else workload.setup(ref_seed, work_dir)
    check = runner.job(check_inputs, f"check job (seed {ref_seed})")
    reference = runner.check_reference(check, ref_seed, f"check job (seed {ref_seed})")

    jobs = []
    attempt = 0
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        attempt += 1
        label = f"timed job {attempt}"
        job = runner.job(inputs, label)
        if job is None:
            if time.perf_counter() - start >= seconds:
                break
            continue
        first = jobs[0] if jobs else (check if ref_seed == seed else None)
        runner.check_same(job, first, label)
        jobs.append(job)

    report = {"failed_frac": runner.failed / runner.attempted, "peak_rss_mb": peak_rss_mb()}
    notes = {"setup_s": f"median of {len(setup_times)}", "wall_s": f"median of {len(jobs)} jobs"}
    if jobs:
        walls = [j.wall for j in jobs]
        notes["job walls"] = [round(w, 4) for w in walls]
        notes["work_per_s"] = f"= {workload.throughput}"
        report["setup_s"] = statistics.median(setup_times)
        report["wall_s"] = statistics.median(walls)
        report["work_per_s"] = statistics.median(j.work / j.work_time for j in jobs)
        report[workload.throughput] = report["work_per_s"]
        report.update(workload.quality(jobs[0].outputs))
        iter_ms = [ms for j in jobs for ms in j.iter_ms]
        if iter_ms:
            notes["outer_iter_ms.p50"] = f"n={len(iter_ms)}"
            report["outer_iter_ms.p50"] = statistics.median(iter_ms)
            pct = tail_percentile(len(iter_ms))
            if pct is not None:
                report["outer_iter_ms.tail"] = float(np.percentile(iter_ms, pct))
                notes["outer_iter_ms.tail"] = f"p{pct} of n={len(iter_ms)}"
    return runner, report, notes, reference


def traced(workload, seed: int, work_dir: Path, tiny: bool):
    """Traced run: one untraced and one traced job on the same inputs."""
    import layers
    import tracer

    runner = Runner(workload, tiny)
    trace_dir = work_dir / "trace"
    in_process = workload.name != "bench-cli"
    spans = tracer.Tracer()
    if in_process:
        with spans:
            inputs = workload.setup(seed, work_dir)
    else:
        inputs = workload.setup(seed, work_dir, traced=trace_dir)

    ref_seed = runner.reference_seed(seed)
    check_inputs = inputs if ref_seed == seed else workload.setup(ref_seed, work_dir)
    check = runner.job(check_inputs, f"check job (seed {ref_seed})")
    reference = runner.check_reference(check, ref_seed, f"check job (seed {ref_seed})")

    plain = runner.job(inputs, "untraced job")
    extra = {}
    if not in_process:
        single = runner.job(inputs, "untraced job, 1 worker", workers=1)
        runner.check_same(single, plain, "untraced job, 1 worker")
        if single is not None and plain is not None:
            extra["pool_speedup"] = single.wall / plain.wall
    if in_process:
        with spans:
            traced_job = runner.job(inputs, "traced job")
        docs = [spans.snapshot()]
    else:
        traced_job = runner.job(inputs, "traced job", traced=trace_dir)
        docs = tracer.read_dir(trace_dir) if trace_dir.is_dir() else []
    runner.check_same(traced_job, plain, "traced job")
    if traced_job is not None and plain is not None:
        extra["trace.overhead_frac"] = traced_job.wall / plain.wall - 1.0

    metrics = per_layer_metrics(tracer.merge(docs), extra)
    metrics.update(layers.layer_times(LAYER_NAMES, reps=5 if tiny else 30))
    notes = {"trace files": len(docs)}
    return runner, metrics, notes, reference


def per_layer_metrics(doc: dict, extra: dict) -> dict:
    calls, total, own = doc["calls"], doc["total"], doc["self"]
    counts, created = doc["counts"], doc["nodes"]["meta_train"]
    iters = counts.get("meta_iterations", 0)

    def per_iter(n):
        return n / iters if iters else 0.0

    made = sum(created.values())
    reachable = counts.get("nodes_reachable", 0)
    load_s = total.get("load_scenario", 0.0)
    cells = counts.get("pool.cells", 0)
    m = {
        "grad.calls": calls.get("grad.first_order", 0) + calls.get("grad.create_graph", 0),
        "grad.first_order_s": own.get("grad.first_order", 0.0),
        "grad.create_graph_s": own.get("grad.create_graph", 0.0),
        "nodes_created_per_iter": per_iter(made),
        "nodes_reachable_per_iter": per_iter(reachable),
        "node_useful_ratio": reachable / made if made else 0.0,
        "loss.calls": calls.get("loss", 0),
        "loss.s": total.get("loss", 0.0),
        "predict_positions.calls": calls.get("predict_positions", 0),
        "predict_positions.s": total.get("predict_positions", 0.0),
        "inner_adapt.calls": calls.get("inner_adapt", 0),
        "inner_adapt.self_s": own.get("inner_adapt", 0.0),
        "meta_train.self_s": own.get("meta_train", 0.0),
        "fit_params.calls": calls.get("fit_params", 0),
        "fit_params.self_s": own.get("fit_params", 0.0),
        "build_task_data.s": total.get("build_task_data", 0.0),
        "generate_scenario.s": total.get("generate_scenario", 0.0),
        "load_scenario.s": load_s,
        "load_scenario.mb_per_s": counts.get("load_scenario.bytes", 0) / 1e6 / load_s if load_s else 0.0,
        "batch_from.calls": calls.get("batch_from", 0),
        "batch_from.s": total.get("batch_from", 0.0),
        "benchmark.s": total.get("benchmark", 0.0),
        "cross_scenario_matrix.s": total.get("cross_scenario_matrix", 0.0),
        "task_count_sweep.s": total.get("task_count_sweep", 0.0),
        "pool_speedup": extra.get("pool_speedup", 0.0),
        "pool_bytes_per_cell": counts.get("pool.bytes", 0) / cells if cells else 0.0,
        "cli.load_s": total.get("load_scenario_dir", 0.0),
        "cli.io_s": own.get("cmd_bench", 0.0),
        "trace.overhead_frac": extra.get("trace.overhead_frac", 0.0),
    }
    for op in NODE_OPS:
        m[f"nodes.{op}"] = per_iter(created.get(op, 0))
    m["nodes.other"] = per_iter(sum(n for op, n in created.items() if op not in NODE_OPS))
    return m


# ---------------------------------------------------------------------------
# reporting


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(title: str, names, values: dict, notes: dict) -> None:
    print(title)
    for name, unit, better in names:
        note = notes.get(name, "")
        print(f"  {name:<28} {_fmt(values.get(name)):>14} {unit:<6} {better:<7} {note}".rstrip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("maml-train", "importance", "bench-cli"))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument(
        "--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, no reference check (tests)")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store the check job's outputs as the reference for --seed",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if not (ROOT / "src" / "metaloc" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'metaloc'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metaloc

    if Path(metaloc.__file__).resolve().parent != ROOT / "src" / "metaloc":
        print(f"perfbench: imported metaloc from {metaloc.__file__}, not this checkout", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            job = workload.run(workload.setup(args.seed, work_dir))
            problems = workload.invariants(job.outputs)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            path = outcheck.reference_path(workload.name, args.seed)
            outcheck.save(path, job.outputs)
            print(f"wrote {path}")
            return 0
        if args.trace:
            runner, values, notes, reference = traced(workload, args.seed, work_dir, args.tiny)
        else:
            runner, values, notes, reference = measure(workload, args.seed, args.seconds, work_dir, args.tiny)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    correct = runner.failed == 0
    title = (
        f"perfbench {workload.name}  seed={args.seed}  trace={args.trace}  "
        f"closed loop, 1 caller  ({workload.unit})"
    )
    print_report(title, PER_LAYER if args.trace else REPORTED + (END_TO_END[2],), values, notes)
    env = environment(workload)
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "env")
          + "  " + "  ".join(f"{k}={v if v is not None else 'unset'}" for k, v in env["env"].items()))
    print(f"output check: {'ok' if correct else 'FAILED'}; reference {reference}")
    for problem in runner.problems:
        print(f"  {problem}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "notes": notes,
        "values": values,
    }
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    metrics = {}
    for name, unit, _ in PER_LAYER if args.trace else END_TO_END:
        value = values.get(name)
        metrics[name] = {"value": None if value is None else float(value), "unit": unit}
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
