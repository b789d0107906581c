"""Command-line runner: generate data, compute importance, train, evaluate,
benchmark. Each command but importance writes a run manifest with the fully
resolved configuration so runs can be reproduced bit-for-bit from the same
flags; importance keeps its configuration in the file it writes.

A command writes nothing until its work is done. Then _write_outputs makes
--out, writes the command's files into it and writes run.json last, so a
failed command leaves no --out and a run.json marks a finished run.

Each flag that several commands share is declared once, on a parent
parser: `seeded` (--seed, --out) serves every command, `on_data` adds
--data and the MetaConfig flags of _CONFIG_FLAGS, and `at_k` adds --k.
A subparser declares only its own flags. No command writes to its parsed
arguments.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure,
130 interrupted: a Ctrl-C prints one line, and the pool's workers, which
ignore SIGINT, are terminated.
`metaloc bench` leaves the checks of its experiments, the --algos names
among them, to the evaluation plans and reports a plan's ValueError as a
usage error (exit 2); any other ValueError, such as a library rule on the
data, exits 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, evaluation, meta
from .autodiff import NumericError
from .model import load_params, save_params
from .seeding import substream_int
from .tasks import (
    ChannelConfig,
    DataFormatError,
    GridSpec,
    _require,
    generate_scenario,
    load_scenario_dir,
    numeric_field,
    read_json,
    save_scenario,
)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class UsageError(Exception):
    """Flags that parse but form an invalid configuration."""


def _write_outputs(out: Path, command: str, resolved: dict, files: dict, **extra) -> None:
    """Make `out`, write each file with its writer, then run.json last.

    `files` maps a file name to a function that writes that file at a path.
    """
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    doc = {
        "command": command,
        "config": resolved,
        "outputs": sorted(str(out / name) for name in files),
        "version": __version__,
        "wallclock": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
    (out / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


# MetaConfig fields settable from the command line: (flag, field, type, help)
_CONFIG_FLAGS = (
    ("--alpha", "alpha", float, "inner step size"),
    ("--beta", "beta", float, "outer (meta) step size"),
    ("--gamma", "gamma", float, "importance bias intensity"),
    ("--inner-steps", "inner_steps", int, None),
    ("--meta-iterations", "meta_iterations", int, None),
    ("--batch", "meta_batch_size", int, None),
    ("--importance-epochs", "importance_epochs", int, None),
    ("--baseline-epochs", "baseline_epochs", int, None),
    ("--baseline-lr", "baseline_lr", float, None),
    ("--finetune-epochs", "finetune_epochs", int, None),
)


def _meta_config(args, shots) -> meta.MetaConfig:
    overrides = {
        name: getattr(args, name) for _, name, _, _ in _CONFIG_FLAGS if getattr(args, name) is not None
    }
    if shots is not None:
        overrides["shots"] = shots
    try:
        return meta.MetaConfig(seed=args.seed, **overrides)
    except ValueError as e:
        raise UsageError(str(e))


def _csv(header: list, rows: list):
    def write(path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    return write


def _text(text: str):
    return lambda path: path.write_text(text)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    out = Path(args.out)
    grid = GridSpec(rows=args.rows, cols=args.cols, spacing_cm=args.spacing_cm)
    config = ChannelConfig(grid=grid, samples_per_rp=args.samples_per_rp)
    files = {}
    for k in range(args.scenarios):
        scenario = generate_scenario(
            substream_int(args.seed, "data", k), config, scenario_id=f"scenario_{k:03d}"
        )
        files[f"scenario_{k:03d}.json"] = partial(save_scenario, scenario)
    _write_outputs(
        out,
        "gen",
        {
            "scenarios": args.scenarios,
            "seed": args.seed,
            "rows": args.rows,
            "cols": args.cols,
            "spacing_cm": args.spacing_cm,
            "samples_per_rp": args.samples_per_rp,
        },
        files,
    )
    print(f"wrote {len(files)} scenarios to {out}")
    return 0


def _importance_doc(vector: meta.ImportanceVector, cfg: meta.MetaConfig, scenarios) -> dict:
    return {
        "task_ids": vector.task_ids,
        "task_digests": [s.digest() for s in scenarios],
        "importance": vector.values.tolist(),
        "average_losses": vector.average_losses.tolist(),
        "loss_matrix": [
            [None if np.isnan(v) else float(v) for v in row] for row in vector.loss_matrix
        ],
        "config": dataclasses.asdict(cfg),
    }


def _load_importance(path: Path, scenarios) -> meta.ImportanceVector:
    """The importance vector of a file written on these scenarios' samples.

    It holds one task id per training scenario and, for n task ids, n task
    digests, n importance values in [-1, 1], n average losses and an n x n
    loss matrix, or it is a data error.
    """
    doc, where = read_json(path), str(path)
    task_ids, digests = (_require(doc, name, where) for name in ("task_ids", "task_digests"))
    for name, value in (("task_ids", task_ids), ("task_digests", digests)):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise DataFormatError(f"{path}: field {name!r} is not a list of strings")
    values, average = (numeric_field(doc, name, 1, where) for name in ("importance", "average_losses"))
    matrix = numeric_field(doc, "loss_matrix", 2, where)
    n = len(task_ids)
    if n != len(scenarios):
        raise DataFormatError(f"{path}: field 'task_ids' has {n} entries for {len(scenarios)} scenarios")
    for name, value in (("task_digests", digests), ("importance", values), ("average_losses", average)):
        if len(value) != n:
            raise DataFormatError(f"{path}: field {name!r} has {len(value)} entries for {n} task ids")
    if matrix.shape != (n, n):
        raise DataFormatError(f"{path}: field 'loss_matrix' has shape {matrix.shape} for {n} task ids")
    if not np.all(np.abs(values) <= 1.0):  # also false for NaN
        raise DataFormatError(f"{path}: field 'importance' must be finite and within [-1, 1]")
    for task_id, digest, scenario in zip(task_ids, digests, scenarios):
        if digest != scenario.digest():
            raise DataFormatError(
                f"{path}: task {task_id} was computed on other samples than "
                f"scenario {scenario.id} of the training data (sha256 {digest[:12]}... "
                f"vs {scenario.digest()[:12]}...)"
            )
    return meta.ImportanceVector(values, average, matrix, task_ids)


def _check_worker_count() -> None:
    """A bad METALOC_THREADS is a usage error before any data is read."""
    try:
        evaluation.worker_count()
    except ValueError as e:
        raise UsageError(str(e)) from None


def cmd_importance(args) -> int:
    _check_worker_count()
    scenarios = load_scenario_dir(args.data)
    cfg = _meta_config(args, args.k)
    vector = meta.compute_importance(scenarios, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_importance_doc(vector, cfg, scenarios), indent=2))
    print(f"importance over {len(scenarios)} tasks -> {out}")
    return 0


def cmd_train(args) -> int:
    if args.importance and args.algo != "tb-maml":
        raise UsageError(f"--importance applies only to --algo tb-maml, not {args.algo}")
    if args.algo in meta.META_ALGORITHMS:
        _check_worker_count()  # meta-batches and the importance vector run in the pool
    scenarios = load_scenario_dir(args.data)
    cfg = _meta_config(args, args.k)
    out = Path(args.out)
    trace: list = []
    stop: dict = {}  # why meta-training stopped; baselines run their epochs
    files = {}
    resolved = dataclasses.asdict(cfg)
    resolved.update({"algorithm": args.algo, "data": str(args.data)})

    if args.algo in meta.META_ALGORITHMS:
        meta._check_meta_train(args.algo, scenarios, cfg)  # before any importance row runs
        importance = None
        if args.algo == "tb-maml":
            if args.importance:
                importance = _load_importance(Path(args.importance), scenarios)
                resolved["importance_file"] = str(args.importance)
            else:
                importance = meta.compute_importance(scenarios, cfg)
                evaluation._close_pool()  # meta_train runs here; free the idle workers
                doc = _importance_doc(importance, cfg, scenarios)
                files["importance.json"] = _text(json.dumps(doc, indent=2))
                resolved["importance_file"] = str(out / "importance.json")
        params = meta.meta_train(args.algo, scenarios, cfg, importance=importance, trace=trace, stop=stop)
    else:  # a baseline: argparse restricts --algo to ALL_ALGORITHMS
        n = len(scenarios)
        if not 0 <= args.target < n:
            raise UsageError(f"--target {args.target} is outside [0, {n}) for {n} scenarios")
        target = scenarios[args.target]
        resolved["target"] = target.id
        task = meta.build_task_data(target, cfg.shots, cfg.seed)
        source = None  # conventional
        if args.algo == "transfer":
            source = meta.pick_transfer_source([s for s in scenarios if s.id != target.id], cfg.seed)
            resolved["source"] = source.id
        (params,) = meta.train_baseline(source, [task], cfg)

    files["checkpoint.json"] = partial(save_params, params)
    files["trace.csv"] = _csv(["iteration", "task_id", "query_loss"], trace)
    _write_outputs(out, "train", resolved, files, **({"stop": stop} if stop else {}))
    print(f"trained {args.algo} -> {out / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    params = load_params(args.checkpoint)
    scenarios = load_scenario_dir(args.data)
    cfg = _meta_config(args, args.k)

    rows = []
    all_errors = []
    per_scenario = {}
    for scenario in scenarios:
        task = meta.build_task_data(scenario, cfg.shots, cfg.seed)
        errors = meta.adapt_and_eval(params, task, cfg)
        per_scenario[scenario.id] = {
            "mean_cm": float(errors.mean()),
            "median_cm": float(np.median(errors)),
            "count": int(errors.size),
        }
        all_errors.extend(errors.tolist())
        rows.extend((scenario.id, i, f"{e:.6f}") for i, e in enumerate(errors))

    summary = {
        "overall": {
            "mean_cm": float(np.mean(all_errors)),
            "median_cm": float(np.median(all_errors)),
            "count": len(all_errors),
        },
        "per_scenario": per_scenario,
    }
    resolved = dataclasses.asdict(cfg)
    resolved.update({"checkpoint": str(args.checkpoint), "data": str(args.data)})
    files = {
        "errors.csv": _csv(["scenario", "sample", "error_cm"], rows),
        "summary.json": _text(json.dumps(summary, indent=2)),
    }
    _write_outputs(Path(args.out), "eval", resolved, files)
    print(
        f"evaluated {len(scenarios)} scenarios: mean {summary['overall']['mean_cm']:.1f} cm, "
        f"median {summary['overall']['median_cm']:.1f} cm"
    )
    return 0


def cmd_bench(args) -> int:
    _check_worker_count()
    algorithms, shots = args.algos.split(","), args.shots
    scenarios = load_scenario_dir(args.data)
    n = len(scenarios)
    matrix_count = args.matrix_scenarios
    if matrix_count is None:
        matrix_count = min(n, 10)
    elif not 2 <= matrix_count <= n:
        raise UsageError(f"--matrix-scenarios {matrix_count} outside 2..{n} for {n} scenarios")
    # the matrix and sweep experiments run at the first listed shot count
    cfg = _meta_config(args, shots[0])
    try:
        # with no counts, or no meta-learner, the sweep has no cells
        meta_algos = [a for a in algorithms if a in meta.META_ALGORITHMS]
        plans = [
            evaluation.benchmark_plan(
                scenarios, algorithms, shots, args.repeats, cfg, test_count=args.test_scenarios
            ),
            evaluation.matrix_plan(scenarios[:matrix_count], cfg),
            evaluation.sweep_plan(
                scenarios, meta_algos, args.counts or [], args.repeats, cfg, test_count=args.test_scenarios
            ),
        ]
    except ValueError as e:
        raise UsageError(str(e)) from None
    report, matrix, sweep = evaluation.run_plans(*plans)

    files = {
        "errors.csv": _csv(
            ["algorithm", "shots", "repeat", "scenario", "error_cm"],
            [
                (e["algorithm"], e["shots"], e["repeat"], e["scenario"], f"{v:.6f}")
                for e in report.entries
                for v in e["errors"]
            ],
        ),
        "cdf.csv": _csv(
            ["algorithm", "shots", "threshold_cm", "fraction"],
            [
                (r["algorithm"], r["shots"], r["threshold_cm"], f"{r['fraction']:.6f}")
                for r in report.cdf_table()
            ],
        ),
        "matrix.csv": _csv(
            ["i", "j", "mean_error_cm"],
            [
                (i, j, f"{matrix[i, j]:.6f}")
                for i in range(matrix.shape[0])
                for j in range(matrix.shape[1])
            ],
        ),
        "sweep.csv": _csv(
            ["algorithm", "task_count", "mean_error_cm"],
            [
                (algo, count, f"{mean:.6f}")
                for (algo, count), mean in sorted(sweep.items())
            ],
        ),
        "summary.json": _text(json.dumps(report.summary(), indent=2)),
    }
    resolved = dataclasses.asdict(cfg)
    resolved.update(
        {
            "algorithms": algorithms,
            "shot_counts": shots,
            "repeats": args.repeats,
            "test_scenarios": args.test_scenarios,
            "matrix_scenarios": matrix_count,
            "counts": args.counts,
            "data": str(args.data),
        }
    )
    _write_outputs(Path(args.out), "bench", resolved, files)
    for row in report.summary():
        print(
            f"{row['algorithm']:>12s}  k={row['shots']}  "
            f"mean {row['mean_cm']:6.1f} cm  median {row['median_cm']:6.1f} cm"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return n


def _int_list(value: str) -> list:
    try:
        return [int(v) for v in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument(
        "--out", required=True,
        help="output directory, made only once the work is done, so a failed command leaves none; "
        "importance writes its one file at this path",
    )
    on_data = argparse.ArgumentParser(add_help=False, parents=[seeded])
    on_data.add_argument("--data", required=True)
    for flag, name, kind, help_text in _CONFIG_FLAGS:
        on_data.add_argument(flag, dest=name, type=kind, default=None, help=help_text)
    at_k = argparse.ArgumentParser(add_help=False, parents=[on_data])
    at_k.add_argument("--k", type=int, default=None, help="shot count (0 = zero-shot)")

    parser = argparse.ArgumentParser(
        prog="metaloc",
        description="Few-shot CSI indoor localization: data, training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seeded], help="generate synthetic scenario files")
    p.add_argument("--scenarios", type=_positive_int, required=True)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--spacing-cm", dest="spacing_cm", type=float, default=60.0)
    p.add_argument("--samples-per-rp", dest="samples_per_rp", type=int, default=40)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("importance", parents=[at_k], help="compute the task importance vector")
    p.set_defaults(fn=cmd_importance)

    p = sub.add_parser("train", parents=[at_k], help="train one algorithm on a scenario directory")
    p.add_argument("--algo", required=True, choices=evaluation.ALL_ALGORITHMS)
    p.add_argument("--importance", default=None, help="importance JSON for tb-maml")
    p.add_argument("--target", type=int, default=0, help="target scenario index (baselines)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", parents=[at_k], help="adapt a checkpoint on each scenario and report errors")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", parents=[on_data], help="run the full benchmark suite")
    p.add_argument("--algos", default=",".join(evaluation.ALL_ALGORITHMS))
    p.add_argument("--shots", type=_int_list, default="5,3")
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--test-scenarios", dest="test_scenarios", type=int, default=5)
    p.add_argument(
        "--matrix-scenarios", dest="matrix_scenarios", type=int, default=None,
        help="scenarios in the cross-scenario matrix (default: all, up to 10)",
    )
    p.add_argument("--counts", type=_int_list, default=None, help="task-count sweep, e.g. 5,10,15")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the engine's finite checks report a non-finite value, once, as a
        # NumericError; numpy's warnings would repeat it as source lines
        with np.errstate(all="ignore"):
            return args.fn(args)
    except KeyboardInterrupt:
        evaluation._kill_pool()  # its workers ignore SIGINT and would finish their cells first
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except UsageError as e:
        parser.error(str(e))
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
