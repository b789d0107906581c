"""Command-line runner: generate data, compute importance, train, evaluate,
benchmark. Each command but importance writes a run manifest with the fully
resolved configuration so runs can be reproduced bit-for-bit from the same
flags; importance keeps its configuration in the file it writes.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
`metaloc bench` leaves the checks of its experiments to the evaluation
plans and reports a plan's ValueError as a usage error (exit 2); any
other ValueError, such as a library rule on the data, exits 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
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


class UsageError(Exception):
    """Flags that parse but form an invalid configuration."""


def _write_manifest(out_dir: Path, command: str, resolved: dict, outputs: list) -> None:
    doc = {
        "command": command,
        "config": resolved,
        "outputs": sorted(str(o) for o in outputs),
        "version": __version__,
        "wallclock": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "run.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


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


def _meta_config(args) -> meta.MetaConfig:
    cfg = meta.MetaConfig(seed=args.seed)
    overrides = {
        name: getattr(args, name) for _, name, _, _ in _CONFIG_FLAGS if getattr(args, name) is not None
    }
    if getattr(args, "k", None) is not None:
        overrides["shots"] = args.k
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as e:
        raise UsageError(str(e))


def _write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(rows=args.rows, cols=args.cols, spacing_cm=args.spacing_cm)
    config = ChannelConfig(grid=grid, samples_per_rp=args.samples_per_rp)
    outputs = []
    for k in range(args.scenarios):
        scenario = generate_scenario(
            substream_int(args.seed, "data", k), config, scenario_id=f"scenario_{k:03d}"
        )
        path = out / f"scenario_{k:03d}.json"
        save_scenario(scenario, path)
        outputs.append(path)
    _write_manifest(
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
        outputs,
    )
    print(f"wrote {len(outputs)} scenarios to {out}")
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
    cfg = _meta_config(args)
    vector = meta.compute_importance(scenarios, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_importance_doc(vector, cfg, scenarios), indent=2))
    print(f"importance over {len(scenarios)} tasks -> {out}")
    return 0


def cmd_train(args) -> int:
    if args.algo in meta.META_ALGORITHMS:
        _check_worker_count()  # meta-batches and the importance vector run in the pool
    scenarios = load_scenario_dir(args.data)
    cfg = _meta_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace: list = []
    outputs = []
    resolved = dataclasses.asdict(cfg)
    resolved.update({"algorithm": args.algo, "data": str(args.data)})

    if args.algo in meta.META_ALGORITHMS:
        importance = None
        if args.algo == "tb-maml":
            if args.importance:
                importance = _load_importance(Path(args.importance), scenarios)
                resolved["importance_file"] = str(args.importance)
            else:
                importance = meta.compute_importance(scenarios, cfg)
                evaluation._close_pool()  # meta_train runs here; free the idle workers
                imp_path = out / "importance.json"
                imp_path.write_text(json.dumps(_importance_doc(importance, cfg, scenarios), indent=2))
                outputs.append(imp_path)
                resolved["importance_file"] = str(imp_path)
        params = meta.meta_train(args.algo, scenarios, cfg, importance=importance, trace=trace)
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

    ckpt = out / "checkpoint.json"
    save_params(params, ckpt)
    outputs.append(ckpt)
    trace_path = out / "trace.csv"
    _write_csv(trace_path, ["iteration", "task_id", "query_loss"], trace)
    outputs.append(trace_path)
    _write_manifest(out, "train", resolved, outputs)
    print(f"trained {args.algo} -> {ckpt}")
    return 0


def cmd_eval(args) -> int:
    params = load_params(args.checkpoint)
    scenarios = load_scenario_dir(args.data)
    cfg = _meta_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

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

    errors_path = out / "errors.csv"
    _write_csv(errors_path, ["scenario", "sample", "error_cm"], rows)
    summary = {
        "overall": {
            "mean_cm": float(np.mean(all_errors)),
            "median_cm": float(np.median(all_errors)),
            "count": len(all_errors),
        },
        "per_scenario": per_scenario,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2))
    resolved = dataclasses.asdict(cfg)
    resolved.update({"checkpoint": str(args.checkpoint), "data": str(args.data)})
    _write_manifest(out, "eval", resolved, [errors_path, summary_path])
    print(
        f"evaluated {len(scenarios)} scenarios: mean {summary['overall']['mean_cm']:.1f} cm, "
        f"median {summary['overall']['median_cm']:.1f} cm"
    )
    return 0


def cmd_bench(args) -> int:
    _check_worker_count()
    algorithms, shots = args.algos, args.shots
    scenarios = load_scenario_dir(args.data)
    n = len(scenarios)
    if args.matrix_scenarios is None:
        args.matrix_scenarios = min(n, 10)
    elif not 2 <= args.matrix_scenarios <= n:
        raise UsageError(f"--matrix-scenarios {args.matrix_scenarios} outside 2..{n} for {n} scenarios")
    # the matrix and sweep experiments run at the first listed shot count
    args.k = shots[0]
    cfg = _meta_config(args)
    try:
        plans = [
            evaluation.benchmark_plan(
                scenarios, algorithms, shots, args.repeats, cfg, test_count=args.test_scenarios
            ),
            evaluation.matrix_plan(scenarios[: args.matrix_scenarios], cfg),
        ]
        if args.counts:  # sweep_plan checks them; with no meta-learner it has no cells
            meta_algos = [a for a in algorithms if a in meta.META_ALGORITHMS]
            plans.append(
                evaluation.sweep_plan(
                    scenarios, meta_algos, args.counts, args.repeats, cfg, test_count=args.test_scenarios
                )
            )
    except ValueError as e:
        raise UsageError(str(e)) from None
    report, matrix, *sweep = evaluation.run_plans(*plans)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    errors_path = out / "errors.csv"
    _write_csv(
        errors_path,
        ["algorithm", "shots", "repeat", "scenario", "error_cm"],
        [
            (e["algorithm"], e["shots"], e["repeat"], e["scenario"], f"{v:.6f}")
            for e in report.entries
            for v in e["errors"]
        ],
    )
    outputs.append(errors_path)
    cdf_path = out / "cdf.csv"
    _write_csv(
        cdf_path,
        ["algorithm", "shots", "threshold_cm", "fraction"],
        [
            (r["algorithm"], r["shots"], r["threshold_cm"], f"{r['fraction']:.6f}")
            for r in report.cdf_table()
        ],
    )
    outputs.append(cdf_path)

    matrix_path = out / "matrix.csv"
    _write_csv(
        matrix_path,
        ["i", "j", "mean_error_cm"],
        [
            (i, j, f"{matrix[i, j]:.6f}")
            for i in range(matrix.shape[0])
            for j in range(matrix.shape[1])
        ],
    )
    outputs.append(matrix_path)

    sweep_path = out / "sweep.csv"
    _write_csv(
        sweep_path,
        ["algorithm", "task_count", "mean_error_cm"],
        [
            (algo, count, f"{mean:.6f}")
            for (algo, count), mean in sorted(sweep[0].items() if sweep else ())
        ],
    )
    outputs.append(sweep_path)

    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(report.summary(), indent=2))
    outputs.append(summary_path)
    resolved = dataclasses.asdict(cfg)
    resolved.update(
        {
            "algorithms": algorithms,
            "shot_counts": shots,
            "repeats": args.repeats,
            "test_scenarios": args.test_scenarios,
            "matrix_scenarios": args.matrix_scenarios,
            "counts": args.counts,
            "data": str(args.data),
        }
    )
    _write_manifest(out, "bench", resolved, outputs)
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


def _algorithm_list(value: str) -> list:
    names = value.split(",")
    unknown = [n for n in names if n not in evaluation.ALL_ALGORITHMS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown {unknown}; expected {evaluation.ALL_ALGORITHMS}")
    return names


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for flag, name, kind, help_text in _CONFIG_FLAGS:
        p.add_argument(flag, dest=name, type=kind, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaloc",
        description="Few-shot CSI indoor localization: data, training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic scenario files")
    p.add_argument("--scenarios", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--spacing-cm", dest="spacing_cm", type=float, default=60.0)
    p.add_argument("--samples-per-rp", dest="samples_per_rp", type=int, default=40)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("importance", help="compute the task importance vector")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=None, help="shot count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_importance)

    p = sub.add_parser("train", help="train one algorithm on a scenario directory")
    p.add_argument("--algo", required=True, choices=evaluation.ALL_ALGORITHMS)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=None, help="shot count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--importance", default=None, help="importance JSON for tb-maml")
    p.add_argument("--target", type=int, default=0, help="target scenario index (baselines)")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="adapt a checkpoint on each scenario and report errors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=None, help="shot count (0 = zero-shot)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="run the full benchmark suite")
    p.add_argument("--data", required=True)
    p.add_argument("--algos", type=_algorithm_list, default=",".join(evaluation.ALL_ALGORITHMS))
    p.add_argument("--shots", type=_int_list, default="5,3")
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--test-scenarios", dest="test_scenarios", type=int, default=5)
    p.add_argument(
        "--matrix-scenarios", dest="matrix_scenarios", type=int, default=None,
        help="scenarios in the cross-scenario matrix (default: all, up to 10)",
    )
    p.add_argument("--counts", type=_int_list, default=None, help="task-count sweep, e.g. 5,10,15")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
