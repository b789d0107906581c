"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run every workload at its tiny size, so they check the harness and
the output check, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import outcheck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_lists_match_benchmark_json():
    def spec(kind):
        return [(m["name"], m["unit"], m["better"]) for m in SPEC[kind]]

    assert spec("end_to_end") == list(run.END_TO_END)
    assert spec("per_layer") == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--tiny", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    kind = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    for m in SPEC[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "importance", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class AlwaysRaises:
    """A workload whose every job fails, as a bench that exits non-zero would."""

    name = "always-raises"

    def setup(self, seed, work_dir):
        return None

    def run(self, inputs):
        raise RuntimeError("exited 1")

    def invariants(self, outputs):
        return []


def test_every_failed_attempt_counts(tmp_path):
    runner, report, _, _ = run.measure(AlwaysRaises(), 1, 0.05, tmp_path, tiny=True)
    assert runner.attempted >= 3
    assert runner.failed == runner.attempted
    assert report["failed_frac"] == 1.0


def test_seconds_default_is_run_seconds():
    args = run.build_parser().parse_args(["--workload", "importance"])
    assert args.seconds == SPEC["run_seconds"]


def test_output_check_fails_on_perturbed_reference(tmp_path):
    w = workloads.Importance(tiny=True)
    outputs = w.run(w.setup(1, tmp_path)).outputs
    path = tmp_path / "ref.npz"
    outcheck.save(path, outputs)
    reference = outcheck.load(path)
    assert outcheck.compare(outputs, reference) == []
    assert outcheck.identical(outputs, reference) == []

    drifted = dict(reference, values=reference["values"] * (1 + 1e-13))
    assert outcheck.compare(outputs, drifted) == []
    assert outcheck.identical(outputs, drifted) != []

    perturbed = dict(reference, values=reference["values"] * (1 + 1e-6))
    assert outcheck.compare(outputs, perturbed) != []
    renamed = dict(reference, task_ids=reference["task_ids"] + "x")
    assert outcheck.compare(outputs, renamed) != []
    assert outcheck.compare(outputs, {k: v for k, v in reference.items() if k != "values"}) != []


def test_csv_values_get_rounding_tolerance():
    ref = {"errors.csv:error_cm": np.array([1.000001]), "summary.json:mean_cm": np.array([1.0])}
    assert outcheck.compare({"errors.csv:error_cm": np.array([1.000002]), "summary.json:mean_cm": np.array([1.0])}, ref) == []
    assert outcheck.compare({"errors.csv:error_cm": np.array([1.00001]), "summary.json:mean_cm": np.array([1.0])}, ref) != []
    assert outcheck.compare({"errors.csv:error_cm": np.array([1.000001]), "summary.json:mean_cm": np.array([1.000001])}, ref) != []


def test_invariants_reject_inconsistent_importance(tmp_path):
    w = workloads.Importance(tiny=True)
    outputs = w.run(w.setup(1, tmp_path)).outputs
    assert w.invariants(outputs) == []
    bad = dict(outputs, values=-outputs["values"])
    assert w.invariants(bad) != []


def test_traced_counts_repeat(tmp_path):
    w = workloads.MamlTrain(tiny=True)
    inputs = w.setup(1, tmp_path)
    runs = []
    for _ in range(2):
        with tracer.Tracer() as spans:
            job = w.run(inputs)
        metrics = run.per_layer_metrics(tracer.merge([spans.snapshot()]), {})
        runs.append((job, {k: v for k, v in metrics.items() if "calls" in k or k.startswith("node")}))
    (first, counts), (second, again) = runs
    assert counts == again
    assert counts["nodes_created_per_iter"] > counts["nodes_reachable_per_iter"] > 0
    assert counts["grad.calls"] > 0 and counts["inner_adapt.calls"] > 0
    assert outcheck.identical(second.outputs, first.outputs) == []


def test_tracer_restores_the_program(tmp_path):
    from metaloc import autodiff, evaluation, meta

    before = (meta.grad, meta.model_loss, evaluation.batch_from, autodiff.Node, evaluation._run_cells)
    with tracer.Tracer():
        assert meta.grad is not before[0]
    assert (meta.grad, meta.model_loss, evaluation.batch_from, autodiff.Node, evaluation._run_cells) == before


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(36) == 72
    assert run.tail_percentile(1000) == 99
