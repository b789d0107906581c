"""End-to-end outputs of the CLI, pinned against committed references.

Each command runs at a tiny budget on one generated dataset of 4 rooms:
`bench`, `importance`, `train` for each baseline and each meta-learner,
and `eval`. Named
numeric outputs are compared with `pinned_outputs.json` at rtol 1e-9, as
the benchmark's output check does: bitwise equality fails across BLAS
builds, while any change to the arithmetic moves these values far more. Values read back from the CSV
files, which round to 6 decimals, get an absolute 2e-6 on top. Only the
keys named here are compared, so a new output key leaves the pins alone.

To rewrite the references after an intended change of results, run
`PYTHONPATH=src python tests/test_pinned_outputs.py`.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from metaloc.cli import main

REFERENCE = Path(__file__).resolve().parent / "pinned_outputs.json"
RTOL, ATOL, CSV_ATOL = 1e-9, 1e-12, 2e-6

BUDGET = [
    "--meta-iterations", "2",
    "--batch", "2",
    "--inner-steps", "1",
    "--baseline-epochs", "2",
    "--finetune-epochs", "1",
    "--importance-epochs", "1",
]
# the benchmark's TINY_BENCH_FLAGS, copied so that a benchmark edit cannot move the pins
BENCH = [
    "--algos", "conventional,transfer,fomaml,tb-maml",
    "--shots", "5",
    "--repeats", "1",
    "--test-scenarios", "2",
    "--matrix-scenarios", "2",
    "--counts", "2",
    "--meta-iterations", "1",
    "--inner-steps", "1",
    "--baseline-epochs", "2",
    "--finetune-epochs", "1",
    "--importance-epochs", "1",
]
BASELINES = ("conventional", "transfer")
META = ("maml", "fomaml", "tb-maml")


def _csv_column(path: Path, column: str) -> list:
    with path.open() as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _layer_norms(checkpoint: Path) -> dict:
    """Each layer's L1 and L2 norm: no cancellation, and any changed weight moves them."""
    doc = json.loads(checkpoint.read_text())
    return {
        f"{layer['name']}.{kind}": float(np.linalg.norm(layer["values"], order))
        for layer in doc["layers"]
        for kind, order in (("l1", 1), ("l2", 2))
    }


def run_commands(root: Path) -> dict:
    """The pinned outputs, by key; CSV-rounded ones have '.csv:' in their key."""
    data = root / "data"
    assert main(["gen", "--scenarios", "4", "--seed", "7", "--samples-per-rp", "8", "--out", str(data)]) == 0
    out: dict = {}

    bench = root / "bench"
    assert main(["bench", "--data", str(data), "--out", str(bench)] + BENCH) == 0
    for row in json.loads((bench / "summary.json").read_text()):
        for key in ("mean_cm", "median_cm", "q25_cm", "q75_cm"):
            out[f"bench.{row['algorithm']}.k{row['shots']}.{key}"] = row[key]
    out["bench.matrix.csv:mean_error_cm"] = _csv_column(bench / "matrix.csv", "mean_error_cm")
    out["bench.sweep.csv:mean_error_cm"] = _csv_column(bench / "sweep.csv", "mean_error_cm")

    imp = root / "importance.json"
    assert main(["importance", "--data", str(data), "--out", str(imp)] + BUDGET) == 0
    doc = json.loads(imp.read_text())
    for key in ("importance", "average_losses", "loss_matrix"):
        out[f"importance.{key}"] = np.array(doc[key], dtype=np.float64).tolist()

    for algo in BASELINES + META:
        run = root / algo
        argv = ["train", "--algo", algo, "--data", str(data), "--out", str(run)] + BUDGET
        assert main(argv + (["--importance", str(imp)] if algo == "tb-maml" else [])) == 0
        for name, value in _layer_norms(run / "checkpoint.json").items():
            out[f"train.{algo}.{name}"] = value
        if algo in META:  # a baseline's trace.csv has no rows
            out[f"train.{algo}.query_loss"] = _csv_column(run / "trace.csv", "query_loss")

    ev = root / "eval"
    argv = ["eval", "--checkpoint", str(root / "maml" / "checkpoint.json"), "--data", str(data)]
    assert main(argv + ["--out", str(ev)] + BUDGET) == 0
    doc = json.loads((ev / "summary.json").read_text())
    for key in ("mean_cm", "median_cm"):
        out[f"eval.overall.{key}"] = doc["overall"][key]
        for sid, row in sorted(doc["per_scenario"].items()):
            out[f"eval.{sid}.{key}"] = row[key]
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("pinned"))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("group", ["bench", "importance", *(f"train.{a}" for a in BASELINES + META), "eval"])
def test_outputs_match_the_pinned_references(outputs, reference, group):
    keys = sorted(k for k in reference if k.startswith(group + "."))
    assert keys, f"no pinned keys for {group}"
    missing = [k for k in keys if k not in outputs]
    assert not missing, f"outputs lack pinned keys {missing}"
    off = []
    for key in keys:
        got = np.asarray(outputs[key], dtype=np.float64)
        want = np.asarray(reference[key], dtype=np.float64)
        atol = CSV_ATOL if ".csv:" in key else ATOL
        if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=atol, equal_nan=True):
            off.append(f"{key}: {got.tolist()} vs pinned {want.tolist()}")
    assert not off, "\n".join(off)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pins = run_commands(Path(scratch))
    REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pinned outputs to {REFERENCE}")
