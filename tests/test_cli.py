"""End-to-end command behavior: files, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import metaloc
from metaloc import evaluation, meta
from metaloc.autodiff import Tensor
from metaloc.cli import _CONFIG_FLAGS, EXIT_DATA, EXIT_NUMERIC, EXIT_USAGE, build_parser, main
from metaloc.model import init_params, save_params
from metaloc.tasks import load_scenario_dir

SRC = Path(__file__).resolve().parent.parent / "src"

FAST_FLAGS = [
    "--alpha", "0.001",
    "--beta", "0.001",
    "--gamma", "0.0005",
    "--inner-steps", "1",
    "--meta-iterations", "2",
    "--batch", "1",
    "--importance-epochs", "2",
    "--baseline-epochs", "2",
    "--finetune-epochs", "1",
]


def gen(tmp_path, n=3, seed=1, spp=4) -> Path:
    data = tmp_path / "data"
    rc = main(
        [
            "gen",
            "--scenarios", str(n),
            "--seed", str(seed),
            "--out", str(data),
            "--samples-per-rp", str(spp),
        ]
    )
    assert rc == 0
    return data


def test_gen_writes_deterministic_files(tmp_path):
    data = gen(tmp_path, n=3)
    files = sorted(p.name for p in data.glob("scenario_*.json"))
    assert files == ["scenario_000.json", "scenario_001.json", "scenario_002.json"]
    first = (data / "scenario_000.json").read_bytes()
    again = tmp_path / "again"
    rc = main(
        ["gen", "--scenarios", "3", "--seed", "1", "--out", str(again), "--samples-per-rp", "4"]
    )
    assert rc == 0
    assert (again / "scenario_000.json").read_bytes() == first
    manifest = json.loads((data / "run.json").read_text())
    assert manifest["command"] == "gen" and manifest["config"]["scenarios"] == 3


def test_gen_rejects_zero_scenarios(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--scenarios", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("spacing", ["nan", "inf", "1e308"])
def test_gen_rejects_non_finite_spacing(tmp_path, spacing, capsys):
    out = tmp_path / "x"
    rc = main(["gen", "--scenarios", "2", "--spacing-cm", spacing, "--out", str(out)])
    assert rc == 3
    assert "degenerate grid: spacing" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_a_negative_grid(tmp_path, capsys):
    out = tmp_path / "x"
    rc = main(["gen", "--scenarios", "1", "--rows", "-3", "--cols", "-4", "--out", str(out)])
    assert rc == 3
    assert "degenerate grid -3x-4: needs rows >= 1, cols >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_algo_usage_error(tmp_path):
    data = gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "alchemy", "--data", str(data), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_negative_learning_rate_is_usage_error(tmp_path, capsys):
    data = gen(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "conventional", "--data", str(data), "--out", str(out),
              "--baseline-lr", "-0.03"])
    assert exc.value.code == 2
    assert "baseline_lr must be > 0, got -0.03" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_usage_error(tmp_path):
    data = gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "maml", "--data", str(data), "--out", str(tmp_path / "o"),
              "--beta", "0.001", "--gamma", "0.002"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "algo, flag, value",
    [("maml", "--alpha", "nan"), ("maml", "--gamma", "nan"), ("conventional", "--baseline-lr", "inf")],
)
def test_non_finite_config_is_usage_error_before_any_output(tmp_path, algo, flag, value):
    data = gen(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", algo, "--data", str(data), "--out", str(out), *FAST_FLAGS, flag, value])
    assert exc.value.code == 2
    assert not out.exists()


def test_importance_command(tmp_path):
    data = gen(tmp_path, n=2)
    out = tmp_path / "importance.json"
    rc = main(
        ["importance", "--data", str(data), "--k", "1", "--seed", "3", "--out", str(out)]
        + FAST_FLAGS
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    u = doc["importance"]
    assert sorted(u) in ([-1.0, 1.0], [0.0, 0.0])
    matrix = doc["loss_matrix"]
    assert len(matrix) == 2 and matrix[0][0] is None and matrix[0][1] is not None


def test_importance_zero_shots(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "importance.json"
    rc = main(["importance", "--data", str(data), "--k", "0", "--out", str(out)] + FAST_FLAGS)
    assert rc == 0
    matrix = json.loads(out.read_text())["loss_matrix"]
    assert [len(row) for row in matrix] == [3, 3, 3]


def test_importance_one_scenario_is_error(tmp_path, capsys):
    data = gen(tmp_path, n=1)
    out = tmp_path / "importance.json"
    rc = main(["importance", "--data", str(data), "--k", "1", "--out", str(out)] + FAST_FLAGS)
    assert rc == 3
    assert "importance needs at least 2 training tasks, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_importance_missing_dir_is_data_error(tmp_path):
    rc = main(
        ["importance", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "u.json")]
    )
    assert rc == 3


def test_train_meta_writes_outputs(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "run"
    rc = main(
        ["train", "--algo", "maml", "--data", str(data), "--k", "1", "--seed", "2",
         "--out", str(out)] + FAST_FLAGS
    )
    assert rc == 0
    assert (out / "checkpoint.json").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,task_id,query_loss"
    assert len(trace) > 1
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["alpha"] == 0.001
    assert manifest["config"]["beta"] == 0.001
    assert manifest["config"]["gamma"] == 0.0005


def test_train_records_why_meta_training_stopped(tmp_path, monkeypatch):
    data = gen(tmp_path)

    def stop_record(out, *flags):
        rc = main(["train", "--algo", "fomaml", "--data", str(data), "--k", "1", "--out", str(out)]
                  + FAST_FLAGS + list(flags))
        assert rc == 0
        return json.loads((out / "run.json").read_text())["stop"]

    assert stop_record(tmp_path / "budget") == {"reason": "budget", "iterations": 2}
    # with one-iteration windows, a query loss that stands still converges
    # at the first check, the second iteration of 5
    monkeypatch.setattr(meta, "CONVERGENCE_WINDOW", 1)
    monkeypatch.setattr(
        meta, "_meta_gradients",
        lambda params, batch, *rest: ([Tensor(np.zeros(p.shape)) for p in params.values()], [5.0] * len(batch)),
    )
    assert stop_record(tmp_path / "converged", "--meta-iterations", "5") == {
        "reason": "converged", "iterations": 2, "window_means": [5.0, 5.0],
    }


def test_train_meta_zero_shots_is_error(tmp_path, capsys):
    data = gen(tmp_path)
    rc = main(
        ["train", "--algo", "fomaml", "--data", str(data), "--k", "0", "--out", str(tmp_path / "o")]
        + FAST_FLAGS
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: meta_train needs shots >= 1")


def test_train_tb_maml_zero_shots_fails_before_any_importance_row(tmp_path, capsys, monkeypatch):
    # meta_train's shot rule is checked before the importance vector that
    # tb-maml would meta-train with is computed
    data = gen(tmp_path)
    monkeypatch.setattr(meta, "compute_importance", mock.Mock(side_effect=AssertionError("importance ran")))
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "0", "--out", str(tmp_path / "o")]
        + FAST_FLAGS
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: meta_train needs shots >= 1")


@pytest.mark.parametrize(
    "algo, flags, code",
    [
        ("tb-maml", ["--k", "0"], EXIT_DATA),  # before its importance vector is computed
        ("fomaml", ["--k", "0"], EXIT_DATA),
        ("maml", ["--k", "1", "--alpha", "1e300"], EXIT_NUMERIC),
    ],
    ids=["tb-maml-zero-shots", "fomaml-zero-shots", "maml-overflowing-alpha"],
)
def test_failed_train_leaves_no_out(tmp_path, algo, flags, code):
    data = gen(tmp_path)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        rc = main(["train", "--algo", algo, "--data", str(data), "--out", str(out)] + FAST_FLAGS + flags)
    assert rc == code
    assert not out.exists()


def test_train_tb_maml_computes_importance_when_missing(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "run"
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--seed", "2",
         "--out", str(out)] + FAST_FLAGS
    )
    assert rc == 0
    assert (out / "importance.json").exists()
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["config"]["importance_file"].endswith("importance.json")
    # meta-training runs in this process: the importance workers were let go
    assert evaluation._pool is None


def test_train_conventional_and_transfer(tmp_path):
    data = gen(tmp_path)
    for algo in ("conventional", "transfer"):
        out = tmp_path / f"run_{algo}"
        rc = main(
            ["train", "--algo", algo, "--data", str(data), "--k", "1", "--seed", "2",
             "--target", "1", "--out", str(out)] + FAST_FLAGS
        )
        assert rc == 0
        assert (out / "checkpoint.json").exists()
        # a baseline runs its epochs; there is no early stop to explain
        assert "stop" not in json.loads((out / "run.json").read_text())


def test_train_transfer_without_source_scenario_is_error(tmp_path, capsys):
    data = gen(tmp_path, n=1)
    out = tmp_path / "o"
    rc = main(["train", "--algo", "transfer", "--data", str(data), "--k", "1", "--out", str(out)]
              + FAST_FLAGS)
    assert rc == 3
    assert "transfer needs at least 1 source scenario, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_target_out_of_range_usage_error(tmp_path, capsys):
    data = gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", "conventional", "--data", str(data), "--target", "99",
              "--out", str(tmp_path / "o")] + FAST_FLAGS)
    assert exc.value.code == 2
    assert "--target 99 is outside [0, 3)" in capsys.readouterr().err


def test_train_tb_maml_misaligned_importance_is_error(tmp_path, capsys):
    data = gen(tmp_path)
    imp = tmp_path / "importance.json"
    assert main(["importance", "--data", str(data), "--k", "1", "--out", str(imp)] + FAST_FLAGS) == 0
    doc = json.loads(imp.read_text())
    doc["task_ids"] = doc["task_ids"][::-1]  # the same tasks in another order
    imp.write_text(json.dumps(doc))
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--importance", str(imp),
         "--out", str(tmp_path / "o")] + FAST_FLAGS
    )
    assert rc == 3
    assert "not the training tasks" in capsys.readouterr().err


def test_train_tb_maml_importance_of_other_rooms_is_error(tmp_path, capsys):
    # gen names scenarios scenario_000... in every directory, so the ids of
    # an importance file from other rooms match; its sample digests do not
    other = gen(tmp_path / "other", n=3, seed=9)
    imp = tmp_path / "importance.json"
    assert main(["importance", "--data", str(other), "--k", "1", "--out", str(imp)] + FAST_FLAGS) == 0
    data = gen(tmp_path, n=3, seed=1)
    argv = ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1",
            "--importance", str(imp), "--out", str(tmp_path / "o")] + FAST_FLAGS
    assert main(argv) == 3
    assert "task scenario_000 was computed on other samples" in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.json").exists()

    doc = json.loads(imp.read_text())
    assert len(doc["task_digests"]) == 3 and len(set(doc["task_digests"])) == 3
    del doc["task_digests"]  # a file without digests cannot be checked
    imp.write_text(json.dumps(doc))
    assert main(argv) == 3
    assert f"{imp}: missing field 'task_digests'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.json").exists()


@pytest.mark.parametrize("keep", [0, 2, 4], ids=["empty", "short", "long"])
def test_train_tb_maml_importance_digest_count_must_match_task_ids(tmp_path, capsys, keep):
    other = gen(tmp_path / "other", n=3, seed=9)
    imp = tmp_path / "importance.json"
    assert main(["importance", "--data", str(other), "--k", "1", "--out", str(imp)] + FAST_FLAGS) == 0
    doc = json.loads(imp.read_text())
    doc["task_digests"] = (doc["task_digests"] * 2)[:keep]
    imp.write_text(json.dumps(doc))
    data = gen(tmp_path, n=3, seed=1)
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--importance", str(imp),
         "--out", str(tmp_path / "o")] + FAST_FLAGS
    )
    assert rc == 3
    assert f"{imp}: field 'task_digests' has {keep} entries for 3 task ids" in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.json").exists()


def test_config_flags_cover_every_meta_config_field():
    # every MetaConfig field is set from the command line: a flag, --k or --seed
    fields = {f.name for f in dataclasses.fields(meta.MetaConfig)}
    assert fields == {name for _, name, _, _ in _CONFIG_FLAGS} | {"shots", "seed"}


IDS = ["scenario_000", "scenario_001", "scenario_002"]
WELL_FORMED = {
    "task_ids": IDS,
    "importance": [0.5, 0.0, -0.5],
    "average_losses": [1.0, 2.0, 3.0],
    "loss_matrix": [[None, 1.0, 1.0], [2.0, None, 2.0], [3.0, 3.0, None]],
}


@pytest.mark.parametrize(
    "doc,reason",
    [
        ({"task_ids": IDS}, "missing field 'importance'"),
        ([IDS], "top level must be a JSON object, got list"),
        (dict(WELL_FORMED, importance="0.5"), "field 'importance' is not a list of numbers"),
        ("{oops", "invalid JSON at line 1: Expecting property name enclosed in double quotes"),
        (dict(WELL_FORMED, importance=["0.5", 0.0, 0.0]), "field 'importance' is not a list of numbers"),
        (dict(WELL_FORMED, importance=[None, 0.0, 1.0]), "field 'importance' must be finite and within [-1, 1]"),
        (dict(WELL_FORMED, importance=[50.0, -30.0, 1.0]), "field 'importance' must be finite and within [-1, 1]"),
        (dict(WELL_FORMED, importance=[0.5, 0.0]), "field 'importance' has 2 entries for 3 task ids"),
        (dict(WELL_FORMED, average_losses=[1.0]), "field 'average_losses' has 1 entries for 3 task ids"),
        (dict(WELL_FORMED, loss_matrix=[[1.0]]), "field 'loss_matrix' has shape (1, 1) for 3 task ids"),
        # numpy would read each of these booleans as a number
        (dict(WELL_FORMED, importance=[0.5, True, 0.0]), "field 'importance' is not a list of numbers"),
        (dict(WELL_FORMED, loss_matrix=[[0.0, True, 1.0], [2.0, 0.0, 2.0], [3.0, 3.0, 0.0]]),
         "field 'loss_matrix' is not a list of rows of numbers"),
    ],
    ids=["only-task-ids", "json-list", "importance-string", "invalid-json", "importance-string-entry",
         "importance-null", "importance-out-of-range", "importance-short", "average-losses-short",
         "loss-matrix-1x1", "importance-bool-entry", "loss-matrix-bool-entry"],
)
def test_train_tb_maml_malformed_importance_is_data_error(tmp_path, capsys, doc, reason):
    data = gen(tmp_path)
    if isinstance(doc, dict):  # the digests of these rooms, so only the named field is wrong
        doc = dict(doc, task_digests=[s.digest() for s in load_scenario_dir(data)])
    imp = tmp_path / "importance.json"
    imp.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--importance", str(imp),
         "--out", str(tmp_path / "o")] + FAST_FLAGS
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{imp}: {reason}" in err
    assert not (tmp_path / "o" / "checkpoint.json").exists()


@pytest.mark.parametrize("file_tasks, data_tasks", [(3, 4), (4, 3)], ids=["3-for-4", "4-for-3"])
def test_train_tb_maml_importance_task_count_must_match_scenarios(tmp_path, capsys, file_tasks, data_tasks):
    # gen draws room k from (seed, k), so the rooms an importance file names are the data's own
    rooms = load_scenario_dir(gen(tmp_path / "rooms", n=4))[:file_tasks]
    doc = {
        "task_ids": [s.id for s in rooms],
        "task_digests": [s.digest() for s in rooms],
        "importance": [0.0] * file_tasks,
        "average_losses": [1.0] * file_tasks,
        "loss_matrix": [[None if i == j else 1.0 for j in range(file_tasks)] for i in range(file_tasks)],
    }
    imp = tmp_path / "importance.json"
    imp.write_text(json.dumps(doc))
    data = gen(tmp_path, n=data_tasks)
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--importance", str(imp),
         "--out", str(tmp_path / "o")] + FAST_FLAGS
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert f"data error: {imp}: field 'task_ids' has {file_tasks} entries for {data_tasks} scenarios" in err
    assert not (tmp_path / "o" / "checkpoint.json").exists()


def test_train_tb_maml_importance_of_same_rooms_is_accepted(tmp_path):
    data = gen(tmp_path, n=3, seed=1)
    imp = tmp_path / "importance.json"
    assert main(["importance", "--data", str(data), "--k", "1", "--out", str(imp)] + FAST_FLAGS) == 0
    rc = main(
        ["train", "--algo", "tb-maml", "--data", str(data), "--k", "1", "--importance", str(imp),
         "--out", str(tmp_path / "o")] + FAST_FLAGS
    )
    assert rc == 0


@pytest.mark.parametrize("algo", ["maml", "fomaml", "conventional", "transfer"])
def test_train_importance_with_another_algorithm_is_usage_error(tmp_path, capsys, algo):
    # neither the data directory nor the importance file exists, so reading
    # either first would be a data error (3)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", algo, "--data", str(tmp_path / "missing"),
              "--importance", str(tmp_path / "nonexistent.json"), "--out", str(out)] + FAST_FLAGS)
    assert exc.value.code == 2
    assert f"--importance applies only to --algo tb-maml, not {algo}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_command_and_zero_shot(tmp_path):
    data = gen(tmp_path)
    run = tmp_path / "run"
    main(
        ["train", "--algo", "conventional", "--data", str(data), "--k", "1", "--seed", "2",
         "--out", str(run)] + FAST_FLAGS
    )
    out = tmp_path / "eval"
    rc = main(
        ["eval", "--checkpoint", str(run / "checkpoint.json"), "--data", str(data),
         "--k", "0", "--seed", "2", "--out", str(out)] + FAST_FLAGS
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["overall"]["mean_cm"] >= 0
    assert "median_cm" in summary["overall"]
    lines = (out / "errors.csv").read_text().splitlines()
    # zero-shot: every sample of every scenario is query
    assert len(lines) - 1 == 3 * 48


def _with_layer(doc: dict, i: int, **fields) -> dict:
    """A copy of checkpoint `doc` with `fields` of layer i replaced."""
    layers = list(doc["layers"])
    layers[i] = dict(layers[i], **fields)
    return dict(doc, layers=layers)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda doc: {"format": "other"}, "unknown checkpoint format 'other'"),
        (lambda doc: [doc], "top level must be a JSON object, got list"),
        (lambda doc: _with_layer(doc, 0, shape="abc"), "layer conv1.weight: field 'shape' is not a list of numbers"),
        (lambda doc: _with_layer(doc, 1, values=[[0.0] * 5, [0.0] * 4]),
         "layer conv1.bias: field 'values' is not a list of numbers"),
        (lambda doc: _with_layer(doc, 0, values=[None] + [0.0] * 89),
         "layer conv1.weight: values must be finite"),
    ],
    ids=["unknown-format", "json-list", "shape-string", "ragged-values", "null-value"],
)
def test_eval_checkpoint_mismatch_is_data_error(tmp_path, capsys, edit, reason):
    data = gen(tmp_path)
    bad = tmp_path / "bad.json"
    save_params(init_params(0), bad)
    bad.write_text(json.dumps(edit(json.loads(bad.read_text()))))
    out = tmp_path / "e"
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(data), "--k", "1", "--out", str(out)] + FAST_FLAGS)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"data error: {bad}: {reason}") and "Traceback" not in err
    assert not out.exists()


def test_bench_emits_all_csvs(tmp_path):
    data = gen(tmp_path, n=4)
    out = tmp_path / "bench"
    rc = main(
        ["bench", "--data", str(data), "--algos", "conventional,fomaml", "--shots", "1",
         "--repeats", "1", "--seed", "4", "--out", str(out), "--test-scenarios", "1",
         "--matrix-scenarios", "2", "--counts", "2"] + FAST_FLAGS
    )
    assert rc == 0
    for name in ("errors.csv", "cdf.csv", "matrix.csv", "sweep.csv", "summary.json", "run.json"):
        assert (out / name).exists(), name
    matrix_rows = (out / "matrix.csv").read_text().splitlines()
    assert len(matrix_rows) - 1 == 4  # 2x2 cells
    sweep_rows = (out / "sweep.csv").read_text().splitlines()
    assert sweep_rows[0] == "algorithm,task_count,mean_error_cm"
    assert len(sweep_rows) == 2  # one meta algorithm, one count
    # the manifest holds every flag the matrix and the sweep depend on
    config = json.loads((out / "run.json").read_text())["config"]
    assert (config["matrix_scenarios"], config["counts"]) == (2, [2])


def test_bench_matrix_defaults_to_every_scenario_and_records_it(tmp_path):
    data = gen(tmp_path, n=3)
    out = tmp_path / "bench"
    rc = main(
        ["bench", "--data", str(data), "--algos", "conventional", "--shots", "1",
         "--repeats", "1", "--out", str(out), "--test-scenarios", "1"] + FAST_FLAGS
    )
    assert rc == 0
    assert len((out / "matrix.csv").read_text().splitlines()) - 1 == 9  # 3x3 cells
    assert json.loads((out / "run.json").read_text())["config"]["matrix_scenarios"] == 3


def test_bench_transfer_zero_shots(tmp_path):
    data = gen(tmp_path, n=4)
    out = tmp_path / "bench"
    rc = main(
        ["bench", "--data", str(data), "--algos", "transfer", "--shots", "0",
         "--repeats", "1", "--out", str(out), "--test-scenarios", "1",
         "--matrix-scenarios", "2"] + FAST_FLAGS
    )
    assert rc == 0
    # zero-shot: every sample of the one test scenario is query
    assert len((out / "errors.csv").read_text().splitlines()) - 1 == 48


def test_bench_runs_every_cell_in_one_batch(tmp_path, monkeypatch):
    data = gen(tmp_path, n=4)
    batches = []
    run_cells = evaluation._run_cells

    def recording(fn, cells, workers):
        batches.append(len(cells))
        return run_cells(fn, cells, workers)

    monkeypatch.setattr(evaluation, "_run_cells", recording)
    rc = main(
        ["bench", "--data", str(data), "--algos", "conventional,fomaml", "--shots", "1",
         "--repeats", "1", "--out", str(tmp_path / "bench"), "--test-scenarios", "1",
         "--matrix-scenarios", "2", "--counts", "2"] + FAST_FLAGS
    )
    assert rc == 0
    # 2 benchmark cells (2 algorithms, 1 shot count), 2 matrix rows, 1 sweep cell
    assert batches == [5]


@pytest.mark.parametrize(
    "algos, flags, benchmark_cells",
    [("conventional,fomaml", [], 2), ("conventional", ["--counts", "2"], 1)],
    ids=["no-counts", "no-meta-learner"],
)
def test_bench_without_sweep_cells_writes_a_header_only_sweep(tmp_path, monkeypatch, algos, flags, benchmark_cells):
    data = gen(tmp_path, n=4)
    out = tmp_path / "bench"
    submitted = []
    run_cells = evaluation._run_cells

    def recording(fn, cells, workers):
        submitted.extend(cells)
        return run_cells(fn, cells, workers)

    monkeypatch.setattr(evaluation, "_run_cells", recording)
    rc = main(
        ["bench", "--data", str(data), "--algos", algos, "--shots", "1", "--repeats", "1",
         "--out", str(out), "--test-scenarios", "1", "--matrix-scenarios", "2"] + flags + FAST_FLAGS
    )
    assert rc == 0
    assert (out / "sweep.csv").read_text().splitlines() == ["algorithm,task_count,mean_error_cm"]
    # the benchmark cells train on every training scenario (count None); the rest are matrix rows
    bench = [cell for fn, cell in submitted if fn is evaluation._benchmark_cell]
    assert len(bench) == benchmark_cells and all(cell[-1] is None for cell in bench)
    assert [fn for fn, _ in submitted].count(evaluation._matrix_cell) == 2
    assert len(submitted) == benchmark_cells + 2


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--counts", "4"], "task counts [4] outside 1..3"),
        (["--counts", "2,0"], "task counts [0] outside 1..3"),
        (["--test-scenarios", "2", "--counts", "3"], "task counts [3] outside 1..2"),
        (["--test-scenarios", "4"], "test_count 4 outside 1..3 for 4 scenarios"),
        (["--matrix-scenarios", "1"], "--matrix-scenarios 1 outside 2..4 for 4 scenarios"),
        (["--shots", "0"], "shot counts [0] below 1"),
        (["--shots", "1,-1"], "shot counts [-1] below 1 with meta-learners ['fomaml']"),
        (["--algos", "conventional", "--shots", "2,-1"], "shot counts [-1] below 0"),
        (["--algos", "conventional,tb-maml", "--test-scenarios", "3"],
         "tb-maml needs at least 2 training scenarios for its importance vector, "
         "got 1 (4 scenarios, 3 for testing)"),
        (["--algos", "tb-maml", "--counts", "1"],
         "tb-maml needs task counts of at least 2 for its importance vector, got [1]"),
        (["--matrix-scenarios", "5"], "--matrix-scenarios 5 outside 2..4 for 4 scenarios"),
        (["--algos", "conventional,conventional", "--shots", "2,2"],
         "algorithms ['conventional'] listed more than once"),
        (["--shots", "2,1,2"], "shot counts [2] listed more than once"),
        (["--counts", "2,1,2"], "task counts [2] listed more than once"),
        (["--algos", "maml,nope"], "unknown algorithm 'nope'"),
    ],
    ids=["count-above-training", "count-zero", "count-above-fewer-training", "no-training-scenario",
         "one-matrix-scenario", "zero-shots-meta", "negative-later-shots", "negative-shots-baseline",
         "tb-maml-one-training-scenario", "tb-maml-count-one", "matrix-above-scenarios",
         "repeated-algorithm", "repeated-shots", "repeated-counts", "unknown-algorithm"],
)
def test_bench_bad_experiment_flags_fail_before_any_work(tmp_path, monkeypatch, capsys, flags, reason):
    data = gen(tmp_path, n=4)
    out = tmp_path / "bench"
    submitted = []
    monkeypatch.setattr(evaluation, "_run_cells", lambda fn, cells, workers: submitted.append(cells))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", str(data), "--algos", "conventional,fomaml", "--shots", "1",
              "--repeats", "1", "--out", str(out), "--test-scenarios", "1"] + flags + FAST_FLAGS)
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err
    assert submitted == [] and not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--shots", "abc"), ("--shots", "5,"), ("--algos", "maml,nope"), ("--counts", "x")]
)
def test_bench_malformed_list_usage_error(tmp_path, flag, value):
    data = gen(tmp_path, n=4)
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", str(data), "--out", str(out), flag, value] + FAST_FLAGS)
    assert exc.value.code == 2
    assert not out.exists()  # rejected before any work starts


@pytest.mark.parametrize(
    "command, own, on_data, at_k",
    [
        ("gen", ["--scenarios", "1"], False, False),
        ("importance", [], True, True),
        ("train", ["--algo", "maml"], True, True),
        ("eval", ["--checkpoint", "ckpt.json"], True, True),
        ("bench", [], True, False),
    ],
)
def test_shared_flags_parse_alike_on_every_command(command, own, on_data, at_k):
    parser = build_parser()
    argv = [command, "--seed", "7", "--out", "o"] + own
    expected = {"seed": 7, "out": "o"}
    data_argv, data_values = ["--data", "d"], {"data": "d"}
    for i, (flag, name, kind, _) in enumerate(_CONFIG_FLAGS):
        data_argv += [flag, str(i + 2)]
        data_values[name] = kind(i + 2)  # a distinct value per flag, so no two share a dest
    if on_data:
        argv += data_argv
        expected.update(data_values)
    else:
        for flag in data_argv[::2]:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv + [flag, "3"])
            assert exc.value.code == 2
    parsed = vars(parser.parse_args(argv))
    assert {name: (parsed[name], type(parsed[name])) for name in expected} == {
        name: (value, type(value)) for name, value in expected.items()
    }
    if at_k:
        assert parser.parse_args(argv + ["--k", "2"]).k == 2
    else:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--k", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bench_bad_worker_count_usage_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("METALOC_THREADS", value)
    out = tmp_path / "bench"
    # the data directory does not exist: reading it first would be a data error (3)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", str(tmp_path / "missing"), "--out", str(out)] + FAST_FLAGS)
    assert exc.value.code == 2
    assert f"METALOC_THREADS must be a positive integer, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["importance", "--out", "{out}/importance.json"], ["train", "--algo", "tb-maml", "--out", "{out}"]],
    ids=["importance", "train-tb-maml"],
)
def test_importance_pool_bad_worker_count_usage_error(tmp_path, monkeypatch, capsys, command):
    data = gen(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("METALOC_THREADS", "0")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(out=out) for arg in command] + ["--data", str(data), "--k", "1"] + FAST_FLAGS)
    assert exc.value.code == 2
    assert "METALOC_THREADS must be a positive integer, got '0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["maml", "fomaml"])
def test_train_meta_learner_bad_worker_count_usage_error(tmp_path, monkeypatch, capsys, algo):
    # meta-batches run in the pool; the data directory does not exist, so
    # reading it first would be a data error (3)
    monkeypatch.setenv("METALOC_THREADS", "0")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--algo", algo, "--data", str(tmp_path / "missing"), "--out", str(out)] + FAST_FLAGS)
    assert exc.value.code == 2
    assert "METALOC_THREADS must be a positive integer, got '0'" in capsys.readouterr().err
    assert not out.exists()


def _live_group_members(pgid: int) -> dict:
    """{pid: command line} of the processes in group pgid that have not exited, from /proc."""
    members = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if fields[0] != "Z" and int(fields[2]) == pgid:
                members[int(stat.parent.name)] = (stat.parent / "cmdline").read_bytes()
        except (OSError, IndexError):
            continue  # the process exited while being read
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_module_entry_point_runs_importance_in_pool(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "importance.json"
    env = dict(os.environ, METALOC_THREADS="2", PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "metaloc.cli", "importance", "--data", str(data), "--k", "1",
         "--out", str(out)] + FAST_FLAGS,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    workers = set()
    deadline = time.monotonic() + 120
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            members = _live_group_members(proc.pid)
            workers |= {pid for pid, cmdline in members.items() if b"--multiprocessing-fork" in cmdline}
            time.sleep(0.01)
        _, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0, stderr.decode()
    assert len(json.loads(out.read_text())["loss_matrix"]) == 3
    assert workers, "no pool worker was spawned"
    # the pool's workers exit with the command, not after it
    deadline = time.monotonic() + 10
    while _live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _live_group_members(proc.pid) == {}


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"])
def test_killed_command_leaves_no_worker(tmp_path, signum):
    # only the parent is signalled, as `kill` or a scheduler's timeout does
    # it; its pool workers and the resource tracker must follow it out
    data = gen(tmp_path)
    env = dict(os.environ, METALOC_THREADS="2", PYTHONPATH=str(SRC))
    # the later --importance-epochs wins: the command is still busy when killed
    proc = subprocess.Popen(
        [sys.executable, "-m", "metaloc.cli", "importance", "--data", str(data), "--k", "1",
         "--out", str(tmp_path / "importance.json")] + FAST_FLAGS + ["--importance-epochs", "100000"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not any(b"--multiprocessing-fork" in c for c in _live_group_members(proc.pid).values()):
            assert proc.poll() is None and time.monotonic() < deadline, "no pool worker was spawned"
            time.sleep(0.01)
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == -signum
        deadline = time.monotonic() + 10
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_group_members(proc.pid) == {}
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _ignores_sigint(pid: int) -> bool:
    """Has process pid set SIGINT to be ignored, as the pool's initializer does? From /proc."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False  # the process exited
    (mask,) = [line.split()[1] for line in status.splitlines() if line.startswith("SigIgn:")]
    return bool(int(mask, 16) >> (signal.SIGINT - 1) & 1)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_ctrl_c_prints_one_line_and_exits_130(tmp_path):
    # a Ctrl-C signals the whole process group: the workers ignore it, and
    # the command says so in one line, ends them and exits 128 + SIGINT
    data = gen(tmp_path)
    env = dict(os.environ, METALOC_THREADS="2", PYTHONPATH=str(SRC))
    # the later --importance-epochs wins: the command is still busy when interrupted
    proc = subprocess.Popen(
        [sys.executable, "-m", "metaloc.cli", "importance", "--data", str(data), "--k", "1",
         "--out", str(tmp_path / "importance.json")] + FAST_FLAGS + ["--importance-epochs", "100000"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while True:  # until both workers have run the pool's initializer
            members = _live_group_members(proc.pid)
            workers = [pid for pid, cmdline in members.items() if b"--multiprocessing-fork" in cmdline]
            if len(workers) == 2 and all(map(_ignores_sigint, workers)):
                break
            assert proc.poll() is None and time.monotonic() < deadline, "no pool worker started"
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=10)
        assert proc.returncode == 130
        assert stderr.decode().splitlines() == ["interrupted"]
        deadline = time.monotonic() + 10
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_group_members(proc.pid) == {}
        assert not (tmp_path / "importance.json").exists()
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_numeric_failure_prints_one_line(tmp_path):
    # the engine's finite checks report the failure; numpy prints no warning
    # in the command's process or in the pool workers that adapt the rest of
    # each meta-batch
    data = gen(tmp_path)
    env = dict(os.environ, METALOC_THREADS="2", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "metaloc.cli", "train", "--algo", "maml", "--data", str(data), "--k", "1",
         "--out", str(tmp_path / "o")] + FAST_FLAGS + ["--alpha", "1e300", "--batch", "3"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
    )
    assert proc.returncode == EXIT_NUMERIC
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith("numeric failure: ")


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a one-worker command started a pool")


@pytest.mark.skipif(not metaloc._BLAS_PINNED, reason="one worker spawns a pool where BLAS is not pinned")
def test_one_worker_command_starts_no_process(tmp_path, monkeypatch):
    data = gen(tmp_path)
    evaluation._close_pool()
    monkeypatch.setenv("METALOC_THREADS", "1")
    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _refuse_pool)
    out = tmp_path / "importance.json"
    rc = main(["importance", "--data", str(data), "--k", "1", "--out", str(out)] + FAST_FLAGS)
    assert rc == 0
    assert len(json.loads(out.read_text())["loss_matrix"]) == 3
    assert evaluation._pool is None


def test_bench_deterministic_outputs(tmp_path):
    data = gen(tmp_path, n=4)
    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        rc = main(
            ["bench", "--data", str(data), "--algos", "conventional", "--shots", "1",
             "--repeats", "1", "--seed", "4", "--out", str(out), "--test-scenarios", "1",
             "--matrix-scenarios", "2"] + FAST_FLAGS
        )
        assert rc == 0
        outs.append((out / "errors.csv").read_bytes())
    assert outs[0] == outs[1]


def test_commands_do_not_mutate_inputs(tmp_path):
    data = gen(tmp_path)
    before = {p.name: p.read_bytes() for p in data.glob("*.json")}
    main(
        ["train", "--algo", "conventional", "--data", str(data), "--k", "1",
         "--out", str(tmp_path / "r")] + FAST_FLAGS
    )
    after = {p.name: p.read_bytes() for p in data.glob("*.json")}
    assert before == after


# ---------------------------------------------------------------------------
# any argv exits with a documented code

# the values are small: the property covers what a flag's value does to the
# exit code, not how long a large budget runs
SMALL_INTS = ["-1", "0", "1", "2", "x"]
FLOATS = ["0", "-1", "1e-3", "nan", "inf", "-inf", "1e308", "x"]
SEEDS = ["0", "-1", "2305", "99999999999999999999", "x"]
INT_LISTS = ["1", "2", "1,2", "0", "-1", "1,x", ""]
ALGO_LISTS = ["conventional", "fomaml", "maml,transfer", "tb-maml", "reptile", ""]
TINY = ["--inner-steps", "1", "--meta-iterations", "1", "--batch", "1", "--importance-epochs", "1",
        "--baseline-epochs", "1", "--finetune-epochs", "1"]
CONFIG_VALUES = {flag: FLOATS if kind is float else SMALL_INTS for flag, _, kind, _ in _CONFIG_FLAGS}
DATA = ["@data", "@missing", "@file", "@empty", "@bad"]
OUT = ["@out", "@file"]

# command: (valid flags at tiny budgets, {flag: values a drawn flag may take})
COMMANDS = {
    "gen": (
        ["--scenarios", "2", "--samples-per-rp", "2", "--out", "@out"],
        {"--scenarios": SMALL_INTS, "--seed": SEEDS, "--rows": SMALL_INTS, "--cols": SMALL_INTS,
         "--spacing-cm": FLOATS, "--samples-per-rp": SMALL_INTS, "--out": OUT},
    ),
    "importance": (
        ["--data", "@data", "--k", "1", "--out", "@out"] + TINY,
        {"--data": DATA, "--k": SMALL_INTS, "--seed": SEEDS, "--out": OUT, **CONFIG_VALUES},
    ),
    "train": (
        ["--algo", "fomaml", "--data", "@data", "--k", "1", "--out", "@out"] + TINY,
        {"--algo": [*evaluation.ALL_ALGORITHMS, "reptile"], "--data": DATA, "--k": SMALL_INTS,
         "--seed": SEEDS, "--out": OUT, "--importance": ["@importance", "@missing", "@bad", "@data"],
         "--target": SMALL_INTS, **CONFIG_VALUES},
    ),
    "eval": (
        ["--checkpoint", "@checkpoint", "--data", "@data", "--k", "1", "--out", "@out"] + TINY,
        {"--checkpoint": ["@checkpoint", "@missing", "@bad", "@data"], "--data": DATA,
         "--k": SMALL_INTS, "--seed": SEEDS, "--out": OUT, **CONFIG_VALUES},
    ),
    "bench": (
        ["--data", "@data", "--algos", "conventional,fomaml", "--shots", "1", "--repeats", "1",
         "--test-scenarios", "1", "--matrix-scenarios", "2", "--counts", "2", "--out", "@out"] + TINY,
        {"--data": DATA, "--algos": ALGO_LISTS, "--shots": INT_LISTS, "--repeats": SMALL_INTS,
         "--test-scenarios": SMALL_INTS, "--matrix-scenarios": SMALL_INTS, "--counts": INT_LISTS,
         "--seed": SEEDS, "--out": OUT, **CONFIG_VALUES},
    ),
}


@st.composite
def argvs(draw):
    """A command, mostly with its valid tiny-budget flags, then drawn flags,
    which override the valid ones: argparse keeps a flag's last value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, values = COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(sorted(values)), max_size=3))
    drawn = [token for flag in flags for token in (flag, draw(st.sampled_from(values[flag])))]
    return [command] + (base if draw(st.integers(0, 4)) else []) + drawn


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    data = root / "data"
    assert main(["gen", "--scenarios", "3", "--seed", "1", "--out", str(data), "--samples-per-rp", "2"]) == 0
    save_params(init_params(0), root / "checkpoint.json")
    importance = root / "importance.json"
    with mock.patch.dict(os.environ, {"METALOC_THREADS": "1"}):
        assert main(["importance", "--data", str(data), "--k", "1", "--out", str(importance)] + TINY) == 0
    (root / "empty").mkdir()
    (root / "bad").mkdir()
    (root / "bad" / "scenario_000.json").write_text("{")
    (root / "bad.json").write_text("{")
    files = {name: root / name for name in ("data", "empty", "bad", "missing")}
    files.update({"file": root / "bad.json", "checkpoint": root / "checkpoint.json", "importance": importance})
    return root, files


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_exits_with_a_documented_code(argv_files, argv):
    root, files = argv_files
    out = Path(tempfile.mkdtemp(dir=root)) / "out"
    argv = [str(out) if a == "@out" else str(files[a[1:]]) if a.startswith("@") else a for a in argv]
    # values such as 1e308 overflow on purpose, so numpy's overflow warnings are expected
    with mock.patch.dict(os.environ, {"METALOC_THREADS": "1"}), np.errstate(all="ignore"), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse's usage errors
            rc = e.code
    event(f"{argv[0]} exits {rc}")
    assert rc in (0, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC), argv
    assert rc == 0 or not out.exists(), argv
