"""Metrics, report structure, and small-scale experiment wiring."""

import glob
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import metaloc
from metaloc import autodiff, evaluation, meta, model, tasks
from metaloc.evaluation import EvalReport, benchmark, cdf, cross_scenario_matrix, distances
from metaloc.meta import MetaConfig
from metaloc.seeding import substream_int


def small_scenarios(n, start=70):
    cfg = tasks.ChannelConfig(samples_per_rp=4)
    return [tasks.generate_scenario(start + i, cfg) for i in range(n)]


def quick_cfg(**kw):
    defaults = dict(
        alpha=0.001,
        beta=0.001,
        gamma=0.0005,
        inner_steps=1,
        shots=1,
        meta_iterations=2,
        meta_batch_size=1,
        seed=9,
        importance_epochs=2,
        baseline_epochs=2,
        finetune_epochs=1,
    )
    defaults.update(kw)
    return MetaConfig(**defaults)


# ---------------------------------------------------------------------------
# metrics


def test_distance_error_examples():
    assert np.array_equal(distances([(0.0, 0.0), (7.0, -2.0)], [(3.0, 4.0), (7.0, -2.0)]), [5.0, 0.0])


def test_distance_error_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-100, 100, (50, 2)), rng.uniform(-100, 100, (50, 2))
    assert distances(a, b) == pytest.approx(distances(b, a))


def test_cdf_counting_and_extremes():
    errors = [10.0, 20.0, 60.0]
    assert cdf(errors, [50.0])[0] == pytest.approx(2 / 3)
    assert cdf(errors, [5.0])[0] == 0.0
    assert cdf(errors, [100.0])[0] == 1.0


def test_cdf_strictly_below():
    assert cdf([50.0, 10.0], [50.0])[0] == pytest.approx(0.5)


def test_cdf_monotone_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(20):
        errors = rng.uniform(0, 300, size=40)
        thresholds = np.sort(rng.uniform(0, 320, size=15))
        fractions = cdf(errors, thresholds)
        assert np.all(np.diff(fractions) >= 0)


def test_cdf_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        cdf([], [10.0])


# ---------------------------------------------------------------------------
# report


def entry(algorithm, shots, repeat, scenario, errors):
    return {"algorithm": algorithm, "shots": shots, "repeat": repeat, "scenario": scenario, "errors": errors}


def test_report_populations_and_summary():
    report = EvalReport(
        [
            entry("maml", 5, 0, "s0", [10.0, 20.0]),
            entry("maml", 5, 1, "s1", [30.0]),
            entry("conventional", 5, 0, "s0", [50.0]),
        ]
    )
    assert list(report.populations()) == [("conventional", 5), ("maml", 5)]
    assert np.array_equal(report.populations()[("maml", 5)], [10.0, 20.0, 30.0])
    rows = {(r["algorithm"], r["shots"]): r for r in report.summary()}
    assert rows[("maml", 5)]["count"] == 3
    assert rows[("maml", 5)]["mean_cm"] == pytest.approx(20.0)


def test_report_cdf_table_ends_at_one():
    report = EvalReport([entry("maml", 5, 0, "s0", [10.0, 500.0])])  # beyond the default grid
    rows = [r for r in report.cdf_table() if r["algorithm"] == "maml"]
    fractions = [r["fraction"] for r in rows]
    assert fractions[-1] == 1.0
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))


# ---------------------------------------------------------------------------
# cross-scenario matrix


def test_matrix_shape_and_validation():
    scenarios = small_scenarios(3)
    cfg = quick_cfg()
    m = cross_scenario_matrix(scenarios, cfg)
    assert m.shape == (3, 3)
    assert np.all(np.isfinite(m)) and np.all(m >= 0)
    with pytest.raises(ValueError, match="at least 2 scenarios, got 1"):
        cross_scenario_matrix(scenarios[:1], cfg)


def test_matrix_duplicate_scenarios_off_diagonal_matches_diagonal():
    base = small_scenarios(1, start=80)[0]
    import copy

    twin = copy.deepcopy(base)
    twin.id = "scenario_twin"
    cfg = quick_cfg(baseline_epochs=30)
    m = cross_scenario_matrix([base, twin], cfg)
    # identical data: training on one is training on the other
    assert abs(m[0, 1] - m[0, 0]) <= 0.35 * max(m[0, 0], 1.0)
    assert abs(m[1, 0] - m[1, 1]) <= 0.35 * max(m[1, 1], 1.0)


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_structure_and_fairness():
    scenarios = small_scenarios(5)
    cfg = quick_cfg()
    report = benchmark(
        scenarios, ["conventional", "fomaml"], [1, 2], repeats=2, cfg=cfg, test_count=1
    )
    assert set(report.populations()) == {
        ("conventional", 1),
        ("conventional", 2),
        ("fomaml", 1),
        ("fomaml", 2),
    }
    # repeats pool: 2 repeats x 1 test scenario each
    entries = [e for e in report.entries if e["algorithm"] == "fomaml" and e["shots"] == 1]
    assert len(entries) == 2
    # fairness: identical test scenarios per repeat across algorithms
    by_algo = {}
    for e in report.entries:
        if e["shots"] == 1:
            by_algo.setdefault(e["algorithm"], []).append((e["repeat"], e["scenario"]))
    assert sorted(by_algo["conventional"]) == sorted(by_algo["fomaml"])


def test_benchmark_repeats_scale_error_count():
    scenarios = small_scenarios(4)
    cfg = quick_cfg()
    r1 = benchmark(scenarios, ["conventional"], [1], repeats=1, cfg=cfg, test_count=1)
    r3 = benchmark(scenarios, ["conventional"], [1], repeats=3, cfg=cfg, test_count=1)
    key = ("conventional", 1)
    assert r3.populations()[key].size == 3 * r1.populations()[key].size


def test_benchmark_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        benchmark(small_scenarios(3), ["magic"], [1], 1, quick_cfg(), test_count=1)


def test_cell_rejects_unknown_algorithm():
    # the plan's check aside, a cell never runs an unknown name as a baseline
    with pytest.raises(ValueError, match="unknown algorithm 'magic'"):
        evaluation._benchmark_cell((small_scenarios(3), "magic", 1, 0, quick_cfg(), 1, None))


@pytest.mark.parametrize(
    "algorithms, shots, reason",
    [
        (["conventional", "transfer"], [1, -1], r"shot counts \[-1\] below 0"),
        (["conventional", "fomaml"], [0, 1], r"shot counts \[0\] below 1 with meta-learners \['fomaml'\]"),
    ],
    ids=["negative", "zero-with-meta-learner"],
)
def test_benchmark_rejects_bad_shot_counts_before_any_cell(monkeypatch, algorithms, shots, reason):
    submitted = []
    monkeypatch.setattr(evaluation, "_run_cells", lambda fn, cells, workers: submitted.append(cells))
    with pytest.raises(ValueError, match=reason):
        benchmark(small_scenarios(3), algorithms, shots, 1, quick_cfg(), test_count=1)
    assert submitted == []


def test_benchmark_maml_vs_tb_gamma_zero_identical_errors():
    scenarios = small_scenarios(4)
    cfg = quick_cfg(gamma=0.0, meta_iterations=3)
    ra = benchmark(scenarios, ["maml"], [1], repeats=1, cfg=cfg, test_count=1)
    rb = benchmark(scenarios, ["tb-maml"], [1], repeats=1, cfg=cfg, test_count=1)
    assert np.array_equal(ra.populations()[("maml", 1)], rb.populations()[("tb-maml", 1)])


def test_results_independent_of_worker_count(monkeypatch):
    # each experiment alone and all three as one batch, at 1 and 2 workers
    scenarios = small_scenarios(4)
    cfg = quick_cfg()
    bench_args = (scenarios, evaluation.ALL_ALGORITHMS, [1], 1, cfg, 1)
    matrix_args = (scenarios[:2], cfg)
    sweep_args = (scenarios, ["fomaml"], [2], 1, cfg, 1)
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("METALOC_THREADS", workers)
        report = benchmark(*bench_args)
        matrix = cross_scenario_matrix(*matrix_args)
        sweep = evaluation.task_count_sweep(*sweep_args)
        batch = evaluation.run_plans(
            evaluation.benchmark_plan(*bench_args),
            evaluation.matrix_plan(*matrix_args),
            evaluation.sweep_plan(*sweep_args),
        )
        assert batch[0].entries == report.entries
        assert np.array_equal(batch[1], matrix)
        assert batch[2] == sweep
        runs.append((report.entries, matrix, sweep))
    (entries_1, matrix_1, sweep_1), (entries_2, matrix_2, sweep_2) = runs
    assert len(entries_1) == len(evaluation.ALL_ALGORITHMS)
    assert entries_1 == entries_2
    assert np.array_equal(matrix_1, matrix_2)
    assert sweep_1 == sweep_2


def test_importance_independent_of_worker_count(monkeypatch):
    scenarios = small_scenarios(3)
    cfg = quick_cfg()
    vectors = []
    for workers in ("1", "2"):
        monkeypatch.setenv("METALOC_THREADS", workers)
        vectors.append(meta.compute_importance(scenarios, cfg))
    one, two = vectors
    for name in ("loss_matrix", "average_losses", "values"):
        assert np.array_equal(getattr(one, name), getattr(two, name), equal_nan=True)

    def query_loss(params, task):
        with autodiff.no_grad():
            return model.loss(params, task.query).item()

    # each pool row is the in-process cross transfer of task i to every other task
    splits = [meta.build_task_data(s, cfg.shots, cfg.seed) for s in scenarios]
    for i, scenario in enumerate(scenarios):
        others = [j for j in range(len(scenarios)) if j != i]
        row = meta.cross_transfer(
            substream_int(cfg.seed, "importance-init", i), tasks.batch_from(scenario.samples),
            [splits[j] for j in others], cfg.importance_epochs, cfg.inner_steps, cfg.baseline_lr,
            query_loss,
        )
        np.testing.assert_allclose(one.loss_matrix[i, others], row, rtol=1e-12)


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_worker_count_rejects_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("METALOC_THREADS", value)
    with pytest.raises(ValueError, match=f"METALOC_THREADS must be a positive integer, got '{value}'"):
        evaluation.worker_count()


def test_worker_count_defaults_to_available_cpus(monkeypatch):
    monkeypatch.delenv("METALOC_THREADS", raising=False)
    assert evaluation.worker_count() == len(os.sched_getaffinity(0))
    monkeypatch.setenv("METALOC_THREADS", "3")
    assert evaluation.worker_count() == 3


def _blas_threads(cell):
    """The cell and the thread count this process's OpenBLAS reads back,
    None where numpy bundles no scipy-openblas."""
    return cell, None if metaloc._BLAS is None else metaloc._BLAS.scipy_openblas_get_num_threads64_()


ONE_THREAD = None if metaloc._BLAS is None else 1


@pytest.mark.parametrize("caller", [None, "3"])
def test_cells_run_in_one_blas_thread_workers(monkeypatch, caller):
    # workers spawned under the caller's variables still compute at one thread,
    # and at one worker the cells run in this process, pinned at import
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    evaluation._close_pool()
    before = dict(os.environ)
    for workers in (1, 2):
        got = evaluation._run_cells(_blas_threads, [4, 0, 3, 1, 2], workers)
        assert got == [(cell, ONE_THREAD) for cell in (4, 0, 3, 1, 2)]
        assert dict(os.environ) == before


def _bundles_openblas() -> bool:
    return bool(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*")))


@pytest.mark.skipif(not _bundles_openblas(), reason="numpy bundles no scipy-openblas")
def test_import_pins_bundled_openblas_after_numpy_loaded_it():
    # a numpy whose bundled OpenBLAS no longer exports the thread calls fails
    # here, instead of quietly sending one-worker batches back to a pool
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="3", PYTHONPATH=str(src))
    code = (
        "import numpy, os; import metaloc; "
        "print(metaloc._BLAS_PINNED, metaloc._BLAS.scipy_openblas_get_num_threads64_(), "
        "os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "1", "1", "1"]


def _maml_params(cell):
    scenarios, cfg = cell
    return {name: p.data for name, p in meta.meta_train("maml", scenarios, cfg).items()}


def test_meta_train_in_the_caller_equals_a_pool_cell():
    # the same BLAS thread count everywhere: where a result is computed does not change its bits
    # (large enough batches that a multi-threaded BLAS would split them)
    cell = ([tasks.generate_scenario(70 + i) for i in range(4)],
            quick_cfg(shots=5, inner_steps=2, meta_batch_size=2, meta_iterations=3))
    here = _maml_params(cell)
    (there,) = evaluation._run_cells(_maml_params, [cell], 2)
    assert here.keys() == there.keys()
    for name in here:
        assert np.array_equal(here[name], there[name]), name


def _exit_worker(cell):
    os._exit(1)


def _pid(cell):
    return os.getpid()


def _refuse_pool(*args, **kwargs):
    raise AssertionError("a pool worker started a pool of its own")


def _nested_batch(cell):
    executor, evaluation.ProcessPoolExecutor = evaluation.ProcessPoolExecutor, _refuse_pool
    try:
        inner = evaluation._run_cells(_pid, [cell, cell + 1, cell + 2], 2)
    finally:
        evaluation.ProcessPoolExecutor = executor
    return os.getpid(), inner, evaluation._pool


def test_batch_inside_a_worker_runs_inline():
    # a cell that submits its own batch (tb-maml's importance vector) starts no second pool
    for outer, inner, pool in evaluation._run_cells(_nested_batch, [0, 10, 20, 30], 2):
        assert inner == [outer] * 3
        assert pool is None
    assert evaluation._pool is not None and evaluation._pool[0] == 2


def test_pool_restarts_after_a_worker_dies():
    # at 2 workers: a one-worker batch runs in this process, which os._exit would end
    with pytest.raises(BrokenProcessPool):
        evaluation._run_cells(_exit_worker, [0], 2)
    assert evaluation._run_cells(_blas_threads, [0, 1], 2) == [(0, ONE_THREAD), (1, ONE_THREAD)]


def _length(cell):
    return len(cell)


def test_pool_keeps_no_pickled_cell_after_a_batch():
    # the executor's queue feeder holds the last item it pickles; the no-op
    # after each batch is that item, not the batch's last cell (4 MB here)
    evaluation._run_cells(_length, [b"", b""], 2)  # the pool starts untraced
    cells = [bytes(4_000_000), bytes(4_000_000)]
    tracemalloc.start()
    try:
        assert evaluation._run_cells(_length, cells, 2) == [4_000_000, 4_000_000]
        deadline = time.monotonic() + 2
        while tracemalloc.get_traced_memory()[0] > 1_000_000 and time.monotonic() < deadline:
            time.sleep(0.01)  # the feeder pickles the no-op in its own thread
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


# ---------------------------------------------------------------------------
# task-count sweep


def test_tb_maml_with_one_training_scenario_fails_before_any_cell(monkeypatch):
    # the importance vector cross-transfers between at least 2 training scenarios
    submitted = []
    monkeypatch.setattr(evaluation, "_run_cells", lambda fn, cells, workers: submitted.append(cells))
    scenarios = small_scenarios(4)
    with pytest.raises(ValueError, match=r"tb-maml needs at least 2 training scenarios .*got 1"):
        evaluation.benchmark_plan(scenarios, ["conventional", "tb-maml"], [1], 1, quick_cfg(), test_count=3)
    with pytest.raises(ValueError, match=r"tb-maml needs task counts of at least 2 .*got \[1\]"):
        evaluation.sweep_plan(scenarios, ["fomaml", "tb-maml"], [1, 2], 1, quick_cfg(), test_count=1)
    assert submitted == []
    # one training scenario stays valid for the algorithms that need no importance vector
    evaluation.benchmark_plan(scenarios, ["conventional", "fomaml"], [1], 1, quick_cfg(), test_count=3)
    evaluation.sweep_plan(scenarios, ["fomaml"], [1, 2], 1, quick_cfg(), test_count=1)


@pytest.mark.parametrize("test_count", [0, 3, 4], ids=["zero", "all", "above"])
def test_plans_reject_test_count_out_of_range_before_any_cell(monkeypatch, test_count):
    submitted = []
    monkeypatch.setattr(evaluation, "_run_cells", lambda fn, cells, workers: submitted.append(cells))
    scenarios = small_scenarios(3)
    reason = rf"test_count {test_count} outside 1..2 for 3 scenarios"
    with pytest.raises(ValueError, match=reason):
        evaluation.run_plans(
            evaluation.benchmark_plan(scenarios, ["conventional"], [1], 1, quick_cfg(), test_count=test_count)
        )
    with pytest.raises(ValueError, match=reason):
        evaluation.run_plans(
            evaluation.sweep_plan(scenarios, ["fomaml"], [1], 1, quick_cfg(), test_count=test_count)
        )
    assert submitted == []


def test_sweep_structure_and_shared_subsets():
    scenarios = small_scenarios(6)
    cfg = quick_cfg()
    out = evaluation.task_count_sweep(
        scenarios, ["fomaml"], counts=[2, 4], repeats=2, cfg=cfg, test_count=2
    )
    assert set(out) == {("fomaml", 2), ("fomaml", 4)}
    assert all(type(mean) is float and mean > 0 for mean in out.values())
    with pytest.raises(ValueError, match=r"task counts \[5\] outside 1..4"):
        evaluation.task_count_sweep(
            scenarios, ["fomaml"], counts=[5], repeats=1, cfg=cfg, test_count=2
        )
    with pytest.raises(ValueError, match="meta-learners"):
        evaluation.task_count_sweep(
            scenarios, ["conventional"], counts=[2], repeats=1, cfg=cfg, test_count=2
        )
    with pytest.raises(ValueError, match=r"task counts \[0\] outside 1..4"):
        evaluation.task_count_sweep(
            scenarios, ["fomaml"], counts=[0, 2], repeats=1, cfg=cfg, test_count=2
        )


def test_sweep_full_count_matches_benchmark_protocol():
    # counts=[all training tasks] uses the full training set, same splits
    scenarios = small_scenarios(5)
    cfg = quick_cfg(meta_iterations=2)
    sweep = evaluation.task_count_sweep(
        scenarios, ["fomaml"], counts=[4], repeats=1, cfg=cfg, test_count=1
    )
    assert ("fomaml", 4) in sweep and sweep[("fomaml", 4)] > 0
