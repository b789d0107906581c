"""Trainer math on closed-form toys, importance algebra, reductions."""

import dataclasses
import multiprocessing
import os
import re
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metaloc import autodiff as ad
from metaloc import evaluation, meta, model, tasks
from metaloc.meta import MetaConfig, TaskData
from metaloc.seeding import substream_int


def toy_loss(params, target):
    d = ad.sub(params["theta"], ad.Tensor([float(target)]))
    return ad.sum_all(ad.mul(d, d))


def toy_task(c):
    return TaskData(scenario_id=f"c={c}", support=c, query=c)


def theta_at(value):
    return {"theta": ad.Tensor([float(value)], requires_grad=True)}


def toy_cfg(**kw):
    defaults = dict(alpha=0.25, beta=1.0, gamma=0.0, inner_steps=1, shots=0)
    defaults.update(kw)
    return MetaConfig(**defaults)


def meta_grad(cfg, cs, second_order=True, at=0.0):
    """The meta-gradient meta_train's outer step takes, on toy tasks."""
    grads, _ = meta._meta_gradients(theta_at(at), [toy_task(c) for c in cs], cfg, second_order, toy_loss)
    return grads[0].data[0]


def outer_step(cfg, cs, step_size, at=0.0):
    """meta_train's outer update (second order) from a fresh Adam, on toy tasks."""
    p = theta_at(at)
    grads, _ = meta._meta_gradients(p, [toy_task(c) for c in cs], cfg, True, toy_loss)
    return meta.Adam(p).step(p, grads, step_size)


# ---------------------------------------------------------------------------
# config invariants


def test_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MetaConfig(beta=-1.0)
    with pytest.raises(ValueError):
        MetaConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        MetaConfig(beta=0.001, gamma=0.002)  # gamma must stay <= beta
    with pytest.raises(ValueError):
        MetaConfig(inner_steps=-1)


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("meta_iterations", -1, "must be >= 0"),
        ("importance_epochs", -1, "must be >= 0"),
        ("baseline_epochs", -5, "must be >= 0"),
        ("finetune_epochs", -1, "must be >= 0"),
        ("baseline_lr", 0.0, "must be > 0"),
        ("baseline_lr", -0.03, "must be > 0"),
        ("baseline_lr", float("nan"), "must be > 0"),
    ],
)
def test_config_rejects_invalid_budgets_and_rates(name, value, reason):
    with pytest.raises(ValueError, match=re.escape(f"{name} {reason}, got {value}")):
        MetaConfig(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("alpha", float("nan")),
        ("alpha", float("inf")),
        ("beta", float("nan")),
        ("beta", float("inf")),
        ("gamma", float("nan")),
        ("baseline_lr", float("inf")),
    ],
)
def test_config_rejects_non_finite_rates(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value}")):
        MetaConfig(**{name: value})


def test_config_accepts_zero_budgets():
    cfg = MetaConfig(meta_iterations=0, importance_epochs=0, baseline_epochs=0, finetune_epochs=0)
    assert (cfg.meta_iterations, cfg.importance_epochs, cfg.baseline_epochs, cfg.finetune_epochs) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# inner adaptation


def test_adapt_zero_steps_identity():
    p = theta_at(1.0)
    assert meta.inner_adapt(p, 0.0, 0.1, 0, loss_fn=toy_loss) is p


def test_adapt_closed_form_single_and_composed():
    p = theta_at(1.0)
    one = meta.inner_adapt(p, 0.0, 0.1, 1, loss_fn=toy_loss)
    assert one["theta"].data[0] == pytest.approx(0.8, abs=1e-15)
    two = meta.inner_adapt(p, 0.0, 0.1, 2, loss_fn=toy_loss)
    composed = meta.inner_adapt(one, 0.0, 0.1, 1, loss_fn=toy_loss)
    assert two["theta"].data[0] == pytest.approx(0.64, abs=1e-15)
    assert two["theta"].data[0] == composed["theta"].data[0]


# ---------------------------------------------------------------------------
# meta-gradient closed forms (scalar quadratic tasks)


def test_maml_closed_form_asymmetric():
    assert meta_grad(toy_cfg(), [1.0, 0.0]) == pytest.approx(-0.5, abs=1e-10)


def test_fomaml_closed_form_asymmetric():
    assert meta_grad(toy_cfg(), [1.0, 0.0], second_order=False) == pytest.approx(-1.0, abs=1e-10)


def test_symmetric_tasks_cancel():
    for second_order in (True, False):
        assert meta_grad(toy_cfg(), [1.0, -1.0], second_order) == pytest.approx(0.0, abs=1e-12)


def test_beta_zero_equivalent_no_motion():
    # beta must be > 0 by config; emulate by comparing to machine-zero step
    cfg = toy_cfg(beta=1e-300)
    new = outer_step(cfg, [1.0], cfg.beta)
    assert new["theta"].data[0] == pytest.approx(0.0, abs=1e-250)


def test_fomaml_equals_maml_when_inner_motionless():
    # alpha -> 0 (machine zero): no inner motion, no second-order term
    cfg = toy_cfg(alpha=1e-300, beta=0.5)
    a = meta_grad(cfg, [1.0, -2.0], at=0.3)
    b = meta_grad(cfg, [1.0, -2.0], second_order=False, at=0.3)
    assert abs(a - b) <= 1e-12


def test_unrolled_meta_gradient_matches_finite_difference():
    # independent oracle: central differences through the full unrolled objective
    cfg = toy_cfg(alpha=0.13, inner_steps=3)
    cs = [0.7, -0.4, 1.2]

    def unrolled(t0):
        t = t0
        for c in cs:
            cur = t
            for _ in range(cfg.inner_steps):
                cur = cur - cfg.alpha * 2 * (cur - c)  # analytic inner GD
        # redo properly: separate adaptation per task, then sum query losses
        total = 0.0
        for c in cs:
            cur = t0
            for _ in range(cfg.inner_steps):
                cur = cur - cfg.alpha * 2 * (cur - c)
            total += (cur - c) ** 2
        return total

    h = 1e-6
    fd = (unrolled(0.2 + h) - unrolled(0.2 - h)) / (2 * h)
    assert meta_grad(cfg, cs, at=0.2) == pytest.approx(fd, rel=1e-7)


# ---------------------------------------------------------------------------
# TB-MAML step behavior


def test_tb_reduces_to_maml_at_gamma_zero():
    cfg = toy_cfg(beta=0.001, gamma=0.0)
    a = outer_step(cfg, [1.0], cfg.beta)
    b = outer_step(cfg, [1.0], meta.effective_step(cfg, 0.7))
    assert np.array_equal(a["theta"].data, b["theta"].data)  # bitwise


def test_tb_effective_step_arithmetic():
    cfg = MetaConfig(beta=0.001, gamma=0.0005)
    assert meta.effective_step(cfg, +1.0) == pytest.approx(0.0015, abs=1e-18)
    assert meta.effective_step(cfg, -1.0) == pytest.approx(0.0005, abs=1e-18)


def test_tb_config_cannot_be_made_invalid():
    cfg = MetaConfig(beta=0.001, gamma=0.001)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gamma = 0.01
    with pytest.raises(ValueError, match="gamma must be <= beta"):
        dataclasses.replace(cfg, gamma=0.01)
    assert cfg.gamma == 0.001


def test_tb_effective_step_always_within_bounds():
    cfg = MetaConfig(beta=0.001, gamma=0.0005)
    for u in np.linspace(-1, 1, 41):
        step = meta.effective_step(cfg, float(u))
        assert cfg.beta - cfg.gamma <= step <= cfg.beta + cfg.gamma
    # at gamma = beta the least important task does not step
    assert meta.effective_step(MetaConfig(beta=0.001, gamma=0.001), -1.0) == 0.0


# ---------------------------------------------------------------------------
# importance vector algebra


def test_importance_mapping_examples():
    assert np.allclose(meta.importance_from_losses([1.0, 2.0, 3.0]), [1.0, 0.0, -1.0])
    assert np.array_equal(meta.importance_from_losses([2.0, 2.0, 2.0]), [0.0, 0.0, 0.0])
    assert np.allclose(meta.importance_from_losses([0.5, 1.5]), [1.0, -1.0])


def test_importance_properties_randomized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        losses = rng.uniform(0.1, 100.0, size=n)
        u = meta.importance_from_losses(losses)
        assert u.min() >= -1.0 - 1e-12 and u.max() <= 1.0 + 1e-12
        if losses.max() > losses.min():
            assert u.min() == pytest.approx(-1.0) and u.max() == pytest.approx(1.0)
        # order-reversing: lower loss => higher importance
        order_l = np.argsort(losses)
        order_u = np.argsort(-u)
        assert np.array_equal(losses[order_l], losses[order_u])
        # invariance under positive affine rescaling
        scale = float(rng.uniform(0.1, 10))
        shift = float(rng.uniform(-5, 5))
        assert np.allclose(u, meta.importance_from_losses(losses * scale + shift))
        # permutation equivariance
        perm = rng.permutation(n)
        assert np.allclose(u[perm], meta.importance_from_losses(losses[perm]))


# ---------------------------------------------------------------------------
# scenario-level trainers (small budgets)


def small_scenarios(n, start=50, spp=4):
    cfg = tasks.ChannelConfig(samples_per_rp=spp)
    return [tasks.generate_scenario(start + i, cfg) for i in range(n)]


def quick_cfg(**kw):
    defaults = dict(
        alpha=0.001,
        beta=0.0005,
        gamma=0.00025,
        inner_steps=2,
        shots=1,
        meta_iterations=3,
        meta_batch_size=2,
        seed=5,
        importance_epochs=3,
        baseline_epochs=3,
        finetune_epochs=2,
    )
    defaults.update(kw)
    return MetaConfig(**defaults)


def test_compute_importance_structure():
    scenarios = small_scenarios(3)
    cfg = quick_cfg()
    vec = meta.compute_importance(scenarios, cfg)
    assert vec.values.shape == (3,)
    assert vec.loss_matrix.shape == (3, 3)
    assert np.all(np.isnan(np.diag(vec.loss_matrix)))
    off = vec.loss_matrix[~np.eye(3, dtype=bool)]
    assert np.all(np.isfinite(off))
    assert np.allclose(vec.values, meta.importance_from_losses(vec.average_losses))
    with pytest.raises(ValueError, match="2 training tasks"):
        meta.compute_importance(scenarios[:1], cfg)


def test_pick_transfer_source_without_candidates_names_the_reason():
    with pytest.raises(ValueError, match="transfer needs at least 1 source scenario, got 0"):
        meta.pick_transfer_source([], seed=0)


def test_meta_train_zero_iterations_returns_init():
    scenarios = small_scenarios(2)
    cfg = quick_cfg(meta_iterations=0)
    theta = meta.meta_train("maml", scenarios, cfg)
    from metaloc.seeding import substream_int

    init = model.init_params(substream_int(cfg.seed, "init"))
    for name in theta:
        assert np.array_equal(theta[name].data, init[name].data)


def test_meta_train_deterministic():
    scenarios = small_scenarios(2)
    cfg = quick_cfg()
    a = meta.meta_train("fomaml", scenarios, cfg)
    b = meta.meta_train("fomaml", scenarios, cfg)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)


def fixed_query_losses(losses):
    """A _meta_gradients stand-in: zero gradients, and the next of `losses`
    as the query loss of every task of the batch."""
    feed = iter(losses)

    def meta_gradients(params, batch, cfg, second_order, loss_fn):
        loss = next(feed)
        return [ad.Tensor(np.zeros(p.shape)) for p in params.values()], [loss] * len(batch)

    return meta_gradients


@pytest.mark.parametrize(
    "losses, expected",
    [
        # 1e6 cm^2 falling by 10 an iteration: each window improves by 2e-5
        # of its predecessor, below the 1e-3 rule (an absolute 1e-4 misses it)
        ([1e6 - 10.0 * i for i in range(8)],
         {"reason": "converged", "iterations": 4, "window_means": [1e6 - 5.0, 1e6 - 25.0]}),
        # 1e-6 cm^2 halving every iteration: each window improves by 75%, so
        # the budget is spent (an absolute 1e-4 would stop at the first check)
        ([1e-6 * 0.5**i for i in range(8)], {"reason": "budget", "iterations": 8}),
        # doubling every iteration: the last window's mean rose, so the
        # record says so rather than "converged"
        ([2.0**i for i in range(8)], {"reason": "worsened", "iterations": 4, "window_means": [1.5, 6.0]}),
    ],
    ids=["converged", "budget", "worsened"],
)
def test_meta_train_stop_says_why_on_a_relative_scale(monkeypatch, losses, expected):
    monkeypatch.setattr(meta, "CONVERGENCE_WINDOW", 2)
    monkeypatch.setattr(meta, "_meta_gradients", fixed_query_losses(losses))
    stop = {}
    meta.meta_train("fomaml", small_scenarios(2), quick_cfg(meta_iterations=8), stop=stop)
    assert stop == expected


def test_meta_train_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown meta algorithm"):
        meta.meta_train("reptile", small_scenarios(2), quick_cfg())


def test_meta_train_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots >= 1"):
        meta.meta_train("fomaml", small_scenarios(2), quick_cfg(shots=0))


def test_tb_maml_equals_maml_gamma_zero_full_loop():
    scenarios = small_scenarios(3)
    imp = meta.ImportanceVector(
        values=np.array([0.5, -0.5, 0.0]),
        average_losses=np.zeros(3),
        loss_matrix=np.zeros((3, 3)),
        task_ids=[s.id for s in scenarios],
    )
    # a tiny beta is the paper's step too: nothing raises it
    for beta in (quick_cfg().beta, 1e-7):
        cfg = quick_cfg(beta=beta, gamma=0.0, meta_iterations=5, meta_batch_size=1)
        a = meta.meta_train("maml", scenarios, cfg)
        b = meta.meta_train("tb-maml", scenarios, cfg, importance=imp)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)


def test_tb_maml_rejects_importance_of_other_tasks():
    scenarios = small_scenarios(3)
    imp = meta.ImportanceVector(
        values=np.zeros(3),
        average_losses=np.zeros(3),
        loss_matrix=np.zeros((3, 3)),
        task_ids=[s.id for s in reversed(scenarios)],
    )
    with pytest.raises(ValueError, match="not the training tasks"):
        meta.meta_train("tb-maml", scenarios, quick_cfg(), importance=imp)


@pytest.mark.parametrize(
    "values", [[50.0, -30.0, 1.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -1.0 - 1e-9, 1.0]],
    ids=["far-out", "nan", "inf", "just-below"],
)
def test_tb_maml_rejects_importance_outside_unit_range(values):
    scenarios = small_scenarios(3)
    imp = meta.ImportanceVector(
        values=np.array(values),
        average_losses=np.zeros(3),
        loss_matrix=np.zeros((3, 3)),
        task_ids=[s.id for s in scenarios],
    )
    # the check runs before iteration 0: no meta-gradient is taken
    with mock.patch.object(meta, "_meta_gradients", side_effect=AssertionError("iteration 0 ran")):
        with pytest.raises(ValueError, match=r"are not all finite and in \[-1, 1\]"):
            meta.meta_train("tb-maml", scenarios, quick_cfg(), importance=imp)


def test_conventional_zero_epochs_is_random_init():
    scenarios = small_scenarios(1)
    cfg = quick_cfg()
    task = meta.build_task_data(scenarios[0], 1, cfg.seed)
    (theta,) = meta.train_baseline(None, [task], dataclasses.replace(cfg, baseline_epochs=0))
    init = model.init_params(substream_int(cfg.seed, "init"))
    for name in theta:
        assert np.array_equal(theta[name].data, init[name].data)


def test_transfer_zero_finetune_is_source_model():
    scenarios = small_scenarios(2)
    cfg = quick_cfg()
    task = meta.build_task_data(scenarios[1], 1, cfg.seed)
    (tuned,) = meta.train_baseline(scenarios[0], [task], dataclasses.replace(cfg, finetune_epochs=0))
    source_only = meta.fit_params(
        model.init_params(substream_int(cfg.seed, "init")),
        tasks.batch_from(scenarios[0].samples),
        cfg.baseline_epochs,
        cfg.baseline_lr,
    )
    for name in tuned:
        assert np.array_equal(tuned[name].data, source_only[name].data)


def test_conventional_is_a_support_fit_per_target():
    scenarios = small_scenarios(3)
    cfg = quick_cfg(baseline_epochs=4)
    targets = [meta.build_task_data(s, 2, cfg.seed) for s in scenarios]
    fitted = meta.train_baseline(None, targets, cfg)
    assert len(fitted) == len(targets)
    for target, theta in zip(targets, fitted):
        want = meta.fit_params(
            model.init_params(substream_int(cfg.seed, "init")), target.support,
            cfg.baseline_epochs, cfg.baseline_lr,
        )
        assert list(theta) == list(want)
        for name in want:
            assert np.array_equal(theta[name].data, want[name].data)  # bitwise
    # one fit per target, not one model shared by all
    assert not np.array_equal(fitted[0]["dense5.weight"].data, fitted[1]["dense5.weight"].data)
    ids = meta.train_baseline(None, targets, cfg, score=lambda tuned, task: task.scenario_id)
    assert ids == [t.scenario_id for t in targets]


def test_transfer_to_several_targets_equals_one_target_runs():
    scenarios = small_scenarios(3)
    cfg = quick_cfg()
    targets = [meta.build_task_data(s, 2, cfg.seed) for s in scenarios[1:]]
    together = meta.train_baseline(scenarios[0], targets, cfg)
    assert len(together) == len(targets)
    for target, theta in zip(targets, together):
        (alone,) = meta.train_baseline(scenarios[0], [target], cfg)
        assert list(theta) == list(alone)
        for name in alone:
            assert np.array_equal(theta[name].data, alone[name].data)  # bitwise


def test_adapt_and_eval_counts_and_perfect_predictor():
    scenarios = small_scenarios(1)
    cfg = quick_cfg(inner_steps=0)
    task = meta.build_task_data(scenarios[0], 1, cfg.seed)
    errors = meta.adapt_and_eval(model.init_params(0), task, cfg)
    assert errors.shape == (len(task.query[1]),)

    # frozen predictor at a fixed point: errors equal hand-computed distances
    frozen = {
        name: ad.Tensor(np.zeros(shape), requires_grad=True) for name, shape in model.LAYER_SHAPES
    }
    frozen["dense5.bias"].data[:] = (90.0, 75.0)
    errors = meta.adapt_and_eval(frozen, task, cfg)
    expected = np.linalg.norm(task.query[1] - np.array([90.0, 75.0]), axis=1)
    assert np.allclose(errors, expected)
    # farthest grid corner from (90, 75) on the 3x4/60cm grid is (0, 180)
    grid = np.array(tasks.GridSpec().positions())
    dists = np.linalg.norm(grid - np.array([90.0, 75.0]), axis=1)
    assert dists.max() == pytest.approx(np.hypot(90.0, 105.0))
    assert errors.max() <= dists.max() + 1e-9


def test_adapt_and_eval_zero_shot():
    scenarios = small_scenarios(1)
    cfg = quick_cfg(shots=0)
    task = meta.build_task_data(scenarios[0], 0, cfg.seed)
    assert task.support[0].shape[0] == 0
    errors = meta.adapt_and_eval(model.init_params(1), task, cfg)
    assert errors.size == len(scenarios[0].samples)


# ---------------------------------------------------------------------------
# second-order path on the real network


def test_second_order_inner_steps_record_equal_graphs(monkeypatch):
    # each inner step's create_graph backward stops at the current parameters,
    # so step k records what step 0 does instead of re-differentiating k steps
    task = meta.build_task_data(tasks.generate_scenario(8, tasks.ChannelConfig()), 5, 0)
    created = [0]

    class CountingNode(ad.Node):
        __slots__ = ()

        def __init__(self, *args):
            created[0] += 1
            super().__init__(*args)

    real_grad = meta.grad
    counts = []

    def counting_grad(output, wrt, create_graph=False, **kw):
        before = created[0]
        result = real_grad(output, wrt, create_graph=create_graph, **kw)
        if create_graph:
            counts.append(created[0] - before)
        return result

    monkeypatch.setattr(ad, "Node", CountingNode)
    monkeypatch.setattr(meta, "grad", counting_grad)
    meta.inner_adapt(model.init_params(0), task.support, 0.01, 5, create_graph=True)
    assert len(counts) == 5 and counts[0] > 0
    assert counts == [counts[0]] * 5


def test_cnn_meta_gradient_matches_finite_difference():
    # directional derivative of the unrolled two-step query loss along a unit
    # direction; h stays at 1e-6 because larger steps cross relu and maxpool kinks
    scenario = tasks.generate_scenario(21, tasks.ChannelConfig())
    task = meta.build_task_data(scenario, 1, 0)
    task = dataclasses.replace(task, query=(task.query[0][:24], task.query[1][:24]))
    assert len(task.support[1]) == 12
    cfg = MetaConfig(inner_steps=2, alpha=0.01)
    params = model.init_params(3)
    grads, _ = meta._meta_gradients(params, [task], cfg, True, meta._default_loss)
    rng = np.random.default_rng(4)
    direction = [rng.standard_normal(t.shape) for t in params.values()]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float(np.vdot(g.data, d)) for g, d in zip(grads, direction))

    def query_loss(eps):
        shifted = {
            name: ad.Tensor(t.data + eps * d, requires_grad=True)
            for (name, t), d in zip(params.items(), direction)
        }
        adapted = meta.inner_adapt(shifted, task.support, cfg.alpha, cfg.inner_steps)
        with ad.no_grad():
            return model.loss(adapted, task.query).item()

    h = 1e-6
    numeric = (query_loss(h) - query_loss(-h)) / (2 * h)
    assert analytic == pytest.approx(numeric, rel=1e-5)


def test_second_order_meta_gradient_matches_summed_loss_oracle():
    # the meta-objective is the sum of the query losses: one grad of that sum,
    # every task's graph held at once, equals the per-task gradients summed
    cfg = MetaConfig(inner_steps=2, shots=1)
    params = model.init_params(3)
    batch = [
        meta.build_task_data(tasks.generate_scenario(seed, tasks.ChannelConfig()), 1, 0)
        for seed in (21, 22, 23)
    ]
    batch = [dataclasses.replace(t, query=(t.query[0][:60], t.query[1][:60])) for t in batch]
    total, expected_losses = None, []
    for task in batch:
        adapted = meta.inner_adapt(params, task.support, cfg.alpha, cfg.inner_steps, create_graph=True)
        q = model.loss(adapted, task.query)
        expected_losses.append(q.item())
        total = q if total is None else ad.add(total, q)
    expected = ad.grad(total, params.values())
    grads, losses = meta._meta_gradients(params, batch, cfg, True, meta._default_loss)
    assert losses == expected_losses
    # only the order of summation differs; its rounding scales with the
    # summands, so the bound is relative to each tensor's largest entry
    for g, e in zip(grads, expected):
        assert np.abs(g.data - e.data).max() <= 1e-12 * np.abs(e.data).max()


@pytest.mark.parametrize("second_order", [True, False], ids=["maml", "fomaml"])
def test_meta_gradient_peak_memory_is_one_task(second_order):
    # each task's graph is freed once its gradient is taken, before the next
    # task's is built, so a meta-batch of 4 peaks at what 1 task does, not
    # higher; the batch holds 4 distinct objects, since a repeated task is
    # adapted once
    task = meta.build_task_data(tasks.generate_scenario(21, tasks.ChannelConfig()), 1, 0)
    cfg = MetaConfig(inner_steps=2, shots=1)
    params = model.init_params(3)

    # the pool starts untraced, so both traced batches measure only their
    # own work, not the workers' start-up and spawn's imports
    evaluation._run_cells(int, [0, 0], evaluation.worker_count())

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            meta._meta_gradients(params, batch, cfg, second_order, meta._default_loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch = [dataclasses.replace(task) for _ in range(4)]
    assert peak_bytes(batch) / peak_bytes([task]) <= 1.1


def test_second_order_task_gradient_peak_memory():
    # one node per layer, bias, pool and relu included, keeps a default
    # second-order task near 19.3 MB; a node each for the pool and the relu
    # takes it to 24.8 MB, and a bias add node each too to 35.0 MB
    cfg = MetaConfig()
    task = meta.build_task_data(tasks.generate_scenario(2305), cfg.shots, 0)
    arrays = {name: t.data for name, t in model.init_params(0).items()}
    tracemalloc.start()
    try:
        meta._task_gradient((arrays, task, cfg, True, meta._default_loss))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22e6


def test_full_scenario_fit_peak_memory():
    # a 5-epoch Adam fit on a 480-row scenario, as compute_importance runs
    # them, peaks near 11.2 MB with one node per layer; keeping each conv
    # output, its pooled copy and each dense pre-activation takes it to 19.0 MB
    batch = tasks.batch_from(tasks.generate_scenario(2305).samples)
    assert len(batch[1]) == 480
    params = model.init_params(0)
    tracemalloc.start()
    try:
        meta.fit_params(params, batch, 5, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6


def test_second_order_task_builds_each_im2col_once():
    # 12 forward convs (5 inner steps and the query, 2 convs each) and one
    # for each of conv2's 5 input-adjoint rules, which its own conv and
    # weight adjoint share; the conv weight adjoints reuse their conv's
    # rows. Rebuilding them took 32 calls.
    cfg = MetaConfig()
    task = meta.build_task_data(tasks.generate_scenario(2305), cfg.shots, 0)
    arrays = {name: t.data for name, t in model.init_params(0).items()}
    with mock.patch.object(ad, "_im2col", wraps=ad._im2col) as spy:
        meta._task_gradient((arrays, task, cfg, True, meta._default_loss))
    assert spy.call_count == 17


# ---------------------------------------------------------------------------
# a task repeated in a meta-batch is adapted once


def inline():
    """Run a meta-batch's pool cells in this process, at one worker, where
    an inner_adapt spy sees every task (once BLAS is pinned)."""
    return mock.patch.dict(os.environ, {"METALOC_THREADS": "1"})


def summed_one_task_batches(params, batch, cfg, second_order, loss_fn):
    """The meta-gradients of `batch` as one-task batches summed position by position."""
    grads, losses = None, []
    for task in batch:
        g, (q,) = meta._meta_gradients(params, [task], cfg, second_order, loss_fn)
        losses.append(q)
        grads = g if grads is None else [ad.add(a, b) for a, b in zip(grads, g)]
    return grads, losses


@pytest.mark.parametrize("second_order", [True, False], ids=["maml", "fomaml"])
def test_repeated_task_is_adapted_once(second_order):
    a, b = toy_task(1.0), toy_task(-3.0)
    with inline(), mock.patch.object(meta, "inner_adapt", wraps=meta.inner_adapt) as spy:
        _, losses = meta._meta_gradients(theta_at(0.5), [a, b, a, a], toy_cfg(), second_order, toy_loss)
    assert [c.args[1] for c in spy.call_args_list] == [a.support, b.support]
    assert losses[0] == losses[2] == losses[3] != losses[1]


@pytest.mark.parametrize("second_order", [True, False], ids=["maml", "fomaml"])
def test_repeated_task_gradients_are_bitwise_the_per_position_sum(second_order):
    a, b = (
        meta.build_task_data(tasks.generate_scenario(seed, tasks.ChannelConfig()), 1, 0)
        for seed in (21, 22)
    )
    a, b = (dataclasses.replace(t, query=(t.query[0][:60], t.query[1][:60])) for t in (a, b))
    cfg = MetaConfig(inner_steps=2, shots=1)
    params = model.init_params(3)
    batch = [a, b, a, a]
    expected, expected_losses = summed_one_task_batches(params, batch, cfg, second_order, meta._default_loss)
    with inline(), mock.patch.object(meta, "inner_adapt", wraps=meta.inner_adapt) as spy:
        grads, losses = meta._meta_gradients(params, batch, cfg, second_order, meta._default_loss)
    assert spy.call_count == 2
    assert losses == expected_losses
    for g, e in zip(grads, expected):
        assert np.array_equal(g.data, e.data)


@settings(max_examples=60, deadline=None)
@given(
    constants=st.lists(
        st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)), min_size=1, max_size=4
    ),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    at=st.floats(-4.0, 4.0),
    second_order=st.booleans(),
)
def test_meta_gradients_equal_per_position_sum_over_random_batches(constants, picks, at, second_order):
    toys = [TaskData(f"toy{i}", support=s, query=q) for i, (s, q) in enumerate(constants)]
    batch = [toys[i % len(toys)] for i in picks]
    cfg = toy_cfg(inner_steps=2)
    expected, expected_losses = summed_one_task_batches(theta_at(at), batch, cfg, second_order, toy_loss)
    with inline(), mock.patch.object(meta, "inner_adapt", wraps=meta.inner_adapt) as spy:
        grads, losses = meta._meta_gradients(theta_at(at), batch, cfg, second_order, toy_loss)
    assert spy.call_count == len({id(t) for t in batch})
    assert losses == expected_losses
    assert [g.data.tobytes() for g in grads] == [e.data.tobytes() for e in expected]


# ---------------------------------------------------------------------------
# the distinct tasks of a meta-batch but the first run in the pool


def test_meta_batch_submits_every_distinct_task_but_the_first(monkeypatch):
    a, b, c = toy_task(1.0), toy_task(-3.0), toy_task(2.0)
    submitted = []

    def recording(fn, cells, workers):
        submitted.append([cell[1] for run in cells for cell in run])
        return map(fn, cells)

    monkeypatch.setattr(evaluation, "_map_cells", recording)
    meta._meta_gradients(theta_at(0.5), [a, b, a, c], toy_cfg(), True, toy_loss)
    assert len(submitted) == 1 and [t.support for t in submitted[0]] == [b.support, c.support]
    submitted.clear()
    meta._meta_gradients(theta_at(0.5), [a, a, a, a], toy_cfg(), True, toy_loss)
    assert submitted == []


@pytest.mark.parametrize(
    "workers, runs", [("2", [[1, 2, 3], [4, 5]]), ("3", [[1, 2], [3, 4], [5]]), ("8", [[1], [2], [3], [4], [5]])],
)
def test_meta_batch_goes_to_the_pool_as_at_most_one_run_per_worker(monkeypatch, workers, runs):
    # runs of consecutive tasks, so the batch and the no-op after it fit the
    # executor's call queue (workers + 1 items) at once; same gradients
    toys = [toy_task(float(c)) for c in range(6)]
    with inline():
        expected = meta._meta_gradients(theta_at(0.5), toys, toy_cfg(), True, toy_loss)
    submitted = []

    def recording(fn, cells, count):
        submitted.append([[cell[1].scenario_id for cell in run] for run in cells])
        return map(fn, cells)

    monkeypatch.setattr(evaluation, "_map_cells", recording)
    monkeypatch.setenv("METALOC_THREADS", workers)
    grads, losses = meta._meta_gradients(theta_at(0.5), toys, toy_cfg(), True, toy_loss)
    assert submitted == [[[toys[i].scenario_id for i in run] for run in runs]]
    assert losses == expected[1]
    assert [g.data.tobytes() for g in grads] == [e.data.tobytes() for e in expected[0]]


@pytest.mark.parametrize("algorithm", ["maml", "fomaml"])
def test_meta_train_bitwise_equal_at_one_and_two_workers(monkeypatch, algorithm):
    scenarios = small_scenarios(4)
    cfg = quick_cfg(meta_batch_size=4)
    evaluation._close_pool()
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("METALOC_THREADS", workers)
        runs.append(meta.meta_train(algorithm, scenarios, cfg))
    assert evaluation._pool is not None and evaluation._pool[0] == 2  # the 2-worker run used the pool
    one, two = runs
    assert one.keys() == two.keys()
    for name in one:
        assert np.array_equal(one[name].data, two[name].data), name


def exit_in_a_worker(params, target):
    """toy_loss in the caller; a pool worker that evaluates it dies."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return toy_loss(params, target)


def test_worker_dying_in_a_meta_batch_raises_and_the_next_batch_starts_a_new_pool(monkeypatch):
    monkeypatch.setenv("METALOC_THREADS", "2")
    batch = [toy_task(1.0), toy_task(-3.0)]
    expected_grads, expected_losses = meta._meta_gradients(theta_at(0.5), batch, toy_cfg(), True, toy_loss)
    broken = evaluation._pool
    assert broken is not None
    with pytest.raises(BrokenProcessPool):
        meta._meta_gradients(theta_at(0.5), batch, toy_cfg(), True, exit_in_a_worker)
    assert evaluation._pool is None
    grads, losses = meta._meta_gradients(theta_at(0.5), batch, toy_cfg(), True, toy_loss)
    assert evaluation._pool is not None and evaluation._pool is not broken
    assert losses == expected_losses
    assert [g.data.tobytes() for g in grads] == [e.data.tobytes() for e in expected_grads]


@pytest.mark.parametrize("algorithm", ["maml", "fomaml"])
def test_maml_and_fomaml_reject_an_importance_vector(algorithm):
    scenarios = small_scenarios(3)
    imp = meta.ImportanceVector(
        values=np.zeros(3),
        average_losses=np.zeros(3),
        loss_matrix=np.zeros((3, 3)),
        task_ids=[s.id for s in scenarios],
    )
    # the check runs before iteration 0: no meta-gradient is taken
    with mock.patch.object(meta, "_meta_gradients", side_effect=AssertionError("iteration 0 ran")):
        with pytest.raises(ValueError, match=f"{algorithm} takes no importance vector"):
            meta.meta_train(algorithm, scenarios, quick_cfg(), importance=imp)
