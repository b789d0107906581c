"""The benchmark tracer still finds every module attribute it rebinds."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_resolve_and_restore():
    tracer = load_tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.SPANS]
    names += [alias for aliases in tracer.ALIASES.values() for alias in aliases]
    names += [("evaluation", "_run_cells"), ("autodiff", "Node")]
    modules = {mod: importlib.import_module(f"metaloc.{mod}") for mod, _ in names}
    missing = [f"{mod}.{attr}" for mod, attr in names if not hasattr(modules[mod], attr)]
    assert not missing, f"tracer rebinds names the program no longer has: {missing}"

    before = {(mod, attr): getattr(modules[mod], attr) for mod, attr in names}
    t = tracer.Tracer().install()
    try:
        assert all(getattr(modules[mod], attr) is not fn for (mod, attr), fn in before.items())
    finally:
        t.uninstall()
    assert all(getattr(modules[mod], attr) is fn for (mod, attr), fn in before.items())


def test_tracer_counts_every_node_of_a_loss():
    # the per-op nodes.* metrics count Node constructions through the tracer
    tracer = load_tracer()
    from metaloc import autodiff, model

    params = model.init_params(0)
    rng = np.random.default_rng(0)
    batch = (rng.random((5, 3, 30)), rng.random((5, 2)))
    with tracer.Tracer() as t:
        loss = model.loss(params, batch)
    counted = sum(n for bucket in t.nodes.values() for n in bucket.values())
    assert counted == sum(1 for x in autodiff.toposort(loss) if x.node is not None) > 0
