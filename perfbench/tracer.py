"""In-memory span tracer that instruments metaloc from outside.

The tracer replaces module attributes the program calls through with
wrappers that record a span (name, start, end, parent) per call, plus a
few exact counters. Nothing in ``src/`` is edited: ``install`` swaps the
attributes, ``uninstall`` restores them. Names bound with ``from ...
import`` (``meta.grad``, ``meta.model_loss``, ``evaluation.batch_from``,
...) are replaced in every binding module, not only where defined.

Spans recorded in forked pool workers are aggregated per cell and written
to ``trace_dir`` as JSON, because the worker's memory is lost when it
exits; ``merge`` sums those files with the parent's aggregate.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

# (module name, attribute, span name); each attribute is wrapped in every
# module that binds it
SPANS = (
    ("autodiff", "grad", None),  # span name depends on create_graph
    ("model", "loss", "loss"),
    ("model", "predict_positions", "predict_positions"),
    ("meta", "inner_adapt", "inner_adapt"),
    ("meta", "fit_params", "fit_params"),
    ("meta", "build_task_data", "build_task_data"),
    ("meta", "compute_importance", "compute_importance"),
    ("meta", "meta_train", "meta_train"),
    ("tasks", "generate_scenario", "generate_scenario"),
    ("tasks", "load_scenario", "load_scenario"),
    ("tasks", "load_scenario_dir", "load_scenario_dir"),
    ("tasks", "batch_from", "batch_from"),
    ("evaluation", "benchmark", "benchmark"),
    ("evaluation", "cross_scenario_matrix", "cross_scenario_matrix"),
    ("evaluation", "task_count_sweep", "task_count_sweep"),
    ("evaluation", "_benchmark_cell", "cell"),
    ("evaluation", "_matrix_cell", "cell"),
    ("evaluation", "_sweep_cell", "cell"),
    ("cli", "cmd_bench", "cmd_bench"),
)

# names bound with `from .x import y`: (defining module, name) -> (module, local name)
ALIASES = {
    ("autodiff", "grad"): (("meta", "grad"),),
    ("model", "loss"): (("meta", "model_loss"),),
    ("model", "predict_positions"): (("meta", "predict_positions"), ("evaluation", "predict_positions")),
    ("meta", "build_task_data"): (("evaluation", "build_task_data"),),
    ("meta", "meta_train"): (("evaluation", "meta_train"),),
    ("tasks", "batch_from"): (("meta", "batch_from"), ("evaluation", "batch_from")),
    ("tasks", "generate_scenario"): (("cli", "generate_scenario"),),
    ("tasks", "load_scenario_dir"): (("cli", "load_scenario_dir"),),
}

CELL_SPANS = {"_benchmark_cell", "_matrix_cell", "_sweep_cell"}


def _modules():
    return {
        name: importlib.import_module(f"metaloc.{name}")
        for name in ("autodiff", "model", "meta", "tasks", "evaluation", "cli")
    }


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self, trace_dir=None):
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list = []
        self.counts: dict = defaultdict(float)
        self.nodes = {"meta_train": defaultdict(int), "other": defaultdict(int)}
        self.bucket = self.nodes["other"]
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.pid = os.getpid()
        self._saved: list = []
        self._cells = 0

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _grad(self, fn, toposort):
        @functools.wraps(fn)
        def wrapper(output, wrt, create_graph=False, **kwargs):
            if not create_graph and self.bucket is self.nodes["meta_train"]:
                # its own span, so the count is not charged to meta_train
                index = self._open("trace.toposort")
                self.counts["nodes_reachable"] += sum(
                    1 for t in toposort(output) if t.node is not None
                )
                self._close(index)
            index = self._open("grad.create_graph" if create_graph else "grad.first_order")
            try:
                return fn(output, wrt, create_graph=create_graph, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _meta_train(self, fn):
        @functools.wraps(fn)
        def wrapper(algorithm, task_set, cfg, importance=None, trace=None):
            rows = [] if trace is None else trace
            before = len(rows)
            held, self.bucket = self.bucket, self.nodes["meta_train"]
            index = self._open("meta_train")
            try:
                return fn(algorithm, task_set, cfg, importance=importance, trace=rows)
            finally:
                self._close(index)
                self.bucket = held
                fresh = rows[before:]
                if fresh:
                    self.counts["meta_iterations"] += fresh[-1][0] + 1

        return wrapper

    def _importance(self, fn):
        span = self._span("compute_importance", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            held, self.bucket = self.bucket, self.nodes["other"]
            try:
                return span(*args, **kwargs)
            finally:
                self.bucket = held

        return wrapper

    def _load(self, fn):
        span = self._span("load_scenario", fn)

        @functools.wraps(fn)
        def wrapper(path):
            self.counts["load_scenario.bytes"] += os.path.getsize(path)
            return span(path)

        return wrapper

    def _run_cells(self, fn):
        @functools.wraps(fn)
        def wrapper(cell_fn, cells, workers):
            # computed: what one pool task would pickle for this cell
            index = self._open("trace.pickle")
            for cell in cells:
                self.counts["pool.bytes"] += len(pickle.dumps(cell))
                self.counts["pool.cells"] += 1
            self._close(index)
            return fn(cell_fn, cells, workers)

        return wrapper

    def _cell(self, fn):
        span = self._span("cell", fn)

        @functools.wraps(fn)
        def wrapper(args):
            start = len(self.spans)
            in_worker = os.getpid() != self.pid
            if in_worker:
                # counters inherited from the parent at fork belong to it
                self._clear_counts()
            result = span(args)
            if in_worker and self.trace_dir is not None:
                self._flush_worker(start)
            return result

        return wrapper

    def _flush_worker(self, start: int) -> None:
        """Write this worker cell's aggregate and forget its spans."""
        self._cells += 1
        doc = aggregate(self.spans[start:], offset=start)
        doc["counts"] = dict(self.counts)
        doc["nodes"] = {k: dict(v) for k, v in self.nodes.items()}
        path = self.trace_dir / f"cell-{os.getpid()}-{self._cells}.json"
        path.write_text(json.dumps(doc))
        del self.spans[start:]
        self._clear_counts()

    def _clear_counts(self) -> None:
        self.counts.clear()
        for bucket in self.nodes.values():
            bucket.clear()

    # -- installation --------------------------------------------------

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> "Tracer":
        mods = _modules()
        autodiff = mods["autodiff"]
        for mod_name, attr, span in SPANS:
            fn = getattr(mods[mod_name], attr)
            if attr == "grad":
                wrapped = self._grad(fn, autodiff.toposort)
            elif attr == "meta_train":
                wrapped = self._meta_train(fn)
            elif attr == "compute_importance":
                wrapped = self._importance(fn)
            elif attr == "load_scenario":
                wrapped = self._load(fn)
            elif attr in CELL_SPANS:
                wrapped = self._cell(fn)
            else:
                wrapped = self._span(span, fn)
            self._set(mods[mod_name], attr, wrapped)
            for alias_mod, alias in ALIASES.get((mod_name, attr), ()):
                self._set(mods[alias_mod], alias, wrapped)
        self._set(mods["evaluation"], "_run_cells", self._run_cells(mods["evaluation"]._run_cells))

        tracer = self
        base = autodiff.Node

        class CountingNode(base):
            __slots__ = ()

            def __init__(self, op, parents, vjp):
                tracer.bucket[op] += 1
                base.__init__(self, op, parents, vjp)

        self._set(autodiff, "Node", CountingNode)
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def snapshot(self) -> dict:
        """This process's aggregate, in the format ``merge`` reads."""
        doc = aggregate(self.spans)
        doc["counts"] = dict(self.counts)
        doc["nodes"] = {k: dict(v) for k, v in self.nodes.items()}
        return doc


def aggregate(spans: list, offset: int = 0) -> dict:
    """Calls, total and self seconds per span name over closed spans.

    A span's self time is its duration minus the durations of its direct
    children. ``offset`` is the index of spans[0] in the full span list.
    """
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if end is not None and parent is not None and parent >= offset:
            child[parent] += end - start
    out: dict = {"calls": defaultdict(int), "total": defaultdict(float), "self": defaultdict(float)}
    for i, (name, start, end, parent) in enumerate(spans, start=offset):
        if end is None:
            continue
        out["calls"][name] += 1
        out["total"][name] += end - start
        out["self"][name] += end - start - child[i]
    return {k: dict(v) for k, v in out.items()}


def merge(docs) -> dict:
    """Sum aggregates from several processes or cells."""
    out: dict = {
        "calls": defaultdict(int),
        "total": defaultdict(float),
        "self": defaultdict(float),
        "counts": defaultdict(float),
        "nodes": {"meta_train": defaultdict(int), "other": defaultdict(int)},
    }
    for doc in docs:
        for key in ("calls", "total", "self", "counts"):
            for name, value in doc.get(key, {}).items():
                out[key][name] += value
        for bucket, ops in doc.get("nodes", {}).items():
            for op, n in ops.items():
                out["nodes"][bucket][op] += n
    return out


def read_dir(trace_dir) -> list:
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("*.json"))]
