"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors wrap numpy arrays; tracked operations append nodes to an implicit
computation graph (each node stores its op kind, parent tensors and a
backward rule). Backward rules are themselves written in terms of the
public ops, so running a backward pass with ``create_graph=True`` records
a new differentiable graph - that is what gives gradients of gradients,
needed to push meta-gradients through an inner adaptation step.

A backward pass runs backward rules only for nodes downstream of a
requested (``wrt``) tensor: history older than the requested tensors is
never re-differentiated, so inner step k of a second-order adaptation
records what step 0 does. A requested tensor's gradient still counts every
path to the output, including paths through other requested tensors.

The op family is exactly what the localization CNN and its MSE loss need:
add, sub, scalar multiply, matmul, conv1d (stride 1, any kernel and
padding), maxpool1d (non-overlapping, floor length), relu, flatten and mean
squared error. One private pair moves entries by index: ``_gather`` copies
each sample's entries at given flat positions, and ``_scatter``, its
adjoint, sums them back; each is the other's backward rule. conv1d gathers
its im2col windows and contracts them with one matmul. A tap off either end
of a sample reads a zero placed after that sample, so padding is no op of
its own. maxpool1d gathers at the argmax positions. ``_scatter`` sums the
last index axis outermost, so an input position adds its kernel taps in
tap order, 0 to K-1. Everything is float64; no broadcasting beyond bias
addition is supported.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "AutodiffError",
    "ShapeError",
    "NumericError",
    "Tensor",
    "tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "matmul",
    "transpose",
    "relu",
    "reshape",
    "flatten",
    "sum_all",
    "mean_all",
    "mse",
    "conv1d",
    "maxpool1d",
    "grad",
    "toposort",
]


class AutodiffError(Exception):
    """Base class for tensor-engine failures."""


class ShapeError(AutodiffError):
    """Operands do not conform; message names the op and the extents."""


class NumericError(AutodiffError):
    """A NaN or Inf surfaced where the caller demanded finite values."""


_grad_enabled = True


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Node:
    """One recorded operation: kind, parent tensors, backward rule.

    ``vjp(g)`` maps the output gradient to a tuple of parent gradients
    (None for parents that do not need one). The rule is built from the
    module's own ops, so it is differentiable when invoked while grad
    recording is enabled.
    """

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op: str, parents: tuple, vjp: Callable):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """Dense float64 array with optional gradient tracking.

    ``node`` is None for leaves and constants; interior tensors carry the
    graph node that produced them.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.node: Optional[Node] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.data.reshape(()))

    def check_finite(self, context: str = "") -> "Tensor":
        if not np.all(np.isfinite(self.data)):
            bad = int(np.size(self.data) - np.count_nonzero(np.isfinite(self.data)))
            where = f" during {context}" if context else ""
            raise NumericError(
                f"non-finite values detected{where}: {bad} of {self.size} entries"
            )
        return self

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # the trainers sum losses and gradients with +
    def __add__(self, other):
        return add(self, _coerce(other))


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Public constructor; rejects non-finite input values outright."""
    t = Tensor(data, requires_grad=requires_grad)
    t.check_finite("tensor construction")
    return t


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, op: str, parents: tuple, vjp: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = Node(op, parents, vjp)
    return out


# ---------------------------------------------------------------------------
# elementwise / structural ops


def _sum_to(x: Tensor, shape: tuple) -> Tensor:
    """Reduce x down to `shape` by summing broadcast axes (bias gradients)."""
    shape = tuple(shape)
    if x.shape == shape:
        return x
    data = x.data
    while data.ndim > len(shape):
        data = data.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and data.shape[axis] != 1:
            data = data.sum(axis=axis, keepdims=True)
    if data.shape != shape:
        raise ShapeError(f"sum_to: cannot reduce {x.shape} to {shape}")

    def vjp(g: Tensor):
        return (_broadcast_to(g, x.shape),)

    return _make(data, "sum_to", (x,), vjp)


def _broadcast_to(x: Tensor, shape: tuple) -> Tensor:
    shape = tuple(shape)
    if x.shape == shape:
        return x
    data = np.broadcast_to(x.data, shape)

    def vjp(g: Tensor):
        return (_sum_to(g, x.shape),)

    return _make(data, "broadcast_to", (x,), vjp)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def vjp(g: Tensor):
        return (_sum_to(g, a.shape), _sum_to(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)

    def vjp(g: Tensor):
        return (_sum_to(g, a.shape), neg(_sum_to(g, b.shape)))

    return _make(a.data - b.data, "sub", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)

    def vjp(g: Tensor):
        return (_sum_to(mul(g, b), a.shape), _sum_to(mul(g, a), b.shape))

    return _make(a.data * b.data, "mul", (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g: Tensor):
        return (scale(g, s),)

    return _make(a.data * s, "scale", (a,), vjp)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")

    def vjp(g: Tensor):
        return (matmul(g, transpose(b)), matmul(transpose(a), g))

    return _make(a.data @ b.data, "matmul", (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.shape}")

    def vjp(g: Tensor):
        return (transpose(g),)

    return _make(a.data.T, "transpose", (a,), vjp)


def permute(a: Tensor, axes: tuple) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))

    def vjp(g: Tensor):
        return (permute(g, inverse),)

    return _make(np.transpose(a.data, axes), "permute", (a,), vjp)


def relu(a: Tensor) -> Tensor:
    mask = Tensor((a.data > 0).astype(np.float64))

    def vjp(g: Tensor):
        # mask is piecewise constant in the inputs, so treating it as a
        # constant is exact almost everywhere (and for second order too)
        return (mul(g, mask),)

    return _make(np.maximum(a.data, 0.0), "relu", (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def vjp(g: Tensor):
        return (reshape(g, a.shape),)

    return _make(data, "reshape", (a,), vjp)


def flatten(a: Tensor) -> Tensor:
    """Collapse all but the leading (batch) axis."""
    if a.ndim < 2:
        raise ShapeError(f"flatten: expected >= 2 axes, got shape {a.shape}")
    return reshape(a, (a.shape[0], int(np.prod(a.shape[1:]))))


def sum_all(a: Tensor) -> Tensor:
    def vjp(g: Tensor):
        return (_broadcast_to(g, a.shape),)

    return _make(np.asarray(a.data.sum()), "sum_all", (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    if a.size == 0:
        raise ShapeError("mean_all: empty tensor")
    return scale(sum_all(a), 1.0 / a.size)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over every entry of pred vs target."""
    target = _coerce(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes {pred.shape} and {target.shape} differ")
    d = sub(pred, target)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# convolution / pooling


def _positions(index: np.ndarray, batch: int, per: int) -> np.ndarray:
    """Per-sample positions as positions in the (batch, per) flattening."""
    return index + per * np.arange(batch).reshape((batch,) + (1,) * (index.ndim - 1))


def _gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Entries of each sample x[b] picked by flat position: (B,) + index.shape[1:].

    index has a leading axis of 1 (one index for every sample) or B.
    Position x[b].size reads a zero placed after the sample.
    """
    batch = x.shape[0]
    flat = np.zeros((batch, int(np.prod(x.shape[1:])) + 1))
    flat[:, :-1] = x.data.reshape(batch, -1)

    def vjp(g: Tensor):
        return (_scatter(g, index, x.shape),)

    return _make(flat.ravel()[_positions(index, *flat.shape)], "gather", (x,), vjp)


def _scatter(g: Tensor, index: np.ndarray, shape: tuple) -> Tensor:
    """Adjoint of _gather: sum g onto the positions index picked, in `shape`.

    The last index axis is summed outermost, so a position that several
    kernel taps read adds their entries in tap order.
    """
    batch = shape[0]
    per = int(np.prod(shape[1:])) + 1
    target = np.moveaxis(_positions(index, batch, per), -1, 0).ravel()
    data = np.bincount(target, np.moveaxis(g.data, -1, 0).ravel(), minlength=batch * per)

    def vjp(g2: Tensor):
        return (_gather(g2, index),)

    return _make(data.reshape(batch, per)[:, :-1].reshape(shape), "scatter", (g,), vjp)


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 1) -> Tensor:
    """1-d convolution over (batch, channels, length) with stride 1.

    weight is (out_channels, in_channels, kernel); bias, when given, is
    (out_channels,). With kernel 3 / padding 1 the length is preserved.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d: input must be (batch, channels, length), got {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d: weight must be (out, in, kernel), got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"conv1d: input channels {x.shape[1]} != weight channels {weight.shape[1]}"
        )
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(
            f"conv1d: bias shape {bias.shape} != ({weight.shape[0]},)"
        )
    batch, in_ch, length = x.shape
    out_ch, _, kernel = weight.shape
    if padding < 0:
        raise ShapeError(f"conv1d: padding {padding} < 0")
    length_out = length + 2 * padding - kernel + 1
    if length_out < 1:
        raise ShapeError(f"conv1d: length {length} + 2 * padding {padding} < kernel {kernel}")
    # im2col windows (B, Lout, Cin, K); a tap off either end reads the zero
    taps = np.arange(length_out)[:, None, None] + np.arange(kernel) - padding
    inside = (taps >= 0) & (taps < length)
    index = np.where(inside, np.arange(in_ch)[:, None] * length + taps, in_ch * length)
    # contraction as a BLAS matmul: rows are (batch, position), cols (channel, tap)
    cols = reshape(_gather(x, index[None]), (batch * length_out, -1))
    wmat = transpose(reshape(weight, (out_ch, -1)))
    y = permute(reshape(matmul(cols, wmat), (batch, length_out, out_ch)), (0, 2, 1))
    if bias is not None:
        y = add(y, reshape(bias, (1, out_ch, 1)))
    return y


def maxpool1d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pool over the last axis; floor length (15 -> 7)."""
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d: input must be (batch, channels, length), got {x.shape}")
    length = x.shape[-1]
    m = length // kernel
    if m == 0:
        raise ShapeError(f"maxpool1d: length {length} < kernel {kernel}")
    blocks = x.data[..., : m * kernel].reshape(x.shape[:-1] + (m, kernel))
    starts = np.arange(x.shape[1])[:, None] * length + np.arange(m) * kernel
    return _gather(x, starts + blocks.argmax(axis=-1))


# ---------------------------------------------------------------------------
# backward pass


def toposort(root: Tensor) -> list:
    """Ancestors of root in topological order (parents before consumers)."""
    order: list = []
    seen = set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if id(p) not in seen and (p.node is not None or p.requires_grad):
                    stack.append((p, False))
    return order


def grad(output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list:
    """Gradients of a scalar output with respect to each tensor in wrt.

    With create_graph=True the returned gradients are themselves recorded
    on the graph and can be differentiated again. Tensors with no path to
    the output get a zero gradient rather than an error.

    Backward rules run only for nodes downstream of a wrt tensor, so none
    runs for the history behind a non-leaf wrt tensor. Each wrt gradient
    is still the total derivative: paths through other wrt tensors count.
    """
    if output.size != 1:
        raise ShapeError(f"grad: output must be scalar, got shape {output.shape}")
    wrt = list(wrt)

    grads: dict = {}
    if output.node is not None or output.requires_grad:
        grads[id(output)] = Tensor(np.ones(output.shape))

    order = toposort(output)
    # only nodes downstream of wrt can carry gradient to it: mark the
    # tracked wrt tensors, then every node with a marked parent
    marked = {id(t) for t in wrt if t.requires_grad or t.node is not None}
    downstream = []
    for t in order:
        if t.node is not None and any(id(p) in marked for p in t.node.parents):
            marked.add(id(t))
            downstream.append(t)
    with nullcontext() if create_graph else no_grad():
        for t in reversed(downstream):
            g = grads.get(id(t))
            if g is None:
                continue
            parent_grads = t.node.vjp(g)
            for p, pg in zip(t.node.parents, parent_grads):
                if pg is None or id(p) not in marked:
                    continue
                held = grads.get(id(p))
                grads[id(p)] = pg if held is None else add(held, pg)
        return [grads[id(t)] if id(t) in grads else Tensor(np.zeros(t.shape)) for t in wrt]
