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
add, sub, scalar multiply, matmul, conv1d (kernel 3, padding 1), maxpool1d
(kernel 2, floor length), relu, flatten and mean squared error, plus the
internal reshaping/padding/contraction helpers their backward rules use.
Everything is float64; no broadcasting beyond bias addition is supported.
"""

from __future__ import annotations

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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

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

    # arithmetic sugar used throughout the trainers
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _coerce(other))


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


def _pad_last(a: Tensor, pad: int) -> Tensor:
    width = [(0, 0)] * (a.ndim - 1) + [(pad, pad)]
    data = np.pad(a.data, width)

    def vjp(g: Tensor):
        return (_crop_last(g, pad),)

    return _make(data, "pad_last", (a,), vjp)


def _crop_last(a: Tensor, pad: int) -> Tensor:
    data = a.data[..., pad : a.shape[-1] - pad].copy()

    def vjp(g: Tensor):
        return (_pad_last(g, pad),)

    return _make(data, "crop_last", (a,), vjp)


def _unfold_last(a: Tensor, k: int) -> Tensor:
    """Length-k sliding windows over the last axis: (..., L) -> (..., L-k+1, k)."""
    if a.shape[-1] < k:
        raise ShapeError(f"unfold: length {a.shape[-1]} < kernel {k}")
    data = np.lib.stride_tricks.sliding_window_view(a.data, k, axis=-1).copy()

    def vjp(g: Tensor):
        return (_fold_last(g, a.shape[-1]),)

    return _make(data, "unfold_last", (a,), vjp)


def _fold_last(a: Tensor, length: int) -> Tensor:
    """Adjoint of _unfold_last: overlap-add windows back to length L."""
    k = a.shape[-1]
    m = a.shape[-2]
    if m + k - 1 != length:
        raise ShapeError(f"fold: windows {a.shape} do not fold to length {length}")
    data = np.zeros(a.shape[:-2] + (length,), dtype=np.float64)
    for j in range(k):
        data[..., j : j + m] += a.data[..., :, j]

    def vjp(g: Tensor):
        return (_unfold_last(g, k),)

    return _make(data, "fold_last", (a,), vjp)


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
    xp = _pad_last(x, padding) if padding else x
    kernel = weight.shape[2]
    out_ch = weight.shape[0]
    windows = _unfold_last(xp, kernel)  # (B, Cin, Lout, K)
    batch, _, length_out, _ = windows.shape
    # contraction as a BLAS matmul: rows are (batch, position), cols (channel, tap)
    cols = reshape(permute(windows, (0, 2, 1, 3)), (batch * length_out, -1))
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
    idx = blocks.argmax(axis=-1)
    out = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def vjp(g: Tensor):
        return (_pool_scatter(g, idx, kernel, length),)

    return _make(out, "maxpool1d", (x,), vjp)


def _pool_scatter(g: Tensor, idx: np.ndarray, kernel: int, length: int) -> Tensor:
    """Scatter pooled gradients back to the argmax positions (adjoint of gather)."""
    m = idx.shape[-1]
    blocks = np.zeros(g.shape[:-1] + (m, kernel), dtype=np.float64)
    np.put_along_axis(blocks, idx[..., None], g.data[..., None], axis=-1)
    data = np.zeros(g.shape[:-1] + (length,), dtype=np.float64)
    data[..., : m * kernel] = blocks.reshape(g.shape[:-1] + (m * kernel,))

    def vjp(g2: Tensor):
        return (_pool_gather(g2, idx, kernel),)

    return _make(data, "pool_scatter", (g,), vjp)


def _pool_gather(x: Tensor, idx: np.ndarray, kernel: int) -> Tensor:
    m = idx.shape[-1]
    blocks = x.data[..., : m * kernel].reshape(x.shape[:-1] + (m, kernel))
    data = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def vjp(g: Tensor):
        return (_pool_scatter(g, idx, kernel, x.shape[-1]),)

    return _make(data, "pool_gather", (x,), vjp)


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


def grad(
    output: Tensor,
    wrt: Sequence[Tensor],
    create_graph: bool = False,
    with_detached: bool = False,
):
    """Gradients of a scalar output with respect to each tensor in wrt.

    With create_graph=True the returned gradients are themselves recorded
    on the graph and can be differentiated again. Parameters with no path
    to the output get a zero gradient plus a True entry in the detached
    mask (requested via with_detached) rather than an error.

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
    ctx = no_grad() if not create_graph else _null_ctx()
    with ctx:
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
        results = []
        detached = []
        for t in wrt:
            g = grads.get(id(t))
            if g is None:
                results.append(Tensor(np.zeros(t.shape)))
                detached.append(True)
            else:
                results.append(g)
                detached.append(False)
    if with_detached:
        return results, detached
    return results


class _null_ctx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
