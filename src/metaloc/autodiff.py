"""Reverse-mode automatic differentiation over dense float64 arrays.

Tensors wrap numpy arrays; tracked operations append nodes to an implicit
computation graph (each node stores its op kind, parent tensors and a
backward rule). Backward rules are themselves written in terms of the
public ops, so running a backward pass with ``create_graph=True`` records
a new differentiable graph - that is what gives gradients of gradients,
needed to push meta-gradients through an inner adaptation step. Ops take
Tensors. A recorded node implies requires_grad, so every check of tracking
reads that flag alone.

A backward pass runs backward rules only for nodes downstream of a
requested (``wrt``) tensor: history older than the requested tensors is
never re-differentiated, so inner step k of a second-order adaptation
records what step 0 does. A requested tensor's gradient still counts every
path to the output, including paths through other requested tensors.
A backward pass holds the graph plus only the gradients not yet
propagated: each other gradient is dropped once its node's rule has run.

The op family is exactly what the localization CNN and its MSE loss need:
add, sub, scalar multiply, matmul, conv1d (stride 1, any kernel and
padding), maxpool1d (non-overlapping, floor length), relu, flatten and
mean squared error. A layer is one node, bias, pooling and activation
included: matmul takes an optional bias and relu, conv1d an optional bias,
max pool and relu, and each applies them in place to its product. The node
keeps its operands, conv's im2col rows and pool taps, and its own output,
but no pre-activation: its rule reads relu's mask from the output (out > 0
exactly where the input to relu is, NaN included) and runs relu's, the
pool's and the product's rules in turn, so values and gradients are those
of the separate ops to the bit. relu and maxpool1d share their mask and
tap code with these nodes and, like the broadcasting add, serve layers
composed op by op (perfbench's layer timings, the tests); the model does
not call them. conv1d's product is its im2col rows, one slice copy per
kernel tap with the padding left at zero, times the weight in one matmul;
every rule that knows an input's rows reuses them. Its input and weight
adjoints are private ops of their own; the three are bilinear, and each
one's backward rule is written with the other two. The input adjoint sums
an input position's kernel taps in tap order, 0 to K-1. The max pool picks
each block's first maximum, as argmax does, with strict ``>`` comparisons,
and keeps one byte per block when a graph is recorded: the tap of that
maximum. The pick and the put that is its adjoint read or write each
block's tapped entry through one flat index, built when they run and
dropped at once, and are each other's backward rule.

Conv and pool arrays are channels-last in memory: conv1d returns a
(B, C, L) view of (B, L, C) memory, and the conv input adjoint and the
put allocate the same way, so conv's matmul rows are free reshapes of
them. Element-wise ops and copies give the same bits in any layout; a
reduction does not, so a bias adjoint's sum makes each partial sum
C-contiguous before it reduces the next axis, and sums in the order a
channel-first array would. A backward rule returns None for an untracked
operand, such as relu's mask or the network's input, instead of an
adjoint that grad would drop. Everything is float64. Only add broadcasts,
for a bias; sub, mul and mse need operands of equal shape.
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
    "no_grad",
    "add",
    "sub",
    "mul",
    "scale",
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

    ``node`` is None for leaves and constants; tracked interior tensors
    carry the graph node that produced them.
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


def _tracks(parents: tuple) -> bool:
    """Whether an op on these parents records a node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, op: str, parents: tuple, vjp: Callable) -> Tensor:
    out = Tensor(data)
    if _tracks(parents):
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
    # each partial sum is made C-contiguous before the next axis is reduced,
    # so a channels-last x sums in a channel-first x's order, to the bit
    data = x.data
    while data.ndim > len(shape):
        data = np.asarray(data.sum(axis=0), order="C")
    for axis, extent in enumerate(shape):
        if extent == 1 and data.shape[axis] != 1:
            data = np.asarray(data.sum(axis=axis, keepdims=True), order="C")
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
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")


def _check_equal(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)

    def vjp(g: Tensor):
        return (_sum_to(g, a.shape), _sum_to(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_equal("sub", a, b)

    def vjp(g: Tensor):
        # an untracked operand, such as mse's target, needs no adjoint
        return (
            g if a.requires_grad else None,
            scale(g, -1.0) if b.requires_grad else None,
        )

    return _make(a.data - b.data, "sub", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_equal("mul", a, b)

    def vjp(g: Tensor):
        # an untracked operand, such as relu's mask, needs no adjoint
        return (
            mul(g, b) if a.requires_grad else None,
            mul(g, a) if b.requires_grad else None,
        )

    return _make(a.data * b.data, "mul", (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def vjp(g: Tensor):
        return (scale(g, s),)

    return _make(a.data * s, "scale", (a,), vjp)


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """a @ b, plus bias (b's columns,) added to every row when given, then
    relu when asked.

    A dense layer is one node, bias and relu included: its rule reads
    relu's mask from its output and returns the bias adjoint too.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    if bias is not None and bias.shape != (b.shape[1],):
        raise ShapeError(f"matmul: bias shape {bias.shape} != ({b.shape[1]},)")
    data = a.data @ b.data
    if bias is not None:
        data += bias.data
    if relu:
        np.maximum(data, 0.0, out=data)

    def vjp(g: Tensor):
        if relu:
            g = _relu_grad(g, data)
        grads = (matmul(g, transpose(b)), matmul(transpose(a), g))
        return grads if bias is None else grads + (_sum_to(g, bias.shape),)

    parents = (a, b) if bias is None else (a, b, bias)
    return _make(data, "matmul", parents, vjp)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got shape {a.shape}")

    def vjp(g: Tensor):
        return (transpose(g),)

    return _make(a.data.T, "transpose", (a,), vjp)


def _relu_grad(g: Tensor, out: np.ndarray) -> Tensor:
    """g where relu's output `out` is positive, zero elsewhere.

    out > 0 exactly where relu's input is > 0, NaN included, so a node
    keeps only its output. The mask is built when the rule runs, so an
    undifferentiated graph holds none; it is piecewise constant in the
    inputs, so treating it as a constant is exact almost everywhere (and
    for second order too).
    """
    return mul(g, Tensor((out > 0).astype(np.float64)))


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def vjp(g: Tensor):
        return (_relu_grad(g, data),)

    return _make(data, "relu", (a,), vjp)


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
    _check_equal("mse", pred, target)
    d = sub(pred, target)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# convolution / pooling


def _tap_slices(length: int, kernel: int, padding: int, length_out: int):
    """(tap j, output positions, input positions) of each tap inside the input.

    Output position t reads input position t + j - padding at tap j; the
    positions where that falls on the padding are left out of both slices.
    """
    for j in range(kernel):
        lo, hi = max(0, padding - j), min(length_out, length + padding - j)
        yield j, slice(lo, hi), slice(lo + j - padding, hi + j - padding)


def _im2col(x: np.ndarray, kernel: int, padding: int, length_out: int) -> np.ndarray:
    """(B*Lout, Cin*K) rows of im2col windows; a tap on the padding reads 0."""
    batch, in_ch, length = x.shape
    cols = np.zeros((batch, length_out, in_ch, kernel))
    for j, out, inp in _tap_slices(length, kernel, padding, length_out):
        cols[:, out, :, j] = x[:, :, inp].transpose(0, 2, 1)
    return cols.reshape(batch * length_out, in_ch * kernel)


def _rows(g: np.ndarray) -> np.ndarray:
    """(B, C, Lout) output-shaped array as (B*Lout, C) matmul rows; free for
    channels-last memory, a copy otherwise."""
    return g.transpose(0, 2, 1).reshape(-1, g.shape[1])


def _conv(
    x: Tensor, weight: Tensor, padding: int, bias: Optional[Tensor] = None,
    pool: int = 1, relu: bool = False, cols: Optional[np.ndarray] = None,
) -> Tensor:
    """One im2col matmul, plus bias, then a max pool over `pool` positions
    and relu when asked: (B, Cin, L) -> (B, Cout, Lout // pool). cols are
    x's im2col rows when known.

    The node keeps x, weight, cols, the pool's taps and its output. Its
    rule applies relu's mask, the pool's put and the conv adjoints in turn,
    as the rules of relu, maxpool1d and conv1d would.
    """
    batch, _, length = x.shape
    out_ch, _, kernel = weight.shape
    length_out = length + 2 * padding - kernel + 1
    if cols is None:
        cols = _im2col(x.data, kernel, padding, length_out)
    out = cols @ weight.data.reshape(out_ch, -1).T
    if bias is not None:
        out += bias.data
    out = out.reshape(batch, length_out, out_ch)
    parents = (x, weight) if bias is None else (x, weight, bias)
    if pool > 1:
        m = length_out // pool
        out, tap = _max_blocks(out[:, : m * pool].reshape(batch, m, pool, out_ch), _tracks(parents))
    if relu:
        np.maximum(out, 0.0, out=out)
    data = out.transpose(0, 2, 1)

    def vjp(g: Tensor):
        if relu:
            g = _relu_grad(g, data)
        if pool > 1:
            g = _put(g, tap, pool, (batch, out_ch, length_out))
        # an untracked input, such as the network's input batch, needs no adjoint
        grads = (
            _conv_input_grad(g, weight, length, padding) if x.requires_grad else None,
            _conv_weight_grad(x, g, kernel, padding, cols) if weight.requires_grad else None,
        )
        return grads if bias is None else grads + (reshape(_sum_to(g, (1, out_ch, 1)), (out_ch,)),)

    return _make(data, "conv1d", parents, vjp)


def _conv_input_grad(g: Tensor, weight: Tensor, length: int, padding: int) -> Tensor:
    """Adjoint of _conv in its input: one matmul, then the taps summed in order.

    Each input position adds its taps' window gradients onto zeros in tap
    order, 0 to K-1, in channels-last memory.
    """
    batch, out_ch, length_out = g.shape
    _, in_ch, kernel = weight.shape
    windows = (_rows(g.data) @ weight.data.reshape(out_ch, -1)).reshape(
        batch, length_out, in_ch, kernel
    )
    data = np.zeros((batch, length, in_ch))
    for j, out, inp in _tap_slices(length, kernel, padding, length_out):
        data[:, inp] += windows[:, out, :, j]
    data = data.transpose(0, 2, 1)

    def vjp(h: Tensor):
        cols = _im2col(h.data, kernel, padding, length_out)
        return (_conv(h, weight, padding, cols=cols), _conv_weight_grad(h, g, kernel, padding, cols))

    return _make(data, "conv1d_input_grad", (g, weight), vjp)


def _conv_weight_grad(
    x: Tensor, g: Tensor, kernel: int, padding: int, cols: Optional[np.ndarray] = None
) -> Tensor:
    """Adjoint of _conv in its weight; cols are x's im2col rows when known."""
    if cols is None:
        cols = _im2col(x.data, kernel, padding, g.shape[-1])
    out_ch, in_ch = g.shape[1], x.shape[1]
    data = (cols.T @ _rows(g.data)).T.reshape(out_ch, in_ch, kernel)

    def vjp(h: Tensor):
        # an untracked input, such as the network's input batch, needs no adjoint
        return (
            _conv_input_grad(g, h, x.shape[-1], padding) if x.requires_grad else None,
            _conv(x, h, padding, cols=cols),
        )

    return _make(data, "conv1d_weight_grad", (x, g), vjp)


def conv1d(
    x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 1,
    pool: int = 1, relu: bool = False,
) -> Tensor:
    """1-d convolution over (batch, channels, length) with stride 1, then a
    max pool over `pool` positions and relu when asked.

    weight is (out_channels, in_channels, kernel); bias, when given, is
    (out_channels,). With kernel 3 / padding 1 the length is preserved. A
    conv layer is one node: conv1d(x, w, b, pool=2, relu=True) has the
    values and gradients of relu(maxpool1d(conv1d(x, w, b), 2)).
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
    length, kernel = x.shape[2], weight.shape[2]
    if kernel < 1:
        raise ShapeError(f"conv1d: kernel {kernel} < 1")
    if padding < 0:
        raise ShapeError(f"conv1d: padding {padding} < 0")
    if length + 2 * padding < kernel:
        raise ShapeError(f"conv1d: length {length} + 2 * padding {padding} < kernel {kernel}")
    if pool < 1:
        raise ShapeError(f"conv1d: pool {pool} < 1")
    if length + 2 * padding - kernel + 1 < pool:
        raise ShapeError(f"conv1d: output length {length + 2 * padding - kernel + 1} < pool {pool}")
    return _conv(x, weight, padding, bias, pool, relu)


def _tap_index(tap: np.ndarray, kernel: int, length: int) -> np.ndarray:
    """Flat index into (B, L, C) memory of each pooling block's tapped entry.

    tap is (B, m, C): block i of row b and channel c starts at position
    i*kernel and picks position i*kernel + tap.
    """
    batch, m, ch = tap.shape
    index = (np.arange(batch)[:, None] * length + np.arange(m) * kernel)[:, :, None] + tap
    index *= ch
    index += np.arange(ch)
    return index


def _pick(x: Tensor, tap: np.ndarray, kernel: int, data: Optional[np.ndarray] = None) -> Tensor:
    """Each pooling block's tapped entry: (B, C, L) -> (B, C, m).

    tap is (B, m, C), as maxpool1d makes it; data, when known, is the
    result. x is read as channels-last memory, so a channel-first x is
    copied once.
    """
    if data is None:
        flat = x.data.transpose(0, 2, 1).reshape(-1)
        data = flat[_tap_index(tap, kernel, x.shape[-1])].transpose(0, 2, 1)

    def vjp(g: Tensor):
        return (_put(g, tap, kernel, x.shape),)

    return _make(data, "pick", (x,), vjp)


def _put(g: Tensor, tap: np.ndarray, kernel: int, shape: tuple) -> Tensor:
    """Adjoint of _pick: g at each block's tapped entry, zero elsewhere, in
    `shape`, over channels-last memory."""
    batch, ch, length = shape
    data = np.zeros((batch, length, ch))
    data.reshape(-1)[_tap_index(tap, kernel, length)] = g.data.transpose(0, 2, 1)

    def vjp(h: Tensor):
        return (_pick(h, tap, kernel),)

    return _make(data.transpose(0, 2, 1), "put", (g,), vjp)


def _max_blocks(blocks: np.ndarray, tracked: bool):
    """Each block's maximum, (B, m, C), of (B, m, K, C) blocks, and the tap
    of its first maximum, as argmax picks it, when tracked (else None).

    A strict > moves the pick only past a larger value: ties keep the
    first. Taps are uint8 up to 256 and widen beyond.
    """
    kernel = blocks.shape[2]
    value, tap = blocks[:, :, 0], None
    for j in range(1, kernel):
        if tracked:
            later = blocks[:, :, j] > value
            tap = later.view(np.uint8) if j == 1 else np.where(later, np.min_scalar_type(j).type(j), tap)
        value = np.maximum(value, blocks[:, :, j])
    if tracked and tap is None:  # kernel 1: every block's only entry
        tap = np.zeros(value.shape, np.uint8)
    return value, tap


def maxpool1d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pool over the last axis; floor length (15 -> 7).

    A block's first maximum is picked, as argmax picks, and gets the gradient.
    """
    if x.ndim != 3:
        raise ShapeError(f"maxpool1d: input must be (batch, channels, length), got {x.shape}")
    if kernel < 1:
        raise ShapeError(f"maxpool1d: kernel {kernel} < 1")
    if x.shape[-1] < kernel:
        raise ShapeError(f"maxpool1d: length {x.shape[-1]} < kernel {kernel}")
    batch, ch, length = x.shape
    m = length // kernel
    # (B, m, K, C) view of the whole blocks, a view whatever x's memory layout;
    # the taps are kept only when a graph is recorded
    blocks = x.data.transpose(0, 2, 1)[:, : m * kernel].reshape(batch, m, kernel, ch)
    value, tap = _max_blocks(blocks, _tracks((x,)))
    return _pick(x, tap, kernel, value.transpose(0, 2, 1))


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
                if id(p) not in seen and p.requires_grad:
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

    Nodes run in reverse topological order, so a tensor's gradient is
    complete when its node's rule runs; it is dropped right after, unless
    the tensor is in wrt. The pass holds the graph plus only the gradients
    not yet propagated.
    """
    if output.size != 1:
        raise ShapeError(f"grad: output must be scalar, got shape {output.shape}")
    wrt = list(wrt)

    grads: dict = {}
    if output.requires_grad:
        grads[id(output)] = Tensor(np.ones(output.shape))

    order = toposort(output)
    # only nodes downstream of wrt can carry gradient to it: mark the
    # tracked wrt tensors, then every node with a marked parent
    kept = {id(t) for t in wrt}
    marked = {id(t) for t in wrt if t.requires_grad}
    downstream = []
    for t in order:
        if t.node is not None and any(id(p) in marked for p in t.node.parents):
            marked.add(id(t))
            downstream.append(t)
    with nullcontext() if create_graph else no_grad():
        for t in reversed(downstream):
            g = grads.get(id(t)) if id(t) in kept else grads.pop(id(t), None)
            if g is None:
                continue
            parent_grads = t.node.vjp(g)
            for p, pg in zip(t.node.parents, parent_grads):
                if pg is None or id(p) not in marked:
                    continue
                held = grads.get(id(p))
                grads[id(p)] = pg if held is None else add(held, pg)
        return [grads[id(t)] if id(t) in grads else Tensor(np.zeros(t.shape)) for t in wrt]
