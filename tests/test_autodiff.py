"""Op-level oracles and differentiation properties for the tensor engine."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from metaloc import autodiff as ad


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def fd_gradient(f, x, h=1e-6):
    """Central finite differences of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    out = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# forward values


def test_relu_definition():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_maxpool_floor_length():
    x = ad.Tensor(rand((1, 4, 15)))
    assert ad.maxpool1d(x, 2).shape == (1, 4, 7)


def test_maxpool_values():
    x = ad.Tensor([[[1.0, 5.0, 2.0, 2.0, 9.0]]])
    out = ad.maxpool1d(x, 2)
    assert np.array_equal(out.data, [[[5.0, 2.0]]])  # trailing 9 dropped (floor)


def test_conv1d_matches_sliding_window_oracle():
    rng = np.random.default_rng(7)
    x = rng.random((2, 3, 30))
    w = rng.uniform(-1, 1, (10, 3, 3))
    b = rng.uniform(-1, 1, 10)
    out = ad.conv1d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), padding=1).data

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    ref = np.zeros((2, 10, 30))
    for bi in range(2):
        for o in range(10):
            for pos in range(30):
                ref[bi, o, pos] = np.sum(xp[bi, :, pos : pos + 3] * w[o]) + b[o]
    rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1e-12)
    assert rel.max() <= 1e-12


def test_mse_examples():
    assert ad.mse(ad.Tensor([[0.0, 0.0]]), ad.Tensor([[3.0, 4.0]])).item() == 12.5
    same = rand((4, 2), seed=3)
    assert ad.mse(ad.Tensor(same), ad.Tensor(same.copy())).item() == 0.0


def test_matmul_and_add_values():
    a = rand((3, 4), 1)
    b = rand((4, 2), 2)
    out = ad.matmul(ad.Tensor(a), ad.Tensor(b))
    assert np.allclose(out.data, a @ b)
    assert np.allclose(ad.add(ad.Tensor(a), ad.Tensor(a)).data, 2 * a)


def test_flatten_shape():
    x = ad.Tensor(rand((5, 15, 7)))
    assert ad.flatten(x).shape == (5, 105)


# ---------------------------------------------------------------------------
# error paths


def test_shape_errors_name_op_and_extents():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(rand((2, 3))), ad.Tensor(rand((2, 3))))
    with pytest.raises(ad.ShapeError, match=r"matmul: bias shape \(2, 4\) != \(4,\)"):
        ad.matmul(ad.Tensor(rand((2, 3))), ad.Tensor(rand((3, 4))), ad.Tensor(rand((2, 4))))
    with pytest.raises(ad.ShapeError, match="conv1d"):
        ad.conv1d(ad.Tensor(rand((1, 4, 30))), ad.Tensor(rand((10, 3, 3))))
    with pytest.raises(ad.ShapeError, match=r"conv1d: length 2 \+ 2 \* padding 1 < kernel 5"):
        ad.conv1d(ad.Tensor(rand((1, 3, 2))), ad.Tensor(rand((4, 3, 5))), padding=1)
    with pytest.raises(ad.ShapeError, match="conv1d: kernel 0 < 1"):
        ad.conv1d(ad.Tensor(rand((1, 3, 5))), ad.Tensor(np.zeros((4, 3, 0))))
    with pytest.raises(ad.ShapeError, match="conv1d: pool 0 < 1"):
        ad.conv1d(ad.Tensor(rand((1, 3, 5))), ad.Tensor(rand((4, 3, 3))), pool=0)
    with pytest.raises(ad.ShapeError, match="conv1d: output length 3 < pool 4"):
        ad.conv1d(ad.Tensor(rand((1, 3, 5))), ad.Tensor(rand((4, 3, 3))), padding=0, pool=4)
    with pytest.raises(ad.ShapeError, match="mse"):
        ad.mse(ad.Tensor(rand((2, 2))), ad.Tensor(rand((3, 2))))
    # only add broadcasts (a bias); sub and mul need equal shapes
    for op in ("sub", "mul"):
        with pytest.raises(ad.ShapeError, match=rf"{op}: shapes \(2, 3\) and \(3,\) differ"):
            getattr(ad, op)(ad.Tensor(rand((2, 3))), ad.Tensor(rand((3,))))
    with pytest.raises(ad.ShapeError, match="maxpool1d: kernel 0 < 1"):
        ad.maxpool1d(ad.Tensor(rand((1, 2, 6))), 0)
    with pytest.raises(ad.ShapeError, match="maxpool1d: kernel -1 < 1"):
        ad.maxpool1d(ad.Tensor(rand((1, 2, 6))), -1)


def test_grad_requires_scalar_output():
    x = ad.Tensor(rand((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.grad(ad.add(x, x), [x])


def test_detached_parameter_zero_grad_with_flag():
    x = ad.Tensor([2.0], requires_grad=True)
    unused = ad.Tensor([5.0], requires_grad=True)
    y = ad.sum_all(ad.mul(x, x))
    grads = ad.grad(y, [x, unused])
    assert np.array_equal(grads[1].data, [0.0])
    assert np.array_equal(grads[0].data, [4.0])


def test_detached_non_leaf_zero_grad_with_flag():
    x = ad.Tensor([2.0, -1.0], requires_grad=True)
    off_path = ad.mul(x, x)
    grads = ad.grad(ad.sum_all(x), [x, off_path])
    assert np.array_equal(grads[0].data, [1.0, 1.0])
    assert np.array_equal(grads[1].data, [0.0, 0.0])


def _downstream(t):
    out = ad.matmul(ad.mul(t, ad.relu(t)), ad.Tensor(rand((4, 2), seed=32)))
    return ad.sum_all(ad.mul(out, out))


@pytest.mark.parametrize("order", [1, 2])
def test_grad_at_non_leaf_equals_grad_at_fresh_leaf(order):
    # h has graph history; the fresh leaf holds the same values and has none
    x = ad.Tensor(rand((3, 4), seed=31), requires_grad=True)
    h = ad.add(ad.mul(x, x), ad.relu(x))
    proj = ad.Tensor(rand((3, 4), seed=33))
    results = []
    for t in (h, ad.Tensor(h.data.copy(), requires_grad=True)):
        (g,) = ad.grad(_downstream(t), [t], create_graph=order == 2)
        if order == 2:
            (g,) = ad.grad(ad.sum_all(ad.mul(g, proj)), [t])
        results.append(g.data)
    assert np.array_equal(results[0], results[1])  # bitwise


def test_wrt_ancestor_of_wrt_gets_total_derivative():
    u0 = np.array([1.0, 2.0, -0.5, 3.0])
    u = ad.Tensor(u0, requires_grad=True)
    t = ad.mul(u, u)
    y = ad.sum_all(ad.mul(t, u))
    gu, gt = ad.grad(y, [u, t])
    assert np.array_equal(gu.data, 3 * u0**2)
    assert np.array_equal(gt.data, u0)


def test_grad_frees_each_gradient_once_propagated():
    # every gradient of the chain is complete once its node's rule has run,
    # so only the gradient in flight and the next one are alive at a time
    leaf = ad.Tensor(np.ones(100_000), requires_grad=True)
    y = leaf
    for _ in range(30):
        y = ad.scale(y, 1.0)
    y = ad.sum_all(y)
    tracemalloc.start()
    try:
        (g,) = ad.grad(y, [leaf])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.data, np.ones(100_000))
    assert peak <= 4 * leaf.data.nbytes


# ---------------------------------------------------------------------------
# gradient checks


OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "relu": lambda a, b: ad.relu(a),
    "scale": lambda a, b: ad.scale(a, 1.7),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_elementwise_gradcheck(name):
    op = OPS[name]
    rng = np.random.default_rng(11)
    a0 = rng.uniform(-1, 1, (3, 4)) + 0.05  # keep away from relu kink
    b0 = rng.uniform(-1, 1, (3, 4))
    proj = rng.uniform(-1, 1, (3, 4))

    def scalar(arr):
        av = ad.Tensor(arr, requires_grad=True)
        return ad.sum_all(ad.mul(op(av, ad.Tensor(b0)), ad.Tensor(proj))).item()

    a = ad.Tensor(a0, requires_grad=True)
    out = ad.sum_all(ad.mul(op(a, ad.Tensor(b0)), ad.Tensor(proj)))
    analytic = ad.grad(out, [a])[0].data
    numeric = fd_gradient(scalar, a0.copy())
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert rel.max() <= 1e-4


@pytest.mark.parametrize(
    "shape_x,shape_w,make",
    [
        ((2, 3, 10), (4, 3, 3), lambda x, w: ad.conv1d(x, w, padding=1)),
        ((2, 4, 10), None, lambda x, w: ad.maxpool1d(x, 2)),
        ((3, 4), (4, 2), lambda x, w: ad.matmul(x, w)),
    ],
)
def test_structured_op_gradcheck(shape_x, shape_w, make):
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1, 1, shape_x)
    w0 = rng.uniform(-1, 1, shape_w) if shape_w else None

    def scalar(arr):
        xv = ad.Tensor(arr, requires_grad=True)
        wv = ad.Tensor(w0) if w0 is not None else None
        out = make(xv, wv)
        return ad.sum_all(ad.mul(out, ad.Tensor(proj))).item()

    x = ad.Tensor(x0, requires_grad=True)
    w = ad.Tensor(w0, requires_grad=True) if w0 is not None else None
    out = make(x, w)
    proj = rng.uniform(-1, 1, out.shape)
    out_s = ad.sum_all(ad.mul(out, ad.Tensor(proj)))
    analytic = ad.grad(out_s, [x])[0].data
    numeric = fd_gradient(scalar, x0.copy())
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
    assert rel.max() <= 1e-4


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("length,kernel,padding", [(7, 3, 1), (6, 2, 2), (5, 3, 0)])
def test_conv1d_input_gradient_sums_taps_in_order(length, kernel, padding, create_graph):
    # bitwise oracle: per-window gradients from the same matmul, then added
    # onto zeros tap by tap, j = 0 ... K-1, in padded coordinates, then cropped
    rng = np.random.default_rng(41)
    x0 = rng.uniform(-1, 1, (2, 3, length))
    w0 = rng.uniform(-1, 1, (4, 3, kernel))
    x = ad.Tensor(x0, requires_grad=True)
    y = ad.conv1d(x, ad.Tensor(w0, requires_grad=True), padding=padding)
    cot = rng.uniform(-1, 1, y.shape)
    (gx,) = ad.grad(ad.sum_all(ad.mul(y, ad.Tensor(cot))), [x], create_graph=create_graph)

    batch, _, length_out = y.shape
    rows = cot.transpose(0, 2, 1).reshape(batch * length_out, -1)
    windows = (rows @ w0.reshape(4, -1)).reshape(batch, length_out, 3, kernel)
    padded = np.zeros((2, 3, length + 2 * padding))
    for j in range(kernel):
        padded[..., j : j + length_out] += windows[..., j].transpose(0, 2, 1)
    assert np.array_equal(gx.data, padded[..., padding : padding + length])


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool1d_input_gradient_is_put_at_argmax(kernel, create_graph):
    rng = np.random.default_rng(43)
    x0 = rng.uniform(-1, 1, (2, 3, 7))
    x = ad.Tensor(x0, requires_grad=True)
    y = ad.maxpool1d(x, kernel)
    cot = rng.uniform(-1, 1, y.shape)
    (gx,) = ad.grad(ad.sum_all(ad.mul(y, ad.Tensor(cot))), [x], create_graph=create_graph)

    m = 7 // kernel
    argmax = x0[..., : m * kernel].reshape(2, 3, m, kernel).argmax(axis=-1)
    expected = np.zeros_like(x0)
    for b, c, i in np.ndindex(argmax.shape):
        expected[b, c, i * kernel + argmax[b, c, i]] = cot[b, c, i]
    assert np.array_equal(gx.data, expected)


@pytest.mark.parametrize("kernel", [2, 3])
def test_maxpool1d_ties_pick_the_first_maximum(kernel):
    # exact ties, including the all-zero blocks relu leaves before each pool
    rng = np.random.default_rng(47)
    x0 = np.maximum(rng.integers(-2, 3, (3, 4, 7)), 0).astype(float)
    x0[0] = 0.0
    m = 7 // kernel
    blocks = x0[..., : m * kernel].reshape(3, 4, m, kernel)
    assert (np.sum(blocks == blocks.max(axis=-1, keepdims=True), axis=-1) > 1).sum() > 8

    def first_max(a):  # argmax oracle: the entry of each block argmax picks
        picked = a[..., : m * kernel].reshape(blocks.shape)
        return np.take_along_axis(picked, blocks.argmax(axis=-1)[..., None], -1)[..., 0]

    cot = rng.uniform(-1, 1, (3, 4, m))
    put = np.zeros_like(x0)
    for b, c, i in np.ndindex(cot.shape):
        put[b, c, i * kernel + blocks[b, c, i].argmax()] = cot[b, c, i]

    x = ad.Tensor(x0, requires_grad=True)
    c = ad.Tensor(cot, requires_grad=True)
    y = ad.maxpool1d(x, kernel)
    assert np.array_equal(y.data, first_max(x0))
    for create_graph in (False, True):
        (gx,) = ad.grad(ad.sum_all(ad.mul(y, c)), [x], create_graph=create_graph)
        assert np.array_equal(gx.data, put)
    # second order: d<gx, v>/d cot picks v at the same first maxima
    v = rng.uniform(-1, 1, x0.shape)
    (gc,) = ad.grad(ad.sum_all(ad.mul(gx, ad.Tensor(v))), [c])
    assert np.array_equal(gc.data, first_max(v))


@pytest.mark.parametrize("length,kernel,padding", [(7, 3, 1), (6, 2, 2), (5, 3, 0)])
def test_conv1d_weight_gradient_matches_window_oracle(length, kernel, padding):
    # bitwise oracle: the im2col windows of x contracted with the cotangent
    # rows as (windows.T @ rows).T; the bias gradient sums the cotangent
    rng = np.random.default_rng(53)
    x0 = rng.uniform(-1, 1, (2, 3, length))
    w = ad.Tensor(rng.uniform(-1, 1, (4, 3, kernel)), requires_grad=True)
    b = ad.Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
    y = ad.conv1d(ad.Tensor(x0), w, b, padding=padding)
    cot = rng.uniform(-1, 1, y.shape)
    gw, gb = ad.grad(ad.sum_all(ad.mul(y, ad.Tensor(cot))), [w, b])

    batch, _, length_out = y.shape
    padded = np.pad(x0, ((0, 0), (0, 0), (padding, padding)))
    windows = np.stack([padded[..., j : j + length_out] for j in range(kernel)], axis=-1)
    windows = windows.transpose(0, 2, 1, 3).reshape(batch * length_out, 3 * kernel)
    rows = cot.transpose(0, 2, 1).reshape(batch * length_out, 4)
    assert np.array_equal(gw.data, (windows.T @ rows).T.reshape(4, 3, kernel))
    assert np.array_equal(gb.data, cot.sum(axis=0).sum(axis=-1))


def channels_last(a):
    """a's values in (B, L, C) memory, seen as (B, C, L): the layout conv1d
    returns and predict feeds on."""
    return np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)


LAYOUTS = {"channel_first": np.ascontiguousarray, "channels_last": channels_last}


def conv_adjoint_oracles(x0, w0, cot, padding):
    """Input, weight and bias adjoints of a conv1d from channel-first arrays,
    computed as the tap-order, window and bias oracles above compute them."""
    (batch, in_ch, length), (out_ch, _, kernel) = x0.shape, w0.shape
    length_out = cot.shape[-1]
    rows = cot.transpose(0, 2, 1).reshape(batch * length_out, out_ch)
    windows = (rows @ w0.reshape(out_ch, -1)).reshape(batch, length_out, in_ch, kernel)
    padded = np.zeros((batch, in_ch, length + 2 * padding))
    for j in range(kernel):
        padded[..., j : j + length_out] += windows[..., j].transpose(0, 2, 1)
    xp = np.pad(x0, ((0, 0), (0, 0), (padding, padding)))
    cols = np.stack([xp[..., j : j + length_out] for j in range(kernel)], axis=-1)
    cols = cols.transpose(0, 2, 1, 3).reshape(batch * length_out, in_ch * kernel)
    return (
        padded[..., padding : padding + length],
        (cols.T @ rows).T.reshape(out_ch, in_ch, kernel),
        cot.sum(axis=0).sum(axis=-1),
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize(
    "x_shape, w_shape, padding",
    [((4, 3, 7), (5, 3, 1), 0), ((4, 3, 6), (5, 3, 2), 2), ((6, 3, 30), (10, 3, 3), 1),
     ((6, 10, 15), (15, 10, 3), 1)],
    ids=["k1", "k2", "conv1", "conv2"],
)
def test_conv1d_adjoints_are_bitwise_the_oracles_in_either_layout(x_shape, w_shape, padding, layout):
    # the rule's own adjoints, for an input and a cotangent in channel-first
    # memory (as perfbench/layers.py feeds them) or channels-last (as predict
    # does), equal the channel-first oracles; the bias adjoint sums over
    # lengths of 8 and more, where numpy's pairwise order shows a layout
    rng = np.random.default_rng(67)
    lay = LAYOUTS[layout]
    x0, w0, b0 = rng.uniform(-1, 1, x_shape), rng.uniform(-1, 1, w_shape), rng.uniform(-1, 1, w_shape[0])
    x = ad.Tensor(lay(x0), requires_grad=True)
    w, b = ad.Tensor(w0, requires_grad=True), ad.Tensor(b0, requires_grad=True)
    y = ad.conv1d(x, w, b, padding=padding)
    cot = rng.uniform(-1, 1, y.shape)
    c = ad.Tensor(lay(cot), requires_grad=True)
    adjoints = y.node.vjp(c)
    for got, expected in zip(adjoints, conv_adjoint_oracles(x0, w0, cot, padding)):
        assert np.array_equal(got.data, expected)

    # second order: <adjoints, V> differentiated in x, w, b and the cotangent
    # gives the bits the channel-first operands give
    def second(make):
        x, w, b = (ad.Tensor(a, requires_grad=True) for a in (make(x0), w0, b0))
        c = ad.Tensor(make(cot), requires_grad=True)
        adjoints = ad.conv1d(x, w, b, padding=padding).node.vjp(c)
        total = ad.sum_all(ad.mul(adjoints[0], ad.Tensor(make(v[0]))))
        for g, d in zip(adjoints[1:], v[1:]):
            total = ad.add(total, ad.sum_all(ad.mul(g, ad.Tensor(d))))
        return [g.data for g in ad.grad(total, [x, w, b, c])]

    v = [rng.uniform(-1, 1, shape) for shape in (x_shape, w_shape, w_shape[:1])]
    for got, expected in zip(second(lay), second(np.ascontiguousarray)):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("length, kernel", [(15, 2), (30, 2), (7, 1), (7, 3), (16, 3)])
def test_maxpool1d_pick_and_put_are_bitwise_the_oracles_in_either_layout(length, kernel, layout):
    # integers give exact ties; the pick, its put and the put's own pick
    # follow the argmax oracle whatever the memory of x and the cotangents
    rng = np.random.default_rng(71)
    lay = LAYOUTS[layout]
    x0 = rng.integers(-2, 3, (4, 5, length)).astype(float)
    m = length // kernel
    blocks = x0[..., : m * kernel].reshape(4, 5, m, kernel)
    first = blocks.argmax(axis=-1)

    def first_max(a):
        picked = a[..., : m * kernel].reshape(blocks.shape)
        return np.take_along_axis(picked, first[..., None], -1)[..., 0]

    cot = rng.uniform(-1, 1, (4, 5, m))
    put = np.zeros_like(x0)
    for b, c, i in np.ndindex(cot.shape):
        put[b, c, i * kernel + first[b, c, i]] = cot[b, c, i]

    x = ad.Tensor(lay(x0), requires_grad=True)
    y = ad.maxpool1d(x, kernel)
    assert np.array_equal(y.data, first_max(x0))
    c = ad.Tensor(lay(cot), requires_grad=True)
    (gx,) = y.node.vjp(c)
    assert np.array_equal(gx.data, put)
    v = rng.uniform(-1, 1, x0.shape)
    (gc,) = ad.grad(ad.sum_all(ad.mul(gx, ad.Tensor(lay(v)))), [c])
    assert np.array_equal(gc.data, first_max(v))


def quadratic_form_gradients(op, inputs, seed):
    """y = op(inputs), the gradients of <proj, y*y> in every input, and the
    gradients of <those gradients, directions>, all as arrays."""
    rng = np.random.default_rng(seed)
    ts = [ad.Tensor(a, requires_grad=True) for a in inputs]
    y = op(*ts)
    proj = ad.Tensor(rng.uniform(-1, 1, y.shape))
    grads = ad.grad(ad.sum_all(ad.mul(proj, ad.mul(y, y))), ts, create_graph=True)
    total = ad.sum_all(ad.mul(grads[0], ad.Tensor(rng.uniform(-1, 1, inputs[0].shape))))
    for g, a in zip(grads[1:], inputs[1:]):
        total = ad.add(total, ad.sum_all(ad.mul(g, ad.Tensor(rng.uniform(-1, 1, a.shape)))))
    return [y.data] + [g.data for g in grads] + [g.data for g in ad.grad(total, ts)]


def uniform_inputs(*shapes):
    rng = np.random.default_rng(61)
    return [rng.uniform(-1, 1, shape) for shape in shapes]


def integer_inputs(*shapes):
    # an integer conv gives exact pooling ties, zero blocks and all-negative blocks
    rng = np.random.default_rng(61)
    return [rng.integers(-2, 3, shape).astype(float) for shape in shapes]


@pytest.mark.parametrize(
    "inputs, fused, composed",
    [
        (uniform_inputs((5, 4), (4, 3), (3,)), ad.matmul, lambda a, w, b: ad.add(ad.matmul(a, w), b)),
        (
            uniform_inputs((2, 3, 7), (4, 3, 3), (4,)),
            lambda x, w, b: ad.conv1d(x, w, b, padding=1),
            lambda x, w, b: ad.add(ad.conv1d(x, w, padding=1), ad.reshape(b, (1, 4, 1))),
        ),
        (
            uniform_inputs((5, 4), (4, 3), (3,)),
            lambda a, w, b: ad.matmul(a, w, b, relu=True),
            lambda a, w, b: ad.relu(ad.add(ad.matmul(a, w), b)),
        ),
        (
            integer_inputs((3, 3, 9), (4, 3, 3), (4,)),
            lambda x, w, b: ad.conv1d(x, w, b, padding=1, pool=2, relu=True),
            lambda x, w, b: ad.relu(ad.maxpool1d(ad.add(ad.conv1d(x, w, padding=1), ad.reshape(b, (1, 4, 1))), 2)),
        ),
    ],
    ids=["matmul", "conv1d", "dense_relu", "conv_pool_relu"],
)
def test_biased_layer_is_one_node_and_bitwise_the_bias_add(inputs, fused, composed):
    # the bias, the pool and relu applied inside the layer's node: the same
    # values and first- and second-order gradients as the public ops in turn
    y = fused(*[ad.Tensor(a, requires_grad=True) for a in inputs])
    assert [t.node.op for t in ad.toposort(y) if t.node is not None] == [y.node.op]
    got, expected = quadratic_form_gradients(fused, inputs, 7), quadratic_form_gradients(composed, inputs, 7)
    assert len(got) == len(expected) == 7
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", [2, 3])
def test_relu_and_maxpool1d_commute_with_their_gradients(kernel):
    # integers give exact ties, zeros and all-negative blocks, and blocks
    # whose maximum 0 follows a negative entry
    rng = np.random.default_rng(59)
    x0 = rng.integers(-2, 3, (3, 4, 7)).astype(float)
    x0[0, :2] = -1.0
    x0[1, 0] = [-1.0, 0.0, -2.0, 0.0, 0.0, -1.0, 0.0]
    m = 7 // kernel
    blocks = x0[..., : m * kernel].reshape(3, 4, m, kernel)
    assert (np.sum(blocks == blocks.max(axis=-1, keepdims=True), axis=-1) > 1).sum() > 8
    assert (blocks.max(axis=-1) < 0).sum() >= 2 * m
    cot = rng.uniform(-1, 1, (3, 4, m))
    v = rng.uniform(-1, 1, x0.shape)

    def results(f):
        x = ad.Tensor(x0, requires_grad=True)
        c = ad.Tensor(cot, requires_grad=True)
        y = f(x)
        (first,) = ad.grad(ad.sum_all(ad.mul(y, c)), [x])
        (gx,) = ad.grad(ad.sum_all(ad.mul(y, c)), [x], create_graph=True)
        (second,) = ad.grad(ad.sum_all(ad.mul(gx, ad.Tensor(v))), [c])
        return y.data, first.data, gx.data, second.data

    relu_first = results(lambda x: ad.maxpool1d(ad.relu(x), kernel))
    pool_first = results(lambda x: ad.relu(ad.maxpool1d(x, kernel)))
    for a, b in zip(relu_first, pool_first):
        assert np.array_equal(a, b)


def test_untracked_operands_get_no_adjoint():
    # grad would drop these adjoints, so the rules do not compute them
    tracked = ad.Tensor(rand((2, 3)), requires_grad=True)
    const = ad.Tensor(rand((2, 3), 1))
    g = ad.Tensor(np.ones((2, 3)))
    for op in (ad.mul, ad.sub):
        assert op(tracked, const).node.vjp(g)[1] is None
        assert op(const, tracked).node.vjp(g)[0] is None
    x = ad.Tensor(rand((2, 3, 5)))
    w = ad.Tensor(rand((4, 3, 3), 2), requires_grad=True)
    y = ad.conv1d(x, w, padding=1)
    (_, gw) = y.node.vjp(ad.Tensor(rand(y.shape, 3), requires_grad=True))
    gx, gg = gw.node.vjp(ad.Tensor(rand(w.shape, 4)))
    assert gx is None and gg.shape == y.shape


def test_linearity_of_gradients():
    rng = np.random.default_rng(13)
    x0 = rng.uniform(-1, 1, (4, 4))
    pa, pb = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
    a, b = 1.3, -0.7

    def grad_of(fn):
        x = ad.Tensor(x0, requires_grad=True)
        return ad.grad(fn(x), [x])[0].data

    f = lambda x: ad.sum_all(ad.mul(ad.relu(x), ad.Tensor(pa)))
    g = lambda x: ad.sum_all(ad.mul(ad.mul(x, x), ad.Tensor(pb)))
    combo = lambda x: ad.add(ad.scale(f(x), a), ad.scale(g(x), b))
    lhs = grad_of(combo)
    rhs = a * grad_of(f) + b * grad_of(g)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(99)
        x = ad.Tensor(rng.uniform(-1, 1, (2, 3, 30)), requires_grad=True)
        w = ad.Tensor(rng.uniform(-1, 1, (10, 3, 3)), requires_grad=True)
        out = ad.maxpool1d(ad.relu(ad.conv1d(x, w, padding=1)), 2)
        loss = ad.mean_all(ad.mul(out, out))
        gs = ad.grad(loss, [x, w])
        return loss.item(), gs[0].data.copy(), gs[1].data.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# second order


def test_second_derivative_of_square():
    x = ad.Tensor([3.0], requires_grad=True)
    y = ad.sum_all(ad.mul(x, x))
    g = ad.grad(y, [x], create_graph=True)[0]
    assert np.allclose(g.data, [6.0])
    g2 = ad.grad(ad.sum_all(g), [x])[0]
    assert np.allclose(g2.data, [2.0])


def test_second_order_composed_expression():
    # f(t) = (t - a * d(t^2)/dt)^2 = (t(1-2a))^2; f'(t) = 2t(1-2a)^2
    a = 0.25
    t = ad.Tensor([1.5], requires_grad=True)
    inner = ad.sum_all(ad.mul(t, t))
    gt = ad.grad(inner, [t], create_graph=True)[0]
    moved = ad.sub(t, ad.scale(gt, a))
    f = ad.sum_all(ad.mul(moved, moved))
    df = ad.grad(f, [t])[0]
    expected = 2 * 1.5 * (1 - 2 * a) ** 2
    assert np.allclose(df.data, [expected], atol=1e-12)


def test_second_order_through_network_ops():
    # FD check of the gradient-of-gradient for a conv+pool+relu chain
    rng = np.random.default_rng(21)
    x0 = rng.uniform(-1, 1, (1, 2, 8))
    w0 = rng.uniform(-1, 1, (3, 2, 3))
    proj = rng.uniform(-1, 1, (3, 2, 3))

    def grad_proj(warr):
        w = ad.Tensor(warr, requires_grad=True)
        out = ad.maxpool1d(ad.relu(ad.conv1d(ad.Tensor(x0), w, padding=1)), 2)
        loss = ad.mean_all(ad.mul(out, out))
        g = ad.grad(loss, [w], create_graph=True)[0]
        return ad.sum_all(ad.mul(g, ad.Tensor(proj)))

    w = ad.Tensor(w0, requires_grad=True)
    out = ad.maxpool1d(ad.relu(ad.conv1d(ad.Tensor(x0), w, padding=1)), 2)
    loss = ad.mean_all(ad.mul(out, out))
    g = ad.grad(loss, [w], create_graph=True)[0]
    gg = ad.grad(ad.sum_all(ad.mul(g, ad.Tensor(proj))), [w])[0].data

    numeric = fd_gradient(lambda arr: grad_proj(arr).item(), w0.copy(), h=1e-5)
    rel = np.abs(gg - numeric) / np.maximum(np.abs(numeric), 1e-5)
    assert rel.max() <= 1e-3


def test_toposort_parents_precede_consumers():
    x = ad.Tensor(rand((2, 2)), requires_grad=True)
    y = ad.mul(ad.add(x, x), ad.relu(x))
    order = ad.toposort(ad.sum_all(y))
    position = {id(t): i for i, t in enumerate(order)}
    for t in order:
        if t.node is not None:
            for p in t.node.parents:
                if id(p) in position:
                    assert position[id(p)] < position[id(t)]


def test_no_grad_suppresses_recording():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, x)
    assert y.node is None and not y.requires_grad


# ---------------------------------------------------------------------------
# every op against central differences, first and second order

# name -> (input shapes from the drawn dims, op over the input tensors);
# r, c, k are matrix extents, n, ch, out_ch, length a conv or pool batch.
# The conv and pool ops take the drawn dims first: kernel and padding are
# a conv's, pool is a max pool's kernel
OP_CASES = {
    "add": (lambda d: [(d["r"], d["c"]), (d["c"],)], ad.add),
    "sub": (lambda d: [(d["r"], d["c"])] * 2, ad.sub),
    "mul": (lambda d: [(d["r"], d["c"])] * 2, ad.mul),
    "scale": (lambda d: [(d["r"], d["c"])], lambda a: ad.scale(a, 1.7)),
    "matmul": (lambda d: [(d["r"], d["k"]), (d["k"], d["c"])], ad.matmul),
    "matmul_bias": (lambda d: [(d["r"], d["k"]), (d["k"], d["c"]), (d["c"],)], ad.matmul),
    "transpose": (lambda d: [(d["r"], d["c"])], ad.transpose),
    "reshape": (lambda d: [(d["r"], d["c"])], lambda a: ad.reshape(a, a.shape[::-1])),
    "relu": (lambda d: [(d["r"], d["c"])], ad.relu),
    "sum_all": (lambda d: [(d["r"], d["c"])], ad.sum_all),
    "mean_all": (lambda d: [(d["r"], d["c"])], ad.mean_all),
    "mse": (lambda d: [(d["r"], d["c"])] * 2, ad.mse),
    "maxpool1d": (
        lambda d: [(d["n"], d["ch"], d["length"])],
        lambda d, a: ad.maxpool1d(a, d["pool"]),
    ),
    "conv1d": (
        lambda d: [(d["n"], d["ch"], d["length"]), (d["out_ch"], d["ch"], d["kernel"]), (d["out_ch"],)],
        lambda d, x, w, b: ad.conv1d(x, w, b, padding=d["padding"]),
    ),
}


def assert_matches_fd(analytic, numeric, tol):
    # relative per entry; entries under 1e-3 are held to tol * 1e-3 absolute
    assert np.all(np.abs(analytic - numeric) <= tol * np.maximum(np.abs(numeric), 1e-3))


@pytest.mark.parametrize("name", sorted(OP_CASES))
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.fixed_dictionaries(
        {
            "r": st.integers(1, 3),
            "c": st.integers(1, 3),
            "k": st.integers(1, 3),
            "n": st.integers(1, 2),
            "ch": st.integers(1, 2),
            "out_ch": st.integers(1, 2),
            "length": st.integers(2, 6),
            "kernel": st.integers(1, 3),
            "padding": st.integers(0, 2),
            "pool": st.integers(2, 3),
        }
    ),
)
def test_op_gradients_match_finite_differences(name, seed, dims):
    shapes, op = OP_CASES[name]
    if name in ("conv1d", "maxpool1d"):
        op = functools.partial(op, dims)
    if name == "conv1d":
        assume(dims["length"] + 2 * dims["padding"] >= dims["kernel"])
    if name == "maxpool1d":
        assume(dims["length"] >= dims["pool"])  # lengths 2-6 include remainders
    rng = np.random.default_rng(seed)
    inputs = [rng.uniform(-1, 1, shape) for shape in shapes(dims)]
    if name == "relu":
        assume(np.abs(inputs[0]).min() > 1e-3)
    if name == "maxpool1d":
        x, k = inputs[0], dims["pool"]
        blocks = np.sort(x[..., : x.shape[-1] // k * k].reshape(x.shape[:-1] + (-1, k)))
        assume(np.min(blocks[..., -1] - blocks[..., -2]) > 1e-3)  # no near-tie for the max
    proj = ad.Tensor(rng.uniform(-1, 1, op(*map(ad.Tensor, inputs)).shape))
    directions = [ad.Tensor(rng.uniform(-1, 1, a.shape)) for a in inputs]

    def leaves(arrays):
        return [ad.Tensor(a, requires_grad=True) for a in arrays]

    def loss(ts):
        # <proj, y*y> is quadratic in y, so even a linear op has a second derivative
        y = op(*ts)
        return ad.sum_all(ad.mul(proj, ad.mul(y, y)))

    def directional(ts):
        # <grad loss, v>: differentiating it runs the second-order path
        grads = ad.grad(loss(ts), ts, create_graph=True)
        terms = [ad.sum_all(ad.mul(g, v)) for g, v in zip(grads, directions)]
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        return total

    for fn, tol in ((loss, 1e-4), (directional, 1e-3)):
        ts = leaves(inputs)
        analytic = ad.grad(fn(ts), ts)
        for i, a in enumerate(inputs):

            def at(arr, i=i):
                arrays = list(inputs)
                arrays[i] = arr
                return fn(leaves(arrays)).item()

            assert_matches_fd(analytic[i].data, fd_gradient(at, a.copy()), tol)
