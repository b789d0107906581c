"""Inner network: shapes, oracles, initialization, loss, checkpoints."""

import json
import re

import numpy as np
import pytest

from metaloc import autodiff as ad
from metaloc import model
from metaloc.tasks import DataFormatError


def param_count(params):
    return sum(t.size for t in params.values())


def test_param_count_against_independent_shape_products():
    # recomputed from the layer table, not from LAYER_SHAPES
    conv1 = 10 * 3 * 3 + 10
    conv2 = 15 * 10 * 3 + 15
    dense = (105 * 128 + 128) + (128 * 64 + 64) + (64 * 32 + 32) + (32 * 8 + 8) + (8 * 2 + 2)
    expected = conv1 + conv2 + dense
    params = model.init_params(0)
    assert param_count(params) == expected == 24751


def test_conv1_contribution():
    params = model.init_params(1)
    assert params["conv1.weight"].size + params["conv1.bias"].size == 100


def test_param_count_invariant_under_value_changes():
    params = model.init_params(2)
    before = param_count(params)
    params["dense3.weight"].data[:] = 123.0
    assert param_count(params) == before


def test_init_deterministic_and_seed_sensitive():
    a = model.init_params(7)
    b = model.init_params(7)
    c = model.init_params(8)
    assert list(a) == list(b) == list(c)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_init_biases_exactly_zero():
    params = model.init_params(123)
    for name, t in params.items():
        if name.endswith(".bias"):
            assert np.all(t.data == 0.0)


def test_intermediate_shapes_follow_layer_table():
    params = model.init_params(3)
    x = ad.Tensor(np.random.default_rng(0).random((1, 3, 30)))
    h = ad.relu(ad.conv1d(x, params["conv1.weight"], params["conv1.bias"], padding=1))
    assert h.shape == (1, 10, 30)
    h = ad.maxpool1d(h, 2)
    assert h.shape == (1, 10, 15)
    h = ad.relu(ad.conv1d(h, params["conv2.weight"], params["conv2.bias"], padding=1))
    assert h.shape == (1, 15, 15)
    h = ad.maxpool1d(h, 2)
    assert h.shape == (1, 15, 7)
    h = ad.flatten(h)
    assert h.shape == (1, 105)
    assert model.predict(params, np.zeros((1, 3, 30))).shape == (1, 2)
    assert model.predict(params, np.zeros((6, 3, 30))).shape == (6, 2)


def test_all_zero_params_predict_origin():
    params = {
        name: ad.Tensor(np.zeros(shape), requires_grad=True) for name, shape in model.LAYER_SHAPES
    }
    out = model.predict(params, np.random.default_rng(1).random((5, 3, 30)))
    assert np.array_equal(out.data, np.zeros((5, 2)))


def test_forward_matches_plain_loop_reimplementation():
    """Independent forward oracle: nested loops, no engine ops."""
    params = model.init_params(11)
    rng = np.random.default_rng(4)
    x = rng.random((1, 3, 30))

    p = {n: t.data for n, t in params.items()}

    def conv(inp, w, b):
        cin, length = inp.shape
        cout = w.shape[0]
        padded = np.zeros((cin, length + 2))
        padded[:, 1:-1] = inp
        out = np.zeros((cout, length))
        for o in range(cout):
            for pos in range(length):
                acc = 0.0
                for c in range(cin):
                    for t in range(3):
                        acc += padded[c, pos + t] * w[o, c, t]
                out[o, pos] = acc + b[o]
        return out

    def pool(inp):
        cin, length = inp.shape
        m = length // 2
        out = np.zeros((cin, m))
        for c in range(cin):
            for i in range(m):
                out[c, i] = max(inp[c, 2 * i], inp[c, 2 * i + 1])
        return out

    h = np.maximum(conv(x[0], p["conv1.weight"], p["conv1.bias"]), 0.0)
    h = pool(h)
    h = np.maximum(conv(h, p["conv2.weight"], p["conv2.bias"]), 0.0)
    h = pool(h)
    v = h.reshape(-1)
    for layer in ("dense1", "dense2", "dense3", "dense4"):
        v = np.maximum(v @ p[f"{layer}.weight"] + p[f"{layer}.bias"], 0.0)
    expected = v @ p["dense5.weight"] + p["dense5.bias"]

    got = model.predict(params, x).data[0]
    assert np.abs(got - expected).max() <= 1e-10


def conv_relu_pool_predict(params, x):
    """The network as conv -> relu -> pool layers with separate bias adds, from public ops."""
    h = ad.Tensor(x)
    for layer in ("conv1", "conv2"):
        bias = ad.reshape(params[f"{layer}.bias"], (1, -1, 1))
        h = ad.maxpool1d(ad.relu(ad.add(ad.conv1d(h, params[f"{layer}.weight"], padding=1), bias)), 2)
    h = ad.flatten(h)
    for layer in ("dense1", "dense2", "dense3", "dense4"):
        h = ad.relu(ad.add(ad.matmul(h, params[f"{layer}.weight"]), params[f"{layer}.bias"]))
    return ad.add(ad.matmul(h, params["dense5.weight"]), params["dense5.bias"])


def test_predict_is_bitwise_the_conv_relu_pool_composition():
    # pooling before relu and the fused biases change neither the outputs
    # nor the loss gradients, on trained-like weights with nonzero biases
    rng = np.random.default_rng(17)
    params = {n: ad.Tensor(rng.uniform(-0.5, 0.5, t.shape), requires_grad=True) for n, t in model.init_params(5).items()}
    x, y = rng.random((40, 3, 30)), rng.uniform(0, 300, (40, 2))
    got, expected = model.predict(params, x), conv_relu_pool_predict(params, x)
    assert np.array_equal(got.data, expected.data)
    got_grads = ad.grad(ad.mse(got, ad.Tensor(y)), params.values())
    expected_grads = ad.grad(ad.mse(expected, ad.Tensor(y)), params.values())
    for g, e in zip(got_grads, expected_grads):
        assert np.array_equal(g.data, e.data)


def test_loss_examples():
    params = model.init_params(5)
    x = np.random.default_rng(2).random((1, 3, 30))
    pred = model.predict(params, x).data
    assert model.loss(params, (x, pred)).item() == pytest.approx(0.0, abs=1e-24)

    # single sample (0,0) vs (3,4) -> 12.5, via zero params
    zero = {
        name: ad.Tensor(np.zeros(shape), requires_grad=True) for name, shape in model.LAYER_SHAPES
    }
    assert model.loss(zero, (x, np.array([[3.0, 4.0]]))).item() == 12.5


def test_batch_loss_is_mean_of_singletons():
    params = model.init_params(6)
    rng = np.random.default_rng(3)
    x = rng.random((2, 3, 30))
    y = rng.random((2, 2)) * 100
    l1 = model.loss(params, (x[:1], y[:1])).item()
    l2 = model.loss(params, (x[1:], y[1:])).item()
    both = model.loss(params, (x, y)).item()
    assert both == pytest.approx((l1 + l2) / 2, rel=1e-12)


def test_empty_batch_rejected():
    params = model.init_params(0)
    with pytest.raises(ad.ShapeError, match="empty"):
        model.loss(params, (np.zeros((0, 3, 30)), np.zeros((0, 2))))


def test_wrong_input_shape_rejected():
    params = model.init_params(0)
    with pytest.raises(ad.ShapeError):
        model.predict(params, np.zeros((4, 30)))
    with pytest.raises(ad.ShapeError):
        model.predict(params, np.zeros((3, 30)))  # one sample is a (1, 3, 30) batch
    with pytest.raises(ad.ShapeError):
        model.predict(params, np.zeros((2, 3, 29)))


def test_output_scale_unconstrained():
    params = model.init_params(9)
    scaled = {n: ad.Tensor(t.data * 40.0, requires_grad=True) for n, t in params.items()}
    out = model.predict_positions(scaled, np.abs(np.random.default_rng(5).random((8, 3, 30))))
    assert np.abs(out).max() > 1e4  # no activation caps the regression head


def test_gradients_pass_finite_difference_check():
    params = model.init_params(12)
    rng = np.random.default_rng(8)
    x = rng.random((4, 3, 30))
    y = rng.random((4, 2))  # O(1) labels keep the FD oracle noise tiny
    loss_t = model.loss(params, (x, y))
    tensors = list(params.values())
    grads = ad.grad(loss_t, tensors)
    h = 1e-5
    checked = 0
    for li in rng.choice(len(tensors), size=12):
        t = tensors[li]
        idx = int(rng.integers(t.size))
        orig = t.data.ravel()[idx]
        t.data.ravel()[idx] = orig + h
        lp = model.loss(params, (x, y)).item()
        t.data.ravel()[idx] = orig - h
        lm = model.loss(params, (x, y)).item()
        t.data.ravel()[idx] = orig
        fd = (lp - lm) / (2 * h)
        an = grads[li].data.ravel()[idx]
        assert abs(an - fd) <= max(1e-4 * max(abs(an), abs(fd)), 1e-9)
        checked += 1
    assert checked == 12


@pytest.mark.parametrize("graph", [False, True], ids=["leaf", "recorded"])
def test_sgd_step_updates_in_order_and_checks(graph):
    params = {"b": ad.Tensor([1.0, 2.0], requires_grad=True), "a": ad.Tensor([3.0], requires_grad=True)}
    new = model.sgd_step(params, [ad.Tensor([1.0, -1.0]), ad.Tensor([2.0])], 0.5, graph=graph)
    assert list(new) == ["b", "a"]
    assert new["b"].data.tolist() == [0.5, 2.5] and new["a"].data.tolist() == [2.0]
    assert all(t.requires_grad for t in new.values())
    assert (new["b"].node is not None) == graph
    with pytest.raises(ad.ShapeError, match=r"sgd_step: gradient shape \(1,\) != param b \(2,\)"):
        model.sgd_step(params, [ad.Tensor([1.0]), ad.Tensor([1.0])], 0.5, graph=graph)
    with pytest.raises(ad.NumericError, match="non-finite values in a"):
        model.sgd_step(params, [ad.Tensor([0.0, 0.0]), ad.Tensor([np.inf])], 0.5, graph=graph)

def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = model.init_params(42)
    path = tmp_path / "ckpt.json"
    model.save_params(params, path)
    loaded = model.load_params(path)
    assert list(loaded) == list(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc["layers"][0].update(shape=[9, 9], values=[0.0] * 81),
         r"layer conv1.weight: shape \[9, 9\], expected \[10, 3, 3\]"),
        (lambda doc: doc["layers"][0].update(shape="abc"),
         "layer conv1.weight: field 'shape' is not a list of numbers"),
        (lambda doc: doc["layers"][1].update(values=[[0.0] * 5, [0.0] * 4]),
         "layer conv1.bias: field 'values' is not a list of numbers"),
        (lambda doc: doc["layers"][0]["values"].__setitem__(0, None), "layer conv1.weight: values must be finite"),
        (lambda doc: doc["layers"][0]["values"].__setitem__(0, True),
         "layer conv1.weight: field 'values' is not a list of numbers"),
        (lambda doc: doc["layers"].reverse(), r"layers\[0\] must be an object named 'conv1.weight'"),
        (lambda doc: doc["layers"].pop(), "'layers' must be a list of 14 layers"),
        (lambda doc: doc["layers"][2].pop("values"), "layer conv2.weight: missing field 'values'"),
        (lambda doc: doc["layers"][0]["values"].pop(), r"layer conv1.weight has 89 values for shape \[10, 3, 3\]"),
    ],
    ids=["shape-mismatch", "shape-string", "ragged-values", "null-value", "bool-value",
         "layer-order", "layer-missing", "values-missing", "values-short"],
)
def test_checkpoint_mismatch_rejected(tmp_path, edit, match):
    path = tmp_path / "ckpt.json"
    model.save_params(model.init_params(1), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: ") + match):
        model.load_params(path)


def test_checkpoint_missing_file_and_bad_json(tmp_path):
    with pytest.raises(DataFormatError, match="not found"):
        model.load_params(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    with pytest.raises(DataFormatError, match="JSON"):
        model.load_params(bad)
    bad.write_bytes(b"\xff\xfe{")
    with pytest.raises(DataFormatError, match=re.escape(f"{bad}: invalid JSON, not UTF-8 text")):
        model.load_params(bad)
    bad.write_text("[]")
    with pytest.raises(DataFormatError, match=re.escape(f"{bad}: top level must be a JSON object, got list")):
        model.load_params(bad)
