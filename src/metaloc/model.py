"""The inner localization network and its parameter container.

A 1-d CNN maps one normalized CSI amplitude sample (3 antennas x 30
subcarriers) to a 2-d position estimate in centimeters:

    conv(3->10, k3, p1) + relu -> pool2 -> conv(10->15, k3, p1) + relu
    -> pool2 -> flatten(105) -> 128 -> 64 -> 32 -> 8 (relu each) -> 2

The final layer is linear (regression head). Loss is mean squared error
over both coordinates, in cm^2.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .autodiff import (
    NumericError,
    ShapeError,
    Tensor,
    add,
    conv1d,
    flatten,
    matmul,
    maxpool1d,
    mse,
    no_grad,
    relu,
    scale,
    sub,
)

INPUT_SHAPE = (3, 30)

# fixed layer order; checkpoints and ParamSet validation depend on it
LAYER_SHAPES: tuple = (
    ("conv1.weight", (10, 3, 3)),
    ("conv1.bias", (10,)),
    ("conv2.weight", (15, 10, 3)),
    ("conv2.bias", (15,)),
    ("dense1.weight", (105, 128)),
    ("dense1.bias", (128,)),
    ("dense2.weight", (128, 64)),
    ("dense2.bias", (64,)),
    ("dense3.weight", (64, 32)),
    ("dense3.bias", (32,)),
    ("dense4.weight", (32, 8)),
    ("dense4.bias", (8,)),
    ("dense5.weight", (8, 2)),
    ("dense5.bias", (2,)),
)

CHECKPOINT_FORMAT = "metaloc-params-v1"


class CheckpointError(Exception):
    """A parameter file does not match the fixed layer list."""


class ParamSet:
    """Ordered name -> Tensor mapping holding a model's weights.

    Insertion order is significant. The localization model uses the fixed
    LAYER_SHAPES order; the trainers also use small ad-hoc ParamSets in
    tests (the container itself is generic).
    """

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[str, Tensor]):
        self._items = dict(items)

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def names(self) -> list:
        return list(self._items)

    def tensors(self) -> list:
        return list(self._items.values())

    def items(self):
        return self._items.items()

    def updated(self, grads: Sequence[Tensor], lr: float, graph: bool) -> "ParamSet":
        """One SGD step p - lr*g per tensor.

        With graph=True the update is recorded, keeping the new parameters
        differentiable with respect to the old ones (second-order path).
        Aborts on non-finite results - a diverging run must not continue
        silently.
        """
        new = {}
        for (name, p), g in zip(self.items(), grads):
            if g.shape != p.shape:
                raise ShapeError(
                    f"updated: gradient shape {g.shape} != param {name} {p.shape}"
                )
            if graph:
                t = sub(p, scale(g, lr))
            else:
                t = Tensor(p.data - lr * g.data, requires_grad=True)
            if not np.all(np.isfinite(t.data)):
                raise NumericError(f"parameter update produced non-finite values in {name}")
            new[name] = t
        return ParamSet(new)


def init_params(seed: int) -> ParamSet:
    """Random weights, deterministic per seed.

    Weights are uniform in +-1/sqrt(fan_in); biases start at zero.
    """
    rng = np.random.default_rng(seed)
    items = {}
    for name, shape in LAYER_SHAPES:
        if name.endswith(".bias"):
            items[name] = Tensor(np.zeros(shape), requires_grad=True)
            continue
        if len(shape) == 3:  # conv: (out, in, kernel)
            fan_in = shape[1] * shape[2]
        else:  # dense: (in, out)
            fan_in = shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        items[name] = Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    return ParamSet(items)


def validate_model_params(params: ParamSet) -> None:
    expected = [name for name, _ in LAYER_SHAPES]
    if params.names() != expected:
        raise CheckpointError(
            f"parameter names/order mismatch: got {params.names()}, expected {expected}"
        )
    for name, shape in LAYER_SHAPES:
        if params[name].shape != shape:
            raise CheckpointError(
                f"layer {name}: shape {params[name].shape}, expected {shape}"
            )


def predict(params: ParamSet, x) -> Tensor:
    """Position estimates in cm, (batch, 2), for a (batch, 3, 30) stack of samples."""
    arr = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if arr.ndim != 3 or arr.shape[1:] != INPUT_SHAPE:
        raise ShapeError(
            f"predict: batch shape {arr.shape}, expected (n,) + {INPUT_SHAPE}"
        )

    h = relu(conv1d(arr, params["conv1.weight"], params["conv1.bias"], padding=1))
    h = maxpool1d(h, 2)  # (B, 10, 15)
    h = relu(conv1d(h, params["conv2.weight"], params["conv2.bias"], padding=1))
    h = maxpool1d(h, 2)  # (B, 15, 7)
    h = flatten(h)  # (B, 105)
    for layer in ("dense1", "dense2", "dense3", "dense4"):
        h = relu(add(matmul(h, params[f"{layer}.weight"]), params[f"{layer}.bias"]))
    return add(matmul(h, params["dense5.weight"]), params["dense5.bias"])


def loss(params: ParamSet, batch) -> Tensor:
    """Mean squared error (cm^2) over a (samples, positions) batch."""
    x, y = batch
    y = y if isinstance(y, Tensor) else Tensor(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ShapeError("loss: empty batch")
    out = mse(predict(params, x), y)
    out.check_finite("loss evaluation")
    return out


def predict_positions(params: ParamSet, x) -> np.ndarray:
    """Plain-array forward pass (no graph recorded)."""
    with no_grad():
        return predict(params, x).data


def save_params(params: ParamSet, path) -> None:
    validate_model_params(params)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layers": [
            {"name": n, "shape": list(t.shape), "values": t.data.ravel().tolist()}
            for n, t in params.items()
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_params(path) -> ParamSet:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}")
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {e}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint {path}: unknown format {doc.get('format')!r}")
    layers = doc.get("layers")
    if not isinstance(layers, list):
        raise CheckpointError(f"checkpoint {path}: missing 'layers' list")
    items = {}
    for entry in layers:
        try:
            name, shape, values = entry["name"], entry["shape"], entry["values"]
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"checkpoint {path}: malformed layer entry ({e})")
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != int(np.prod(shape)):
            raise CheckpointError(
                f"checkpoint {path}: layer {name} has {arr.size} values for shape {shape}"
            )
        items[name] = Tensor(arr.reshape(shape), requires_grad=True)
    params = ParamSet(items)
    validate_model_params(params)
    return params
