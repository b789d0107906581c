"""The inner localization network, its parameters and their SGD step.

A 1-d CNN maps one normalized CSI amplitude sample (3 antennas x 30
subcarriers) to a 2-d position estimate in centimeters:

    conv(3->10, k3, p1) -> pool2 -> relu -> conv(10->15, k3, p1) -> pool2
    -> relu -> flatten(105) -> 128 -> 64 -> 32 -> 8 (relu each) -> 2

The final layer is linear (regression head). Loss is mean squared error
over both coordinates, in cm^2. Each conv and dense layer is one graph
node, bias, pooling and relu included, which keeps only the layer's output
(predict_positions runs the same layers without a graph). Each conv layer
pools before its relu: relu and max commute exactly, so this is the conv
-> relu -> pool network of the paper, with the same values and gradients,
on half the relu entries.

A model's parameters are a plain dict of name -> Tensor. Its order is the
order of every gradient list and every update: the model's own dicts
follow LAYER_SHAPES, and the trainers accept any dict, in its own order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import (
    NumericError,
    ShapeError,
    Tensor,
    conv1d,
    flatten,
    matmul,
    mse,
    no_grad,
    scale,
    sub,
)
from .tasks import DataFormatError, numeric_field, read_json

INPUT_SHAPE = (3, 30)

# fixed layer order of the model's parameter dicts; checkpoints are checked against it
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


def sgd_step(params: dict, grads: Sequence[Tensor], lr: float, graph: bool) -> dict:
    """One SGD step p - lr*g per tensor of a name -> Tensor dict, in its order.

    With graph=True the update is recorded, keeping the new parameters
    differentiable with respect to the old ones (second-order path).
    Aborts on non-finite results - a diverging run must not continue
    silently.
    """
    new = {}
    for (name, p), g in zip(params.items(), grads):
        if g.shape != p.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} != param {name} {p.shape}")
        if graph:
            t = sub(p, scale(g, lr))
        else:
            t = Tensor(p.data - lr * g.data, requires_grad=True)
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"parameter update produced non-finite values in {name}")
        new[name] = t
    return new


def init_params(seed: int) -> dict:
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
    return items


def predict(params: dict, x) -> Tensor:
    """Position estimates in cm, (batch, 2), for a (batch, 3, 30) stack of samples."""
    arr = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if arr.ndim != 3 or arr.shape[1:] != INPUT_SHAPE:
        raise ShapeError(
            f"predict: batch shape {arr.shape}, expected (n,) + {INPUT_SHAPE}"
        )

    # pool before relu: the same values and gradients as relu before pool
    h = conv1d(arr, params["conv1.weight"], params["conv1.bias"], padding=1, pool=2, relu=True)  # (B, 10, 15)
    h = conv1d(h, params["conv2.weight"], params["conv2.bias"], padding=1, pool=2, relu=True)  # (B, 15, 7)
    h = flatten(h)  # (B, 105)
    for layer in ("dense1", "dense2", "dense3", "dense4"):
        h = matmul(h, params[f"{layer}.weight"], params[f"{layer}.bias"], relu=True)
    return matmul(h, params["dense5.weight"], params["dense5.bias"])


def loss(params: dict, batch) -> Tensor:
    """Mean squared error (cm^2) over a (samples, positions) batch."""
    x, y = batch
    y = y if isinstance(y, Tensor) else Tensor(np.asarray(y, dtype=np.float64))
    if y.size == 0:
        raise ShapeError("loss: empty batch")
    out = mse(predict(params, x), y)
    out.check_finite("loss evaluation")
    return out


def predict_positions(params: dict, x) -> np.ndarray:
    """Plain-array forward pass (no graph recorded)."""
    with no_grad():
        return predict(params, x).data


def save_params(params: dict, path) -> None:
    shapes = tuple((name, t.shape) for name, t in params.items())
    if shapes != LAYER_SHAPES:
        raise ValueError(f"parameters {shapes} do not follow the layer table {LAYER_SHAPES}")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "layers": [
            {"name": n, "shape": list(t.shape), "values": t.data.ravel().tolist()}
            for n, t in params.items()
        ],
    }
    Path(path).write_text(json.dumps(doc))


def load_params(path) -> dict:
    """The parameters in checkpoint file `path`: LAYER_SHAPES's layers, in
    order, with finite values. Anything else is a DataFormatError naming
    the file, the layer and the field."""
    doc = read_json(path)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: unknown checkpoint format {doc.get('format')!r}")
    layers = doc.get("layers")
    if not (isinstance(layers, list) and len(layers) == len(LAYER_SHAPES)):
        raise DataFormatError(f"{path}: 'layers' must be a list of {len(LAYER_SHAPES)} layers")
    items = {}
    for i, (entry, (name, shape)) in enumerate(zip(layers, LAYER_SHAPES)):
        if not (isinstance(entry, dict) and entry.get("name") == name):
            raise DataFormatError(f"{path}: layers[{i}] must be an object named {name!r}")
        where = f"{path}: layer {name}"
        if numeric_field(entry, "shape", 1, where).tolist() != list(shape):
            raise DataFormatError(f"{where}: shape {entry['shape']}, expected {list(shape)}")
        values = numeric_field(entry, "values", 1, where)
        if values.size != math.prod(shape):
            raise DataFormatError(f"{where} has {values.size} values for shape {list(shape)}")
        if not np.all(np.isfinite(values)):
            raise DataFormatError(f"{where}: values must be finite")
        items[name] = Tensor(values.reshape(shape), requires_grad=True)
    return items
