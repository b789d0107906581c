"""Forward, backward and double-backward time of each model layer.

Each layer is rebuilt from the public ``metaloc.autodiff`` ops at the
shapes ``metaloc.model.predict`` uses, on the 60-row support batch of a
5-shot task (12 reference points x 5 shots):

- ``fwd``: the layer's ops, recording the graph;
- ``bwd``: ``grad`` of <output, C> for a fixed cotangent C with respect
  to the layer input and parameters (``create_graph=False``);
- ``bwd2``: the same gradient with ``create_graph=True``, then ``grad``
  of <gradients, V> through it: the extra cost second-order MAML pays.

Each figure is the median over repetitions, in microseconds.
"""

from __future__ import annotations

import numpy as np

from metaloc import autodiff as ad
from workloads import median_time

ROWS = 60

_DENSE = {"dense1": (105, 128), "dense2": (128, 64), "dense3": (64, 32), "dense4": (32, 8), "dense5": (8, 2)}


def _leaf(rng, shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def _layer(name: str, rng):
    """(forward function, input tensors to differentiate with respect to)."""
    if name == "conv1":
        x, w, b = _leaf(rng, (ROWS, 3, 30)), _leaf(rng, (10, 3, 3)), _leaf(rng, (10,))
        return (lambda: ad.relu(ad.conv1d(x, w, b, padding=1))), [x, w, b]
    if name == "conv2":
        x, w, b = _leaf(rng, (ROWS, 10, 15)), _leaf(rng, (15, 10, 3)), _leaf(rng, (15,))
        return (lambda: ad.relu(ad.conv1d(x, w, b, padding=1))), [x, w, b]
    if name == "pool1":
        x = _leaf(rng, (ROWS, 10, 30))
        return (lambda: ad.maxpool1d(x, 2)), [x]
    if name == "pool2":
        x = _leaf(rng, (ROWS, 15, 15))
        return (lambda: ad.flatten(ad.maxpool1d(x, 2))), [x]
    if name in _DENSE:
        fan_in, fan_out = _DENSE[name]
        x, w, b = _leaf(rng, (ROWS, fan_in)), _leaf(rng, (fan_in, fan_out)), _leaf(rng, (fan_out,))
        if name == "dense5":
            return (lambda: ad.add(ad.matmul(x, w), b)), [x, w, b]
        return (lambda: ad.relu(ad.add(ad.matmul(x, w), b))), [x, w, b]
    if name == "mse":
        pred = _leaf(rng, (ROWS, 2))
        target = ad.Tensor(rng.standard_normal((ROWS, 2)))
        return (lambda: ad.mse(pred, target)), [pred]
    raise ValueError(name)


def layer_times(names, reps: int = 30) -> dict:
    """{"layer.<name>.<pass>_us": median microseconds} for each named layer."""
    rng = np.random.default_rng(0)
    out = {}
    for name in names:
        forward, wrt = _layer(name, rng)
        y = forward()
        loss = ad.sum_all(ad.mul(y, ad.Tensor(rng.standard_normal(y.shape))))
        vecs = [ad.Tensor(rng.standard_normal(t.shape)) for t in wrt]

        def second(loss=loss, wrt=wrt, vecs=vecs):
            grads = ad.grad(loss, wrt, create_graph=True)
            total = ad.sum_all(ad.mul(grads[0], vecs[0]))
            for g, v in zip(grads[1:], vecs[1:]):
                total = ad.add(total, ad.sum_all(ad.mul(g, v)))
            return ad.grad(total, wrt)

        out[f"layer.{name}.fwd_us"] = median_time(forward, reps) * 1e6
        out[f"layer.{name}.bwd_us"] = median_time(lambda: ad.grad(loss, wrt), reps) * 1e6
        out[f"layer.{name}.bwd2_us"] = median_time(second, reps) * 1e6
    return out
