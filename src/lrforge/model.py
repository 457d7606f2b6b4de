"""Linear softmax and one-hidden-layer ReLU classifiers on flat parameters.

Parameters live in a single flat float64 vector plus a layout describing
each tensor's (name, shape, offset). Keeping every model a flat vector
lets the optimizers stay model-agnostic.

The loss is mean softmax cross-entropy, computed through log-sum-exp so
large logits cannot overflow. Gradients are exact and analytic.

`forward_loss_grad` and `accuracy_on` also take a (C, P) stack of C
parameter vectors and compute all of them with batched matmuls; a flat
vector is the stack of one, so there is a single kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Dataset


@dataclass(frozen=True)
class Linear:
    d_in: int
    n_classes: int

    def descriptor(self) -> str:
        return f"linear({self.d_in}->{self.n_classes})"


@dataclass(frozen=True)
class MLP:
    d_in: int
    hidden: int
    n_classes: int

    def descriptor(self) -> str:
        return f"mlp({self.d_in}->{self.hidden}->{self.n_classes})"


ModelSpec = Linear | MLP


@dataclass(frozen=True)
class ParamVector:
    """Flat float64 parameters, or a (C, P) stack of C flat vectors."""

    data: np.ndarray                                   # (P,) or (C, P) float64
    layout: tuple[tuple[str, tuple[int, ...], int], ...]  # (name, shape, offset)

    def view(self, name: str) -> np.ndarray:
        return self.views()[name]

    def views(self) -> dict[str, np.ndarray]:
        """Every tensor as a view, shaped (*stack, *shape), from one pass over the layout."""
        stack = self.data.shape[:-1]
        return {name: self.data[..., offset:offset + math.prod(shape)].reshape(stack + shape)
                for name, shape, offset in self.layout}


def _layout_for(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    if isinstance(spec, Linear):
        shapes = [("W", (spec.d_in, spec.n_classes)), ("b", (spec.n_classes,))]
    else:
        shapes = [("W1", (spec.d_in, spec.hidden)), ("b1", (spec.hidden,)),
                  ("W2", (spec.hidden, spec.n_classes)), ("b2", (spec.n_classes,))]
    layout = []
    offset = 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += int(np.prod(shape))
    return tuple(layout)


def param_count(spec: ModelSpec) -> int:
    name, shape, offset = _layout_for(spec)[-1]
    return offset + int(np.prod(shape))


def _validate_spec(spec: ModelSpec):
    if isinstance(spec, Linear):
        ok = spec.d_in >= 1 and spec.n_classes >= 2
    elif isinstance(spec, MLP):
        ok = spec.d_in >= 1 and spec.hidden >= 1 and spec.n_classes >= 2
    else:
        raise ValueError(f"unknown model spec {type(spec).__name__}")
    if not ok:
        raise ValueError(f"invalid model dimensions: {spec}")


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    layout = _layout_for(spec)
    data = np.zeros(param_count(spec))
    for name, shape, offset in layout:
        if len(shape) == 2:  # biases stay zero
            fan_in, fan_out = shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            size = fan_in * fan_out
            data[offset:offset + size] = rng.uniform(-limit, limit, size)
    return ParamVector(data=data, layout=layout)


def _logits(spec: ModelSpec, p: dict, x: np.ndarray):
    """Stacked logits: p holds (C, ...) views, x is (B, d) or (C, B, d)."""
    if isinstance(spec, Linear):
        return x @ p["W"] + p["b"][:, None], None, None
    z1 = x @ p["W1"] + p["b1"][:, None]
    a1 = np.maximum(z1, 0.0)
    return a1 @ p["W2"] + p["b2"][:, None], z1, a1


def _stacked(params: ParamVector) -> ParamVector:
    if params.data.ndim == 2:
        return params
    return ParamVector(data=params.data[None], layout=params.layout)


def forward_loss_grad(spec: ModelSpec, params: ParamVector, x: np.ndarray,
                      y: np.ndarray):
    """Mean cross-entropy loss, gradient, and batch accuracy.

    For flat params: (float loss, ParamVector grad, float accuracy). For a
    (C, P) stack: (C,) losses, a (C, P) gradient stack and (C,) accuracies,
    with x and y either shared, (B, d) and (B,), or per row, (C, B, d) and
    (C, B). Flat params run as a stack of one, and row c of a stack is bit
    for bit what data[c] gives alone: every matmul slice is the same BLAS
    call and every reduction runs in the same order.
    """
    n = x.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if x.shape[-1] != spec.d_in:
        raise ValueError(f"feature width {x.shape[-1]} does not match d_in {spec.d_in}")
    if y.min() < 0 or y.max() >= spec.n_classes:
        raise ValueError(f"labels out of range [0, {spec.n_classes})")

    stack = _stacked(params)
    p = stack.views()
    rows = np.arange(stack.data.shape[0])[:, None]
    cols = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, z1, a1 = _logits(spec, p, x)
        zmax = logits.max(axis=-1, keepdims=True)
        lse = zmax[..., 0] + np.log(np.exp(logits - zmax).sum(axis=-1))
        loss = np.mean(lse - logits[rows, cols, y], axis=-1)
        accuracy = np.mean(np.argmax(logits, axis=-1) == y, axis=-1)

        dlogits = np.exp(logits - lse[..., None])
        dlogits[rows, cols, y] -= 1.0
        dlogits /= n

        grad = ParamVector(data=np.zeros_like(stack.data), layout=stack.layout)
        g = grad.views()
        xt = np.swapaxes(x, -1, -2)
        if isinstance(spec, Linear):
            g["W"][:] = xt @ dlogits
            g["b"][:] = dlogits.sum(axis=-2)
        else:
            g["W2"][:] = np.swapaxes(a1, -1, -2) @ dlogits
            g["b2"][:] = dlogits.sum(axis=-2)
            da1 = dlogits @ np.swapaxes(p["W2"], -1, -2)
            dz1 = da1 * (z1 > 0)
            g["W1"][:] = xt @ dz1
            g["b1"][:] = dz1.sum(axis=-2)

    if params.data.ndim == 1:
        return float(loss[0]), ParamVector(grad.data[0], params.layout), float(accuracy[0])
    return loss, grad, accuracy


def accuracy_on(spec: ModelSpec, params: ParamVector, ds: Dataset):
    """Test accuracy: a float for flat params, (C,) for a (C, P) stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _, _ = _logits(spec, _stacked(params).views(), ds.features)
        accuracy = np.mean(np.argmax(logits, axis=-1) == ds.labels, axis=-1)
    return float(accuracy[0]) if params.data.ndim == 1 else accuracy
