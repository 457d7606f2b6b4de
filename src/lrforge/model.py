"""Linear softmax and one-hidden-layer ReLU classifiers on flat parameters.

A model spec lists its layer `widths`; layer i maps widths[i - 1] to
widths[i] through weights `Wi` and bias `bi`, with a ReLU between layers.
Parameters are plain float64 arrays: a (C, P) stack holds C flat vectors,
each laid out by `layout(spec)`, and `views(spec, params)` gives every
tensor as a view into it. Keeping every model a flat vector lets the
optimizers stay model-agnostic.

The loss is mean softmax cross-entropy, computed through log-sum-exp so
large logits cannot overflow. Gradients are exact and analytic, and all C
rows of a stack run through the same batched matmuls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .problems import Dataset


@dataclass(frozen=True)
class Linear:
    d_in: int
    n_classes: int

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.d_in, self.n_classes)

    def descriptor(self) -> str:
        return f"linear({self.d_in}->{self.n_classes})"


@dataclass(frozen=True)
class MLP:
    d_in: int
    hidden: int
    n_classes: int

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.d_in, self.hidden, self.n_classes)

    def descriptor(self) -> str:
        return f"mlp({self.d_in}->{self.hidden}->{self.n_classes})"


ModelSpec = Linear | MLP


@lru_cache(maxsize=None)
def layout(spec: ModelSpec) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(name, shape, offset) of each tensor in a flat vector: W1, b1, W2, b2, ..."""
    widths = spec.widths
    if min(widths) < 1 or widths[-1] < 2:
        raise ValueError(f"invalid model dimensions: {spec}")
    tensors = []
    offset = 0
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), start=1):
        for name, shape in ((f"W{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
            tensors.append((name, shape, offset))
            offset += math.prod(shape)
    return tuple(tensors)


def param_count(spec: ModelSpec) -> int:
    return sum(math.prod(shape) for _, shape, _ in layout(spec))


def views(spec: ModelSpec, params: np.ndarray) -> dict[str, np.ndarray]:
    """Every tensor of a (P,) vector or a (C, P) stack, shaped (*stack, *shape)."""
    stack = params.shape[:-1]
    return {name: params[..., offset:offset + math.prod(shape)].reshape(stack + shape)
            for name, shape, offset in layout(spec)}


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """A (P,) vector: uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    params = np.zeros(param_count(spec))
    for name, tensor in views(spec, params).items():
        if name.startswith("W"):  # biases stay zero
            limit = np.sqrt(6.0 / sum(tensor.shape))
            tensor[:] = rng.uniform(-limit, limit, tensor.shape)
    return params


def _forward(spec: ModelSpec, p: dict, x: np.ndarray):
    """Logits of the (C, ...) views p on x, (B, d) or (C, B, d), plus each
    layer's input and each hidden pre-activation."""
    n_layers = len(spec.widths) - 1
    inputs, hidden = [x], []
    for i in range(1, n_layers + 1):
        z = inputs[-1] @ p[f"W{i}"] + p[f"b{i}"][:, None]
        if i < n_layers:
            hidden.append(z)
            inputs.append(np.maximum(z, 0.0))
    return z, inputs, hidden


def forward_loss_grad(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                      y: np.ndarray):
    """Mean cross-entropy loss, gradient, and batch accuracy of a (C, P) stack.

    Returns (C,) losses, a (C, P) gradient stack and (C,) accuracies, with
    x and y either shared, (B, d) and (B,), or per row, (C, B, d) and
    (C, B). Row c of a stack is bit for bit what it gives as a stack of
    one: every matmul slice is the same BLAS call and every reduction runs
    in the same order.
    """
    if params.ndim != 2:
        raise ValueError(f"params must be a (C, P) stack, got shape {params.shape}")
    n = x.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    if x.shape[-1] != spec.d_in:
        raise ValueError(f"feature width {x.shape[-1]} does not match d_in {spec.d_in}")
    if y.min() < 0 or y.max() >= spec.n_classes:
        raise ValueError(f"labels out of range [0, {spec.n_classes})")

    p = views(spec, params)
    rows = np.arange(params.shape[0])[:, None]
    cols = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        logits, inputs, hidden = _forward(spec, p, x)
        zmax = logits.max(axis=-1, keepdims=True)
        lse = zmax[..., 0] + np.log(np.exp(logits - zmax).sum(axis=-1))
        loss = np.mean(lse - logits[rows, cols, y], axis=-1)
        accuracy = np.mean(np.argmax(logits, axis=-1) == y, axis=-1)

        delta = np.exp(logits - lse[..., None])
        delta[rows, cols, y] -= 1.0
        delta /= n

        grad = np.zeros_like(params)
        g = views(spec, grad)
        for i in range(len(inputs), 0, -1):
            g[f"W{i}"][:] = np.swapaxes(inputs[i - 1], -1, -2) @ delta
            g[f"b{i}"][:] = delta.sum(axis=-2)
            if i > 1:
                delta = (delta @ np.swapaxes(p[f"W{i}"], -1, -2)) * (hidden[i - 2] > 0)
    return loss, grad, accuracy


def accuracy_on(spec: ModelSpec, params: np.ndarray, ds: Dataset) -> np.ndarray:
    """(C,) test accuracies of a (C, P) stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _, _ = _forward(spec, views(spec, params), ds.features)
        return np.mean(np.argmax(logits, axis=-1) == ds.labels, axis=-1)
