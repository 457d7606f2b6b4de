"""Linear softmax and one-hidden-layer ReLU classifiers on flat parameters.

A model spec lists its layer `widths`; layer i maps widths[i - 1] to
widths[i] through weights `Wi` and bias `bi`, with a ReLU between layers.
Parameters are plain float64 arrays: a (C, P) stack holds C flat vectors,
each laid out by `layout(spec)`, and `views(spec, params)` gives every
tensor as a view into it. Keeping every model a flat vector lets the
optimizers stay model-agnostic.

The loss is mean softmax cross-entropy, computed through log-sum-exp so
large logits cannot overflow. Gradients are exact and analytic, and all C
rows of a stack run through the same batched matmuls. Activations are laid
out batch-major and two classes skip every reduce over the class axis but
the max, for speed; neither moves a bit (see `forward_loss_grad`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .problems import Dataset


class _Widths:
    """Base of every model spec: its layer widths are checked when it is built."""

    def __post_init__(self):
        if min(self.widths) < 1 or self.widths[-1] < 2:
            raise ValueError(f"invalid model dimensions: {self}")


@dataclass(frozen=True)
class Linear(_Widths):
    d_in: int
    n_classes: int

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.d_in, self.n_classes)

    def descriptor(self) -> str:
        return f"linear({self.d_in}->{self.n_classes})"


@dataclass(frozen=True)
class MLP(_Widths):
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


def _batch_major(stack: int, n: int, width: int) -> np.ndarray:
    """An empty (stack, n, width) array laid out as (n, stack, width) in memory.

    Sums over the batch axis then run over whole contiguous rows, in the
    same order (one batch entry after the other) as over a (stack, n, width)
    array, and BLAS writes each matmul slice at a longer row stride.
    """
    return np.empty((n, stack, width)).swapaxes(0, 1)


def _forward(spec: ModelSpec, p: dict, x: np.ndarray):
    """Logits of the (C, ...) views p on x, (B, d) or (C, B, d), plus each
    layer's input and each hidden pre-activation, all batch-major."""
    n_layers = len(spec.widths) - 1
    stack, n = p["W1"].shape[0], x.shape[-2]
    inputs, hidden = [x], []
    for i in range(1, n_layers + 1):
        z = np.matmul(inputs[-1], p[f"W{i}"], out=_batch_major(stack, n, spec.widths[i]))
        z += np.ascontiguousarray(p[f"b{i}"])[:, None]  # contiguous: adds whole rows at once
        if i < n_layers:
            hidden.append(z)
            inputs.append(np.maximum(z, 0.0))
    return z, inputs, hidden


def _max_of_two(l0: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """`np.stack([l0, l1], -1).max(-1)`, bit for bit, without the reduce.

    The reduce's rule: a NaN l0 gives the canonical +qNaN, a NaN l1 keeps
    its own bits, and a tie (+0 against -0 included) gives l1.
    """
    zmax = np.where(l0 > l1, l0, l1)
    np.copyto(zmax, np.nan, where=l0 != l0)
    return zmax


def forward_loss_grad(spec: ModelSpec, params: np.ndarray, x: np.ndarray,
                      y: np.ndarray):
    """Mean cross-entropy loss, gradient, and batch accuracy of a (C, P) stack.

    Returns (C,) losses, a (C, P) gradient stack and (C,) accuracies, with
    x and y either shared, (B, d) and (B,), or per row, (C, B, d) and
    (C, B). Row c of a stack is bit for bit what it gives as a stack of
    one: every matmul slice is the same BLAS call and every reduction runs
    in the same order.

    Per-example arrays are batch-major (see `_batch_major`), so each bias
    sum adds whole rows, one example after another, exactly as a sum over
    the batch axis of a row-major array does. The loss is summed over a
    row-major copy, which numpy sums pairwise. With two classes nothing
    else reduces over the class axis: the exp-sum adds the two shifted
    exps, the target logit is a select, and the prediction compares the
    two logits, each bit for bit what the reduce, the gather and argmax
    give; the shift is `_max_of_two`, bit for bit numpy's max reduce, which
    decides the sign bit of a NaN loss. The one-hot labels are subtracted
    from all of delta: subtracting 0.0 leaves an entry exactly as it was.
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
    stack, k = params.shape[0], spec.n_classes
    labels = np.empty((n, stack), dtype=np.intp).T  # y as (stack, n), batch-major
    labels[...] = y
    with np.errstate(over="ignore", invalid="ignore"):
        logits, inputs, hidden = _forward(spec, p, x)
        if k == 2:
            l0, l1 = logits[..., 0], logits[..., 1]
            zmax = _max_of_two(l0, l1)
            sumexp = np.exp(l0 - zmax) + np.exp(l1 - zmax)
            second = labels == 1
            target = np.where(second, l1, l0)
            # argmax picks a NaN first, then the larger, then the first of a tie
            correct = (~(l0 >= l1) & (l0 == l0)) == second
        else:
            zmax = logits.max(axis=-1)
            sumexp = np.add.reduce(np.exp(logits - zmax[..., None]), axis=-1)
            target = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]
            correct = np.argmax(logits, axis=-1) == labels
        lse = zmax + np.log(sumexp)
        loss = np.add.reduce(np.subtract(lse, target, out=np.empty((stack, n))), axis=-1) / n
        accuracy = np.add.reduce(correct, axis=-1, dtype=np.float64) / n

        delta = np.exp(logits - lse[..., None])
        delta -= np.eye(k).take(labels.T, axis=0).swapaxes(0, 1)  # one-hot rows
        delta /= n

        grad = np.empty_like(params)
        g = views(spec, grad)
        for i in range(len(inputs), 0, -1):
            np.matmul(np.swapaxes(inputs[i - 1], -1, -2), delta, out=g[f"W{i}"])
            np.add.reduce(delta, axis=-2, out=g[f"b{i}"])
            if i > 1:
                delta = np.matmul(delta, np.swapaxes(p[f"W{i}"], -1, -2),
                                  out=_batch_major(stack, n, spec.widths[i - 1]))
                delta *= hidden[i - 2] > 0
    return loss, grad, accuracy


def accuracy_on(spec: ModelSpec, params: np.ndarray, ds: Dataset) -> np.ndarray:
    """(C,) test accuracies of a (C, P) stack."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _, _ = _forward(spec, views(spec, params), ds.features)
        return np.mean(np.argmax(logits, axis=-1) == ds.labels, axis=-1)
