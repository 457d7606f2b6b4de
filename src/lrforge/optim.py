"""SGD and Adam updates on flat float64 parameter vectors.

An optimizer's state is its spec plus its moment arrays, shaped like the
parameters. Steps are pure: they return fresh (params, state) pairs and
never mutate their inputs, so optimizer trajectories replay exactly. Every
update is elementwise, so a (C, P) stack of C parameter vectors steps at
once, each row with its own learning rate (lr of shape (C, 1)), and row c
gets the same floats it would get alone. Such an lr column is checked with
numpy in one pass; only a bad one is walked to name its first bad value.

Adam per step, elementwise:
    m   = b1 * m + (1 - b1) * g
    v   = b2 * v + (1 - b2) * g^2
    m^  = m / (1 - b1^t)
    v^  = v / (1 - b2^t)
    p  -= lr * m^ / (sqrt(v^) + eps)      # eps added outside the sqrt

SGD with momentum mu:
    vel = mu * vel + g
    p  -= lr * vel
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer a trial uses, checked when built; parsed straight from manifests."""

    kind: str = "sgd"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind == "sgd":
            if not (0 <= self.momentum < 1):
                raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")
        elif self.kind == "adam":
            if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
                raise ValueError(f"betas must be in [0, 1), got {self.beta1!r}, {self.beta2!r}")
            if not self.eps > 0:
                raise ValueError(f"eps must be > 0, got {self.eps!r}")
            if self.eps == math.inf:
                raise ValueError("eps must be finite, got inf")
        else:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")

    def descriptor(self) -> str:
        if self.kind == "sgd":
            return "sgd" if self.momentum == 0 else f"sgd(momentum={self.momentum:g})"
        return "adam"


@dataclass(frozen=True)
class OptimizerState:
    """The settings, the moment arrays ((velocity,) for SGD, (m, v) for Adam)
    and the number of steps taken."""

    spec: OptimizerSpec
    moments: tuple[np.ndarray, ...]
    t: int = 0


def init_state(spec: OptimizerSpec, n: int | tuple[int, ...]) -> OptimizerState:
    """Zero state for n parameters, or for a (C, P) stack when n is that shape."""
    if spec.kind == "sgd":
        return OptimizerState(spec, (np.zeros(n),))
    return OptimizerState(spec, (np.zeros(n), np.zeros(n)))


def _check_lr(value):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {value!r}")


def _check(params: np.ndarray, grads: np.ndarray, lr: float, state_vec: np.ndarray):
    if params.shape != grads.shape or params.shape != state_vec.shape:
        raise ValueError(f"shape mismatch: params {params.shape}, grads {grads.shape}, "
                         f"state {state_vec.shape}")
    if not isinstance(lr, np.ndarray):
        _check_lr(lr)
    elif not (lr.dtype.kind in "biuf" and (np.isfinite(lr) & (lr >= 0)).all()):
        for value in lr.ravel().tolist():  # name the first bad value
            _check_lr(value)
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient")


def step(params: np.ndarray, grads: np.ndarray, lr: float | np.ndarray,
         state: OptimizerState) -> tuple[np.ndarray, OptimizerState]:
    """One update; the trainer steps its whole stack with one call."""
    _check(params, grads, lr, state.moments[0])
    spec, t = state.spec, state.t + 1
    if spec.kind == "sgd":
        velocity = spec.momentum * state.moments[0] + grads
        return params - lr * velocity, OptimizerState(spec, (velocity,), t)
    m, v = state.moments
    m = spec.beta1 * m + (1 - spec.beta1) * grads
    v = spec.beta2 * v + (1 - spec.beta2) * grads * grads
    m_hat = m / (1 - spec.beta1 ** t)
    v_hat = v / (1 - spec.beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + spec.eps), OptimizerState(spec, (m, v), t)


def select(state: OptimizerState, rows) -> OptimizerState:
    """The state of the given rows of a stack, for trials that keep running."""
    return replace(state, moments=tuple(moment[rows] for moment in state.moments))
