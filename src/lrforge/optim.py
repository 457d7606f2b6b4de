"""SGD and Adam updates on flat float64 parameter vectors.

Steps are pure: they return fresh (params, state) pairs and never mutate
their inputs, so optimizer trajectories replay exactly. Every update is
elementwise, so a (C, P) stack of C parameter vectors steps at once, each
row with its own learning rate (lr of shape (C, 1)), and row c gets the
same floats it would get alone.

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
class SgdState:
    velocity: np.ndarray
    momentum: float = 0.0


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer a trial uses; parsed straight from manifests."""

    kind: str = "sgd"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def descriptor(self) -> str:
        if self.kind == "sgd":
            return "sgd" if self.momentum == 0 else f"sgd(momentum={self.momentum:g})"
        return "adam"


def init_sgd(n: int | tuple[int, ...], momentum: float = 0.0) -> SgdState:
    if not (0 <= momentum < 1):
        raise ValueError(f"momentum must be in [0, 1), got {momentum!r}")
    return SgdState(velocity=np.zeros(n), momentum=momentum)


def init_adam(n: int | tuple[int, ...], beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
        raise ValueError(f"betas must be in [0, 1), got {beta1!r}, {beta2!r}")
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    return AdamState(m=np.zeros(n), v=np.zeros(n), beta1=beta1, beta2=beta2, eps=eps)


def init_state(spec: OptimizerSpec, n: int | tuple[int, ...]) -> SgdState | AdamState:
    """Zero state for n parameters, or for a (C, P) stack when n is that shape."""
    if spec.kind == "sgd":
        return init_sgd(n, momentum=spec.momentum)
    if spec.kind == "adam":
        return init_adam(n, beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)
    raise ValueError(f"unknown optimizer kind {spec.kind!r}")


def _check(params: np.ndarray, grads: np.ndarray, lr: float, state_vec: np.ndarray):
    if params.shape != grads.shape or params.shape != state_vec.shape:
        raise ValueError(f"shape mismatch: params {params.shape}, grads {grads.shape}, "
                         f"state {state_vec.shape}")
    for value in lr.ravel().tolist() if isinstance(lr, np.ndarray) else [lr]:
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {value!r}")
    if not np.isfinite(grads).all():
        raise ValueError("non-finite gradient")


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float | np.ndarray,
             state: SgdState) -> tuple[np.ndarray, SgdState]:
    _check(params, grads, lr, state.velocity)
    velocity = state.momentum * state.velocity + grads
    new_params = params - lr * velocity
    return new_params, SgdState(velocity=velocity, momentum=state.momentum)


def adam_step(params: np.ndarray, grads: np.ndarray, lr: float | np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    _check(params, grads, lr, state.m)
    t = state.t + 1
    m = state.beta1 * state.m + (1 - state.beta1) * grads
    v = state.beta2 * state.v + (1 - state.beta2) * grads * grads
    m_hat = m / (1 - state.beta1 ** t)
    v_hat = v / (1 - state.beta2 ** t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(m=m, v=v, t=t, beta1=state.beta1,
                                 beta2=state.beta2, eps=state.eps)


def step(params: np.ndarray, grads: np.ndarray, lr: float | np.ndarray,
         state: SgdState | AdamState):
    """Dispatch on the state type; the trainer steps its whole stack with one call."""
    if isinstance(state, SgdState):
        return sgd_step(params, grads, lr, state)
    if isinstance(state, AdamState):
        return adam_step(params, grads, lr, state)
    raise ValueError(f"unknown optimizer state {type(state).__name__}")


def select(state: SgdState | AdamState, rows) -> SgdState | AdamState:
    """The state of the given rows of a stack, for trials that keep running."""
    if isinstance(state, SgdState):
        return replace(state, velocity=state.velocity[rows])
    return replace(state, m=state.m[rows], v=state.v[rows])
