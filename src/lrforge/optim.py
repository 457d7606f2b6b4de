"""SGD and Adam updates on flat float64 parameter vectors.

An optimizer's state is its spec plus its moment arrays, shaped like the
parameters. Steps are pure unless given buffers: the plain call returns
fresh (params, state) pairs and never mutates its inputs, so optimizer
trajectories replay exactly. The trainer passes a scratch array and steps
its stack in place, with the same floats. Every update is elementwise, so
a (C, P) stack of C parameter vectors steps at once, each row with its
own learning rate (lr of shape (C, 1)), and row c gets the same floats it
would get alone. A step is the update alone: the trainer, which decides
divergence, never hands it a non-finite gradient or lr, so only the shapes
are checked here.

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

from dataclasses import dataclass, replace

import numpy as np

from .schedule import finite, need, number


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer a trial uses, checked when built; parsed straight from manifests."""

    kind: str = "sgd"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        need(self.kind in ("sgd", "adam"), "unknown optimizer kind %r", self.kind)
        if self.kind == "sgd":
            need(finite(self.momentum) and 0 <= self.momentum < 1,
                 "momentum must be in [0, 1), got %r", self.momentum)
        else:
            need(all(finite(beta) and 0 <= beta < 1 for beta in (self.beta1, self.beta2)),
                 "betas must be in [0, 1), got %r, %r", self.beta1, self.beta2)
            need(number(self.eps) and self.eps > 0, "eps must be > 0, got %r", self.eps)
            need(finite(self.eps), "eps must be finite, got %r", self.eps)

    def descriptor(self) -> str:
        if self.kind == "sgd":
            return "sgd" if self.momentum == 0 else f"sgd(momentum={self.momentum:g})"
        return "adam"


@dataclass  # not frozen: a frozen one's __init__ takes 3x as long, and each step makes one
class OptimizerState:
    """The settings, the moment arrays ((velocity,) for SGD, (m, v) for Adam)
    and the number of steps taken. A step never changes a state it is given,
    but for the moment arrays that a buffered step overwrites."""

    spec: OptimizerSpec
    moments: tuple[np.ndarray, ...]
    t: int = 0


def init_state(spec: OptimizerSpec, n: int | tuple[int, ...]) -> OptimizerState:
    """Zero state for n parameters, or for a (C, P) stack when n is that shape."""
    if spec.kind == "sgd":
        return OptimizerState(spec, (np.zeros(n),))
    return OptimizerState(spec, (np.zeros(n), np.zeros(n)))


def step(params: np.ndarray, grads: np.ndarray, lr: float | np.ndarray,
         state: OptimizerState, out: np.ndarray | None = None
         ) -> tuple[np.ndarray, OptimizerState]:
    """One update; the trainer steps its whole stack with one call.

    Given `out`, a scratch array shaped like params, the step is made in
    place with the same floats: the new params and moments overwrite
    `params` and the state's moment arrays, and `grads` and `out` are
    overwritten too. The plain call and the buffered one run the same
    update expressions.
    """
    if params.shape != grads.shape or params.shape != state.moments[0].shape:
        need(False, "shape mismatch: params %s, grads %s, state %s",
             params.shape, grads.shape, state.moments[0].shape)
    spec, t = state.spec, state.t + 1
    # where each result is written: its buffer given out, else (None) a fresh array
    into, mo, spare = (None, (None, None), None) if out is None else (params, state.moments, grads)
    if spec.kind == "sgd":
        vel = np.add(np.multiply(spec.momentum, state.moments[0], out=mo[0]), grads, out=mo[0])
        update = np.multiply(lr, vel, out=out)
        return np.subtract(params, update, out=into), OptimizerState(spec, (vel,), t)
    m = np.add(np.multiply(spec.beta1, state.moments[0], out=mo[0]),
               np.multiply(1 - spec.beta1, grads, out=out), out=mo[0])
    g2 = np.multiply(np.multiply(1 - spec.beta2, grads, out=out), grads, out=out)
    v = np.add(np.multiply(spec.beta2, state.moments[1], out=mo[1]), g2, out=mo[1])
    v_hat = np.divide(v, 1 - spec.beta2 ** t, out=spare)
    update = np.multiply(lr, np.divide(m, 1 - spec.beta1 ** t, out=out), out=out)  # lr * m^
    update /= np.add(np.sqrt(v_hat, out=v_hat), spec.eps, out=v_hat)
    return np.subtract(params, update, out=into), OptimizerState(spec, (m, v), t)


def select(state: OptimizerState, rows) -> OptimizerState:
    """The state of the given rows of a stack, for trials that keep running."""
    return replace(state, moments=tuple(moment[rows] for moment in state.moments))
