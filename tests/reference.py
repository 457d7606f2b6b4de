"""Independent references: closed forms for the policy families, and the
plain-reduction loss and gradient of a model stack.

Each evaluator here recomputes the curve with different algebra than the
library: integer phase reduction instead of the floor/abs carrier,
square-and-multiply instead of **, half-angle and log identities for the
smooth decays. A shared algebraic mistake cannot cancel out.

SWEEP_CASES picks parameters where both forms are well-conditioned up to
t = 10^5: cyclic half-cycles are long enough that the carrier's phase
subtraction keeps ~4 extra decimal digits, and decay exponents stay well
inside the normal float range. Tiny l at huge t is a float-precision
corner, not a correctness question; targeted small-t tests cover it.
"""

from __future__ import annotations

import math

import numpy as np

from lrforge.model import views
from lrforge.schedule import (
    Composite,
    CosineDecay,
    Exp,
    Fix,
    LinearDecay,
    NStep,
    Poly,
    Scaled,
    Segment,
    Sin,
    Sin2,
    SinExp,
    Step,
    Tri,
    Tri2,
    TriExp,
    Warmup,
)


def ipow(base: float, n: int) -> float:
    """Square-and-multiply integer power, deliberately not ** or math.pow."""
    if n < 0:
        raise ValueError("negative exponent")
    acc = 1.0
    while n:
        if n & 1:
            acc *= base
        base *= base
        n >>= 1
    return acc


def _tri_shape(t: int, l: int) -> float:
    # integer phase reduction; exact until the single final division
    r = t % (2 * l)
    return (r if r <= l else 2 * l - r) / l


def _sin_shape(t: int, l: int) -> float:
    r = t % (2 * l)
    return math.sin(math.pi * r / (2 * l))


def _cycle(t: int, l: int) -> int:
    return 1 + t // (2 * l)


def ref_lr(policy, t: int) -> float:
    """Evaluate a policy at iteration t, independently of the library."""
    if isinstance(policy, Scaled):
        return policy.lam * ref_lr(policy.base, t)
    if isinstance(policy, Fix):
        return policy.k
    if isinstance(policy, Step):
        return policy.k * ipow(policy.gamma, t // policy.l)
    if isinstance(policy, NStep):
        hit = sum(1 for m in policy.milestones if m <= t)
        return policy.k * ipow(policy.gamma, hit)
    if isinstance(policy, Exp):
        return policy.k * math.exp((t / policy.l) * math.log(policy.gamma))
    if isinstance(policy, Poly):
        if t == policy.t_max:
            return 0.0
        return policy.k * math.exp(policy.p * math.log1p(-t / policy.t_max))
    if isinstance(policy, Tri):
        return policy.k0 + (policy.k1 - policy.k0) * _tri_shape(t, policy.l)
    if isinstance(policy, Tri2):
        amp = math.ldexp(_tri_shape(t, policy.l), -(_cycle(t, policy.l) - 1))
        return policy.k0 + (policy.k1 - policy.k0) * amp
    if isinstance(policy, TriExp):
        amp = _tri_shape(t, policy.l) * ipow(policy.gamma, t)
        return policy.k0 + (policy.k1 - policy.k0) * amp
    if isinstance(policy, Sin):
        return policy.k0 + (policy.k1 - policy.k0) * _sin_shape(t, policy.l)
    if isinstance(policy, Sin2):
        amp = math.ldexp(_sin_shape(t, policy.l), -(_cycle(t, policy.l) - 1))
        return policy.k0 + (policy.k1 - policy.k0) * amp
    if isinstance(policy, SinExp):
        amp = _sin_shape(t, policy.l) * ipow(policy.gamma, t)
        return policy.k0 + (policy.k1 - policy.k0) * amp
    if isinstance(policy, CosineDecay):
        c = math.cos(math.pi * t / (2 * policy.t_max))  # half-angle form
        return policy.k_min + (policy.k - policy.k_min) * c * c
    if isinstance(policy, LinearDecay):
        tau = t / policy.t_max
        return policy.k * (1 - tau) + policy.k_min * tau
    if isinstance(policy, Warmup):
        if policy.w >= 1:
            w = int(policy.w)
        elif policy.w == 0:
            w = 0
        else:
            w = int(policy.w * _ref_horizon(policy.inner))
        if t < w:
            return (t * ref_lr(policy.inner, 0)) / w
        return ref_lr(policy.inner, t - w)
    if isinstance(policy, Composite):
        for seg in policy.segments:  # linear scan, not bisection
            if seg.start <= t < seg.end:
                return ref_lr(seg.policy, t - seg.start)
        raise ValueError(f"t={t} past the last segment")
    raise TypeError(f"no reference for {type(policy).__name__}")


def _ref_horizon(policy) -> int:
    if isinstance(policy, (Poly, CosineDecay, LinearDecay)):
        return policy.t_max
    if isinstance(policy, Composite):
        return policy.segments[-1].end - 1
    raise TypeError(f"no bounded horizon for {type(policy).__name__}")


T_MAX_SWEEP = 10**5

# family name -> a representative, well-conditioned policy for the big sweep
SWEEP_CASES = {
    "FIX": Fix(k=0.05),
    "STEP": Step(k=0.1, gamma=0.92, l=4000),
    "NSTEP": NStep(k=0.1, gamma=0.31, milestones=(11, 5000, 32000, 48000, 90001)),
    "EXP": Exp(k=0.2, gamma=0.999, l=64),
    "POLY": Poly(k=0.1, p=2.0, t_max=T_MAX_SWEEP),
    "TRI": Tri(k0=0.01, k1=0.11, l=5000),
    "TRI2": Tri2(k0=0.01, k1=0.11, l=5000),
    "TRIEXP": TriExp(k0=0.01, k1=0.11, l=5000, gamma=0.99993),
    "SIN": Sin(k0=0.01, k1=0.11, l=5000),
    "SIN2": Sin2(k0=0.01, k1=0.11, l=5000),
    "SINEXP": SinExp(k0=0.01, k1=0.11, l=5000, gamma=0.99993),
    "COSINE": CosineDecay(k=0.1, t_max=T_MAX_SWEEP, k_min=0.001),
    "LINEAR": LinearDecay(k=0.1, t_max=T_MAX_SWEEP, k_min=0.001),
    "WARMUP": Warmup(w=0.05, inner=CosineDecay(k=0.1, t_max=T_MAX_SWEEP, k_min=0.001)),
}

# not one of the 14 formula families, but the same oracle applies
MULTI_SWEEP_CASE = Composite(segments=(
    Segment(start=0, end=30000, policy=Tri(k0=0.1, k1=0.5, l=1500)),
    Segment(start=30000, end=60000, policy=Tri(k0=0.01, k1=0.05, l=1000)),
    Segment(start=60000, end=100001, policy=Step(k=0.01, gamma=0.5, l=8000)),
))


def rel_err(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# --- model loss and gradient ---


def ref_forward_loss_grad(spec, params, x, y):
    """Loss, gradient and accuracy of a (C, P) stack through plain reductions.

    Every reduction runs over a row-major (C, B, K) array: max, exp-sum and
    argmax over the class axis, fancy indexing for the target logit, and
    `sum` over the batch axis for the biases. `model.forward_loss_grad`
    must give the same bytes, NaN sign bits included.
    """
    p = views(spec, params)
    n = x.shape[-2]
    rows = np.arange(params.shape[0])[:, None]
    cols = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        inputs, hidden = [x], []
        n_layers = len(spec.widths) - 1
        for i in range(1, n_layers + 1):
            z = inputs[-1] @ p[f"W{i}"] + p[f"b{i}"][:, None]
            if i < n_layers:
                hidden.append(z)
                inputs.append(np.maximum(z, 0.0))
        logits = z
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
