"""Independent references: closed forms for the policy families, the
plain-reduction loss and gradient of a model stack, a plain training
loop over one trial, and the 2-D surfaces and a surface path by their
per-point formulas and a plain loop.

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

from lrforge import adaptive, schedule
from lrforge.model import init_params, views
from lrforge.problems import Quadratic, Rosenbrock
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
    must give the same loss and gradient bytes, NaN sign bits included; the
    accuracy is the reference's own, for evaluation.
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


# --- one trial, one step at a time ---


def _ref_update(opt_spec, params, grad, lr, moments: list, t: int):
    """One update of one parameter vector by the formulas in `optim`'s
    docstring; moments are updated in place, t counts from 1."""
    if opt_spec.kind == "sgd":
        moments[0] = opt_spec.momentum * moments[0] + grad
        return params - lr * moments[0]
    b1, b2 = opt_spec.beta1, opt_spec.beta2
    moments[0] = b1 * moments[0] + (1 - b1) * grad
    moments[1] = b2 * moments[1] + (1 - b2) * grad * grad
    m_hat = moments[0] / (1 - b1 ** t)
    v_hat = moments[1] / (1 - b2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + opt_spec.eps)


def ref_run_trial(spec, task, policy, opt_spec, config, init=None) -> dict:
    """One trial by the rules `trainer.run_trial` documents, in a plain loop.

    The test split is evaluated at iteration 0, every eval_every steps (once
    per epoch when None) and at the budget. A step whose loss, gradient or
    LR is not finite ends the trial as diverged, after an evaluation of the
    params it started from, at t + 1; an evaluation that meets the target
    ends it too. Each epoch draws one permutation of the train split from
    the seed's stream. LRs come from `schedule.lr_at` or, for a plateau
    policy, `adaptive`, and keep their Python type.

    Returns the step LRs (a list) and losses (an array), the evaluations as
    (iteration, accuracy) pairs, the outcome as `TrialOutcome.to_dict` gives
    it, and the final params.
    """
    train, test, budget, bs = task.train, task.test, config.budget, config.batch_size
    n = train.features.shape[0]
    epoch = -(-n // bs)
    eval_every = config.eval_every or epoch
    target = config.target_accuracy
    rng = np.random.default_rng(config.seed)
    params = (init_params(spec, config.seed) if init is None else init).copy()
    moments = [np.zeros_like(params) for _ in range(1 if opt_spec.kind == "sgd" else 2)]
    state = (adaptive.initial_state(policy)
             if isinstance(policy, adaptive.PlateauPolicy) else None)
    lrs, losses, evals = [], [], []

    def evaluate(t: int) -> float:
        acc = float(ref_forward_loss_grad(spec, params[None], test.features,
                                          test.labels)[2][0])
        evals.append((t, acc))
        return acc

    def finish(t: int, diverged: bool, to_target):
        accs = [acc for _, acc in evals]
        return {"lrs": lrs, "losses": np.array(losses, dtype=float), "evals": evals,
                "outcome": {"final_accuracy": accs[-1], "best_accuracy": max(accs),
                            "iterations_run": t, "iterations_to_target": to_target,
                            "diverged": diverged},
                "final_params": params}

    acc = evaluate(0)
    if target is not None and acc >= target:
        return finish(0, False, 0)
    for t in range(budget):
        if t % epoch == 0:
            order = rng.permutation(n)
        batch = order[(t % epoch) * bs:(t % epoch + 1) * bs]
        lr = (schedule.lr_at(policy, t) if state is None
              else adaptive.current_lr(state, policy, t))
        loss, grad, _ = ref_forward_loss_grad(spec, params[None], train.features[batch][None],
                                              train.labels[batch][None])
        loss, grad = loss[0], grad[0]
        lrs.append(lr)
        losses.append(loss)
        if not (np.isfinite(loss) and np.isfinite(grad).all() and math.isfinite(lr)):
            evaluate(t + 1)
            return finish(t + 1, True, None)
        params = _ref_update(opt_spec, params, grad, lr, moments, t + 1)
        if (t + 1) % eval_every == 0 or t + 1 == budget:
            acc = evaluate(t + 1)
            if state is not None:
                metric = loss if policy.monitor == "train_loss" else acc
                state, _ = adaptive.observe(state, policy, float(metric), t=t + 1)
            if target is not None and acc >= target:
                return finish(t + 1, False, t + 1)
    return finish(budget, False, None)


# --- 2-D surfaces ---


def ref_surface_value_grad(surface, x: np.ndarray) -> tuple:
    """f and its gradient at a (2,) float point, each surface by its formula
    with every term built at the call: a well's center array and width
    terms too. `problems.surface_value_grad` must give the same bytes."""
    if isinstance(surface, Quadratic):
        return 0.5 * float(x @ surface.a @ x), surface.a @ x
    if isinstance(surface, Rosenbrock):
        a, b = surface.a, surface.b
        v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
        g = np.array([-2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                      2 * b * (x[1] - x[0] ** 2)])
        return float(v), g
    value = 0.0
    grad = np.zeros(2)
    for w in surface.wells:
        d = x - np.asarray(w.center, dtype=float)
        e = w.depth * np.exp(-float(d @ d) / (2 * w.width ** 2))
        value -= e
        grad += e * d / w.width ** 2
    return float(value), grad


def ref_surface_trial(surface, start, policy, opt_spec, iterations: int) -> tuple:
    """(points, values, diverged) of a surface path, in a plain loop.

    Before step t the loop checks the value and gradient at the current
    point and the LR at t; one that is not finite ends the path there, as
    diverged. So does a non-finite value at the last point.
    """
    point = np.array(start, dtype=float)
    moments = [np.zeros(2) for _ in range(1 if opt_spec.kind == "sgd" else 2)]
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = ref_surface_value_grad(surface, point)
        points, values = [point], [value]
        for t in range(iterations):
            lr = schedule.lr_at(policy, t)
            if not (schedule.finite(value) and np.isfinite(grad).all()
                    and schedule.finite(lr)):
                return points, values, True
            point = _ref_update(opt_spec, point, grad, lr, moments, t + 1)
            value, grad = ref_surface_value_grad(surface, point)
            points.append(point)
            values.append(value)
    return points, values, not schedule.finite(value)
