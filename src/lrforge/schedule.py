"""Learning rate policy families and their evaluation.

A policy describes one learning rate curve eta(t) over the iteration index
t >= 0. Every family is a frozen dataclass; `lr_at` evaluates the closed
form, `validate` checks parameter invariants, and `policy_to_dict` /
`policy_from_dict` round-trip the JSON wire format

    {"family": "<NAME>", "params": {...}}

Evaluation is pure: no policy carries state, and the same (policy, t) pair
always yields the same float.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Union


class PolicyError(ValueError):
    """Invalid policy parameters, malformed policy JSON, or out-of-range t."""


# --- fixed and decaying families ---


@dataclass(frozen=True)
class Fix:
    """eta(t) = k."""

    k: float


@dataclass(frozen=True)
class Step:
    """eta(t) = k * gamma^floor(t / l)."""

    k: float
    gamma: float
    l: int = 1


@dataclass(frozen=True)
class NStep:
    """eta(t) = k * gamma^i where i = number of milestones <= t."""

    k: float
    gamma: float
    milestones: tuple[int, ...]


@dataclass(frozen=True)
class Exp:
    """eta(t) = k * gamma^(t / l), real-valued exponent."""

    k: float
    gamma: float
    l: int = 1


@dataclass(frozen=True)
class Poly:
    """eta(t) = k * (1 - t / t_max)^p, defined for t <= t_max."""

    k: float
    p: float
    t_max: int


@dataclass(frozen=True)
class CosineDecay:
    """eta(t) = k_min + 0.5 * (k - k_min) * (1 + cos(pi * t / t_max))."""

    k: float
    t_max: int
    k_min: float = 0.0


@dataclass(frozen=True)
class LinearDecay:
    """eta(t) = k - (k - k_min) * t / t_max."""

    k: float
    t_max: int
    k_min: float = 0.0


# --- cyclic families ---
#
# Triangular variants share one carrier:
#   cycle(t) = floor(1 + t / (2l))
#   x(t)     = |t / l - 2 * cycle(t) + 1|
#   shape(t) = max(0, 1 - x(t))
# so eta ramps k0 -> k1 -> k0 over each 2l-iteration cycle.


@dataclass(frozen=True)
class Tri:
    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class Tri2:
    """Triangular with the amplitude halved each cycle: * 1/2^(cycle-1)."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class TriExp:
    """Triangular with exponentially damped amplitude: * gamma^t."""

    k0: float
    k1: float
    l: int
    gamma: float


@dataclass(frozen=True)
class Sin:
    """eta(t) = k0 + (k1 - k0) * |sin(pi * t / (2l))|."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class Sin2:
    """Sinusoidal with the amplitude halved each cycle, as Tri2."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class SinExp:
    """Sinusoidal with exponentially damped amplitude: * gamma^t."""

    k0: float
    k1: float
    l: int
    gamma: float


# --- structural families ---


@dataclass(frozen=True)
class Warmup:
    """Linear ramp from 0 to inner(0) over w iterations, then inner shifted.

    eta(t) = (t / w) * eta_inner(0)   for t < w
    eta(t) = eta_inner(t - w)         otherwise

    w < 1 is read as a fraction of the inner policy's horizon (floored to an
    iteration count); w >= 1 is an absolute iteration count.
    """

    w: float
    inner: "Policy"


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    policy: "Policy"


@dataclass(frozen=True)
class Composite:
    """Contiguous segments, each evaluated at its local t (t - start)."""

    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class Scaled:
    """eta(t) = lam * eta_base(t), exactly that product."""

    lam: float
    base: "Policy"


Policy = Union[
    Fix, Step, NStep, Exp, Poly, CosineDecay, LinearDecay,
    Tri, Tri2, TriExp, Sin, Sin2, SinExp,
    Warmup, Composite, Scaled,
]

_CYCLIC = (Tri, Tri2, TriExp, Sin, Sin2, SinExp)


# --- validation ---


def _need(cond: bool, msg: str):
    if not cond:
        raise PolicyError(msg)


def _finite(name: str, value) -> float:
    _need(isinstance(value, (int, float)) and not isinstance(value, bool),
          f"{name} must be a number, got {value!r}")
    _need(math.isfinite(value), f"{name} must be finite, got {value!r}")
    return float(value)


def _nonneg(name: str, value) -> float:
    v = _finite(name, value)
    _need(v >= 0, f"{name} must be >= 0, got {value!r}")
    return v


def _posint(name: str, value) -> int:
    _need(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
          f"{name} must be an integer >= 1, got {value!r}")
    return value


def _gamma(name: str, value) -> float:
    v = _finite(name, value)
    _need(0 < v <= 1, f"{name} must be in (0, 1], got {value!r}")
    return v


def validate(policy: Policy):
    """Check parameter invariants, raising PolicyError naming the bad field."""
    if isinstance(policy, Fix):
        _nonneg("k", policy.k)
    elif isinstance(policy, Step):
        _nonneg("k", policy.k)
        _gamma("gamma", policy.gamma)
        _posint("l", policy.l)
    elif isinstance(policy, NStep):
        _nonneg("k", policy.k)
        _gamma("gamma", policy.gamma)
        _need(isinstance(policy.milestones, tuple), "milestones must be a tuple")
        prev = -1
        for m in policy.milestones:
            _need(isinstance(m, int) and not isinstance(m, bool) and m >= 0,
                  f"milestones must be non-negative integers, got {m!r}")
            _need(m > prev, f"milestones must be strictly increasing, got {m!r}")
            prev = m
    elif isinstance(policy, Exp):
        _nonneg("k", policy.k)
        _gamma("gamma", policy.gamma)
        _posint("l", policy.l)
    elif isinstance(policy, Poly):
        _nonneg("k", policy.k)
        p = _finite("p", policy.p)
        _need(p > 0, f"p must be > 0, got {policy.p!r}")
        _posint("t_max", policy.t_max)
    elif isinstance(policy, (CosineDecay, LinearDecay)):
        k = _nonneg("k", policy.k)
        k_min = _nonneg("k_min", policy.k_min)
        _need(k_min <= k, f"k_min ({policy.k_min!r}) must not exceed k ({policy.k!r})")
        _posint("t_max", policy.t_max)
    elif isinstance(policy, _CYCLIC):
        k0 = _nonneg("k0", policy.k0)
        k1 = _nonneg("k1", policy.k1)
        _need(k0 <= k1, f"k1 < k0 ({policy.k1!r} < {policy.k0!r})")
        _posint("l", policy.l)
        if isinstance(policy, (TriExp, SinExp)):
            _gamma("gamma", policy.gamma)
    elif isinstance(policy, Warmup):
        w = _nonneg("w", policy.w)
        if w >= 1:
            _need(w == int(w), f"w must be an integer when >= 1, got {policy.w!r}")
        elif w > 0:
            _need(_horizon(policy.inner) is not None,
                  f"w given as a fraction ({policy.w!r}) requires a horizon-bound inner policy")
        validate(policy.inner)
    elif isinstance(policy, Composite):
        _need(isinstance(policy.segments, tuple) and len(policy.segments) > 0,
              "segments must be a non-empty tuple")
        prev_end = 0
        for i, seg in enumerate(policy.segments):
            _need(isinstance(seg, Segment), f"segments[{i}] must be a Segment")
            _need(isinstance(seg.start, int) and isinstance(seg.end, int),
                  f"segments[{i}] start/end must be integers")
            if i == 0:
                _need(seg.start == 0,
                      f"segments must start at iteration 0, got {seg.start}")
            else:
                _need(seg.start <= prev_end, f"segments gap at iteration {prev_end}")
                _need(seg.start >= prev_end, f"segments overlap at iteration {seg.start}")
            _need(seg.end > seg.start,
                  f"segments[{i}] end ({seg.end}) must exceed start ({seg.start})")
            validate(seg.policy)
            prev_end = seg.end
    elif isinstance(policy, Scaled):
        lam = _finite("lam", policy.lam)
        _need(lam > 0, f"lam must be > 0, got {policy.lam!r}")
        validate(policy.base)
    else:
        from . import adaptive

        if isinstance(policy, (adaptive.ReduceOnPlateau, adaptive.ChangeOnPlateau)):
            adaptive.validate_plateau(policy)
        else:
            raise PolicyError(f"unknown policy type {type(policy).__name__}")


def _warmup_iters(p: Warmup) -> int:
    if p.w >= 1:
        return int(p.w)
    if p.w == 0:
        return 0
    return int(p.w * _horizon(p.inner))


def _horizon(policy: Policy):
    """Largest valid t for horizon-bound policies, None for unbounded ones."""
    if isinstance(policy, (Poly, CosineDecay, LinearDecay)):
        return policy.t_max
    if isinstance(policy, Warmup):
        inner = _horizon(policy.inner)
        return None if inner is None else _warmup_iters(policy) + inner
    if isinstance(policy, Composite):
        return policy.segments[-1].end - 1
    if isinstance(policy, Scaled):
        return _horizon(policy.base)
    return None


def horizon(policy: Policy):
    """Public horizon query; validates first."""
    validate(policy)
    return _horizon(policy)


def _horizon_field(policy: Policy) -> str:
    while isinstance(policy, Scaled):
        policy = policy.base
    if isinstance(policy, Warmup):
        return "WARMUP horizon (w plus the inner policy's horizon)"
    if isinstance(policy, Composite):
        return "MULTI segments"
    return f"{family_name(policy)} t_max"


def compile(policy: Policy, steps: int):
    """Validate once and return eta(t) as a function of t, for 0 <= t < steps.

    A horizon-bound policy that ends before t = steps - 1 raises PolicyError
    here, naming the field, so a run fails before its first step instead of
    at the first step past the horizon.
    """
    validate(policy)
    end = _horizon(policy)
    if end is not None and end < steps - 1:
        raise PolicyError(f"{_horizon_field(policy)} ends at t={end}, shorter than "
                          f"the {steps}-step budget (last step t={steps - 1})")
    return partial(_eval, policy)


# --- evaluation ---


def _tri_carrier(t: int, l: int) -> tuple[int, float]:
    cycle = math.floor(1 + t / (2 * l))
    x = abs(t / l - 2 * cycle + 1)
    return cycle, max(0.0, 1.0 - x)


def _check_horizon(t: int, t_max: int, family: str):
    if t > t_max:
        raise PolicyError(f"t ({t}) exceeds t_max ({t_max}) for {family}")


def _eval(p: Policy, t: int) -> float:
    if isinstance(p, Fix):
        return p.k
    if isinstance(p, Step):
        return p.k * p.gamma ** (t // p.l)
    if isinstance(p, NStep):
        return p.k * p.gamma ** bisect_right(p.milestones, t)
    if isinstance(p, Exp):
        return p.k * p.gamma ** (t / p.l)
    if isinstance(p, Poly):
        _check_horizon(t, p.t_max, "POLY")
        return p.k * (1 - t / p.t_max) ** p.p
    if isinstance(p, Tri):
        _, shape = _tri_carrier(t, p.l)
        return p.k0 + (p.k1 - p.k0) * shape
    if isinstance(p, Tri2):
        cycle, shape = _tri_carrier(t, p.l)
        return p.k0 + (p.k1 - p.k0) * shape * 0.5 ** (cycle - 1)
    if isinstance(p, TriExp):
        _, shape = _tri_carrier(t, p.l)
        return p.k0 + (p.k1 - p.k0) * shape * p.gamma ** t
    if isinstance(p, Sin):
        return p.k0 + (p.k1 - p.k0) * abs(math.sin(math.pi * t / (2 * p.l)))
    if isinstance(p, Sin2):
        cycle = math.floor(1 + t / (2 * p.l))
        s = abs(math.sin(math.pi * t / (2 * p.l)))
        return p.k0 + (p.k1 - p.k0) * s * 0.5 ** (cycle - 1)
    if isinstance(p, SinExp):
        s = abs(math.sin(math.pi * t / (2 * p.l)))
        return p.k0 + (p.k1 - p.k0) * s * p.gamma ** t
    if isinstance(p, CosineDecay):
        _check_horizon(t, p.t_max, "COSINE")
        return p.k_min + 0.5 * (p.k - p.k_min) * (1 + math.cos(math.pi * t / p.t_max))
    if isinstance(p, LinearDecay):
        _check_horizon(t, p.t_max, "LINEAR")
        return p.k - (p.k - p.k_min) * (t / p.t_max)
    if isinstance(p, Warmup):
        w = _warmup_iters(p)
        if t < w:
            return (t / w) * _eval(p.inner, 0)
        return _eval(p.inner, t - w)
    if isinstance(p, Composite):
        segs = p.segments
        if t >= segs[-1].end:
            raise PolicyError(
                f"t ({t}) is past the composite horizon (last segment ends at {segs[-1].end})")
        lo, hi = 0, len(segs) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if segs[mid].start <= t:
                lo = mid
            else:
                hi = mid - 1
        seg = segs[lo]
        return _eval(seg.policy, t - seg.start)
    if isinstance(p, Scaled):
        return p.lam * _eval(p.base, t)
    raise PolicyError(
        f"{type(p).__name__} has no closed form over t; drive it through a trainer")


def lr_at(policy: Policy, t: int) -> float:
    """Evaluate eta(t) for a validated policy at integer iteration t >= 0."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise PolicyError(f"t must be an integer >= 0, got {t!r}")
    validate(policy)
    return _eval(policy, t)


def sample_trace(policy: Policy, t_max: int, stride: int = 1) -> list[tuple[int, float]]:
    """Sample eta at t = 0, stride, 2*stride, ..., ending exactly at t_max.

    Returns ceil(t_max / stride) + 1 points; the last point is clamped to
    t_max so horizon-bound policies stay in range.
    """
    if not isinstance(t_max, int) or t_max < 0:
        raise PolicyError(f"t_max must be an integer >= 0, got {t_max!r}")
    if not isinstance(stride, int) or stride < 1:
        raise PolicyError(f"stride must be an integer >= 1, got {stride!r}")
    validate(policy)
    n = math.ceil(t_max / stride)
    return [(min(i * stride, t_max), _eval(policy, min(i * stride, t_max)))
            for i in range(n + 1)]


def trace_to_csv(points: list[tuple[int, float]]) -> str:
    lines = ["iteration,lr"]
    lines.extend(f"{t},{lr!r}" for t, lr in points)
    return "\n".join(lines) + "\n"


# --- JSON wire format ---
#
# Scaled policies serialize as the base family plus a top-level "lambda" key.
# Nested scalings flatten to a single product on serialization.

_SIMPLE_FIELDS = {
    Fix: ("FIX", ("k",)),
    Step: ("STEP", ("k", "gamma", "l")),
    Exp: ("EXP", ("k", "gamma", "l")),
    Poly: ("POLY", ("k", "p", "t_max")),
    CosineDecay: ("COSINE", ("k", "t_max", "k_min")),
    LinearDecay: ("LINEAR", ("k", "t_max", "k_min")),
    Tri: ("TRI", ("k0", "k1", "l")),
    Tri2: ("TRI2", ("k0", "k1", "l")),
    TriExp: ("TRIEXP", ("k0", "k1", "l", "gamma")),
    Sin: ("SIN", ("k0", "k1", "l")),
    Sin2: ("SIN2", ("k0", "k1", "l")),
    SinExp: ("SINEXP", ("k0", "k1", "l", "gamma")),
}

_FAMILY_TO_TYPE = {name: cls for cls, (name, _) in _SIMPLE_FIELDS.items()}


def family_name(policy: Policy) -> str:
    if isinstance(policy, Scaled):
        return family_name(policy.base)
    if type(policy) in _SIMPLE_FIELDS:
        return _SIMPLE_FIELDS[type(policy)][0]
    if isinstance(policy, NStep):
        return "NSTEP"
    if isinstance(policy, Warmup):
        return "WARMUP"
    if isinstance(policy, Composite):
        return "MULTI"
    from . import adaptive

    if isinstance(policy, adaptive.ReduceOnPlateau):
        return "PLATEAU_REDUCE"
    if isinstance(policy, adaptive.ChangeOnPlateau):
        return "PLATEAU_CHANGE"
    raise PolicyError(f"unknown policy type {type(policy).__name__}")


def policy_to_dict(policy) -> dict:
    """Serialize a policy to the {"family", "params"} wire dict."""
    if isinstance(policy, Scaled):
        lam = policy.lam
        base = policy.base
        while isinstance(base, Scaled):
            lam *= base.lam
            base = base.base
        d = policy_to_dict(base)
        d["lambda"] = lam
        return d
    cls = type(policy)
    if cls in _SIMPLE_FIELDS:
        name, fields = _SIMPLE_FIELDS[cls]
        return {"family": name, "params": {f: getattr(policy, f) for f in fields}}
    if isinstance(policy, NStep):
        return {"family": "NSTEP",
                "params": {"k": policy.k, "gamma": policy.gamma,
                           "milestones": list(policy.milestones)}}
    if isinstance(policy, Warmup):
        return {"family": "WARMUP",
                "params": {"w": policy.w, "inner": policy_to_dict(policy.inner)}}
    if isinstance(policy, Composite):
        return {"family": "MULTI",
                "params": {"segments": [
                    {"start": s.start, "end": s.end, "policy": policy_to_dict(s.policy)}
                    for s in policy.segments]}}
    from . import adaptive

    if isinstance(policy, (adaptive.ReduceOnPlateau, adaptive.ChangeOnPlateau)):
        return adaptive.plateau_to_dict(policy)
    raise PolicyError(f"cannot serialize {type(policy).__name__}")


def _params(d: dict) -> dict:
    _need(isinstance(d, dict), f"policy must be a JSON object, got {d!r}")
    _need("family" in d, "policy is missing the 'family' key")
    params = d.get("params", {})
    _need(isinstance(params, dict), "'params' must be a JSON object")
    return params


def _take(params: dict, family: str, required: tuple, optional: dict) -> dict:
    kwargs = {}
    for key in required:
        _need(key in params, f"{family} is missing required param '{key}'")
        kwargs[key] = params[key]
    for key, default in optional.items():
        kwargs[key] = params.get(key, default)
    extra = set(params) - set(required) - set(optional)
    _need(not extra, f"{family} got unknown params {sorted(extra)}")
    return kwargs


def _as_int(family: str, key: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _need(isinstance(value, int) and not isinstance(value, bool),
          f"{family} param '{key}' must be an integer, got {value!r}")
    return value


def policy_from_dict(d: dict):
    """Parse the {"family", "params"} wire dict back into a policy."""
    params = _params(d)
    family = d["family"]
    lam = d.get("lambda")

    if family == "FIX":
        policy = Fix(**_take(params, family, ("k",), {}))
    elif family == "STEP":
        kw = _take(params, family, ("k", "gamma"), {"l": 1})
        kw["l"] = _as_int(family, "l", kw["l"])
        policy = Step(**kw)
    elif family == "NSTEP":
        kw = _take(params, family, ("k", "gamma", "milestones"), {})
        ms = kw["milestones"]
        _need(isinstance(ms, (list, tuple)), f"{family} param 'milestones' must be a list")
        kw["milestones"] = tuple(_as_int(family, "milestones", m) for m in ms)
        policy = NStep(**kw)
    elif family == "EXP":
        kw = _take(params, family, ("k", "gamma"), {"l": 1})
        kw["l"] = _as_int(family, "l", kw["l"])
        policy = Exp(**kw)
    elif family == "POLY":
        kw = _take(params, family, ("k", "p", "t_max"), {})
        kw["t_max"] = _as_int(family, "t_max", kw["t_max"])
        policy = Poly(**kw)
    elif family in ("COSINE", "LINEAR"):
        kw = _take(params, family, ("k", "t_max"), {"k_min": 0.0})
        kw["t_max"] = _as_int(family, "t_max", kw["t_max"])
        policy = (CosineDecay if family == "COSINE" else LinearDecay)(**kw)
    elif family in ("TRI", "TRI2", "SIN", "SIN2"):
        kw = _take(params, family, ("k0", "k1", "l"), {})
        kw["l"] = _as_int(family, "l", kw["l"])
        cls = {"TRI": Tri, "TRI2": Tri2, "SIN": Sin, "SIN2": Sin2}[family]
        policy = cls(**kw)
    elif family in ("TRIEXP", "SINEXP"):
        kw = _take(params, family, ("k0", "k1", "l", "gamma"), {})
        kw["l"] = _as_int(family, "l", kw["l"])
        policy = (TriExp if family == "TRIEXP" else SinExp)(**kw)
    elif family == "WARMUP":
        # 'inner' is a nested policy; 'k' alone is shorthand for ramp-then-hold
        _need("w" in params, "WARMUP is missing required param 'w'")
        has_inner = "inner" in params
        has_k = "k" in params
        _need(has_inner != has_k, "WARMUP needs exactly one of 'inner' or 'k'")
        extra = set(params) - {"w", "inner", "k"}
        _need(not extra, f"WARMUP got unknown params {sorted(extra)}")
        inner = policy_from_dict(params["inner"]) if has_inner else Fix(k=params["k"])
        policy = Warmup(w=params["w"], inner=inner)
    elif family == "MULTI":
        kw = _take(params, family, ("segments",), {})
        segs = kw["segments"]
        _need(isinstance(segs, list) and segs, "MULTI param 'segments' must be a non-empty list")
        built = []
        for s in segs:
            _need(isinstance(s, dict) and {"start", "end", "policy"} <= set(s),
                  "each MULTI segment needs 'start', 'end', and 'policy'")
            built.append(Segment(start=_as_int(family, "start", s["start"]),
                                 end=_as_int(family, "end", s["end"]),
                                 policy=policy_from_dict(s["policy"])))
        policy = Composite(segments=tuple(built))
    elif family in ("PLATEAU_REDUCE", "PLATEAU_CHANGE"):
        from . import adaptive

        _need(lam is None, "lambda scaling does not apply to metric-driven policies")
        policy = adaptive.plateau_from_dict(d)
    else:
        raise PolicyError(f"unknown family {family!r}")

    if lam is not None:
        policy = Scaled(lam=lam, base=policy)
    validate(policy)
    return policy


def policy_to_json(policy, **dumps_kwargs) -> str:
    return json.dumps(policy_to_dict(policy), **dumps_kwargs)


def policy_from_json(text: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise PolicyError(f"invalid policy JSON: {e}") from None
    return policy_from_dict(d)


def canonical_policy_key(policy) -> str:
    """Deterministic serialized form, used for tie-breaks and store keys."""
    return json.dumps(policy_to_dict(policy), sort_keys=True, separators=(",", ":"))
