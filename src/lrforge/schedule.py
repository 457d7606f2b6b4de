"""Learning rate policy families: one table row per family.

A policy describes one learning rate curve eta(t) over the iteration index
t >= 0. Every family is a frozen dataclass with one `Family` row in
`FAMILIES`, which holds its wire name, integer and nested-policy fields,
parameter check, horizon rule and closed form. `validate`, `horizon`,
`lr_at`, `compile`, `sample_trace`, `family_name` and the JSON wire format

    {"family": "<NAME>", "params": {...}}

are generic code over that table. A `Scaled` policy has no wire name of its
own: it is its base's dict plus a top-level "lambda" key.

Every policy runs `validate` when it is built, so a policy object that
exists is valid, and the queries over t only look up its row.

The metric-driven families PLATEAU_REDUCE and PLATEAU_CHANGE have rows but
no closed form: their LR depends on observed metrics, so `adaptive` steps
them, every closed-form query rejects them, and no other policy may hold
one. Evaluation of the closed forms is pure: no policy carries state, and
the same (policy, t) pair always yields the same float.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable, Optional, Union


class PolicyError(ValueError):
    """Invalid policy parameters, malformed policy JSON, or out-of-range t."""


class _Checked:
    """Base of every family: a policy checks its row's rules when it is built."""

    def __post_init__(self):
        validate(self)


# --- fixed and decaying families ---


@dataclass(frozen=True)
class Fix(_Checked):
    """eta(t) = k."""

    k: float


@dataclass(frozen=True)
class Step(_Checked):
    """eta(t) = k * gamma^floor(t / l)."""

    k: float
    gamma: float
    l: int = 1


@dataclass(frozen=True)
class NStep(_Checked):
    """eta(t) = k * gamma^i where i = number of milestones <= t."""

    k: float
    gamma: float
    milestones: tuple[int, ...]


@dataclass(frozen=True)
class Exp(_Checked):
    """eta(t) = k * gamma^(t / l), real-valued exponent."""

    k: float
    gamma: float
    l: int = 1


@dataclass(frozen=True)
class Poly(_Checked):
    """eta(t) = k * (1 - t / t_max)^p, defined for t <= t_max."""

    k: float
    p: float
    t_max: int


@dataclass(frozen=True)
class CosineDecay(_Checked):
    """eta(t) = k_min + 0.5 * (k - k_min) * (1 + cos(pi * t / t_max))."""

    k: float
    t_max: int
    k_min: float = 0.0


@dataclass(frozen=True)
class LinearDecay(_Checked):
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
class Tri(_Checked):
    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class Tri2(_Checked):
    """Triangular with the amplitude halved each cycle: * 1/2^(cycle-1)."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class TriExp(_Checked):
    """Triangular with exponentially damped amplitude: * gamma^t."""

    k0: float
    k1: float
    l: int
    gamma: float


@dataclass(frozen=True)
class Sin(_Checked):
    """eta(t) = k0 + (k1 - k0) * |sin(pi * t / (2l))|."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class Sin2(_Checked):
    """Sinusoidal with the amplitude halved each cycle, as Tri2."""

    k0: float
    k1: float
    l: int


@dataclass(frozen=True)
class SinExp(_Checked):
    """Sinusoidal with exponentially damped amplitude: * gamma^t."""

    k0: float
    k1: float
    l: int
    gamma: float


# --- structural families ---


@dataclass(frozen=True)
class Warmup(_Checked):
    """Linear ramp from 0 to inner(0) over w iterations, then inner shifted.

    eta(t) = (t / w) * eta_inner(0)   for t < w
    eta(t) = eta_inner(t - w)         otherwise

    w < 1 is read as a fraction of the inner policy's horizon (floored to an
    iteration count); w >= 1 is an absolute iteration count.
    """

    w: float
    inner: "Policy"

    @cached_property
    def _iters(self) -> int:
        """w as an iteration count; a fraction is resolved once per object."""
        if self.w >= 1 or self.w == 0:
            return int(self.w)
        return int(self.w * _horizon(self.inner))


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    policy: "Policy"


@dataclass(frozen=True)
class Composite(_Checked):
    """Contiguous segments, each evaluated at its local t (t - start)."""

    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class Scaled(_Checked):
    """eta(t) = lam * eta_base(t), exactly that product."""

    lam: float
    base: "Policy"


Policy = Union[
    Fix, Step, NStep, Exp, Poly, CosineDecay, LinearDecay,
    Tri, Tri2, TriExp, Sin, Sin2, SinExp,
    Warmup, Composite, Scaled,
]


# --- metric-driven families (their state machine is in `adaptive`) ---

_MODES = ("min", "max")
_MONITORS = ("train_loss", "test_accuracy")


@dataclass(frozen=True)
class ReduceOnPlateau(_Checked):
    """Hold the LR at k, multiply by factor on each plateau, floor at min_lr."""

    k: float
    factor: float
    patience: int
    monitor: str = "test_accuracy"
    mode: str = "max"
    min_delta: float = 0.0
    cooldown: int = 0
    min_lr: float = 0.0


@dataclass(frozen=True)
class ChangeOnPlateau(_Checked):
    """Walk an ordered policy list, advancing one policy per plateau.

    The active policy is evaluated at a local t that restarts at 0 on each
    switch. Past the end of the list the final policy is held.
    """

    policies: tuple[Policy, ...]
    patience: int
    monitor: str = "test_accuracy"
    mode: str = "max"
    min_delta: float = 0.0
    cooldown: int = 0


# --- field checks: check(name, value) raises PolicyError naming the field ---


def _need(cond: bool, msg: str):
    if not cond:
        raise PolicyError(msg)


def _finite(name: str, value) -> float:
    _need(isinstance(value, (int, float)) and not isinstance(value, bool),
          f"{name} must be a number, got {value!r}")
    # false for nan and inf, and for an int past the float range
    _need(abs(value) <= sys.float_info.max, f"{name} must be finite, got {value!r}")
    return float(value)


def _nonneg(name: str, value):
    _need(_finite(name, value) >= 0, f"{name} must be >= 0, got {value!r}")


def _positive(name: str, value):
    _need(_finite(name, value) > 0, f"{name} must be > 0, got {value!r}")


def _gamma(name: str, value):
    _need(0 < _finite(name, value) <= 1, f"{name} must be in (0, 1], got {value!r}")


def _fraction(name: str, value):
    _need(0 < _finite(name, value) < 1, f"{name} must be in (0, 1), got {value!r}")


def _posint(name: str, value, low: int = 1):
    _need(isinstance(value, int) and not isinstance(value, bool) and value >= low,
          f"{name} must be an integer >= {low}, got {value!r}")


_count = partial(_posint, low=0)


def _one_of(choices: tuple):
    def check(name: str, value):
        _need(value in choices, f"{name} must be one of {choices}, got {value!r}")
    return check


def _milestones(name: str, value):
    _need(isinstance(value, tuple), f"{name} must be a tuple")
    prev = -1
    for m in value:
        _need(isinstance(m, int) and not isinstance(m, bool) and m >= 0,
              f"{name} must be non-negative integers, got {m!r}")
        _need(m > prev, f"{name} must be strictly increasing, got {m!r}")
        prev = m


def _closed(name: str, policy):
    """A policy held by another (checked when it was built): one with a closed form."""
    _need(_row(policy).closed_form is not None,
          f"{family_name(policy)} has no closed form over t; lambda scaling or nesting "
          f"in another policy does not apply to metric-driven policies")


def _closed_each(name: str, policies):
    _need(isinstance(policies, tuple) and len(policies) > 0, f"{name} must be a non-empty tuple")
    for policy in policies:
        _closed(name, policy)


def _segments(name: str, segments):
    _need(isinstance(segments, tuple) and len(segments) > 0, f"{name} must be a non-empty tuple")
    prev_end = 0
    for i, seg in enumerate(segments):
        _need(isinstance(seg, Segment), f"segments[{i}] must be a Segment")
        _need(isinstance(seg.start, int) and isinstance(seg.end, int),
              f"segments[{i}] start/end must be integers")
        if i == 0:
            _need(seg.start == 0, f"segments must start at iteration 0, got {seg.start}")
        else:
            _need(seg.start <= prev_end, f"segments gap at iteration {prev_end}")
            _need(seg.start >= prev_end, f"segments overlap at iteration {seg.start}")
        _need(seg.end > seg.start,
              f"segments[{i}] end ({seg.end}) must exceed start ({seg.start})")
        _closed(name, seg.policy)
        require_horizon(seg.policy, seg.end - seg.start,
                        f"segments[{i}] [{seg.start}, {seg.end}): ")
        prev_end = seg.end


# --- rules across fields, run after the field checks ---


def _k_min_at_most_k(p: CosineDecay | LinearDecay):
    _need(p.k_min <= p.k, f"k_min ({p.k_min!r}) must not exceed k ({p.k!r})")


def _k0_at_most_k1(p):
    _need(p.k0 <= p.k1, f"k1 < k0 ({p.k1!r} < {p.k0!r})")


def _warmup_rule(p: Warmup):
    if p.w >= 1:
        _need(p.w == int(p.w), f"w must be an integer when >= 1, got {p.w!r}")
    elif p.w > 0:
        _need(_horizon(p.inner) is not None,
              f"w given as a fraction ({p.w!r}) requires a horizon-bound inner policy")


# --- horizon rules: the largest valid t, None when unbounded ---


_t_max = attrgetter("t_max")


def _warmup_horizon(p: Warmup):
    inner = _horizon(p.inner)
    return None if inner is None else p._iters + inner


# --- pieces of the closed forms ---


def _upto(p, t: int) -> int:
    """t, once checked against the t_max of a horizon-bound policy p."""
    if t > p.t_max:
        raise PolicyError(f"t ({t}) exceeds t_max ({p.t_max}) for {_ROWS[type(p)].name}")
    return t


def _tri_carrier(t: int, l: int) -> tuple[int, float]:
    cycle = math.floor(1 + t / (2 * l))
    x = abs(t / l - 2 * cycle + 1)
    return cycle, max(0.0, 1.0 - x)


def _sin_carrier(t: int, l: int) -> tuple[int, float]:
    return math.floor(1 + t / (2 * l)), abs(math.sin(math.pi * t / (2 * l)))


def _halved(p, cycle: int, shape: float) -> float:
    return p.k0 + (p.k1 - p.k0) * shape * 0.5 ** (cycle - 1)


def _warmup(p: Warmup, t: int) -> float:
    w = p._iters
    if t < w:
        return (t / w) * _eval(p.inner, 0)
    return _eval(p.inner, t - w)


_start = attrgetter("start")


def _composite(p: Composite, t: int) -> float:
    segs = p.segments
    if t >= segs[-1].end:
        raise PolicyError(
            f"t ({t}) is past the composite horizon (last segment ends at {segs[-1].end})")
    seg = segs[bisect_right(segs, t, key=_start) - 1]
    return _eval(seg.policy, t - seg.start)


# --- generic queries over the table ---


def _row(policy) -> "Family":
    row = _ROWS.get(type(policy))
    if row is None:
        raise PolicyError(f"unknown policy type {type(policy).__name__}")
    return row


def _eval(p: Policy, t: int) -> float:
    """eta(t) of a policy held by another, so it has a closed form."""
    return _ROWS[type(p)].closed_form(p, t)


def _horizon(policy: Policy):
    return _row(policy).horizon(policy)


def require_horizon(policy, steps: int, where: str = ""):
    """Raise PolicyError, prefixed by where, unless policy covers t = 0 .. steps - 1."""
    end = _horizon(policy)
    if end is not None and end < steps - 1:
        base = _row(split_lambda(policy)[0])
        raise PolicyError(f"{where}{base.name} {base.horizon_by} ends at t={end}, shorter "
                          f"than a {steps}-step run (last step t={steps - 1})")


def _closed_form(policy):
    form = _row(policy).closed_form
    if form is None:
        raise PolicyError(f"{family_name(policy)} has no closed form over t; "
                          f"drive it through a trainer")
    return form


def split_lambda(policy) -> tuple:
    """(base, lam): the policy under any Scaled layers, and their factors' product.

    The product runs outermost first; lam is 1.0 for an unscaled policy.
    """
    if type(policy) is not Scaled:
        return policy, 1.0
    lam, base = policy.lam, policy.base
    while type(base) is Scaled:
        lam *= base.lam
        base = base.base
    return base, lam


def family_name(policy) -> str:
    """Wire name of the policy's family; a Scaled policy has its base's name."""
    return _row(split_lambda(policy)[0]).name


def validate(policy):
    """Check parameter invariants, raising PolicyError naming the bad field.

    Every policy runs this once, when it is built. The policies it holds
    were checked when they were built, so of them this checks only that
    each has a closed form.
    """
    row = _row(policy)
    for name, check in row.checks.items():
        check(name, getattr(policy, name))
    if row.rule is not None:
        row.rule(policy)


# --- evaluation ---


def horizon(policy: Policy):
    """Largest valid t, None when unbounded."""
    return _horizon(policy)


def compile(policy: Policy, steps: int):
    """eta(t) as a function of t, for 0 <= t < steps.

    The function is the family's closed form bound to the policy. A
    metric-driven policy has none and raises PolicyError naming its family;
    so does a horizon-bound policy that ends before t = steps - 1, naming
    the field, so a run fails before its first step.
    """
    form = _closed_form(policy)
    require_horizon(policy, steps)
    return partial(form, policy)


def lr_at(policy: Policy, t: int) -> float:
    """Evaluate eta(t) for a policy at integer iteration t >= 0."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 0:
        raise PolicyError(f"t must be an integer >= 0, got {t!r}")
    return _closed_form(policy)(policy, t)


def sample_trace(policy: Policy, t_max: int, stride: int = 1) -> list[tuple[int, float]]:
    """Sample eta at t = 0, stride, 2*stride, ..., ending exactly at t_max.

    Returns ceil(t_max / stride) + 1 points; the last point is clamped to
    t_max so horizon-bound policies stay in range.
    """
    if not isinstance(t_max, int) or t_max < 0:
        raise PolicyError(f"t_max must be an integer >= 0, got {t_max!r}")
    if not isinstance(stride, int) or stride < 1:
        raise PolicyError(f"stride must be an integer >= 1, got {stride!r}")
    form = _closed_form(policy)
    n = math.ceil(t_max / stride)
    return [(min(i * stride, t_max), form(policy, min(i * stride, t_max)))
            for i in range(n + 1)]


def trace_to_csv(points: list[tuple[int, float]]) -> str:
    lines = ["iteration,lr"]
    lines.extend(f"{t},{lr!r}" for t, lr in points)
    return "\n".join(lines) + "\n"


# --- JSON wire format ---


def _wire(value):
    """A field value in wire form: policies as wire dicts, tuples as lists."""
    if isinstance(value, (int, float, str)):
        return value
    if type(value) in _ROWS:
        return policy_to_dict(value)
    if type(value) is Segment:
        return {"start": value.start, "end": value.end, "policy": policy_to_dict(value.policy)}
    if isinstance(value, (tuple, list)):
        return [_wire(v) for v in value]
    return value


def policy_to_dict(policy) -> dict:
    """Serialize a policy to the {"family", "params"} wire dict.

    A Scaled policy is its base's dict plus a top-level "lambda" key, with
    nested scalings flattened to one product (see `split_lambda`).
    """
    base, lam = split_lambda(policy)
    row = _row(base)
    d = {"family": row.name, "params": {f: _wire(getattr(base, f)) for f in row.checks}}
    if base is not policy:
        d["lambda"] = lam
    return d


def _as_int(family: str, key: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _need(isinstance(value, int) and not isinstance(value, bool),
          f"{family} param '{key}' must be an integer, got {value!r}")
    return value


def _segment_from_dict(family: str, key: str, s) -> Segment:
    _need(isinstance(s, dict) and {"start", "end", "policy"} <= set(s),
          "each MULTI segment needs 'start', 'end', and 'policy'")
    return Segment(start=_as_int(family, "start", s["start"]),
                   end=_as_int(family, "end", s["end"]),
                   policy=policy_from_dict(s["policy"]))


def _warmup_shorthand(params: dict) -> dict:
    """WARMUP takes 'inner', or 'k' alone as shorthand for a FIX inner policy."""
    _need(("inner" in params) != ("k" in params), "WARMUP needs exactly one of 'inner' or 'k'")
    if "k" not in params:
        return params
    params = dict(params)
    params["inner"] = {"family": "FIX", "params": {"k": params.pop("k")}}
    return params


def policy_from_dict(d: dict):
    """Parse the {"family", "params"} wire dict back into a policy, checked as built."""
    _need(isinstance(d, dict), f"policy must be a JSON object, got {d!r}")
    _need("family" in d, "policy is missing the 'family' key")
    params = d.get("params", {})
    _need(isinstance(params, dict), "'params' must be a JSON object")
    family = d["family"]
    row = _BY_NAME.get(family) if isinstance(family, str) else None
    _need(row is not None, f"unknown family {family!r}")
    if row.parse_hook is not None:
        params = row.parse_hook(params)
    for f in fields(row.cls):
        _need(f.name in params or f.default is not MISSING,
              f"{family} is missing required param '{f.name}'")
    extra = set(params) - set(row.checks)
    _need(not extra, f"{family} got unknown params {sorted(extra)}")
    kwargs = dict(params)
    for key, value in params.items():
        parse = _WIRE_PARSERS.get(row.checks[key])
        if parse is not None:
            kwargs[key] = (tuple(parse(family, key, v) for v in value)
                           if isinstance(value, (list, tuple)) else parse(family, key, value))
    policy = row.cls(**kwargs)
    if d.get("lambda") is not None:
        policy = Scaled(lam=d["lambda"], base=policy)
    return policy


def policy_to_json(policy, **dumps_kwargs) -> str:
    return json.dumps(policy_to_dict(policy), **dumps_kwargs)


def policy_from_json(text: str):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise PolicyError(f"invalid policy JSON: {e}") from None
    return policy_from_dict(d)


#: Canonical JSON text: sorted keys, no spaces. Store lines, store record
#: identities and tuner tie-breaks all go through this one encoder.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_policy_key(policy) -> str:
    """Deterministic serialized form, used for tie-breaks and store keys."""
    return canonical_json(policy_to_dict(policy))


# --- the family table ---


@dataclass(frozen=True)
class Family:
    """One policy family: all that the generic code above knows about it."""

    cls: type
    name: Optional[str]               # wire name; None for Scaled, which is its base + "lambda"
    checks: dict                      # every field, in dataclass order -> check(name, value)
    closed_form: Optional[Callable]   # (policy, t) -> eta(t); None when metric-driven
    horizon: Callable = lambda p: None  # horizon rule: policy -> largest valid t, or None
    horizon_by: str = "t_max"         # what sets that horizon, for error messages
    rule: Optional[Callable] = None   # check across fields, after the field checks
    parse_hook: Optional[Callable] = None  # rewrites wire params before they are read


# Integer fields take 2.0 for 2 on the wire; policy fields are nested wire
# dicts. A field's check says which it is.
_WIRE_PARSERS = {
    _posint: _as_int, _count: _as_int, _milestones: _as_int,
    _closed: lambda family, key, d: policy_from_dict(d),
    _closed_each: lambda family, key, d: policy_from_dict(d),
    _segments: _segment_from_dict,
}

_DECAY = {"k": _nonneg, "gamma": _gamma, "l": _posint}
_ANNEAL = {"k": _nonneg, "t_max": _posint, "k_min": _nonneg}
_CYCLIC = {"k0": _nonneg, "k1": _nonneg, "l": _posint}
_DAMPED = {**_CYCLIC, "gamma": _gamma}
_PLATEAU = {"patience": _posint, "monitor": _one_of(_MONITORS), "mode": _one_of(_MODES),
            "min_delta": _nonneg, "cooldown": _count}

FAMILIES = (
    Family(Fix, "FIX", {"k": _nonneg}, lambda p, t: p.k),
    Family(Step, "STEP", _DECAY, lambda p, t: p.k * p.gamma ** (t // p.l)),
    Family(NStep, "NSTEP", {"k": _nonneg, "gamma": _gamma, "milestones": _milestones},
           lambda p, t: p.k * p.gamma ** bisect_right(p.milestones, t)),
    Family(Exp, "EXP", _DECAY, lambda p, t: p.k * p.gamma ** (t / p.l)),
    Family(Poly, "POLY", {"k": _nonneg, "p": _positive, "t_max": _posint},
           lambda p, t: p.k * (1 - _upto(p, t) / p.t_max) ** p.p, _t_max),
    Family(CosineDecay, "COSINE", _ANNEAL,
           lambda p, t: p.k_min + 0.5 * (p.k - p.k_min) * (
               1 + math.cos(math.pi * _upto(p, t) / p.t_max)),
           _t_max, rule=_k_min_at_most_k),
    Family(LinearDecay, "LINEAR", _ANNEAL,
           lambda p, t: p.k - (p.k - p.k_min) * (_upto(p, t) / p.t_max),
           _t_max, rule=_k_min_at_most_k),
    Family(Tri, "TRI", _CYCLIC, lambda p, t: p.k0 + (p.k1 - p.k0) * _tri_carrier(t, p.l)[1],
           rule=_k0_at_most_k1),
    Family(Tri2, "TRI2", _CYCLIC, lambda p, t: _halved(p, *_tri_carrier(t, p.l)),
           rule=_k0_at_most_k1),
    Family(TriExp, "TRIEXP", _DAMPED,
           lambda p, t: p.k0 + (p.k1 - p.k0) * _tri_carrier(t, p.l)[1] * p.gamma ** t,
           rule=_k0_at_most_k1),
    Family(Sin, "SIN", _CYCLIC, lambda p, t: p.k0 + (p.k1 - p.k0) * _sin_carrier(t, p.l)[1],
           rule=_k0_at_most_k1),
    Family(Sin2, "SIN2", _CYCLIC, lambda p, t: _halved(p, *_sin_carrier(t, p.l)),
           rule=_k0_at_most_k1),
    Family(SinExp, "SINEXP", _DAMPED,
           lambda p, t: p.k0 + (p.k1 - p.k0) * _sin_carrier(t, p.l)[1] * p.gamma ** t,
           rule=_k0_at_most_k1),
    Family(Warmup, "WARMUP", {"w": _nonneg, "inner": _closed}, _warmup, _warmup_horizon,
           "horizon (w plus the inner policy's horizon)", _warmup_rule, _warmup_shorthand),
    Family(Composite, "MULTI", {"segments": _segments}, _composite,
           lambda p: p.segments[-1].end - 1, "segments"),
    Family(Scaled, None, {"lam": _positive, "base": _closed},
           lambda p, t: p.lam * _eval(p.base, t), lambda p: _horizon(p.base)),
    Family(ReduceOnPlateau, "PLATEAU_REDUCE",
           {"k": _positive, "factor": _fraction, **_PLATEAU, "min_lr": _nonneg}, None),
    Family(ChangeOnPlateau, "PLATEAU_CHANGE", {"policies": _closed_each, **_PLATEAU}, None),
)

_ROWS = {row.cls: row for row in FAMILIES}
_BY_NAME = {row.name: row for row in FAMILIES if row.name is not None}
