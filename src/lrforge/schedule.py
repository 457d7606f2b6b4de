"""Learning rate policy families: one table row per family.

A policy describes one learning rate curve eta(t) over the iteration index
t >= 0. Every family is a frozen dataclass whose fields each carry their
check (see `_field`); families with one field layout share a base that has
no row. Each family has one `Family` row in `FAMILIES`, which holds its
name, closed form, horizon, rule across fields and parse hook. `validate`,
`horizon`, `lr_at`, `compile`, `sample_trace`, `family_name` and the JSON
wire format

    {"family": "<NAME>", "params": {...}}

are generic code over that table. A `Scaled` policy has no wire name of its
own: it is its base's dict plus a top-level "lambda" key.

Every policy runs `validate` when it is built, so a policy object that
exists is valid, and the queries over t only look up its row.

Every check in lrforge that rejects a value reports through `need`: it
builds the message only on failure, and shows an int too long to print by
its bit length, so the message still names the field. No other module
formats a rejected value.

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
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable, Optional, Union


class PolicyError(ValueError):
    """Invalid policy parameters, malformed policy JSON, or out-of-range t."""


# --- the two scalar rules, and the field checks built on them ---
#
# Every scalar check in lrforge asks one of two questions. `finite`: is it a
# real number, a `number` (an int or float, never a bool) that a float holds,
# so not NaN, not infinite and no int past the float range? `count`: is it an
# int (never a bool) >= low? A field check check(name, value) raises
# PolicyError naming the field, through `need`; a real-valued check returns
# the value as a float. Each family's field names its check through `_field`.


def number(value) -> bool:
    """An int or float, never a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def finite(value) -> bool:
    """A number that a float holds. An exact float, the common case, skips
    `number`'s two isinstance tests: the type test alone admits it."""
    return (type(value) is float or number(value)) and abs(value) <= sys.float_info.max


def count(value, low: int = 0) -> bool:
    """An int, never a bool, that is >= low."""
    return type(value) is int and value >= low


class _Long(int):
    """An int as a message shows it: its repr, or its bit length past the digits
    that repr gives (see sys.set_int_max_str_digits)."""

    def __repr__(self):
        try:
            return int.__repr__(self)
        except ValueError:
            return f"{'a negative' if self < 0 else 'an'} int of {self.bit_length()} bits"


def _shown(value):
    """value as a message shows it: each int, in a tuple or list too, as a _Long."""
    if type(value) in (tuple, list):
        return type(value)(map(_shown, value))
    return _Long(value) if type(value) is int else value


def need(ok, fmt: str, *values, error: type = ValueError):
    """Raise error(fmt % values) unless ok, each value shown as `_shown` shows it.

    The one way lrforge rejects a value: the message is built only on failure,
    and an int too long to print still names its field.
    """
    if not ok:
        raise error(fmt % tuple(map(_shown, values)))


def need_count(name: str, value, low: int = 0, error: type = ValueError):
    """Raise error naming the field unless value is a count >= low."""
    need(count(value, low), "%s must be >= %r, got %r", name, low, value, error=error)


def _need(ok, fmt: str, *values):
    """`need` raising PolicyError; a check that passes costs one call."""
    if not ok:
        need(False, fmt, *values, error=PolicyError)


def _real(name: str, value) -> float:
    _need(number(value), "%s must be a number, got %r", name, value)
    _need(finite(value), "%s must be finite, got %r", name, value)
    return float(value)


def _nonneg(name: str, value):
    _need(_real(name, value) >= 0, "%s must be >= 0, got %r", name, value)


def _positive(name: str, value):
    _need(_real(name, value) > 0, "%s must be > 0, got %r", name, value)


def _gamma(name: str, value):
    _need(0 < _real(name, value) <= 1, "%s must be in (0, 1], got %r", name, value)


def _fraction(name: str, value):
    _need(0 < _real(name, value) < 1, "%s must be in (0, 1), got %r", name, value)


def _posint(name: str, value, low: int = 1):
    _need(count(value, low), "%s must be an integer >= %r, got %r", name, low, value)


_count = partial(_posint, low=0)


#: The largest t a policy is evaluated at: the largest integer a float holds
#: exactly. Past it a closed form can overflow (gamma ** t) or leave math's
#: domain (sin of a float that rounds to infinity).
_MAX_T = 2**53


def _iteration(name: str, value):
    _count(name, value)
    _need(value <= _MAX_T, "%s must be <= 2**53, got %r", name, value)


def _one_of(choices: tuple):
    def check(name: str, value):
        _need(value in choices, "%s must be one of %r, got %r", name, choices, value)
    return check


def _milestones(name: str, value):
    _need(isinstance(value, tuple), "%s must be a tuple", name)
    for prev, m in zip((-1, *value), value):
        _need(count(m), "%s must be non-negative integers, got %r", name, m)
        _need(m > prev, "%s must be strictly increasing, got %r", name, m)


def _closed(name: str, policy):
    """A policy held by another (checked when it was built): one with a closed form."""
    row = _row(policy)  # a metric-driven one, which fails, is never Scaled: row.name is its name
    _need(row.closed_form is not None, "%s has no closed form over t; lambda scaling or nesting "
          "in another policy does not apply to metric-driven policies", row.name)


def _closed_each(name: str, policies):
    _need(isinstance(policies, tuple) and len(policies) > 0, "%s must be a non-empty tuple", name)
    for policy in policies:
        _closed(name, policy)


def _segments(name: str, segments):
    _need(isinstance(segments, tuple) and len(segments) > 0, "%s must be a non-empty tuple", name)
    prev_end = 0
    for i, seg in enumerate(segments):
        _need(isinstance(seg, Segment), "segments[%r] must be a Segment", i)
        _need(type(seg.start) is type(seg.end) is int,  # count's type test: never a bool
              "segments[%r] start/end must be integers", i)
        if i == 0:
            _need(seg.start == 0, "segments must start at iteration 0, got %r", seg.start)
        else:
            _need(seg.start <= prev_end, "segments gap at iteration %r", prev_end)
            _need(seg.start >= prev_end, "segments overlap at iteration %r", seg.start)
        _need(seg.end > seg.start, "segments[%r] end (%r) must exceed start (%r)",
              i, seg.end, seg.start)
        _closed(name, seg.policy)
        require_horizon(seg.policy, seg.end - seg.start, "segments[%r] [%r, %r): ",
                        i, seg.start, seg.end)
        prev_end = seg.end


def _field(check: Callable, default=MISSING):
    """A policy field that carries its check(name, value), run when the policy is built."""
    return field(default=default, metadata={"check": check})


class _Checked:
    """Base of every family: a policy checks its row's rules when it is built."""

    def __post_init__(self):
        validate(self)


# --- fixed and decaying families ---


@dataclass(frozen=True)
class Fix(_Checked):
    """eta(t) = k."""

    k: float = _field(_nonneg)


@dataclass(frozen=True)
class _Decay(_Checked):
    """The fields of STEP and EXP; it has no row of its own."""

    k: float = _field(_nonneg)
    gamma: float = _field(_gamma)
    l: int = _field(_posint, 1)


@dataclass(frozen=True)
class Step(_Decay):
    """eta(t) = k * gamma^floor(t / l)."""


@dataclass(frozen=True)
class NStep(_Checked):
    """eta(t) = k * gamma^i where i = number of milestones <= t."""

    k: float = _field(_nonneg)
    gamma: float = _field(_gamma)
    milestones: tuple[int, ...] = _field(_milestones)


@dataclass(frozen=True)
class Exp(_Decay):
    """eta(t) = k * gamma^(t / l), real-valued exponent."""


@dataclass(frozen=True)
class Poly(_Checked):
    """eta(t) = k * (1 - t / t_max)^p, defined for t <= t_max."""

    k: float = _field(_nonneg)
    p: float = _field(_positive)
    t_max: int = _field(_posint)


@dataclass(frozen=True)
class _Anneal(_Checked):
    """The fields of COSINE and LINEAR; it has no row of its own."""

    k: float = _field(_nonneg)
    t_max: int = _field(_posint)
    k_min: float = _field(_nonneg, 0.0)


@dataclass(frozen=True)
class CosineDecay(_Anneal):
    """eta(t) = k_min + 0.5 * (k - k_min) * (1 + cos(pi * t / t_max))."""


@dataclass(frozen=True)
class LinearDecay(_Anneal):
    """eta(t) = k - (k - k_min) * t / t_max."""


# --- cyclic families ---
#
# Triangular variants share one carrier:
#   cycle(t) = floor(1 + t / (2l))
#   x(t)     = |t / l - 2 * cycle(t) + 1|
#   shape(t) = max(0, 1 - x(t))
# so eta ramps k0 -> k1 -> k0 over each 2l-iteration cycle.


@dataclass(frozen=True)
class _Cyclic(_Checked):
    """The fields of TRI, TRI2, SIN and SIN2; it has no row of its own."""

    k0: float = _field(_nonneg)
    k1: float = _field(_nonneg)
    l: int = _field(_posint)


@dataclass(frozen=True)
class _Damped(_Cyclic):
    """The fields of TRIEXP and SINEXP: a cycle's, and gamma; it has no row of its own."""

    gamma: float = _field(_gamma)


@dataclass(frozen=True)
class Tri(_Cyclic):
    """eta(t) = k0 + (k1 - k0) * shape(t)."""


@dataclass(frozen=True)
class Tri2(_Cyclic):
    """Triangular with the amplitude halved each cycle: * 1/2^(cycle-1)."""


@dataclass(frozen=True)
class TriExp(_Damped):
    """Triangular with exponentially damped amplitude: * gamma^t."""


@dataclass(frozen=True)
class Sin(_Cyclic):
    """eta(t) = k0 + (k1 - k0) * |sin(pi * t / (2l))|."""


@dataclass(frozen=True)
class Sin2(_Cyclic):
    """Sinusoidal with the amplitude halved each cycle, as Tri2."""


@dataclass(frozen=True)
class SinExp(_Damped):
    """Sinusoidal with exponentially damped amplitude: * gamma^t."""


# --- structural families ---


@dataclass(frozen=True)
class Warmup(_Checked):
    """Linear ramp from 0 to inner(0) over w iterations, then inner shifted.

    eta(t) = (t / w) * eta_inner(0)   for t < w
    eta(t) = eta_inner(t - w)         otherwise

    w < 1 is read as a fraction of the inner policy's horizon (floored to an
    iteration count); w >= 1 is an absolute iteration count.
    """

    w: float = _field(_nonneg)
    inner: "Policy" = _field(_closed)

    @cached_property
    def _iters(self) -> int:
        """w as an iteration count; a fraction is resolved once per object."""
        if self.w >= 1 or self.w == 0:
            return int(self.w)
        return int(self.w * horizon(self.inner))


@dataclass(frozen=True)
class Segment:
    start: int
    end: int
    policy: "Policy"


@dataclass(frozen=True)
class Composite(_Checked):
    """Contiguous segments, each evaluated at its local t (t - start)."""

    segments: tuple[Segment, ...] = _field(_segments)


@dataclass(frozen=True)
class Scaled(_Checked):
    """eta(t) = lam * eta_base(t), exactly that product; an integer product
    past the float range stays an int, and under a float lam it is inf."""

    lam: float = _field(_positive)
    base: "Policy" = _field(_closed)


Policy = Union[
    Fix, Step, NStep, Exp, Poly, CosineDecay, LinearDecay,
    Tri, Tri2, TriExp, Sin, Sin2, SinExp,
    Warmup, Composite, Scaled,
]


# --- metric-driven families (their state machine is in `adaptive`) ---
#
# Their positional constructors and wire order are public, so each lists the
# plateau fields it shares with the other in its own place.

_monitor = _one_of(("train_loss", "test_accuracy"))
_mode = _one_of(("min", "max"))


@dataclass(frozen=True)
class ReduceOnPlateau(_Checked):
    """Hold the LR at k, multiply by factor on each plateau, floor at min_lr."""

    k: float = _field(_positive)
    factor: float = _field(_fraction)
    patience: int = _field(_posint)
    monitor: str = _field(_monitor, "test_accuracy")
    mode: str = _field(_mode, "max")
    min_delta: float = _field(_nonneg, 0.0)
    cooldown: int = _field(_count, 0)
    min_lr: float = _field(_nonneg, 0.0)


@dataclass(frozen=True)
class ChangeOnPlateau(_Checked):
    """Walk an ordered policy list, advancing one policy per plateau.

    The active policy is evaluated at a local t that restarts at 0 on each
    switch. Past the end of the list the final policy is held.
    """

    policies: tuple[Policy, ...] = _field(_closed_each)
    patience: int = _field(_posint)
    monitor: str = _field(_monitor, "test_accuracy")
    mode: str = _field(_mode, "max")
    min_delta: float = _field(_nonneg, 0.0)
    cooldown: int = _field(_count, 0)


# --- rules across fields, run after the field checks ---


def _k_min_at_most_k(p: CosineDecay | LinearDecay):
    _need(p.k_min <= p.k, "k_min (%r) must not exceed k (%r)", p.k_min, p.k)


def _k0_at_most_k1(p):
    _need(p.k0 <= p.k1, "k1 < k0 (%r < %r)", p.k1, p.k0)


def _warmup_rule(p: Warmup):
    _need(p.w < 1 or p.w == int(p.w), "w must be an integer when >= 1, got %r", p.w)
    _need(not 0 < p.w < 1 or horizon(p.inner) is not None,
          "w given as a fraction (%r) requires a horizon-bound inner policy", p.w)


# --- horizon rules: the largest valid t, None when unbounded ---


_t_max = attrgetter("t_max")


def _warmup_horizon(p: Warmup):
    inner = horizon(p.inner)
    return None if inner is None else p._iters + inner


# --- pieces of the closed forms ---


def _upto(p, t: int) -> int:
    """t, once checked against the t_max of a horizon-bound policy p."""
    if t > p.t_max:
        _need(False, "t (%s) exceeds t_max (%s) for %s", t, p.t_max, _ROWS[type(p)].name)
    return t


def _tri_carrier(t: int, l: int) -> tuple[int, float]:
    cycle = math.floor(1 + t / (2 * l))
    x = abs(t / l - 2 * cycle + 1)
    return cycle, max(0.0, 1.0 - x)


def _sin_carrier(t: int, l: int) -> tuple[int, float]:
    return math.floor(1 + t / (2 * l)), abs(math.sin(math.pi * t / (2 * l)))


def _halved(p, cycle: int, shape: float) -> float:
    return p.k0 + (p.k1 - p.k0) * shape * 0.5 ** (cycle - 1)


def _times(factor: float, value):
    """factor * value, where an int value past the float range is the inf it rounds to."""
    try:
        return factor * value
    except OverflowError:  # a float factor, and an int that no float holds
        return factor * float("inf")


def _warmup(p: Warmup, t: int) -> float:
    w = p._iters
    if t < w:
        return _times(t / w, _eval(p.inner, 0))
    return _eval(p.inner, t - w)


_start = attrgetter("start")


def _composite(p: Composite, t: int) -> float:
    segs = p.segments
    if t >= segs[-1].end:
        _need(False, "t (%s) is past the composite horizon (last segment ends at %s)",
              t, segs[-1].end)
    seg = segs[bisect_right(segs, t, key=_start) - 1]
    return _eval(seg.policy, t - seg.start)


# --- generic queries over the table ---


def _row(policy) -> "Family":
    row = _ROWS.get(type(policy))
    if row is None:
        _need(False, "unknown policy type %s", type(policy).__name__)
    return row


def _eval(p: Policy, t: int) -> float:
    """eta(t) of a policy held by another, so it has a closed form."""
    return _ROWS[type(p)].closed_form(p, t)


def horizon(policy: Policy):
    """Largest valid t, None when unbounded."""
    return _row(policy).horizon(policy)


def require_horizon(policy, steps: int, where: str = "", *args):
    """Raise PolicyError, prefixed by where % args, unless policy covers t = 0 .. steps - 1."""
    end = horizon(policy)
    if end is not None and end < steps - 1:
        base = _row(split_lambda(policy)[0])
        run = repr(_shown(steps))  # an int past repr's digit limit reads "an int of N bits"
        run = f"a {run}-step run" if run[-1].isdigit() else f"a run whose length is {run}"
        _need(False, where + "%s %s ends at t=%r, shorter than %s (last step t=%r)",
              *args, base.name, base.horizon_by, end, run, steps - 1)


def _closed_form(policy):
    form = _row(policy).closed_form
    if form is None:
        _need(False, "%s has no closed form over t; drive it through a trainer",
              family_name(policy))
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
    """Evaluate eta(t) for a policy at integer iteration 0 <= t <= 2**53."""
    if not (count(t) and t <= _MAX_T):
        _iteration("t", t)
    return _closed_form(policy)(policy, t)


def sample_trace(policy: Policy, t_max: int, stride: int = 1) -> list[tuple[int, float]]:
    """Sample eta at t = 0, stride, 2*stride, ..., ending exactly at t_max.

    Returns ceil(t_max / stride) + 1 points; the last point is clamped to
    t_max so horizon-bound policies stay in range.
    """
    _iteration("t_max", t_max)
    _posint("stride", stride)
    form = _closed_form(policy)
    n = math.ceil(t_max / stride)
    return [(min(i * stride, t_max), form(policy, min(i * stride, t_max)))
            for i in range(n + 1)]


def trace_to_csv(points: list[tuple[int, float]]) -> str:
    return "iteration,lr\n" + "".join(f"{t},{lr!r}\n" for t, lr in points)


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
    nested scalings flattened to one product (see `split_lambda`). A product
    that leaves the float range, which no reader would take back, raises
    PolicyError.
    """
    base, lam = split_lambda(policy)
    row = _row(base)
    d = {"family": row.name, "params": {f: _wire(getattr(base, f)) for f in row.checks}}
    if base is not policy:
        _positive("lambda (the product of nested scalings)", lam)
        d["lambda"] = lam
    return d


def _as_int(family: str, key: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _need(isinstance(value, int) and not isinstance(value, bool),
          "%s param '%s' must be an integer, got %r", family, key, value)
    return value


def _segment_from_dict(family: str, key: str, s) -> Segment:
    keys = {"start", "end", "policy"}
    _need(isinstance(s, dict) and keys <= set(s),
          "each MULTI segment needs 'start', 'end', and 'policy'")
    extra = set(s) - keys
    _need(not extra, "MULTI segment got unknown keys %r", sorted(extra, key=str))
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
    _need(isinstance(d, dict), "policy must be a JSON object, got %r", d)
    _need("family" in d, "policy is missing the 'family' key")
    extra = set(d) - {"family", "params", "lambda"}
    _need(not extra, "policy got unknown keys %r", sorted(extra, key=str))
    params = d.get("params", {})
    _need(isinstance(params, dict), "'params' must be a JSON object")
    family = d["family"]
    row = _BY_NAME.get(family) if isinstance(family, str) else None
    _need(row is not None, "unknown family %r", family)
    if row.parse_hook is not None:
        params = row.parse_hook(params)
    for f in fields(row.cls):
        _need(f.name in params or f.default is not MISSING,
              "%s is missing required param '%s'", family, f.name)
    extra = set(params) - set(row.checks)
    _need(not extra, "%s got unknown params %r", family, sorted(extra, key=str))
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


def policy_to_json(policy) -> str:
    return json.dumps(policy_to_dict(policy))


def policy_from_json(text: Union[str, bytes]):
    """The policy a JSON text holds, read by `read_json`."""
    return policy_from_dict(read_json(text, "invalid policy JSON: ", PolicyError))


def read_json(data: Union[str, bytes], prefix: str = "", error: type = ValueError):
    """The value a JSON text holds: the one JSON reader in lrforge.

    Manifests, policy files and store lines all come through here. Bytes
    must be UTF-8 without a BOM (RFC 8259 section 8.1). A text that does not
    decode raises error(prefix + the reason): bytes that are not UTF-8, a
    BOM, bad JSON, an int past Python's digit limit, or nesting deep enough
    to reach the recursion limit.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as e:
        raise error(f"{prefix}{e}") from None


#: Canonical JSON text: sorted keys, no spaces. Store lines, store record
#: identities and tuner tie-breaks all go through this one encoder, which
#: raises ValueError on a NaN or an infinity, since JSON holds neither.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode

#: Indented JSON text, keys sorted: each JSON artifact that `lr` writes.
indented_json = json.JSONEncoder(indent=2, sort_keys=True).encode


def canonical_policy_key(policy) -> str:
    """Deterministic serialized form, used for tie-breaks and store keys."""
    return canonical_json(policy_to_dict(policy))


# --- the family table ---


@dataclass(frozen=True)
class Family:
    """One policy family: all that the generic code above knows about it.

    A row holds the family's class, wire name, closed form, horizon rule,
    rule across fields and parse hook. Its fields are the class's own, and
    each carries its check (see `_field`).
    """

    cls: type
    name: Optional[str]               # wire name; None for Scaled, which is its base + "lambda"
    closed_form: Optional[Callable]   # (policy, t) -> eta(t); None when metric-driven
    horizon: Callable = lambda p: None  # horizon rule: policy -> largest valid t, or None
    horizon_by: str = "t_max"         # what sets that horizon, for error messages
    rule: Optional[Callable] = None   # check across fields, after the field checks
    parse_hook: Optional[Callable] = None  # rewrites wire params before they are read

    @cached_property
    def checks(self) -> dict:
        """Every field, in dataclass order (the wire order) -> check(name, value)."""
        return {f.name: f.metadata["check"] for f in fields(self.cls)}


# Integer fields take 2.0 for 2 on the wire; policy fields are nested wire
# dicts. A field's check says which it is.
_WIRE_PARSERS = {
    _posint: _as_int, _count: _as_int, _milestones: _as_int,
    _closed: lambda family, key, d: policy_from_dict(d),
    _closed_each: lambda family, key, d: policy_from_dict(d),
    _segments: _segment_from_dict,
}

FAMILIES = (
    Family(Fix, "FIX", lambda p, t: p.k),
    Family(Step, "STEP", lambda p, t: p.k * p.gamma ** (t // p.l)),
    Family(NStep, "NSTEP", lambda p, t: p.k * p.gamma ** bisect_right(p.milestones, t)),
    Family(Exp, "EXP", lambda p, t: p.k * p.gamma ** (t / p.l)),
    Family(Poly, "POLY", lambda p, t: p.k * (1 - _upto(p, t) / p.t_max) ** p.p, _t_max),
    Family(CosineDecay, "COSINE",
           lambda p, t: p.k_min + 0.5 * (p.k - p.k_min) * (
               1 + math.cos(math.pi * _upto(p, t) / p.t_max)),
           _t_max, rule=_k_min_at_most_k),
    Family(LinearDecay, "LINEAR", lambda p, t: p.k - (p.k - p.k_min) * (_upto(p, t) / p.t_max),
           _t_max, rule=_k_min_at_most_k),
    Family(Tri, "TRI", lambda p, t: p.k0 + (p.k1 - p.k0) * _tri_carrier(t, p.l)[1],
           rule=_k0_at_most_k1),
    Family(Tri2, "TRI2", lambda p, t: _halved(p, *_tri_carrier(t, p.l)), rule=_k0_at_most_k1),
    Family(TriExp, "TRIEXP",
           lambda p, t: p.k0 + (p.k1 - p.k0) * _tri_carrier(t, p.l)[1] * p.gamma ** t,
           rule=_k0_at_most_k1),
    Family(Sin, "SIN", lambda p, t: p.k0 + (p.k1 - p.k0) * _sin_carrier(t, p.l)[1],
           rule=_k0_at_most_k1),
    Family(Sin2, "SIN2", lambda p, t: _halved(p, *_sin_carrier(t, p.l)), rule=_k0_at_most_k1),
    Family(SinExp, "SINEXP",
           lambda p, t: p.k0 + (p.k1 - p.k0) * _sin_carrier(t, p.l)[1] * p.gamma ** t,
           rule=_k0_at_most_k1),
    Family(Warmup, "WARMUP", _warmup, _warmup_horizon,
           "horizon (w plus the inner policy's horizon)", _warmup_rule, _warmup_shorthand),
    Family(Composite, "MULTI", _composite, lambda p: p.segments[-1].end - 1, "segments"),
    Family(Scaled, None, lambda p, t: _times(p.lam, _eval(p.base, t)), lambda p: horizon(p.base)),
    Family(ReduceOnPlateau, "PLATEAU_REDUCE", None),
    Family(ChangeOnPlateau, "PLATEAU_CHANGE", None),
)

_ROWS = {row.cls: row for row in FAMILIES}
_BY_NAME = {row.name: row for row in FAMILIES if row.name is not None}
