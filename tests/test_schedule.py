"""Closed-form policy curves: frozen values, reference sweeps, invariants."""

import dataclasses
import json
import math
import os
import re
import sys
import typing
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrforge import adaptive, schedule
from lrforge.schedule import (
    ChangeOnPlateau,
    Composite,
    CosineDecay,
    Exp,
    Fix,
    LinearDecay,
    NStep,
    Poly,
    PolicyError,
    ReduceOnPlateau,
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
    canonical_policy_key,
    family_name,
    horizon,
    lr_at,
    policy_from_dict,
    policy_from_json,
    policy_to_dict,
    policy_to_json,
    sample_trace,
    trace_to_csv,
    canonical_json,
    read_json,
    validate,
)

import reference
from reference import MULTI_SWEEP_CASE, SWEEP_CASES, T_MAX_SWEEP, ref_lr, rel_err

# under --hypothesis-profile=oracle-deep (tests/conftest.py) the LR sign test
# and the drawn round-trip test draw the profile's example count
DEEP = settings.get_current_profile_name() == "oracle-deep"


# --- frozen values, worked out by hand ---


def test_fix_is_constant():
    p = Fix(k=0.05)
    assert [lr_at(p, t) for t in (0, 1, 999)] == [0.05, 0.05, 0.05]


def test_step_frozen():
    p = Step(k=0.1, gamma=0.5, l=10)
    assert lr_at(p, 0) == 0.1
    assert lr_at(p, 9) == 0.1
    assert lr_at(p, 10) == pytest.approx(0.05, rel=1e-15)
    assert lr_at(p, 25) == pytest.approx(0.025, rel=1e-15)
    assert lr_at(p, 30) == pytest.approx(0.0125, rel=1e-15)


def test_step_default_interval_is_one():
    assert lr_at(Step(k=1.0, gamma=0.5), 3) == pytest.approx(0.125, rel=1e-15)


def test_nstep_frozen():
    p = NStep(k=1.0, gamma=0.1, milestones=(5, 8))
    assert lr_at(p, 0) == 1.0
    assert lr_at(p, 4) == 1.0
    # a milestone takes effect at its own iteration
    assert lr_at(p, 5) == pytest.approx(0.1, rel=1e-15)
    assert lr_at(p, 7) == pytest.approx(0.1, rel=1e-15)
    assert lr_at(p, 8) == pytest.approx(0.01, rel=1e-15)
    assert lr_at(p, 10**6) == pytest.approx(0.01, rel=1e-15)


def test_exp_uses_real_exponent():
    p = Exp(k=1.0, gamma=0.25, l=2)
    assert lr_at(p, 1) == pytest.approx(0.5, rel=1e-15)   # 0.25^0.5
    assert lr_at(p, 3) == pytest.approx(0.125, rel=1e-15)  # 0.25^1.5


def test_poly_frozen():
    p = Poly(k=2.0, p=2.0, t_max=10)
    assert lr_at(p, 0) == 2.0
    assert lr_at(p, 5) == pytest.approx(0.5, rel=1e-15)
    assert lr_at(p, 10) == 0.0


def test_poly_rejects_t_past_horizon():
    with pytest.raises(PolicyError, match="t_max"):
        lr_at(Poly(k=1.0, p=1.0, t_max=10), 11)


def test_tri_frozen():
    p = Tri(k0=1.0, k1=3.0, l=4)
    expected = {0: 1.0, 2: 2.0, 4: 3.0, 6: 2.0, 8: 1.0, 12: 3.0, 16: 1.0}
    for t, want in expected.items():
        assert lr_at(p, t) == pytest.approx(want, rel=1e-12), t


def test_tri2_halves_each_cycle():
    p = Tri2(k0=1.0, k1=3.0, l=4)
    assert lr_at(p, 4) == pytest.approx(3.0, rel=1e-12)    # cycle 1, full amp
    assert lr_at(p, 12) == pytest.approx(2.0, rel=1e-12)   # cycle 2, amp/2
    assert lr_at(p, 20) == pytest.approx(1.5, rel=1e-12)   # cycle 3, amp/4


def test_triexp_damps_by_gamma_t():
    p = TriExp(k0=1.0, k1=3.0, l=4, gamma=0.5)
    assert lr_at(p, 4) == pytest.approx(1 + 2 * 0.5**4, rel=1e-12)


def test_sin_frozen():
    p = Sin(k0=1.0, k1=3.0, l=4)
    assert lr_at(p, 0) == 1.0
    assert lr_at(p, 4) == pytest.approx(3.0, rel=1e-12)
    assert lr_at(p, 2) == pytest.approx(1 + math.sqrt(2), rel=1e-12)


def test_sin2_frozen():
    p = Sin2(k0=1.0, k1=3.0, l=4)
    # t=10 is cycle 2: amplitude halved, |sin(10pi/8)| = sqrt(2)/2
    assert lr_at(p, 10) == pytest.approx(1 + math.sqrt(2) / 2, rel=1e-12)


def test_sinexp_frozen():
    p = SinExp(k0=1.0, k1=3.0, l=4, gamma=0.5)
    assert lr_at(p, 4) == pytest.approx(1 + 2 * 0.5**4, rel=1e-12)


def test_cosine_frozen():
    p = CosineDecay(k=1.0, t_max=10)
    assert lr_at(p, 0) == pytest.approx(1.0, rel=1e-15)
    assert lr_at(p, 5) == pytest.approx(0.5, rel=1e-12)
    assert lr_at(p, 10) == pytest.approx(0.0, abs=1e-16)
    floored = CosineDecay(k=1.0, t_max=10, k_min=0.2)
    assert lr_at(floored, 10) == pytest.approx(0.2, rel=1e-12)


def test_linear_frozen():
    p = LinearDecay(k=1.0, t_max=9, k_min=0.1)
    assert lr_at(p, 0) == 1.0
    assert lr_at(p, 3) == pytest.approx(0.7, rel=1e-12)
    assert lr_at(p, 9) == pytest.approx(0.1, rel=1e-12)


def test_warmup_absolute():
    p = Warmup(w=4, inner=Fix(k=0.8))
    assert lr_at(p, 0) == 0.0
    assert lr_at(p, 1) == pytest.approx(0.2, rel=1e-15)
    assert lr_at(p, 3) == pytest.approx(0.6, rel=1e-15)
    assert lr_at(p, 4) == 0.8
    assert lr_at(p, 100) == 0.8


def test_warmup_fractional_of_inner_horizon():
    # w=0.2 of a 20-iteration horizon floors to 4 warmup iterations
    p = Warmup(w=0.2, inner=LinearDecay(k=1.0, t_max=20))
    assert lr_at(p, 2) == pytest.approx(0.5, rel=1e-15)
    assert lr_at(p, 4) == 1.0
    assert lr_at(p, 24) == pytest.approx(0.0, abs=1e-16)


def test_warmup_zero_width_is_inner():
    p = Warmup(w=0, inner=Fix(k=0.3))
    assert lr_at(p, 0) == 0.3


def test_composite_segment_local_time():
    p = Composite(segments=(
        Segment(start=0, end=4, policy=Fix(k=1.0)),
        Segment(start=4, end=10, policy=Step(k=0.5, gamma=0.5, l=3)),
    ))
    assert lr_at(p, 3) == 1.0
    assert lr_at(p, 4) == 0.5          # local t restarts at 0
    assert lr_at(p, 7) == pytest.approx(0.25, rel=1e-15)
    assert lr_at(p, 9) == pytest.approx(0.25, rel=1e-15)


def test_composite_past_horizon_is_an_error():
    p = Composite(segments=(Segment(start=0, end=10, policy=Fix(k=1.0)),))
    with pytest.raises(PolicyError, match="past the composite horizon"):
        lr_at(p, 10)


def test_segment_that_outlives_its_policy_is_rejected_when_built():
    # local t runs 0 .. 69 in [10, 80), past POLY's t_max of 50
    with pytest.raises(PolicyError, match=r"segments\[1\] \[10, 80\): POLY t_max ends at "
                                          r"t=50, shorter than a 70-step run"):
        Composite(segments=(Segment(0, 10, Fix(k=0.1)),
                            Segment(10, 80, Poly(k=0.1, p=1.0, t_max=50))))
    with pytest.raises(PolicyError, match=r"segments\[0\] \[0, 2000\): COSINE t_max"):
        schedule.policy_from_dict({"family": "MULTI", "params": {"segments": [
            {"start": 0, "end": 2000,
             "policy": {"family": "COSINE", "params": {"k": 0.1, "t_max": 50}}}]}})
    # a horizon that reaches the segment's last local step is enough
    p = Composite(segments=(Segment(0, 10, Fix(k=0.1)),
                            Segment(10, 61, Poly(k=0.1, p=1.0, t_max=50))))
    assert lr_at(p, 60) == 0.0


def test_scaled_is_exact_product():
    base = Tri(k0=0.01, k1=0.11, l=7)
    for t in (0, 3, 11, 500):
        assert lr_at(Scaled(lam=0.3, base=base), t) == 0.3 * lr_at(base, t)


# --- sweeps against the independent reference ---


@pytest.mark.parametrize("family", sorted(SWEEP_CASES))
def test_matches_reference(family):
    policy = SWEEP_CASES[family]
    rng = np.random.default_rng(hash(family) % 2**32)
    ts = rng.integers(0, T_MAX_SWEEP + 1, size=2000)
    worst = 0.0
    for t in ts:
        t = int(t)
        worst = max(worst, rel_err(lr_at(policy, t), ref_lr(policy, t)))
    assert worst < 1e-12, f"{family}: worst rel err {worst:.3e}"


def test_composite_matches_reference():
    rng = np.random.default_rng(99)
    for t in rng.integers(0, T_MAX_SWEEP + 1, size=2000):
        t = int(t)
        assert rel_err(lr_at(MULTI_SWEEP_CASE, t), ref_lr(MULTI_SWEEP_CASE, t)) < 1e-12


def test_reference_powers_agree_with_float_pow():
    # sanity on the oracle itself: square-and-multiply equals ** on exact cases
    assert reference.ipow(0.5, 10) == 0.5**10
    assert reference.ipow(2.0, 30) == 2.0**30
    assert reference.ipow(0.9, 0) == 1.0


# --- invariants as property tests ---


_small_policies = st.one_of(
    st.builds(Fix, k=st.floats(1e-6, 10, allow_nan=False)),
    st.builds(Step, k=st.floats(1e-6, 10), gamma=st.floats(0.1, 1.0),
              l=st.integers(1, 50)),
    st.builds(Tri, k0=st.floats(1e-6, 1), k1=st.floats(1, 5), l=st.integers(1, 50)),
    st.builds(Sin, k0=st.floats(1e-6, 1), k1=st.floats(1, 5), l=st.integers(1, 50)),
    st.builds(CosineDecay, k=st.floats(0.1, 5), t_max=st.integers(1, 1000)),
)


@given(policy=_small_policies, lam=st.floats(1e-6, 1e3, allow_nan=False),
       t=st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_lambda_scaling_is_exact(policy, lam, t):
    t = min(t, horizon(policy) or t)
    assert lr_at(Scaled(lam=lam, base=policy), t) == lam * lr_at(policy, t)


@given(k0=st.floats(1e-6, 1), k1=st.floats(1, 5), l=st.integers(1, 100),
       t=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cyclic_output_stays_in_band(k0, k1, l, t):
    for cls in (Tri, Tri2, Sin, Sin2):
        lr = lr_at(cls(k0=k0, k1=k1, l=l), t)
        assert k0 - 1e-12 <= lr <= k1 + 1e-12


@given(k0=st.floats(1e-6, 1), k1=st.floats(1, 5), l=st.integers(1, 100),
       t=st.integers(0, 10**4), cycles=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_tri_is_periodic(k0, k1, l, t, cycles):
    p = Tri(k0=k0, k1=k1, l=l)
    assert lr_at(p, t) == pytest.approx(lr_at(p, t + 2 * l * cycles), rel=1e-9)


@given(k=st.floats(1e-6, 10), gamma=st.floats(0.1, 1.0), l=st.integers(1, 50),
       t1=st.integers(0, 10**4), dt=st.integers(0, 10**4))
@settings(max_examples=200, deadline=None)
def test_step_never_increases(k, gamma, l, t1, dt):
    p = Step(k=k, gamma=gamma, l=l)
    assert lr_at(p, t1 + dt) <= lr_at(p, t1) * (1 + 1e-12)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_nstep_constant_between_milestones(data):
    ms = tuple(sorted(data.draw(st.sets(st.integers(1, 1000), min_size=1, max_size=5))))
    p = NStep(k=1.0, gamma=0.5, milestones=ms)
    fences = (0,) + ms + (ms[-1] + 100,)
    i = data.draw(st.integers(0, len(fences) - 2))
    lo, hi = fences[i], fences[i + 1]
    t1 = data.draw(st.integers(lo, hi - 1))
    t2 = data.draw(st.integers(lo, hi - 1))
    assert lr_at(p, t1) == lr_at(p, t2)


@given(t_max=st.integers(1, 10**5), t1=st.integers(0, 10**5), dt=st.integers(0, 10**5))
@settings(max_examples=200, deadline=None)
def test_bounded_decays_never_increase(t_max, t1, dt):
    t1 = min(t1, t_max)
    t2 = min(t1 + dt, t_max)
    for p in (Poly(k=1.0, p=2.0, t_max=t_max),
              CosineDecay(k=1.0, t_max=t_max, k_min=0.01),
              LinearDecay(k=1.0, t_max=t_max, k_min=0.01)):
        assert lr_at(p, t2) <= lr_at(p, t1) + 1e-15


@given(w=st.integers(1, 50), k=st.floats(1e-3, 10), t=st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_warmup_ramp_monotone_then_hands_over(w, k, t):
    p = Warmup(w=w, inner=Fix(k=k))
    if t < w:
        assert lr_at(p, t) <= lr_at(p, t + 1)
        assert lr_at(p, t) < k
    else:
        assert lr_at(p, t) == k
    assert lr_at(p, w) == k


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_composite_picks_owning_segment(data):
    n_segs = data.draw(st.integers(1, 5))
    widths = data.draw(st.lists(st.integers(1, 40), min_size=n_segs, max_size=n_segs))
    ks = data.draw(st.lists(st.floats(1e-3, 10), min_size=n_segs, max_size=n_segs,
                            unique=True))
    fences = [0]
    for width in widths:
        fences.append(fences[-1] + width)
    segs = tuple(Segment(start=fences[i], end=fences[i + 1], policy=Fix(k=ks[i]))
                 for i in range(n_segs))
    p = Composite(segments=segs)
    i = data.draw(st.integers(0, n_segs - 1))
    t = data.draw(st.integers(fences[i], fences[i + 1] - 1))
    assert lr_at(p, t) == ks[i]


# every value a non-negative real field takes: floats up to the largest, and
# ints, whose exact products under Scaled can pass the float range
_REALS = st.one_of(st.floats(0, allow_infinity=False), st.integers(0, 10**300))
_POSITIVE = _REALS.filter(lambda v: v > 0)
_GAMMAS = st.one_of(st.floats(0, 1, exclude_min=True), st.just(1))
_LENGTHS = st.integers(1, 50)


def _leaves(k, lo, hi, p, gamma, l, milestones):
    """One policy of each closed-form family that holds no other policy."""
    return [Fix(k=k), Step(k=k, gamma=gamma, l=l), NStep(k=k, gamma=gamma, milestones=milestones),
            Exp(k=k, gamma=gamma, l=l), Poly(k=k, p=p, t_max=l),
            CosineDecay(k=hi, t_max=l, k_min=lo), LinearDecay(k=hi, t_max=l, k_min=lo),
            Tri(k0=lo, k1=hi, l=l), Tri2(k0=lo, k1=hi, l=l), TriExp(k0=lo, k1=hi, l=l, gamma=gamma),
            Sin(k0=lo, k1=hi, l=l), Sin2(k0=lo, k1=hi, l=l), SinExp(k0=lo, k1=hi, l=l, gamma=gamma)]


@st.composite
def _leaf(draw):
    lo, hi = sorted((draw(_REALS), draw(_REALS)))
    milestones = tuple(sorted(draw(st.sets(st.integers(1, 100), min_size=1, max_size=4))))
    return draw(st.sampled_from(_leaves(draw(_REALS), lo, hi, draw(_POSITIVE), draw(_GAMMAS),
                                        draw(_LENGTHS), milestones)))


@st.composite
def _multi(draw, inner):
    segments, start = [], 0
    for policy in draw(st.lists(inner, min_size=1, max_size=3)):
        last = horizon(policy)  # a segment runs its policy at t 0 .. end - start - 1
        end = start + draw(st.integers(1, 50 if last is None else last + 1))
        segments.append(Segment(start=start, end=end, policy=policy))
        start = end
    return Composite(segments=tuple(segments))


_CLOSED = st.recursive(_leaf(), lambda inner: st.one_of(
    st.builds(Scaled, lam=_POSITIVE, base=inner),
    st.builds(Warmup, w=st.integers(0, 20), inner=inner),
    _multi(inner)), max_leaves=5)
_PLATEAU = st.one_of(
    st.builds(ReduceOnPlateau, k=_POSITIVE, factor=st.floats(0, 1, exclude_min=True,
                                                             exclude_max=True),
              patience=st.integers(1, 3), min_lr=_REALS),
    st.builds(ChangeOnPlateau, policies=st.lists(_CLOSED, min_size=1, max_size=3).map(tuple),
              patience=st.integers(1, 3)))


@example(policy=Scaled(lam=2.0, base=Scaled(lam=10**300, base=Fix(k=10**300))), ts=[],
         metrics=[])  # an int LR past the float range under a float lambda: inf
@example(policy=Warmup(w=2, inner=Scaled(lam=10**300, base=Fix(k=10**300))), ts=[1],
         metrics=[])
@given(policy=st.one_of(_CLOSED, _PLATEAU), ts=st.lists(st.integers(0, 2**53), max_size=5),
       metrics=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@settings(max_examples=settings.default.max_examples if DEEP else 100, deadline=None)
def test_every_lr_is_a_number_and_never_negative(policy, ts, metrics):
    # the trainer steps any LR a policy gives, checking only that it is finite
    # (NaN and inf diverge), so no policy may give a negative LR or a non-number
    drawn = {type(leaf) for leaf in _leaves(1, 0, 1, 1, 1, 1, (1,))} | {Scaled, Warmup, Composite}
    assert drawn == {row.cls for row in schedule.FAMILIES if row.closed_form is not None}
    if isinstance(policy, adaptive.PlateauPolicy):
        # a switched-to policy restarts at local t 0, so it runs within each horizon
        ends = [horizon(p) for p in getattr(policy, "policies", ())]
        state, lrs = adaptive.initial_state(policy), []
        for t, metric in enumerate(metrics[:min([end + 1 for end in ends if end is not None],
                                                default=20)]):
            lrs.append(adaptive.current_lr(state, policy, t))
            state, _ = adaptive.observe(state, policy, metric, t=t + 1)
    else:
        end = horizon(policy)
        lrs = [lr_at(policy, t if end is None else min(t, end)) for t in [0, *ts]]
    for lr in lrs:
        assert type(lr) in (int, float) and not lr < 0


# --- validation: every policy is checked when it is built ---


@pytest.mark.parametrize("policy,fragment", [
    (partial(Fix, k=-0.1), "k must be >= 0"),
    (partial(Fix, k=float("nan")), "finite"),
    (partial(Step, k=0.1, gamma=0.0, l=1), "gamma"),
    (partial(Step, k=0.1, gamma=1.5, l=1), "gamma"),
    (partial(Step, k=0.1, gamma=0.5, l=0), "l must be an integer >= 1"),
    (partial(NStep, k=0.1, gamma=0.5, milestones=(5, 5)), "strictly increasing"),
    (partial(NStep, k=0.1, gamma=0.5, milestones=(8, 5)), "strictly increasing"),
    (partial(NStep, k=0.1, gamma=0.5, milestones=(-1,)), "non-negative"),
    (partial(Poly, k=0.1, p=0.0, t_max=10), "p must be > 0"),
    (partial(Poly, k=0.1, p=1.0, t_max=0), "t_max"),
    (partial(Tri, k0=2.0, k1=1.0, l=5), "k1 < k0"),
    (partial(Tri, k0=0.1, k1=1.0, l=0), "l must be an integer >= 1"),
    (partial(TriExp, k0=0.1, k1=1.0, l=5, gamma=2.0), "gamma"),
    (partial(CosineDecay, k=0.1, t_max=10, k_min=0.2), "k_min"),
    (partial(LinearDecay, k=0.1, t_max=10, k_min=0.2), "k_min"),
    (partial(Warmup, w=-1, inner=Fix(k=0.1)), "w must be >= 0"),
    (partial(Warmup, w=2.5, inner=Fix(k=0.1)), "integer"),
    (partial(Warmup, w=0.5, inner=Fix(k=0.1)), "horizon-bound"),
    (partial(Composite, segments=()), "non-empty"),
    (partial(Composite, segments=(Segment(start=1, end=5, policy=Fix(k=0.1)),)),
     "start at iteration 0"),
    (partial(Composite, segments=(Segment(start=0, end=5, policy=Fix(k=0.1)),
                                  Segment(start=6, end=9, policy=Fix(k=0.2)))), "gap"),
    (partial(Composite, segments=(Segment(start=0, end=5, policy=Fix(k=0.1)),
                                  Segment(start=4, end=9, policy=Fix(k=0.2)))), "overlap"),
    (partial(Composite, segments=(Segment(start=0, end=0, policy=Fix(k=0.1)),)),
     "must exceed"),
    # a bool bound would be written as false or true, which the reader rejects
    (partial(Composite, segments=(Segment(start=False, end=True, policy=Fix(k=0.1)),)),
     r"^segments\[0\] start/end must be integers$"),
    (partial(Composite, segments=(Segment(start=0, end=True, policy=Fix(k=0.1)),)),
     r"^segments\[0\] start/end must be integers$"),
    (partial(Scaled, lam=0.0, base=Fix(k=0.1)), "lam must be > 0"),
    # the base fails as it is built, before the Scaled that would hold it
    (partial(lambda: Scaled(lam=1.0, base=Fix(k=-1.0))), "k must be >= 0"),
    # plateau fields go through the same field checks as every other family
    (partial(ReduceOnPlateau, k="0.1", factor=0.5, patience=1), "k must be a number"),
    (partial(ReduceOnPlateau, k=True, factor=0.5, patience=1), "k must be a number"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=True),
     "patience must be an integer"),
    (partial(ChangeOnPlateau, policies=(Fix(k=0.1),), patience=1, min_delta="0"),
     "min_delta must be a number"),
    # a metric-driven policy has no closed form, so no other policy may hold one
    (partial(Warmup, w=5, inner=ReduceOnPlateau(k=0.1, factor=0.5, patience=1)),
     "PLATEAU_REDUCE has no closed form"),
    (partial(Composite, segments=(Segment(start=0, end=5, policy=ReduceOnPlateau(
        k=0.1, factor=0.5, patience=1)),)), "PLATEAU_REDUCE has no closed form"),
    (partial(Scaled, lam=2.0, base=ReduceOnPlateau(k=0.1, factor=0.5, patience=1)),
     "does not apply"),
    (partial(ChangeOnPlateau, policies=(Fix(k=0.1), ChangeOnPlateau(policies=(Fix(k=0.1),),
                                                                    patience=1)), patience=1),
     "PLATEAU_CHANGE has no closed form"),
])
def test_validate_rejects(policy, fragment):
    with pytest.raises(PolicyError, match=fragment):
        policy()


def test_lr_at_rejects_bad_t():
    p = Fix(k=0.1)
    for bad in (-1, 1.5, True, "3"):
        with pytest.raises(PolicyError):
            lr_at(p, bad)


# --- equal is not valid: frozen dataclasses compare and hash by field values ---


@pytest.mark.parametrize("valid, invalid, fragment", [
    (partial(Fix, k=1), partial(Fix, k=True), "k must be a number"),
    (partial(Step, k=1, gamma=0.5, l=2), partial(Step, k=1, gamma=0.5, l=2.0),
     "l must be an integer"),
])
def test_equal_policy_does_not_ride_on_a_validated_one(valid, invalid, fragment):
    # Fix(k=True) == Fix(k=1) as values, yet only the second can be built
    assert valid.keywords == invalid.keywords
    assert lr_at(valid(), 0) == 1
    with pytest.raises(PolicyError, match=fragment):
        invalid()


def test_unhashable_policy_fields_raise_policy_error():
    with pytest.raises(PolicyError, match="milestones must be a tuple"):
        NStep(k=0.1, gamma=0.5, milestones=[5, 10])


def _count_validations(monkeypatch) -> list:
    seen = []
    real = schedule.validate

    def counting(policy):
        seen.append(policy)
        return real(policy)

    monkeypatch.setattr(schedule, "validate", counting)
    return seen


def test_policy_is_validated_once_across_calls(monkeypatch):
    seen = _count_validations(monkeypatch)
    p = Warmup(w=10, inner=CosineDecay(k=0.1, t_max=990))
    values = [lr_at(p, t) for t in range(1000)]
    sample_trace(p, 1000, 7)
    schedule.compile(p, 1000)
    assert horizon(p) == 1000
    assert sum(q is p for q in seen) == 1
    assert values == [lr for _, lr in sample_trace(p, 999)]
    # an equal but distinct object gets its own check
    twin = Warmup(w=10, inner=CosineDecay(k=0.1, t_max=990))
    lr_at(twin, 0)
    assert sum(q is twin for q in seen) == 1


def test_public_validate_is_not_memoized(monkeypatch):
    p = Fix(k=0.1)
    lr_at(p, 0)
    seen = _count_validations(monkeypatch)
    schedule.validate(p)
    schedule.validate(p)
    assert len(seen) == 2


def test_fractional_warmup_resolves_its_horizon_once(monkeypatch):
    calls = []
    horizon_of = schedule.horizon
    monkeypatch.setattr(schedule, "horizon", lambda q: calls.append(q) or horizon_of(q))
    inner = CosineDecay(k=0.1, t_max=9000)
    p = Warmup(w=0.1, inner=inner)
    values = [lr_at(p, t) for t in range(1000)]
    assert calls == [inner, inner]  # validating w, then resolving it to 900 iterations
    assert values == [lr_at(Warmup(w=900, inner=inner), t) for t in range(1000)]
    curve = schedule.compile(Scaled(lam=2.0, base=p), 9900)
    calls.clear()
    scaled = [curve(t) for t in range(9900)]
    assert calls == []
    assert scaled == [2.0 * lr_at(p, t) for t in range(9900)]


# --- traces ---


def test_sample_trace_endpoints_and_length():
    p = LinearDecay(k=1.0, t_max=10)
    points = sample_trace(p, 10, stride=3)
    assert [t for t, _ in points] == [0, 3, 6, 9, 10]
    assert points[-1] == (10, lr_at(p, 10))


def test_sample_trace_stride_larger_than_span():
    points = sample_trace(Fix(k=0.5), 4, stride=100)
    assert [t for t, _ in points] == [0, 4]


def test_trace_to_csv_format():
    text = trace_to_csv([(0, 0.5), (1, 0.25)])
    assert text == "iteration,lr\n0,0.5\n1,0.25\n"


def test_horizon_values():
    assert horizon(Fix(k=0.1)) is None
    assert horizon(Poly(k=1.0, p=1.0, t_max=7)) == 7
    assert horizon(Warmup(w=3, inner=LinearDecay(k=1.0, t_max=7))) == 10
    p = Composite(segments=(Segment(start=0, end=12, policy=Fix(k=0.1)),))
    assert horizon(p) == 11


# --- JSON wire format ---


ROUND_TRIP_POLICIES = [
    Fix(k=0.01),
    Step(k=0.1, gamma=0.99, l=30),
    NStep(k=0.1, gamma=0.1, milestones=(32000, 48000)),
    Exp(k=0.05, gamma=0.999, l=2),
    Poly(k=0.1, p=0.5, t_max=64000),
    CosineDecay(k=0.1, t_max=1000, k_min=0.001),
    LinearDecay(k=0.1, t_max=1000),
    Tri(k0=0.0001, k1=0.9, l=2000),
    Tri2(k0=0.0001, k1=0.9, l=2000),
    TriExp(k0=0.0001, k1=0.9, l=2000, gamma=0.99994),
    Sin(k0=0.0001, k1=0.9, l=2000),
    Sin2(k0=0.0001, k1=0.9, l=2000),
    SinExp(k0=0.0001, k1=0.9, l=2000, gamma=0.99994),
    Warmup(w=500, inner=CosineDecay(k=0.1, t_max=10000)),
    Warmup(w=0.1, inner=Poly(k=0.1, p=1.0, t_max=1000)),
    Composite(segments=(
        Segment(start=0, end=30000, policy=Tri(k0=0.1, k1=0.5, l=1500)),
        Segment(start=30000, end=60000, policy=Tri(k0=0.01, k1=0.05, l=1000)),
        Segment(start=60000, end=64000, policy=Tri(k0=0.001, k1=0.005, l=500)),
    )),
    Scaled(lam=0.25, base=Tri(k0=0.01, k1=0.9, l=100)),
]


@pytest.mark.parametrize("policy", ROUND_TRIP_POLICIES,
                         ids=lambda p: family_name(p))
def test_json_round_trip(policy):
    assert policy_from_dict(policy_to_dict(policy)) == policy
    assert policy_from_json(policy_to_json(policy)) == policy


def test_nested_scaling_flattens_to_one_lambda():
    p = Scaled(lam=2.0, base=Scaled(lam=3.0, base=Fix(k=0.1)))
    d = policy_to_dict(p)
    assert d["lambda"] == 6.0
    assert policy_from_dict(d) == Scaled(lam=6.0, base=Fix(k=0.1))


# a nested scaling whose lambda, the product, leaves the float range
LAMBDA_PAST_THE_RANGE = [
    (Scaled(lam=sys.float_info.max / 2, base=Scaled(lam=2.5, base=Fix(k=0.0))),
     "must be finite, got inf"),
    (Scaled(lam=10**300, base=Scaled(lam=10**300, base=Fix(k=0.1))),
     f"must be finite, got {10**600!r}"),
    (Warmup(w=2, inner=Scaled(lam=1e300, base=Scaled(lam=1e5, base=Scaled(lam=1e5,
                                                                         base=Fix(k=0.1))))),
     "must be finite, got inf"),
    (Scaled(lam=5e-324, base=Scaled(lam=0.5, base=Fix(k=0.1))), "must be > 0, got 0.0"),
]


@pytest.mark.parametrize("policy,message", LAMBDA_PAST_THE_RANGE,
                         ids=["float", "int", "nested-in-warmup", "underflow"])
def test_a_lambda_that_leaves_the_float_range_has_no_wire_form(policy, message):
    # the wire dict would carry that one lambda, which no reader takes back
    with pytest.raises(PolicyError) as e:
        policy_to_dict(policy)
    assert str(e.value) == "lambda (the product of nested scalings) " + message
    # a product at the edge of the float range is written, and reads back
    edge = Scaled(lam=2.0, base=Scaled(lam=sys.float_info.max / 2, base=Fix(k=0.0)))
    assert policy_from_dict(policy_to_dict(edge)) == Scaled(lam=sys.float_info.max,
                                                            base=Fix(k=0.0))


def test_warmup_k_shorthand():
    p = policy_from_dict({"family": "WARMUP", "params": {"w": 10, "k": 0.5}})
    assert p == Warmup(w=10, inner=Fix(k=0.5))


def test_wire_format_shape():
    d = policy_to_dict(NStep(k=0.1, gamma=0.1, milestones=(5, 9)))
    assert d == {"family": "NSTEP",
                 "params": {"k": 0.1, "gamma": 0.1, "milestones": [5, 9]}}


REDUCE_DOC = {"family": "PLATEAU_REDUCE", "params": {"k": 0.1, "factor": 0.5, "patience": 1}}


@pytest.mark.parametrize("doc,fragment", [
    ({"params": {"k": 0.1}}, "missing the 'family' key"),
    ({"family": "NOPE", "params": {}}, "unknown family"),
    ({"family": "FIX", "params": {"k": 0.1, "zap": 1}}, "unknown params"),
    ({"family": "FIX", "params": {}}, "missing required param 'k'"),
    ({"family": "STEP", "params": {"k": 0.1, "gamma": 0.5, "l": 2.5}}, "integer"),
    ({"family": "WARMUP", "params": {"w": 5}}, "exactly one of"),
    ({"family": "WARMUP",
      "params": {"w": 5, "k": 0.1, "inner": {"family": "FIX", "params": {"k": 1}}}},
     "exactly one of"),
    ({"family": "MULTI", "params": {"segments": []}}, "non-empty"),
    ({"family": "MULTI", "params": {"segments": [{"start": 0}]}}, "needs"),
    # a key outside the wire format is named, not dropped
    ({"family": "FIX", "params": {"k": 0.1}, "lamda": 2},
     r"^policy got unknown keys \['lamda'\]$"),
    ({"family": "FIX", "params": {"k": 0.1}, "lambda": 2.0, "Params": {}, "zap": None},
     r"^policy got unknown keys \['Params', 'zap'\]$"),
    # keys of mixed types, which a Python caller can pass, are still named
    ({"family": "FIX", "params": {"k": 0.1}, 1: 2, "a": 3},
     r"^policy got unknown keys \[1, 'a'\]$"),
    ({"family": "FIX", "params": {"k": 0.1, 1: 2, "a": 3}},
     r"^FIX got unknown params \[1, 'a'\]$"),
    ({"family": "WARMUP", "params": {"w": 2, "inner": {"family": "FIX", "params": {"k": 0.1},
                                                       "lamda": 2}}},
     r"^policy got unknown keys \['lamda'\]$"),
    ({"family": "MULTI", "params": {"segments": [
        {"start": 0, "end": 3, "policy": {"family": "FIX", "params": {"k": 0.1}}, "stop": 3}]}},
     r"^MULTI segment got unknown keys \['stop'\]$"),
    ({"family": "FIX", "params": {"k": 0.1}, "lambda": 0.0}, "lam must be > 0"),
    ({"family": "PLATEAU_REDUCE", "params": {"k": "0.1", "factor": 0.5, "patience": 1}},
     "k must be a number"),
    ({"family": "PLATEAU_REDUCE", "params": {"k": True, "factor": 0.5, "patience": 1}},
     "k must be a number"),
    ({"family": "PLATEAU_REDUCE", "params": {"k": 0.1, "factor": 0.5, "patience": True}},
     "'patience' must be an integer"),
    ({"family": "WARMUP", "params": {"w": 5, "inner": REDUCE_DOC}},
     "PLATEAU_REDUCE has no closed form"),
    ({"family": "PLATEAU_CHANGE", "params": {"policies": [REDUCE_DOC], "patience": 1}},
     "PLATEAU_REDUCE has no closed form"),
    ({"family": "MULTI",
      "params": {"segments": [{"start": 0, "end": 5, "policy": REDUCE_DOC}]}},
     "PLATEAU_REDUCE has no closed form"),
])
def test_policy_from_dict_rejects(doc, fragment):
    with pytest.raises(PolicyError, match=fragment):
        policy_from_dict(doc)


def test_policy_from_json_rejects_malformed_text():
    with pytest.raises(PolicyError, match="invalid policy JSON"):
        policy_from_json("{not json")


def test_canonical_key_is_compact_and_sorted():
    key = canonical_policy_key(Step(k=0.1, gamma=0.5, l=3))
    assert key == '{"family":"STEP","params":{"gamma":0.5,"k":0.1,"l":3}}'
    assert json.loads(key)  # stays valid JSON


def test_canonical_key_breaks_ties_by_family():
    assert canonical_policy_key(Fix(k=0.1)) < canonical_policy_key(
        Step(k=0.1, gamma=1.0, l=1))


def test_plateau_integer_fields_take_integral_floats():
    p = policy_from_dict({"family": "PLATEAU_REDUCE",
                          "params": {"k": 0.1, "factor": 0.5, "patience": 2.0,
                                     "cooldown": 1.0}})
    assert p == ReduceOnPlateau(k=0.1, factor=0.5, patience=2, cooldown=1)
    assert type(p.patience) is int and type(p.cooldown) is int


# --- metric-driven policies fail fast on every closed-form query ---


@pytest.mark.parametrize("policy", [
    ReduceOnPlateau(k=0.1, factor=0.5, patience=1),
    ChangeOnPlateau(policies=(Fix(k=0.1),), patience=1),
], ids=family_name)
def test_closed_form_queries_reject_metric_driven_policies(policy):
    fragment = f"{family_name(policy)} has no closed form over t"
    for query in (lambda: schedule.compile(policy, 10), lambda: lr_at(policy, 0),
                  lambda: sample_trace(policy, 3)):
        with pytest.raises(PolicyError, match=fragment):
            query()


# --- the family table ---


# one policy per row, every field set away from its default
TABLE_EXAMPLES = ROUND_TRIP_POLICIES + [
    ReduceOnPlateau(k=0.1, factor=0.5, patience=3, monitor="train_loss", mode="min",
                    min_delta=0.01, cooldown=2, min_lr=1e-5),
    ChangeOnPlateau(policies=(Fix(k=0.5), Scaled(lam=0.5, base=Step(k=0.1, gamma=0.5, l=2))),
                    patience=2, monitor="train_loss", mode="min", min_delta=0.1, cooldown=1),
]


def test_every_family_has_exactly_one_row():
    classes = [row.cls for row in schedule.FAMILIES]
    assert len(classes) == len(set(classes))
    assert set(classes) == set(typing.get_args(schedule.Policy)) | {ReduceOnPlateau,
                                                                    ChangeOnPlateau}
    assert {type(p) for p in TABLE_EXAMPLES} == set(classes)
    names = [row.name for row in schedule.FAMILIES if row.name is not None]
    assert len(names) == len(set(names))
    for row in schedule.FAMILIES:
        # the wire format writes params in this order
        assert tuple(row.checks) == tuple(f.name for f in dataclasses.fields(row.cls))


@pytest.mark.parametrize("policy", TABLE_EXAMPLES, ids=lambda p: type(p).__name__)
def test_every_row_round_trips_through_the_wire_format(policy):
    d = json.loads(policy_to_json(policy))
    assert policy_from_dict(d) == policy
    assert policy_to_dict(policy_from_dict(d)) == d


@given(policy=st.one_of(_CLOSED, _PLATEAU))
@settings(max_examples=settings.default.max_examples if DEEP else 100, deadline=None)
def test_every_drawn_policy_round_trips_through_the_wire_format(policy):
    # dicts, not policies: nested scalings flatten to one lambda
    try:
        d = policy_to_dict(policy)
    except PolicyError as e:
        # a product past the float range is refused by name, as
        # test_a_lambda_that_leaves_the_float_range_has_no_wire_form checks
        assert str(e).startswith("lambda (the product of nested scalings) must be ")
        return
    assert policy_to_dict(policy_from_dict(d)) == d
    assert policy_to_dict(policy_from_dict(read_json(canonical_json(d)))) == d


def test_unregistered_policy_type_is_rejected():
    class MyFix(Fix):
        pass

    with pytest.raises(PolicyError, match="unknown policy type MyFix"):
        MyFix(k=0.1)
    # the queries reject any object without a row, such as a bare segment
    seg = Segment(start=0, end=1, policy=Fix(k=0.1))
    for query in (validate, family_name, policy_to_dict, horizon,
                  lambda q: lr_at(q, 0), lambda q: schedule.compile(q, 3)):
        with pytest.raises(PolicyError, match="unknown policy type Segment"):
            query(seg)


def test_readme_policy_table_names_every_wire_family():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as f:
        section = f.read().split("## Policy JSON", 1)[1].split("\n## ", 1)[0]
    documented = [name for line in section.splitlines() if line.startswith("| `")
                  for name in re.findall(r"`([A-Z0-9_]+)`", line.split("|")[1])]
    assert sorted(documented) == sorted(row.name for row in schedule.FAMILIES if row.name)
