"""The two scalar rules, `schedule.finite` and `schedule.count`, at every entry point.

Every scalar a user hands lrforge is a real number (a lambda, a k, an
observed metric, an optimizer setting) or a count (a budget, a width, an
iteration index). A real must pass `finite`: an int or float, never a bool,
that a float holds. A count must pass `count`: an int, never a bool, at or
above the field's lower bound; an iteration index that a policy is
evaluated at is also at most 2**53. A value outside its rule raises
`PolicyError` or `ValueError` naming the field, from the constructor or the
call that takes it, before anything runs; never `OverflowError` or
`TypeError`, and never halfway through a run.
"""

import ast
import math
import os
import re

import numpy as np
import pytest

from lrforge import adaptive, model, optim, problems, schedule, store, trainer, tuner
from lrforge.schedule import Fix, ReduceOnPlateau, count, finite

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lrforge")

FIX = Fix(k=0.1)
PLATEAU = ReduceOnPlateau(k=0.1, factor=0.5, patience=1)
CTX = tuner.TrialContext(model=model.Linear(2, 2), task=problems.gen_moons(seed=0, n=40),
                         optimizer=optim.OptimizerSpec(),
                         config=trainer.TrainConfig(batch_size=8, budget=10))
# never created: a store that is only queried writes nothing
NO_DB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "no-such-db.jsonl")

# no real number: past the float range either way, NaN, infinite, a bool, a string
NOT_REAL = [("int-past-the-float-range", 10**400), ("-int-past-the-float-range", -(10**400)),
            ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
            ("True", True), ("False", False), ("str", "1e-8")]
# no count: 10**400 is one, and 10.5 passes every lower bound the fields have
NOT_COUNT = [(label, v) for label, v in NOT_REAL if v != 10**400] + [("2.5", 2.5),
                                                                      ("10.5", 10.5)]

# (entry point, the field its error names, a call that takes the value)
REALS = [
    ("SearchSpace.lambda_grid", "lambda_grid",
     lambda v: tuner.SearchSpace(templates=(FIX,), lambda_grid=(v,))),
    ("SearchSpace.lambda_range-low", "lambda_range",
     lambda v: tuner.SearchSpace(templates=(FIX,), lambda_range=(v, 1.0), n_samples=2)),
    ("SearchSpace.lambda_range-high", "lambda_range",
     lambda v: tuner.SearchSpace(templates=(FIX,), lambda_range=(1e-3, v), n_samples=2)),
    ("draw_lambdas", "lambda_range", lambda v: tuner.draw_lambdas((1e-3, v), 2, 0)),
    ("range_test.k_grid", "k_grid", lambda v: tuner.range_test(CTX, [v])),
    ("range_test.tolerance", "tolerance", lambda v: tuner.range_test(CTX, [0.1], tolerance=v)),
    ("observe", "metric",
     lambda v: adaptive.observe(adaptive.initial_state(PLATEAU), PLATEAU, v)),
    ("OptimizerSpec.eps", "eps", lambda v: optim.OptimizerSpec("adam", eps=v)),
    ("OptimizerSpec.beta1", "betas", lambda v: optim.OptimizerSpec("adam", beta1=v)),
    ("OptimizerSpec.momentum", "momentum", lambda v: optim.OptimizerSpec("sgd", momentum=v)),
    ("TrainConfig.target_accuracy", "target_accuracy",
     lambda v: trainer.TrainConfig(target_accuracy=v)),
    ("Fix.k", "k", lambda v: Fix(k=v)),
    ("Scaled.lam", "lam", lambda v: schedule.Scaled(lam=v, base=FIX)),
]
COUNTS = [
    ("TrainConfig.budget", "budget", lambda v: trainer.TrainConfig(budget=v)),
    ("TrainConfig.batch_size", "batch_size", lambda v: trainer.TrainConfig(batch_size=v)),
    ("TrainConfig.eval_every", "eval_every", lambda v: trainer.TrainConfig(eval_every=v)),
    ("SearchSpace.trials_per_point", "trials_per_point",
     lambda v: tuner.SearchSpace(templates=(FIX,), trials_per_point=v)),
    ("SearchSpace.n_samples", "n_samples",
     lambda v: tuner.SearchSpace(templates=(FIX,), lambda_range=(0.1, 1.0), n_samples=v)),
    ("draw_lambdas.n", "n_samples", lambda v: tuner.draw_lambdas((0.1, 1.0), v, 0)),
    ("SearchSpace.boundaries", "boundaries",
     lambda v: tuner.SearchSpace(templates=(FIX,), boundaries=(0, v, 20))),
    ("range_test.trial_budget", "trial_budget",
     lambda v: tuner.range_test(CTX, [0.1], trial_budget=v)),
    ("MLP.hidden", "hidden", lambda v: model.MLP(2, v, 2)),
    ("Linear.d_in", "d_in", lambda v: model.Linear(v, 2)),
    ("gen_moons.n", "n", lambda v: problems.gen_moons(seed=0, n=v)),
    ("gen_blobs.n_per_class", "n_per_class", lambda v: problems.gen_blobs(seed=0, n_per_class=v)),
    ("gen_blobs.n_classes", "n_classes",
     lambda v: problems.gen_blobs(seed=0, n_per_class=2, n_classes=v)),
    ("gen_blobs.d", "d", lambda v: problems.gen_blobs(seed=0, n_per_class=2, d=v)),
    ("run_surface_trial.iterations", "iterations",
     lambda v: trainer.run_surface_trial(problems.Rosenbrock(), (0.0, 0.0), FIX,
                                         optim.OptimizerSpec(), v)),
    ("lr_at", "t", lambda v: schedule.lr_at(FIX, v)),
    ("sample_trace.t_max", "t_max", lambda v: schedule.sample_trace(FIX, v)),
    ("sample_trace.stride", "stride", lambda v: schedule.sample_trace(FIX, 10, v)),
    ("Step.l", "l", lambda v: schedule.Step(k=0.1, gamma=0.5, l=v)),
    ("NStep.milestones", "milestones",
     lambda v: schedule.NStep(k=0.1, gamma=0.5, milestones=(v,))),
    ("ReduceOnPlateau.cooldown", "cooldown",
     lambda v: ReduceOnPlateau(k=0.1, factor=0.5, patience=1, cooldown=v)),
    ("query_top_k", "k", lambda v: store.PolicyStore(NO_DB).query_top_k("t", v)),
]
# a seed is a count too: numpy takes no other, and its errors name no field
SEEDS = [
    ("TrainConfig.seed", "seed", lambda v: trainer.TrainConfig(seed=v)),
    ("gen_moons.seed", "seed", lambda v: problems.gen_moons(seed=v, n=8)),
    ("gen_blobs.seed", "seed", lambda v: problems.gen_blobs(seed=v, n_per_class=2)),
    ("SearchSpace.seed", "seed",
     lambda v: tuner.SearchSpace(templates=(FIX,), lambda_range=(0.1, 1.0), n_samples=2,
                                 seed=v)),
]
NOT_SEED = NOT_COUNT + [("-1", -1)]
# reals of the surfaces and datasets; a matrix entry that is a NaN or infinite
# float fails the matrix checks, with their own messages (tests/test_problems.py)
PROBLEM_REALS = [
    ("gen_blobs.separation", "separation",
     lambda v: problems.gen_blobs(seed=0, n_per_class=2, separation=v)),
    ("Well.center", "center", lambda v: problems.Well(center=(v, 0.0), depth=1.0, width=1.0)),
    ("Well.depth", "depth", lambda v: problems.Well(center=(0.0, 0.0), depth=v, width=1.0)),
    ("Well.width", "width", lambda v: problems.Well(center=(0.0, 0.0), depth=1.0, width=v)),
    ("Rosenbrock.a", "a", lambda v: problems.Rosenbrock(a=v)),
    ("Rosenbrock.b", "b", lambda v: problems.Rosenbrock(b=v)),
]
MATRIX = [("Quadratic.a", "a", lambda v: problems.Quadratic(a=[[2, v], [v, 2]]))]
NOT_ENTRY = [(label, v) for label, v in NOT_REAL if not isinstance(v, float)]
# a t past 2**53, the largest integer a float holds exactly, overflows a closed
# form (gamma ** t) or leaves math's domain (sin)
CURVES = [("STEP", schedule.Step(k=0.1, gamma=0.5, l=1)), ("EXP", schedule.Exp(k=0.1, gamma=0.5)),
          ("TRI", schedule.Tri(k0=0.1, k1=1.0, l=4)), ("TRI2", schedule.Tri2(k0=0.1, k1=1.0, l=4)),
          ("TRIEXP", schedule.TriExp(k0=0.1, k1=1.0, l=4, gamma=0.5)),
          ("SIN", schedule.Sin(k0=0.1, k1=1.0, l=4)), ("SIN2", schedule.Sin2(k0=0.1, k1=1.0, l=4)),
          ("SINEXP", schedule.SinExp(k0=0.1, k1=1.0, l=4, gamma=0.5)),
          ("WARMUP-EXP", schedule.Warmup(w=2, inner=schedule.Exp(k=0.1, gamma=0.5))),
          ("SCALED-STEP", schedule.Scaled(lam=2.0, base=schedule.Step(k=0.1, gamma=0.5, l=1)))]
TIMES = [(f"lr_at-{name}", "t", lambda v, p=policy: schedule.lr_at(p, v))
         for name, policy in CURVES] + [
    ("sample_trace.t_max", "t_max", lambda v: schedule.sample_trace(CURVES[0][1], v, v))]
PAST_T = [("2**53+1", 2**53 + 1), ("10**308", 10**308), ("10**400", 10**400)]
# ints past the 4300 digits that repr gives (sys.set_int_max_str_digits): a
# message shows one by its bit length, so it still names the field
TOO_LONG = [("10**5000", 10**5000), ("-10**5000", -(10**5000))]
POLY = schedule.Poly(k=1.0, p=1.0, t_max=5)
# a count that no rule rejects, but that a horizon or numpy's index range does
HUGE_COUNTS = [
    ("compile", "t_max", lambda v: schedule.compile(POLY, v)),
    ("run_surface_trial.horizon", "t_max",
     lambda v: trainer.run_surface_trial(problems.Rosenbrock(), (0.0, 0.0), POLY,
                                         optim.OptimizerSpec(), v)),
    ("Composite.segments", "segments",
     lambda v: schedule.Composite(segments=(schedule.Segment(0, v, POLY),))),
    ("gen_moons.n-past-intp", "n", lambda v: problems.gen_moons(seed=0, n=v)),
]


@pytest.fixture
def nothing_runs(monkeypatch):
    """Fail the test if a training or surface run starts."""
    def run(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(tuner, "run_population", run)
    monkeypatch.setattr(trainer, "surface_value_grad", run)


@pytest.mark.parametrize("field, call, value", [
    pytest.param(field, call, value, id=f"{name}-{label}")
    for entries, values in ((REALS, NOT_REAL), (COUNTS, NOT_COUNT), (SEEDS, NOT_SEED),
                            (PROBLEM_REALS, NOT_REAL), (MATRIX, NOT_ENTRY), (TIMES, PAST_T),
                            (REALS + PROBLEM_REALS + MATRIX, TOO_LONG),
                            (COUNTS + SEEDS, TOO_LONG[1:]),
                            (HUGE_COUNTS, TOO_LONG[:1]))
    for name, field, call in entries for label, value in values])
def test_a_value_outside_its_rule_is_rejected_naming_the_field(nothing_runs, field, call,
                                                                value):
    # PolicyError is a ValueError; an OverflowError or a TypeError fails the test
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        call(value)
    assert not os.path.exists(NO_DB)


def test_the_rules():
    for value in (0, -3, 2.5, 0.0, -1e308, 10**300, np.float64(1.5)):
        assert finite(value)
    for value in (10**400, -(10**400), math.nan, math.inf, -math.inf, True, False, "1", None):
        assert not finite(value)
    assert count(0) and count(5, 5) and count(10**400, 1)
    for value, low in ((-1, 0), (4, 5), (True, 0), (False, 0), (2.0, 0), (None, 0)):
        assert not count(value, low)


MAX, TINY = float(np.finfo(float).max), float(np.finfo(float).smallest_subnormal)


@pytest.mark.parametrize("value", [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, MAX, -MAX, float(np.nextafter(MAX, 0)),
    TINY, -TINY, 2.2e-308, np.float64(1.5), np.float64(math.inf), np.float64(math.nan),
    np.float64(MAX), np.float64(-TINY), True, False, 0, -3, 10**308, int(MAX), int(MAX) + 1,
    -int(MAX) - 1, 10**400, -(10**400), "1.0", None,
], ids=repr)
def test_the_exact_float_fast_path_agrees_with_the_general_rule(value):
    # `finite` admits an exact float by its type alone; every value must get
    # the answer of the general rule: a number, never a bool, that a float holds
    assert finite(value) == (schedule.number(value) and abs(value) <= MAX)


def test_no_module_checks_finiteness_but_through_the_rule():
    # a fifth idiom of "is this a usable number" fails here: only the body of
    # schedule.finite may name math.isfinite, math.inf or float_info
    found, rule = [], None
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as f:
            text = f.read()
        allowed = set()
        if name == "schedule.py":
            rule = next(node for node in ast.walk(ast.parse(text))
                        if isinstance(node, ast.FunctionDef) and node.name == "finite")
            allowed = set(range(rule.lineno, rule.end_lineno + 1))
        found += [f"{name}:{i}: {line.strip()}"
                  for i, line in enumerate(text.splitlines(), start=1)
                  if re.search(r"math\.isfinite|math\.inf|float_info", line)
                  and i not in allowed]
    assert rule is not None
    assert found == []


# the entry points whose message shows a count (or, for target_accuracy, a
# real) as it was given: a numpy scalar, which no rule takes, shows as one
SHOWN = {"TrainConfig.budget", "TrainConfig.batch_size", "TrainConfig.eval_every",
         "TrainConfig.target_accuracy", "TrainConfig.seed", "run_surface_trial.iterations",
         "gen_moons.n", "gen_blobs.n_per_class", "gen_moons.seed", "query_top_k",
         "SearchSpace.n_samples", "SearchSpace.seed", "SearchSpace.trials_per_point"}


@pytest.mark.parametrize("field, call, value", [
    pytest.param(field, call, np.float32(0.5) if field == "target_accuracy" else np.int64(5),
                 id=name)
    for name, field, call in REALS + COUNTS + SEEDS if name in SHOWN])
def test_a_rejected_numpy_scalar_shows_its_type(nothing_runs, field, call, value):
    with pytest.raises(ValueError) as e:
        call(value)
    assert field in str(e.value) and repr(value) in str(e.value)


def test_an_int_too_long_to_print_shows_its_bit_length():
    huge = 10**5000  # past the 4300 digits repr gives by default
    step = schedule.Step(k=0.1, gamma=0.5, l=huge)
    assert step.l == huge and schedule.lr_at(step, 7) == 0.1
    # a segment's bounds are formatted only if its policy fails to cover it
    multi = schedule.Composite(segments=(schedule.Segment(0, huge, Fix(k=1.0)),))
    assert schedule.lr_at(multi, 7) == 1.0
    bits = huge.bit_length()
    policy_error = schedule.PolicyError
    for call, message, error in [
            (lambda: schedule.lr_at(FIX, huge), f"t must be <= 2**53, got an int of {bits} bits",
             policy_error),
            (lambda: schedule.sample_trace(FIX, huge),
             f"t_max must be <= 2**53, got an int of {bits} bits", policy_error),
            (lambda: Fix(k=-huge), f"k must be finite, got a negative int of {bits} bits",
             policy_error),
            (lambda: schedule.Step(k=0.1, gamma=0.5, l=-huge),
             f"l must be an integer >= 1, got a negative int of {bits} bits", policy_error),
            (lambda: schedule.compile(schedule.Poly(k=1.0, p=1.0, t_max=5), huge),
             f"POLY t_max ends at t=5, shorter than a run whose length is an int of {bits} bits "
             f"(last step t=an int of {bits} bits)", policy_error),
            (lambda: trainer.TrainConfig(budget=-huge),
             f"budget must be >= 0, got a negative int of {bits} bits", ValueError),
            (lambda: tuner.SearchSpace(templates=(FIX,), boundaries=(0, -huge)),
             f"boundaries must start at 0 and strictly increase, "
             f"got (0, a negative int of {bits} bits)", policy_error)]:
        with pytest.raises(error) as e:
            call()
        assert type(e.value) is error and str(e.value) == message
