"""The stacked trainer against an independent per-step loop over each trial.

`reference.ref_run_trial` follows `run_trial`'s documented rules with its
own loop, loss, gradient and optimizer formulas. Every trace that
`run_population` gives must equal it byte for byte: LRs and their types,
losses, evaluations, outcome and final params. Hypothesis draws the
populations from a fixed seed. Tier-1 runs EXAMPLES of them; under
`--hypothesis-profile=oracle-deep` (conftest.py) the test runs that
profile's count instead.
"""

from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrforge import problems
from lrforge.adaptive import ChangeOnPlateau, ReduceOnPlateau
from lrforge.model import MLP, Linear, init_params
from lrforge.optim import OptimizerSpec
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
from lrforge.trainer import TrainConfig, run_population

from reference import ref_run_trial

# huge LRs overflow the update on their way to diverging
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                        "ignore:invalid value encountered:RuntimeWarning")

EXAMPLES = 40
DEEP = settings.get_current_profile_name() == "oracle-deep"

# two classes with 24 train points, three with 16: batch sizes 23 and 5
# leave a last batch of one
TASKS = {"moons": problems.gen_moons(seed=1, n=30, noise=0.3),
         "blobs": problems.gen_blobs(seed=2, n_per_class=7, n_classes=3, separation=3.0)}
OPTIMIZERS = (OptimizerSpec("sgd"), OptimizerSpec("sgd", momentum=0.9), OptimizerSpec("adam"))


class Case(NamedTuple):
    task: str
    model: object
    optimizer: OptimizerSpec
    config: TrainConfig
    trials: tuple          # (policy, seed) pairs
    init_seed: Optional[int]  # warm start from this seed's init, shared by every trial


# integer k and gamma give integer LRs; 1e300 diverges, and a lambda of 1e308
# overflows to inf over a k > 1
K = st.sampled_from([0, 1, 2, 0.01, 0.1, 0.5, 3.0, 1e300])
POSITIVE_K = st.sampled_from([1, 2, 0.05, 0.5])
GAMMA = st.sampled_from([1, 1.0, 0.5, 0.9])
L = st.integers(1, 6)
# an integer LR stays one under an integer lambda, and not under a float one
LAMBDA = st.sampled_from([0.5, 2, 3, 0.7, 1e-3, 1e308])


def _covering(steps: int):
    """A t_max that covers t = 0 .. steps - 1."""
    return st.integers(max(1, steps - 1), steps + 4)


def _cyclic(cls, **extra):
    return st.builds(lambda a, b, **kw: cls(k0=min(a, b), k1=max(a, b), **kw), K, K,
                     l=L, **extra)


def _annealing(cls, steps: int):
    return st.builds(lambda a, b, t_max: cls(k=max(a, b), t_max=t_max, k_min=min(a, b)),
                     K, K, _covering(steps))


def _families(steps: int):
    """Every closed-form formula family, bare, covering `steps` steps."""
    milestones = st.lists(st.integers(0, 25), unique=True, max_size=3).map(
        lambda ms: tuple(sorted(ms)))
    return st.one_of(
        st.builds(Fix, k=K),
        st.builds(Step, k=K, gamma=GAMMA, l=L),
        st.builds(NStep, k=K, gamma=GAMMA, milestones=milestones),
        st.builds(Exp, k=K, gamma=GAMMA, l=L),
        st.builds(Poly, k=K, p=st.sampled_from([1, 0.5, 2.0]), t_max=_covering(steps)),
        _annealing(CosineDecay, steps), _annealing(LinearDecay, steps),
        _cyclic(Tri), _cyclic(Tri2), _cyclic(Sin), _cyclic(Sin2),
        _cyclic(TriExp, gamma=GAMMA), _cyclic(SinExp, gamma=GAMMA))


@st.composite
def _multi(draw, steps: int):
    end = draw(st.integers(max(1, steps), steps + 4))
    cut = draw(st.integers(1, end))
    if cut == end:
        return Composite(segments=(Segment(0, end, draw(_families(end))),))
    return Composite(segments=(Segment(0, cut, draw(_families(cut))),
                               Segment(cut, end, draw(_families(end - cut)))))


def _closed_forms(steps: int):
    """A closed-form policy covering `steps` steps: a family bare, under
    WARMUP or in MULTI, or one of integer LRs."""
    families = _families(steps)
    warmup = st.one_of(
        st.builds(Warmup, w=st.sampled_from([0, 1, 4]), inner=families),
        st.builds(Warmup, w=st.just(0.25),
                  inner=_annealing(CosineDecay, steps) | _annealing(LinearDecay, steps)))
    integer = st.builds(Fix, k=st.integers(1, 3)) | st.builds(Step, k=st.integers(1, 3),
                                                              gamma=st.just(1), l=L)
    return st.sampled_from([integer, families, warmup, _multi(steps)]).flatmap(lambda s: s)


def _plateaus(steps: int):
    shared = dict(patience=st.integers(1, 2),
                  monitor=st.sampled_from(["test_accuracy", "train_loss"]),
                  mode=st.sampled_from(["max", "min"]),
                  min_delta=st.sampled_from([0, 0.01]), cooldown=st.integers(0, 1))
    return st.one_of(
        st.builds(ReduceOnPlateau, k=POSITIVE_K, factor=st.sampled_from([0.5, 0.1]),
                  min_lr=st.sampled_from([0, 0.05, 1]), **shared),
        st.builds(ChangeOnPlateau, policies=st.lists(_closed_forms(steps), min_size=1,
                                                     max_size=3).map(tuple), **shared))


@st.composite
def _cases(draw):
    name = draw(st.sampled_from(sorted(TASKS)))
    task = TASKS[name]
    k, n_train = task.train.n_classes, task.train.features.shape[0]
    budget = draw(st.sampled_from([0, *range(4, 21)]))
    config = TrainConfig(
        batch_size=draw(st.sampled_from([1, 5, n_train - 1, n_train, n_train + 3])),
        budget=budget, eval_every=draw(st.none() | st.integers(1, 7)),
        target_accuracy=draw(st.none() | st.sampled_from([0.6, 0.8, 1.0])))
    # searches scale a few shared templates by many lambdas, so bases are shared
    templates = draw(st.lists(_closed_forms(budget), min_size=1, max_size=3))
    template = st.sampled_from(templates)
    policy = st.sampled_from([
        template,
        st.builds(Scaled, lam=LAMBDA, base=template),
        st.builds(Scaled, lam=LAMBDA, base=st.builds(Scaled, lam=LAMBDA, base=template)),
        _plateaus(budget)]).flatmap(lambda s: s)
    trials = draw(st.lists(st.tuples(policy, st.integers(0, 3)), min_size=1, max_size=12))
    return Case(name, draw(st.sampled_from([Linear(2, k), MLP(2, 5, k)])),
                draw(st.sampled_from(OPTIMIZERS)), config, tuple(trials),
                draw(st.none() | st.integers(0, 9)))


# every rule at once: a diverging row beside integer, float-scaled integer,
# plateau and cyclic rows, evaluations mid-epoch, a last batch of one
MIXED = Case("moons", MLP(2, 5, 2), OPTIMIZERS[1],
             TrainConfig(batch_size=23, budget=20, eval_every=3, target_accuracy=1.0),
             ((Scaled(lam=1e308, base=Fix(2.0)), 0), (Fix(1), 1),
              (Scaled(lam=2.0, base=Fix(1)), 2), (Scaled(lam=2, base=Fix(1)), 3),
              (ReduceOnPlateau(k=0.5, factor=0.5, patience=1), 2),
              (ChangeOnPlateau(policies=(Fix(0.01), Fix(0.3)), patience=1,
                               monitor="train_loss", mode="min"), 3),
              (Tri(k0=0.01, k1=0.5, l=3), 0)),
             None)


@example(case=MIXED)
@example(case=Case("blobs", Linear(2, 3), OPTIMIZERS[2],  # budget 0, warm start
                   TrainConfig(batch_size=5, budget=0), ((Fix(0.1), 0),), 4))
@example(case=Case("blobs", Linear(2, 3), OPTIMIZERS[0],  # target met at step 0
                   TrainConfig(batch_size=5, budget=10, target_accuracy=0.01),
                   ((Fix(0.1), 0), (Fix(0.2), 1)), None))
@given(case=_cases())
@settings(max_examples=settings.default.max_examples if DEEP else EXAMPLES,
          derandomize=True, deadline=None)
def test_every_trace_equals_the_per_step_oracle(case):
    task = TASKS[case.task]
    init = None if case.init_seed is None else init_params(case.model, case.init_seed)
    traces = run_population(case.model, task, case.trials, case.optimizer, case.config,
                            init=init)
    assert len(traces) == len(case.trials)
    for i, ((policy, seed), trace) in enumerate(zip(case.trials, traces)):
        want = ref_run_trial(case.model, task, policy, case.optimizer,
                             replace(case.config, seed=seed), init)
        where = f"trial {i}: {policy!r}, seed {seed}"
        assert trace.lrs == want["lrs"], where
        assert [type(lr) for lr in trace.lrs] == [type(lr) for lr in want["lrs"]], where
        assert trace.step_lrs.tobytes() == np.array(want["lrs"], dtype=float).tobytes(), where
        # bytes, not ==: a diverged step's loss may be nan
        assert trace.step_losses.tobytes() == want["losses"].tobytes(), where
        assert list(zip(trace.eval_iterations, trace.eval_accuracies)) == want["evals"], where
        assert trace.outcome.to_dict() == want["outcome"], where
        assert trace.final_params.tobytes() == want["final_params"].tobytes(), where
