"""Stacked trials equal lone trials, bit for bit, whatever stops them."""

import math
from dataclasses import replace

import pytest

from lrforge import schedule
from lrforge.adaptive import ChangeOnPlateau, ReduceOnPlateau
from lrforge.model import MLP, Linear
from lrforge.optim import OptimizerSpec
from lrforge.schedule import Fix, Scaled
from lrforge.trainer import TrainConfig, run_population, run_trial

# the 1e308 LR overflows the optimizer update on its way to diverging
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

# (policy, seed). The random inits of seed 0 (MLP) and seed 6 (linear) are
# the only ones that already meet their model's target on blobs_task.
TRIALS = [
    (Scaled(lam=1e5, base=Fix(1.0)), 1),
    (Scaled(lam=1e5, base=Fix(1e303)), 2),
    (Fix(1e-6), 3),
    (Fix(0.1), 1),
    (Fix(1), 4),
    (schedule.Tri2(k0=0.01, k1=0.5, l=20), 0),
    (schedule.Tri2(k0=0.01, k1=0.5, l=20), 6),
    (ReduceOnPlateau(k=1e-4, factor=0.5, patience=1), 2),
    (ReduceOnPlateau(k=1e-4, factor=0.5, patience=1, monitor="train_loss", mode="min",
                     min_delta=0.01), 5),
    (ChangeOnPlateau(policies=(Fix(1e-6), Fix(0.05)), patience=1,
                     monitor="train_loss", mode="min", min_delta=1e-3), 7),
    (ChangeOnPlateau(policies=(Fix(1e-5), Fix(0.003)), patience=2), 3),
]
PLATEAU = range(7, 11)

# name -> (model, optimizer, target accuracy)
CASES = {
    "mlp-sgd": (MLP(2, 8, 3), OptimizerSpec("sgd"), 0.65),
    "mlp-momentum": (MLP(2, 8, 3), OptimizerSpec("sgd", momentum=0.9), 0.65),
    "mlp-adam": (MLP(2, 8, 3), OptimizerSpec("adam"), 0.65),
    "linear-sgd": (Linear(2, 3), OptimizerSpec("sgd"), 0.6),
    "linear-adam": (Linear(2, 3), OptimizerSpec("adam"), 0.6),
}


def _kind(outcome) -> str:
    if outcome.diverged:
        return "diverged"
    if outcome.iterations_to_target is None:
        return "budget"
    return "target@0" if outcome.iterations_to_target == 0 else "target"


def _same(stacked, alone):
    assert stacked.outcome.to_dict() == alone.outcome.to_dict()
    assert stacked.iterations == alone.iterations
    assert stacked.lrs == alone.lrs
    assert [type(lr) for lr in stacked.lrs] == [type(lr) for lr in alone.lrs]
    # bytes, not ==: a diverged step's loss may be nan
    assert stacked.step_losses.tobytes() == alone.step_losses.tobytes()
    assert len(stacked.losses) == len(alone.losses)
    assert stacked.eval_iterations == alone.eval_iterations
    assert stacked.eval_accuracies == alone.eval_accuracies
    assert stacked.final_params.tobytes() == alone.final_params.tobytes()


@pytest.mark.parametrize("case", CASES)
def test_stacked_trials_equal_trials_run_alone(case, blobs_task):
    spec, opt, target = CASES[case]
    config = TrainConfig(batch_size=16, budget=300, eval_every=20, target_accuracy=target)
    traces = run_population(spec, blobs_task, TRIALS, opt, config)
    assert {_kind(t.outcome) for t in traces} == {"diverged", "target@0", "target", "budget"}
    assert all(len(set(traces[i].lrs)) > 1 for i in PLATEAU)
    assert type(traces[4].lrs[0]) is int  # Fix(1): integer LRs stay integers
    for (policy, seed), stacked in zip(TRIALS, traces):
        alone = run_trial(spec, blobs_task, policy, opt, replace(config, seed=seed))
        _same(stacked, alone)


def test_warm_started_population_equals_warm_started_trials(blobs_task):
    spec, opt = MLP(2, 8, 3), OptimizerSpec("sgd", momentum=0.9)
    config = TrainConfig(batch_size=16, budget=100, eval_every=20)
    init = run_trial(spec, blobs_task, Fix(0.05), opt, replace(config, budget=30)).final_params
    traces = run_population(spec, blobs_task, TRIALS, opt, config, init=init)
    assert {_kind(t.outcome) for t in traces} == {"diverged", "budget"}
    for (policy, seed), stacked in zip(TRIALS, traces):
        assert stacked.eval_accuracies[0] == traces[0].eval_accuracies[0]
        _same(stacked, run_trial(spec, blobs_task, policy, opt, replace(config, seed=seed),
                                 init=init))


def test_a_non_finite_lr_diverges_only_its_own_row(blobs_task):
    spec, opt = MLP(2, 8, 3), OptimizerSpec("adam")
    config = TrainConfig(batch_size=16, budget=100, eval_every=20)
    overflow = Scaled(lam=1e6, base=Fix(1e303))  # passes validation, but its LR is inf
    # integer LRs past the float range: the exact product 10**600 under a float
    # lambda, once more inside the base, and the same product in floats, which
    # is no integer LR
    huge = Scaled(lam=10**300, base=Fix(10**300))
    trials = [(Fix(0.05), 1), (overflow, 2), (Fix(0.1), 3),
              (ChangeOnPlateau(policies=(Fix(1e-6), overflow), patience=1), 4),
              (Scaled(lam=2.0, base=huge), 5),
              (Scaled(lam=2.0, base=Scaled(lam=3.0, base=huge)), 6), (huge, 7)]
    traces = run_population(spec, blobs_task, trials, opt, config)
    first, late = traces[1], traces[3]
    assert first.outcome.diverged and first.lrs == [math.inf]
    assert late.outcome.diverged and 20 < late.outcome.iterations_run < 100
    assert late.lrs[-1] == math.inf and math.isfinite(late.lrs[-2])
    for trace in traces[4:]:
        assert trace.outcome.diverged and trace.lrs == [math.inf]
    assert not traces[0].outcome.diverged and not traces[2].outcome.diverged
    for (policy, seed), stacked in zip(trials, traces):
        _same(stacked, run_trial(spec, blobs_task, policy, opt, replace(config, seed=seed)))


def test_each_base_curve_times_its_lambda_equals_the_policy(blobs_task):
    spec, opt = Linear(2, 3), OptimizerSpec("sgd", momentum=0.5)
    config = TrainConfig(batch_size=16, budget=90, eval_every=30)
    tri, one, huge = schedule.Tri2(k0=0.01, k1=0.2, l=15), Fix(1), Fix(1e303)
    closed = [
        (tri, 0),                                      # lambda 1.0: the template itself
        (Scaled(lam=0.5, base=tri), 1),                # one template under several lambdas
        (Scaled(lam=0.1, base=tri), 0),
        (Scaled(lam=3.0, base=Scaled(lam=0.3, base=tri)), 2),  # Scaled of Scaled
        (one, 3),                                      # integer LRs
        (Scaled(lam=2, base=one), 3),                  # integer lambda x integer base
        (Scaled(lam=0.05, base=one), 4),
        (Scaled(lam=1e6, base=huge), 1),               # lambda * base overflows to inf
        (Scaled(lam=1e-305, base=huge), 1),            # the same base, finite
    ]
    plateau = (ReduceOnPlateau(k=0.01, factor=0.5, patience=1), 2)
    for trials in (closed, closed + [plateau]):
        traces = run_population(spec, blobs_task, trials, opt, config)
        for (policy, seed), stacked in zip(trials, traces):
            _same(stacked, run_trial(spec, blobs_task, policy, opt, replace(config, seed=seed)))
        for (policy, _), trace in zip(closed, traces):
            want = [schedule.lr_at(policy, t) for t in trace.iterations]
            assert trace.lrs == want
            assert [type(lr) for lr in trace.lrs] == [type(lr) for lr in want]
            assert trace.int_lr_steps == tuple(t for t, lr in enumerate(want)
                                               if type(lr) is int)
        assert traces[5].lrs[:3] == [2, 2, 2] and type(traces[6].lrs[0]) is float
        assert [t.outcome.diverged for t in traces] == [i == 7 for i in range(len(trials))]
        assert traces[7].lrs == [math.inf]
