"""Training loop behavior: determinism, eval cadence, stopping rules."""

import math

import numpy as np
import pytest

from lrforge import optim, schedule, trainer
from lrforge.adaptive import ChangeOnPlateau, ReduceOnPlateau
from lrforge.model import MLP, Linear, forward_loss_grad, init_params
from lrforge.optim import OptimizerSpec
from lrforge.problems import MultiBasin, Quadratic, Well, surface_value_grad
from lrforge.trainer import (
    TrainConfig,
    epoch_length,
    run_population,
    run_surface_trial,
    run_trial,
    write_eval_csv,
    write_surface_csv,
    write_train_csv,
)

import reference
from reference import ref_surface_trial

SGD = OptimizerSpec("sgd")


def test_epoch_length_rounds_up():
    assert epoch_length(100, 32) == 4
    assert epoch_length(96, 32) == 3
    assert epoch_length(1, 32) == 1
    assert epoch_length(1, 10**400) == 1


def test_config_validation():
    for bad in ({"batch_size": 0}, {"budget": -1}, {"eval_every": 0},
                {"target_accuracy": 0.0}, {"target_accuracy": 1.5}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_same_seed_same_trace(blobs_task):
    spec = Linear(2, 3)
    cfg = TrainConfig(batch_size=16, budget=120, eval_every=40, seed=3)
    a = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD, cfg)
    b = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD, cfg)
    assert a.losses == b.losses
    assert a.eval_accuracies == b.eval_accuracies
    assert np.array_equal(a.final_params, b.final_params)
    c = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD,
                  TrainConfig(batch_size=16, budget=120, eval_every=40, seed=4))
    assert a.losses != c.losses


def test_eval_cadence_explicit(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=100, eval_every=25, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.01), SGD, cfg)
    assert trace.eval_iterations == [0, 25, 50, 75, 100]
    assert trace.iterations == list(range(100))
    assert trace.outcome.iterations_run == 100
    assert trace.outcome.final_accuracy == trace.eval_accuracies[-1]
    assert trace.outcome.best_accuracy == max(trace.eval_accuracies)


def test_eval_cadence_off_stride_still_hits_budget(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=110, eval_every=25, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.01), SGD, cfg)
    assert trace.eval_iterations == [0, 25, 50, 75, 100, 110]


def test_eval_every_none_means_per_epoch(blobs_task):
    # 120 train rows / batch 16 -> 8 iterations per epoch
    cfg = TrainConfig(batch_size=16, budget=24, eval_every=None, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.01), SGD, cfg)
    assert trace.eval_iterations == [0, 8, 16, 24]


def test_zero_budget_still_evaluates(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=0, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.01), SGD, cfg)
    assert trace.eval_iterations == [0]
    assert trace.outcome.iterations_run == 0
    assert not trace.outcome.diverged
    assert trace.outcome.iterations_to_target is None


def test_early_stop_at_target(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=500, eval_every=10, seed=0,
                      target_accuracy=0.9)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.1), SGD, cfg)
    hit = trace.outcome.iterations_to_target
    assert hit is not None and 0 < hit <= 500
    # the recorded hit is the first evaluation at or above the target
    first = next(t for t, acc in zip(trace.eval_iterations, trace.eval_accuracies)
                 if acc >= 0.9)
    assert hit == first
    assert trace.outcome.iterations_run == hit
    assert trace.outcome.final_accuracy >= 0.9


def test_target_met_before_any_step(blobs_task):
    # an impossible-to-miss target: any classifier has accuracy >= 0
    cfg = TrainConfig(batch_size=16, budget=100, eval_every=10, seed=0,
                      target_accuracy=1e-9)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.1), SGD, cfg)
    assert trace.outcome.iterations_to_target == 0
    assert trace.outcome.iterations_run == 0
    assert trace.iterations == []


def test_divergence_is_an_outcome_not_an_exception(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=300, eval_every=50, seed=0)
    trace = run_trial(MLP(2, 8, 3), blobs_task, schedule.Fix(1e12), SGD, cfg)
    assert trace.outcome.diverged
    assert trace.outcome.iterations_run < 300
    assert trace.outcome.iterations_to_target is None
    # the blow-up iteration is recorded, then a final eval closes the trace
    assert trace.eval_iterations[-1] == trace.outcome.iterations_run
    assert len(trace.iterations) == trace.outcome.iterations_run


# LRs that are not finite: NaN, infinite either way, an int past the float range
NOT_FINITE_LRS = [math.nan, math.inf, -math.inf, np.float64("inf"), 10**400, -(10**400)]
NOT_FINITE_IDS = ["nan", "inf", "-inf", "float64-inf", "int-past-the-float-range",
                  "-int-past-the-float-range"]


@pytest.mark.parametrize("bad", NOT_FINITE_LRS, ids=NOT_FINITE_IDS)
def test_any_lr_a_curve_gives_that_is_not_finite_diverges_its_row(bad, blobs_task, monkeypatch):
    # the trainer's rule holds for every value, not only those a policy family
    # gives; the base curve's row and its Scaled row diverge at step 3, alone
    spiked, compile = schedule.Fix(0.05), schedule.compile
    monkeypatch.setattr(schedule, "compile", lambda policy, steps: (
        (lambda t: 0.05 if t < 3 else bad) if policy is spiked else compile(policy, steps)))
    cfg = TrainConfig(batch_size=16, budget=20, eval_every=5)
    trials = [(schedule.Fix(0.1), 1), (spiked, 2), (schedule.Scaled(lam=2.0, base=spiked), 3)]
    traces = run_population(Linear(2, 3), blobs_task, trials, SGD, cfg)
    assert not traces[0].outcome.diverged and traces[0].outcome.iterations_run == 20
    for (policy, _), trace in zip(trials[1:], traces[1:]):
        assert trace.outcome.diverged and trace.outcome.iterations_run == 4
        assert trace.lrs[:3] == [schedule.lr_at(policy, 0)] * 3
        assert not math.isfinite(trace.lrs[3]) and trace.int_lr_steps == ()
        assert np.isfinite(trace.final_params).all()
    for (policy, seed), trace in zip(trials, traces):
        alone = run_trial(Linear(2, 3), blobs_task, policy, SGD,
                          TrainConfig(batch_size=16, budget=20, eval_every=5, seed=seed))
        assert trace.step_lrs.tobytes() == alone.step_lrs.tobytes()
        assert trace.final_params.tobytes() == alone.final_params.tobytes()


# name -> (model, task fixture, optimizer, target accuracy): in each, trial 0
# diverges at step 31 (its LR overflows to inf), trials 1 and 2 reach the
# target at an evaluation between steps 20 and 60, and trials 3 and 4 run
# the whole budget
STOPPING = {
    "mlp-k2-momentum": (MLP(2, 8, 2), "moons_task", OptimizerSpec("sgd", momentum=0.9), 0.85),
    "linear-k2-adam": (Linear(2, 2), "moons_task", OptimizerSpec("adam"), 0.87),
    "mlp-k3-adam": (MLP(2, 8, 3), "blobs_task", OptimizerSpec("adam", beta1=0.5), 0.95),
    "linear-k3-momentum": (Linear(2, 3), "blobs_task", OptimizerSpec("sgd", momentum=0.9), 0.9),
}
BLOWUP = schedule.Composite(segments=(
    schedule.Segment(0, 30, schedule.Fix(0.001)),
    schedule.Segment(30, 121, schedule.Scaled(lam=1e10, base=schedule.Fix(1e300)))))
STOPPING_TRIALS = [(BLOWUP, 1), (schedule.Fix(0.5), 2), (schedule.Fix(0.05), 3),
                   (schedule.Fix(1e-6), 4), (schedule.Fix(1e-6), 5)]


@pytest.mark.parametrize("case", STOPPING)
def test_a_trial_that_stops_keeps_its_bytes_while_the_stack_steps_on(case, request,
                                                                      monkeypatch):
    # the stack's params, gradient and moments are buffers that every step
    # overwrites in place; a trace closed when its trial stops must own its
    # params and keep every byte it had then, to the end of the population
    spec, task, opt, target = STOPPING[case]
    closed, make = [], trainer.TrialTrace  # (trace, its bytes when it was closed)

    def trace_at_close(**fields):
        trace = make(**fields)
        closed.append((trace, [trace.final_params.tobytes(), trace.step_lrs.tobytes(),
                               trace.step_losses.tobytes()]))
        return trace

    monkeypatch.setattr(trainer, "TrialTrace", trace_at_close)
    cfg = TrainConfig(batch_size=16, budget=120, eval_every=20, target_accuracy=target)
    traces = run_population(spec, request.getfixturevalue(task), STOPPING_TRIALS, opt, cfg)
    outcomes = [t.outcome for t in traces]
    assert outcomes[0].diverged and outcomes[0].iterations_run == 31
    assert all(20 <= o.iterations_to_target <= 60 for o in outcomes[1:3])
    assert [o.iterations_run for o in outcomes[3:]] == [120, 120]
    assert sorted(map(id, traces)) == sorted(id(t) for t, _ in closed)
    for trace, at_close in closed:
        assert trace.final_params.base is None  # a copy, no view into the stack
        assert [trace.final_params.tobytes(), trace.step_lrs.tobytes(),
                trace.step_losses.tobytes()] == at_close


def test_reduce_on_plateau_lowers_lr(blobs_task):
    policy = ReduceOnPlateau(k=0.5, factor=0.1, patience=1)
    cfg = TrainConfig(batch_size=16, budget=400, eval_every=20, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, policy, SGD, cfg)
    lrs = set(trace.lrs)
    assert 0.5 in lrs
    assert any(lr < 0.5 for lr in lrs), "accuracy saturates, lr must drop"
    assert not trace.outcome.diverged


def test_change_on_plateau_switches_policy(blobs_task):
    policy = ChangeOnPlateau(policies=(schedule.Fix(0.5), schedule.Fix(0.003)),
                             patience=1)
    cfg = TrainConfig(batch_size=16, budget=400, eval_every=20, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, policy, SGD, cfg)
    assert 0.5 in trace.lrs and 0.003 in trace.lrs


def test_warm_start_from_checkpoint(blobs_task):
    spec = Linear(2, 3)
    cfg = TrainConfig(batch_size=16, budget=60, eval_every=30, seed=0)
    first = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD, cfg)
    resumed = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD, cfg,
                        init=first.final_params)
    assert resumed.eval_accuracies[0] == first.eval_accuracies[-1]
    fresh = run_trial(spec, blobs_task, schedule.Fix(0.05), SGD, cfg)
    assert np.array_equal(fresh.final_params, first.final_params)
    with pytest.raises(ValueError, match=r"init must have shape \(51,\), got \(9,\)"):
        run_trial(MLP(2, 8, 3), blobs_task, schedule.Fix(0.05), SGD, cfg,
                  init=first.final_params)


def test_train_csv_golden(tmp_path, blobs_task):
    cfg = TrainConfig(batch_size=16, budget=2, eval_every=1, seed=0)
    trace = run_trial(Linear(2, 3), blobs_task, schedule.Fix(0.25), SGD, cfg)
    train_path, eval_path = tmp_path / "train.csv", tmp_path / "eval.csv"
    write_train_csv(trace, train_path)
    write_eval_csv(trace, eval_path)
    lines = train_path.read_text().splitlines()
    assert lines[0] == "iteration,lr,train_loss"
    assert lines[1].startswith("0,0.25,")
    assert len(lines) == 3
    elines = eval_path.read_text().splitlines()
    assert elines[0] == "iteration,test_accuracy"
    # one eval before training plus one after each of the two steps
    assert [ln.split(",")[0] for ln in elines[1:]] == ["0", "1", "2"]


# --- surface trials ---


def test_surface_trial_point_count_and_descent():
    surface = Quadratic(a=np.eye(2))
    path = run_surface_trial(surface, (1.0, 1.0), schedule.Fix(0.1), SGD, 50)
    assert len(path.points) == 51
    assert path.iterations == list(range(51))
    assert not path.diverged
    assert path.values[-1] < path.values[0]
    # plain gradient descent on 0.5*|x|^2 contracts by (1 - lr) each step
    assert np.allclose(path.points[1], [0.9, 0.9])


def test_surface_trial_divergence_cuts_path():
    surface = Quadratic(a=np.eye(2))
    path = run_surface_trial(surface, (1.0, 1.0), schedule.Fix(1e300), SGD, 50)
    assert path.diverged
    assert len(path.points) < 51


def test_surface_trial_stops_at_a_non_finite_lr():
    surface = Quadratic(a=np.eye(2))
    policy = schedule.Composite(segments=(
        schedule.Segment(0, 3, schedule.Fix(0.1)),
        schedule.Segment(3, 10, schedule.Scaled(lam=1e6, base=schedule.Fix(1e303)))))
    for opt in (SGD, OptimizerSpec("adam")):
        path = run_surface_trial(surface, (1.0, 1.0), policy, opt, 10)
        assert path.diverged
        assert path.iterations == [0, 1, 2, 3]
        assert np.isfinite(path.points).all()


def test_surface_trial_diverges_at_an_int_lr_past_the_float_range():
    # JSON ints within the float range, whose exact product is not
    huge = 10**200
    policy = schedule.policy_from_dict({"family": "FIX", "params": {"k": huge}, "lambda": huge})
    assert schedule.lr_at(policy, 0) == 10**400
    path = run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), policy, SGD, 5)
    assert path.diverged
    assert path.iterations == [0]


@pytest.mark.parametrize("bad", NOT_FINITE_LRS, ids=NOT_FINITE_IDS)
def test_any_lr_a_curve_gives_that_is_not_finite_ends_the_path(bad, monkeypatch):
    # the trainer's rule holds for every value, not only those a policy family gives
    monkeypatch.setattr(schedule, "compile", lambda policy, steps: lambda t: 0.1 if t < 3 else bad)
    for opt in (SGD, OptimizerSpec("adam")):
        path = run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), schedule.Fix(0.1), opt, 10)
        assert path.diverged
        assert path.iterations == [0, 1, 2, 3]
        assert np.isfinite(path.points).all()


def test_surface_trial_validation():
    surface = Quadratic(a=np.eye(2))
    with pytest.raises(ValueError, match="iterations"):
        run_surface_trial(surface, (0.0, 0.0), schedule.Fix(0.1), SGD, -1)
    with pytest.raises(ValueError, match="2-D point"):
        run_surface_trial(surface, (0.0, 0.0, 0.0), schedule.Fix(0.1), SGD, 5)


def test_surface_csv_golden(tmp_path):
    surface = MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=1.0),))
    path = run_surface_trial(surface, (0.5, 0.0), schedule.Fix(0.1), SGD, 1)
    out = tmp_path / "path.csv"
    write_surface_csv(path, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "iteration,x,y,value"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[1].split(",")[1]) == 0.5
    assert len(lines) == 3


def _spiked(t: int, bad, steps: int = 10):
    """A small fixed LR for steps 0 .. t - 1, then `bad` from step t."""
    head = (schedule.Segment(0, t, schedule.Fix(0.001)),) if t else ()
    return schedule.Composite(segments=head + (schedule.Segment(t, steps, bad),))


def _too_long_to_print():
    """An LR of 10**4800: an int past the float range, and past the digits repr gives."""
    policy = schedule.Fix(k=10**300)
    for _ in range(15):
        policy = schedule.Scaled(lam=10**300, base=policy)
    return policy


# an LR spike at step t that makes the next point's value, or only its
# gradient, not finite, or an LR that is not finite itself
SPIKES = {
    "value": (Quadratic(a=np.eye(2)), (1.0, 1.0), schedule.Fix(1e300)),
    "gradient": (MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=0.1),)),
                 (0.1, 0.05), schedule.Fix(1e308)),
    "float-lr": (Quadratic(a=np.eye(2)), (1.0, 1.0),
                 schedule.Scaled(lam=1e6, base=schedule.Fix(1e303))),
    "int-lr": (Quadratic(a=np.eye(2)), (1.0, 1.0), _too_long_to_print()),
}


@pytest.mark.parametrize("opt", [SGD, OptimizerSpec("sgd", momentum=0.9),
                                 OptimizerSpec("adam")], ids=["sgd", "momentum", "adam"])
@pytest.mark.parametrize("t", [0, 1, 4])
@pytest.mark.parametrize("kind", SPIKES)
def test_a_non_finite_value_gradient_or_lr_ends_the_path_where_the_plain_loop_does(
        kind, t, opt):
    surface, start, bad = SPIKES[kind]
    policy = _spiked(t, bad)
    path = run_surface_trial(surface, start, policy, opt, 10)
    points, values, diverged = ref_surface_trial(surface, start, policy, opt, 10)
    assert path.diverged == diverged
    assert np.array(path.points).tobytes() == np.array(points).tobytes()
    assert np.array(path.values).tobytes() == np.array(values).tobytes()
    if opt is SGD:  # the path ends at the check the case is named for
        assert diverged
        with np.errstate(all="ignore"):
            value, grad = surface_value_grad(surface, path.points[-1])
        lr = schedule.lr_at(policy, len(path.points) - 1)
        assert [kind == "value", kind == "gradient", kind.endswith("lr")] == [
            not schedule.finite(value),
            schedule.finite(value) and not np.isfinite(grad).all(),
            np.isfinite(grad).all() and not schedule.finite(lr)]


OPTIMIZERS = pytest.mark.parametrize(
    "opt", [SGD, OptimizerSpec("sgd", momentum=0.9), OptimizerSpec("adam")],
    ids=["sgd", "momentum", "adam"])
ONE_BAD = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                  ids=["nan", "inf", "-inf"])
AXES = pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])


def _same_path(path, want):
    points, values, diverged = want
    assert path.diverged == diverged
    assert np.array(path.points).tobytes() == np.array(points).tobytes()
    assert np.array(path.values).tobytes() == np.array(values).tobytes()


@OPTIMIZERS
@AXES
@ONE_BAD
def test_a_real_gradient_with_one_bad_coordinate_ends_the_path_at_its_point(bad, axis, opt):
    # deep, narrow wells 1e-10 from the start: each gives its coordinate of
    # the gradient +-inf there, and two of opposite sides give nan, while the
    # value and the other coordinate stay finite
    off = np.eye(2)[axis] * 1e-10
    wells = {math.inf: [(-off, 1e300)], -math.inf: [(off, 1e300)]}.get(
        bad, [(-off, 1e300), (off, 2e300)])
    surface = MultiBasin(wells=tuple(Well(center=tuple(c), depth=depth, width=1e-10)
                                     for c, depth in wells))
    with np.errstate(all="ignore"):
        value, grad = surface_value_grad(surface, np.zeros(2))
    assert schedule.finite(value) and grad[1 - axis] == 0
    assert np.array_equal(grad[axis], bad, equal_nan=True)
    path = run_surface_trial(surface, (0.0, 0.0), schedule.Fix(0.1), opt, 10)
    assert path.diverged and len(path.points) == 1
    _same_path(path, ref_surface_trial(surface, (0.0, 0.0), schedule.Fix(0.1), opt, 10))


def _one_bad_coordinate(value_grad, at: int, axis: int, bad: float):
    """value_grad, but its call for point `at` gives `bad` in the gradient's coordinate `axis`."""
    calls = []

    def spoiled(surface, x):
        value, grad = value_grad(surface, x)
        if len(calls) == at:
            grad = grad.copy()
            grad[axis] = bad
        calls.append(x)
        return value, grad
    return spoiled


@OPTIMIZERS
@AXES
@ONE_BAD
def test_one_bad_gradient_coordinate_ends_the_path_where_the_plain_loop_does(
        bad, axis, opt, monkeypatch):
    surface = MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=1.0),))
    monkeypatch.setattr(trainer, "surface_value_grad",
                        _one_bad_coordinate(surface_value_grad, 3, axis, bad))
    monkeypatch.setattr(reference, "ref_surface_value_grad",
                        _one_bad_coordinate(reference.ref_surface_value_grad, 3, axis, bad))
    path = run_surface_trial(surface, (0.5, -0.25), schedule.Fix(0.1), opt, 10)
    assert path.diverged and len(path.points) == 4
    _same_path(path, ref_surface_trial(surface, (0.5, -0.25), schedule.Fix(0.1), opt, 10))


def test_each_surface_step_calls_optim_step_and_surface_value_grad(monkeypatch):
    # perfbench's optim.step and problems.surface_value_grad spans wrap these
    # module attributes: one optim.step per step taken, one surface_value_grad per point
    calls = []
    step, value_grad = optim.step, trainer.surface_value_grad
    monkeypatch.setattr(optim, "step", lambda *a: calls.append("step") or step(*a))
    monkeypatch.setattr(trainer, "surface_value_grad",
                        lambda *a: calls.append("value") or value_grad(*a))
    path = run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), schedule.Fix(0.1), SGD, 20)
    assert len(path.points) == 21
    assert calls == ["value"] + ["step", "value"] * 20
    # a non-finite LR at step 3: three steps, and the check before the fourth ends the path
    calls.clear()
    path = run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), _spiked(3, SPIKES["float-lr"][2]),
                             SGD, 10)
    assert path.diverged and len(path.points) == 4
    assert calls == ["value"] + ["step", "value"] * 3


# --- fail fast on short horizons ---


@pytest.mark.parametrize("policy, field", [
    (schedule.Poly(k=0.1, p=1.0, t_max=900), "POLY t_max"),
    (schedule.Scaled(lam=2.0, base=schedule.CosineDecay(k=0.1, t_max=500)), "COSINE t_max"),
    (schedule.LinearDecay(k=0.1, t_max=998), "LINEAR t_max"),
    (schedule.Warmup(w=100, inner=schedule.CosineDecay(k=0.1, t_max=800)), "WARMUP horizon"),
    (schedule.Composite(segments=(schedule.Segment(0, 999, schedule.Fix(0.1)),)),
     "MULTI segments"),
])
def test_short_horizon_fails_before_the_first_step(policy, field, blobs_task, monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "forward_loss_grad",
                        lambda *a: steps.append(1) or forward_loss_grad(*a))
    cfg = TrainConfig(batch_size=16, budget=1000, eval_every=100, seed=0)
    with pytest.raises(schedule.PolicyError, match=field):
        run_trial(Linear(2, 3), blobs_task, policy, SGD, cfg)
    assert steps == []


@pytest.mark.parametrize("policies, index", [
    ((schedule.CosineDecay(k=0.1, t_max=50),), 0),
    ((schedule.Fix(0.1), schedule.Warmup(w=10, inner=schedule.CosineDecay(k=0.1, t_max=40))), 1),
])
def test_short_horizon_inside_a_plateau_change_fails_before_the_first_step(
        policies, index, blobs_task, monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "forward_loss_grad",
                        lambda *a: steps.append(1) or forward_loss_grad(*a))
    policy = ChangeOnPlateau(policies=policies, patience=100)
    cfg = TrainConfig(batch_size=16, budget=200, eval_every=50, seed=0)
    with pytest.raises(schedule.PolicyError,
                       match=rf"PLATEAU_CHANGE policies\[{index}\]: .* t=50, shorter than a 200"):
        run_trial(Linear(2, 3), blobs_task, policy, SGD, cfg)
    assert steps == []
    short = TrainConfig(batch_size=16, budget=51, eval_every=50, seed=0)
    assert run_trial(Linear(2, 3), blobs_task, policy, SGD, short).outcome.iterations_run == 51


def test_short_horizon_fails_before_the_first_surface_step(monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "surface_value_grad",
                        lambda *a: calls.append(1) or surface_value_grad(*a))
    policy = schedule.Poly(k=0.1, p=1.0, t_max=50)
    with pytest.raises(schedule.PolicyError, match="POLY t_max"):
        run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), policy, SGD, 100)
    assert calls == []
    path = run_surface_trial(Quadratic(a=np.eye(2)), (1.0, 1.0), policy, SGD, 51)
    assert path.iterations[-1] == 51


def test_horizon_that_covers_the_budget_runs(blobs_task):
    cfg = TrainConfig(batch_size=16, budget=1000, eval_every=500, seed=0)
    for policy in (schedule.Poly(k=0.1, p=1.0, t_max=999),
                   schedule.Composite(segments=(schedule.Segment(0, 1000, schedule.Fix(0.1)),))):
        trace = run_trial(Linear(2, 3), blobs_task, policy, SGD, cfg)
        assert trace.outcome.iterations_run == 1000
