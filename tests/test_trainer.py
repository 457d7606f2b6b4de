"""Training loop behavior: determinism, eval cadence, stopping rules."""

import numpy as np
import pytest

from lrforge import schedule, trainer
from lrforge.adaptive import ChangeOnPlateau, ReduceOnPlateau
from lrforge.model import MLP, Linear, forward_loss_grad, init_params
from lrforge.optim import OptimizerSpec
from lrforge.problems import MultiBasin, Quadratic, Well, surface_value_grad
from lrforge.trainer import (
    TrainConfig,
    epoch_length,
    run_surface_trial,
    run_trial,
    write_eval_csv,
    write_surface_csv,
    write_train_csv,
)

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
