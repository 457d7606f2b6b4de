"""Deterministic iteration-based training, stepping many trials as one.

A trial is a pure function of (model spec, task, policy, optimizer spec,
config): the epoch shuffles, parameter init, and LR sequence all derive
from config.seed, so the same inputs always produce the same trace.

`run_population` trains trials that share the model, task, optimizer and
config (all but the seed) but not the policy as one stacked numpy
computation: their parameters form a (C, P) array, each row laid out by
`model.layout`, and each step is one batched forward/backward pass and
one optimizer update over every trial still running. Each row gets
exactly the floats it would get alone, so how trials are grouped never
changes a result; `run_trial` is a population of one.

The stack keeps its buffers. The params, gradient, optimizer moments and
optimizer scratch are (C, P) arrays that every step overwrites in place,
and the views and per-row arrays a step reads (each row's trial, seed
group, lambda and LR source) are built again only at an evaluation or a
divergence, where trials may leave the stack; that copies the rows kept
into fresh arrays. The task's data are checked with the buffers, not per
batch, and one `np.errstate` covers every step. A trial that leaves takes
a copy of its params, so no later step reaches its trace.

Every row reads its LR from one source: a search's trials are a few
templates under many lambdas, so each distinct base curve is one source,
shared by the trials under it, and each plateau trial is its own. A step
evaluates every source once, and a row's LR is its lambda (1 when
unscaled) times its source's value: `Scaled` is exactly lam * base(t), one
multiply, which numpy rounds as Python does. An integer value under an
integer lambda, or none, is an integer LR, as in Python; the product is
taken in floats, exact for integers below 2**53. An integer past the
float range, alone or under a float lambda, is the LR inf.

Divergence is a first-class outcome, not an exception, and this module
alone decides it, by one rule: a step diverges when its loss (a surface
path's value), its gradient or its learning rate is not finite, an int
LR past the float range included. The trial stops and the trace is
marked diverged; `optim.step` is the update alone and never sees such a
step. Large learning rates are expected to blow up during sweeps. A
trial that diverges or reaches its target leaves the stack, and the rest
go on.

`write_csv` writes every CSV artifact but `lr eval`'s: a trial's train and
eval traces, a surface path and a tune's leaderboard.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import adaptive, optim, schedule
from .model import ModelSpec, accuracy_on, forward_loss_grad, init_params, param_count, prepare
from .problems import Surface, TaskData, surface_value_grad
from .schedule import finite, need, need_count
from .store import outcome_dict


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    budget: int = 1000
    eval_every: Optional[int] = None  # None means once per epoch
    target_accuracy: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        need_count("batch_size", self.batch_size, 1)
        need_count("budget", self.budget)
        if self.eval_every is not None:
            need_count("eval_every", self.eval_every, 1)
        need(self.target_accuracy is None
             or finite(self.target_accuracy) and 0 < self.target_accuracy <= 1,
             "target_accuracy must be in (0, 1], got %r", self.target_accuracy)
        need_count("seed", self.seed)


@dataclass
class TrialOutcome:
    final_accuracy: float
    best_accuracy: float
    iterations_run: int
    iterations_to_target: Optional[int]
    diverged: bool
    # seconds from the start of the trial's population to this trial's stop
    wall_time_sec: float

    def to_dict(self) -> dict:
        """The outcome without its wall time, which no artifact holds."""
        return outcome_dict(self)


@dataclass
class TrialTrace:
    """One trial's per-step LR and train loss, evaluations, outcome, final params."""

    step_lrs: np.ndarray     # float64, one entry per step run
    step_losses: np.ndarray
    eval_iterations: list[int]
    eval_accuracies: list[float]
    outcome: TrialOutcome
    final_params: np.ndarray  # (P,), laid out by model.layout
    # policies with integer fields give integer LRs, which the CSV writes as such
    int_lr_steps: tuple[int, ...] = ()

    @property
    def iterations(self) -> list[int]:
        return list(range(self.step_lrs.size))

    @property
    def lrs(self) -> list:
        lrs = self.step_lrs.tolist()
        for t in self.int_lr_steps:
            lrs[t] = int(lrs[t])
        return lrs

    @property
    def losses(self) -> list[float]:
        return self.step_losses.tolist()


def epoch_length(n_train: int, batch_size: int) -> int:
    return -(-n_train // batch_size)


def run_population(model_spec: ModelSpec, task: TaskData, trials: Sequence[tuple],
                   opt_spec: optim.OptimizerSpec, config: TrainConfig,
                   init: Optional[np.ndarray] = None) -> list[TrialTrace]:
    """Train each (policy, seed) in `trials` under config, all stacked together.

    config.seed is replaced by each trial's seed. Returns one trace per
    trial, in order, each equal to what `run_trial` gives for that trial.
    Every LR source (a Scaled policy's base) is compiled before the first
    step; a horizon-bound one must cover the budget, and so must each of a
    ChangeOnPlateau's policies, since when each takes over is only known
    during the run. See `run_trial` for the evaluation and stopping rules.
    """
    policies = [policy for policy, _ in trials]
    plateau = {}  # trial index -> adaptive state
    # the LR sources (t -> value), which source each trial reads, its lambda,
    # and whether an integer value stays an integer under that lambda
    sources, source_of = [], {}
    src = np.zeros(len(trials), dtype=np.intp)
    lam_col = np.ones(len(trials))
    int_lam = np.ones(len(trials), dtype=bool)
    for i, policy in enumerate(policies):
        if isinstance(policy, adaptive.PlateauPolicy):
            plateau[i] = adaptive.initial_state(policy)
            for j, sub in enumerate(getattr(policy, "policies", ())):
                schedule.require_horizon(sub, config.budget, "PLATEAU_CHANGE policies[%r]: ", j)
            src[i] = len(sources)
            sources.append(lambda t, i=i: adaptive.current_lr(plateau[i], policies[i], t))
            continue
        # a Scaled policy compiles as its base does: same closed form, horizon and message
        base = policy.base if type(policy) is schedule.Scaled else policy
        if id(base) not in source_of:
            source_of[id(base)] = len(sources)
            sources.append(schedule.compile(base, config.budget))
        src[i] = source_of[id(base)]
        if base is not policy:
            lam_col[i] = policy.lam
            int_lam[i] = type(policy.lam) is int

    train, budget, bs = task.train, config.budget, config.batch_size
    n = train.features.shape[0]
    ep_len = epoch_length(n, bs)
    eval_every = config.eval_every if config.eval_every is not None else ep_len
    target = config.target_accuracy

    # one permutation stream per distinct seed, drawn exactly as a lone trial draws it
    seeds = sorted({seed for _, seed in trials})
    rngs = [np.random.default_rng(seed) for seed in seeds]
    group = np.array([seeds.index(seed) for _, seed in trials], dtype=np.intp)
    if init is not None:
        need(init.shape == (param_count(model_spec),), "init must have shape (%s,), got %s",
             param_count(model_spec), init.shape)
        params = np.repeat(init[None], len(trials), axis=0)
    else:
        inits = {seed: init_params(model_spec, seed) for seed in seeds}
        params = np.stack([inits[seed] for _, seed in trials])
    # checks the data every batch is drawn from before the first evaluation
    bufs = prepare(model_spec, params, train.features, train.labels)
    opt_state = optim.init_state(opt_spec, params.shape)
    scratch = np.empty_like(params)  # optim.step's, built anew with the step buffers

    ids = np.arange(len(trials))  # the trial in each row of the stack
    try:
        step_lrs = np.empty((len(trials), budget))
        step_losses = np.empty((len(trials), budget))
    except MemoryError:  # named before the first step, as every other bad input is
        need(False, "budget %r is too large to hold the LR and loss traces in memory "
             "(trials: %r)", budget, len(trials))
    int_lr_steps = {}
    evals = [([], []) for _ in trials]
    traces: list[Optional[TrialTrace]] = [None] * len(trials)
    started = time.perf_counter()

    def evaluate(rows, t_done: int) -> np.ndarray:
        acc = accuracy_on(model_spec, params[rows], task.test)
        for i, a in zip(ids[rows].tolist(), acc.tolist()):
            evals[i][0].append(t_done)
            evals[i][1].append(a)
        return acc

    def stop(done: np.ndarray, t_done: int, diverged: bool,
             to_target: Optional[int]) -> np.ndarray:
        """Close the traces of the rows in `done`, drop them from the stack,
        and return the mask of rows kept. The rows kept are copied into fresh
        arrays, and the step buffers built anew: a stop comes only at an
        evaluation or a divergence, never in an ordinary step."""
        nonlocal ids, group, lam_col, src, int_lam, params, bufs, opt_state, scratch
        wall = time.perf_counter() - started
        for r in np.flatnonzero(done).tolist():
            i = int(ids[r])
            iters, accs = evals[i]
            traces[i] = TrialTrace(
                step_lrs=step_lrs[i, :t_done], step_losses=step_losses[i, :t_done],
                eval_iterations=iters, eval_accuracies=accs,
                outcome=TrialOutcome(final_accuracy=accs[-1], best_accuracy=max(accs),
                                     iterations_run=t_done, iterations_to_target=to_target,
                                     diverged=diverged, wall_time_sec=wall),
                final_params=params[r].copy(),
                int_lr_steps=tuple(int_lr_steps.get(i, ())))
        keep = ~done
        ids, group, lam_col, src, int_lam = (a[keep] for a in (ids, group, lam_col, src, int_lam))
        params, opt_state = params[keep], optim.select(opt_state, keep)
        bufs = prepare(model_spec, params, train.features, train.labels)
        scratch = np.empty_like(params)
        return keep

    def reached(acc: np.ndarray) -> np.ndarray:
        return acc >= target if target is not None else np.zeros(acc.shape, dtype=bool)

    stop(reached(evaluate(slice(None), 0)), 0, False, 0)
    order = None  # this epoch's permutation for each seed, one row each
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(budget):
            if ids.size == 0:
                break
            if t % ep_len == 0:
                order = np.stack([rng.permutation(n) for rng in rngs])
            lo = (t % ep_len) * bs
            batch = order[:, lo:lo + bs].take(group, axis=0)
            values = [source(t) for source in sources]
            try:
                column = np.array(values, dtype=float)
            except OverflowError:  # an int past the float range, which is not finite
                column = np.array([np.inf if type(value) is int and not finite(value) else value
                                   for value in values], dtype=float)
            lr_col = (lam_col * column[src])[:, None]
            if int in map(type, values):
                int_src = np.array([type(value) is int for value in values])
                int_rows = int_lam & int_src[src] & np.isfinite(lr_col[:, 0])
                for i in ids[int_rows].tolist():
                    int_lr_steps.setdefault(i, []).append(t)

            loss, grad = forward_loss_grad(model_spec, params, train.features.take(batch, axis=0),
                                           train.labels.take(batch), bufs)
            step_lrs[ids, t] = lr_col[:, 0]
            step_losses[ids, t] = loss
            # the whole gradient stack first; its rows only when a row diverged
            finite_rows = np.isfinite(loss) & np.isfinite(lr_col[:, 0])
            if not (finite_rows.all() and np.isfinite(grad).all()):
                diverged = ~(finite_rows & np.isfinite(grad).all(axis=1))
                evaluate(diverged, t + 1)
                keep = stop(diverged, t + 1, True, None)
                loss, grad, lr_col = loss[keep], grad[keep], lr_col[keep]

            params, opt_state = optim.step(params, grad, lr_col, opt_state, scratch)

            t_done = t + 1
            if t_done % eval_every == 0 or t_done == budget:
                acc = evaluate(slice(None), t_done)
                for r, i in enumerate(ids.tolist()):
                    if i in plateau:
                        policy = policies[i]
                        metric = loss[r] if policy.monitor == "train_loss" else acc[r]
                        plateau[i], _ = adaptive.observe(plateau[i], policy, float(metric),
                                                         t=t_done)
                stop(reached(acc), t_done, False, t_done)

    stop(np.ones(ids.size, dtype=bool), budget, False, None)
    return traces


def run_trial(model_spec: ModelSpec, task: TaskData, policy,
              opt_spec: optim.OptimizerSpec, config: TrainConfig,
              init: Optional[np.ndarray] = None) -> TrialTrace:
    """Train for config.budget iterations, evaluating every eval_every.

    The test split is also evaluated once before any step (iteration 0)
    and at the end of the budget, so a budget of 0 still yields a usable
    outcome. When target_accuracy is set the trial stops at the first
    evaluation that reaches it. `init` warm-starts from a checkpoint
    instead of the seeded random init. This is a population of one.
    """
    return run_population(model_spec, task, [(policy, config.seed)], opt_spec,
                          config, init=init)[0]


def write_csv(path, header: list, rows):
    """The header row, then each row, in the csv module's default dialect."""
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def write_train_csv(trace: TrialTrace, path):
    write_csv(path, ["iteration", "lr", "train_loss"],
              ([t, repr(lr), repr(loss)]
               for t, lr, loss in zip(trace.iterations, trace.lrs, trace.losses)))


def write_eval_csv(trace: TrialTrace, path):
    write_csv(path, ["iteration", "test_accuracy"],
              ([t, repr(acc)] for t, acc in zip(trace.eval_iterations, trace.eval_accuracies)))


# --- 2-D surface trials ---


@dataclass
class SurfacePath:
    points: list[np.ndarray]  # the start, then one per step taken
    values: list[float]
    diverged: bool

    @property
    def iterations(self) -> list[int]:
        return list(range(len(self.points)))

    def final_value(self) -> float:
        return self.values[-1]


def run_surface_trial(surface: Surface, start, policy,
                      opt_spec: optim.OptimizerSpec, iterations: int) -> SurfacePath:
    """Trace an optimizer across a 2-D surface under the given LR policy.

    Returns iterations + 1 points (the start plus one per step), fewer if
    the trajectory diverges (a non-finite value, gradient or learning
    rate). The policy is compiled against `iterations` before the first
    step, so a horizon-bound one must cover every step, even if the path
    would diverge before reaching its horizon.

    Before each step the value and gradient at the current point and the LR
    are checked, by the trainer's one divergence rule; one that is not
    finite ends the path there, as diverged, and so does a non-finite value
    at the last point. Overflow and invalid values on the way there, in the
    surface or the step, raise no warning. `optim.step` returns a fresh
    point, so only the start is copied.
    """
    need_count("iterations", iterations)
    curve = schedule.compile(policy, iterations)
    point = np.array(start, dtype=float)
    need(point.shape == (2,), "start must be a 2-D point, got shape %s", point.shape)

    opt_state = optim.init_state(opt_spec, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        value, grad = surface_value_grad(surface, point)
        points, values = [point], [value]
        for t in range(iterations):
            lr = curve(t)
            gx, gy = grad.tolist()
            if not (finite(value) and finite(gx) and finite(gy) and finite(lr)):
                return SurfacePath(points, values, diverged=True)
            point, opt_state = optim.step(point, grad, lr, opt_state)
            value, grad = surface_value_grad(surface, point)
            points.append(point)
            values.append(value)
    return SurfacePath(points, values, diverged=not finite(value))


def write_surface_csv(path_result: SurfacePath, path):
    write_csv(path, ["iteration", "x", "y", "value"],
              ([t, repr(float(pt[0])), repr(float(pt[1])), repr(v)]
               for t, pt, v in zip(path_result.iterations, path_result.points,
                                   path_result.values)))
