"""LR policy search: grid, random, cost-to-target and phased search; LR range test.

A `SearchSpace` holds a search and checks it when built; `grid_search` runs
it over its lambda grid or drawn lambdas, `compose_search` phase by phase.
Both run a search step through `_search`, which trains the cells, ranks them
and names the winner; a lambda grid and a range test's k grid pass one rule,
`_check_grid`. A range test's probes and each compose phase run on the
caller's context with only its config replaced (`dataclasses.replace`).

Each search is deterministic for a given (space, context): trial seeds
derive from the context seed (`_run_cells` computes a cell's seeds once,
and each `CellResult` keeps its own copy of them), cells rank by value with
fixed tie breaks, and all the trials of a search (or of one compose phase)
train as one stacked population (`trainer.run_population`), whose rows are
bit for bit the trials run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ModelSpec
from .optim import OptimizerSpec
from .problems import TaskData
from .schedule import (Composite, Fix, Policy, PolicyError, Scaled, Segment, count, finite,
                       canonical_policy_key, compile as compile_policy, need, need_count,
                       policy_to_dict)
from .trainer import TrainConfig, TrialOutcome, TrialTrace, run_population, write_csv


class AllDiverged(RuntimeError):
    """Every candidate trial diverged; there is nothing to rank."""


def _check_grid(name: str, values):
    """The rule for a grid of lambdas or ks: non-empty, every value positive and finite."""
    need(values, "%s must be non-empty", name, error=PolicyError)
    for v in values:
        need(finite(v) and v > 0, "%s values must be positive and finite, got %r", name, v,
             error=PolicyError)


def _check_draws(lambda_range, n):
    """The rule for drawing n lambdas from lambda_range, for SearchSpace and draw_lambdas."""
    need(len(lambda_range) == 2, "lambda_range must be [low, high]", error=PolicyError)
    need(n is not None, "n_samples is required", error=PolicyError)
    low, high = lambda_range
    need(finite(low) and finite(high) and 0 < low <= high,
         "lambda_range must satisfy 0 < low <= high, got %r", lambda_range, error=PolicyError)
    need_count("n_samples", n, 1, PolicyError)


@dataclass(frozen=True)
class SearchSpace:
    """Templates under lambdas, and how to search them; checked when built."""

    templates: tuple[Policy, ...]
    lambda_grid: Optional[tuple[float, ...]] = None    # (1.0,) without lambda_range
    lambda_range: Optional[tuple[float, float]] = None  # log-uniform, for n_samples draws
    trials_per_point: int = 1
    objective: str = "max_accuracy"  # or "min_cost"
    n_samples: Optional[int] = None
    seed: Optional[int] = None       # of the draws; None: the train seed
    boundaries: Optional[tuple[int, ...]] = None  # [0, b1, ..., total]: phase by phase

    def __post_init__(self):
        ranged = self.lambda_range is not None
        for name in ("n_samples", "seed"):
            need(ranged or getattr(self, name) is None, "%s applies only with lambda_range",
                 name, error=PolicyError)
        if self.seed is not None:
            need_count("seed", self.seed, 0, PolicyError)
        need(self.boundaries is None or self.objective != "min_cost",
             "objective min_cost does not apply with boundaries: each phase ranks by accuracy",
             error=PolicyError)
        if ranged:
            need(self.boundaries is None and self.objective != "min_cost",
                 "lambda_range applies only to a max_accuracy search without boundaries, "
                 "which samples it; give lambda_grid", error=PolicyError)
            need(self.lambda_grid is None, "give lambda_grid or lambda_range, not both",
                 error=PolicyError)
            _check_draws(self.lambda_range, self.n_samples)
        elif self.lambda_grid is None:
            object.__setattr__(self, "lambda_grid", (1.0,))
        need(self.templates, "templates must be non-empty", error=PolicyError)
        need_count("trials_per_point", self.trials_per_point, 1, PolicyError)
        need(self.objective in ("max_accuracy", "min_cost"),
             "objective must be max_accuracy or min_cost, got %r", self.objective,
             error=PolicyError)
        if not ranged:
            _check_grid("lambda_grid", self.lambda_grid)
        b = self.boundaries
        need(b is None or len(b) >= 2 and b[0] == 0 and all(map(count, b))
             and all(s < e for s, e in zip(b, b[1:])),
             "boundaries must start at 0 and strictly increase, got %r", b, error=PolicyError)


@dataclass(frozen=True)
class TrialContext:
    model: ModelSpec
    task: TaskData
    optimizer: OptimizerSpec
    config: TrainConfig


@dataclass
class CellResult:
    template: Policy
    lam: float
    seeds: list[int]
    outcomes: list[TrialOutcome]
    metric_mean: Optional[float]  # None when every trial diverged / missed target
    metric_std: Optional[float]
    cost_iters: float             # mean iterations actually run
    n_diverged: int
    reached_target: Optional[bool]  # only meaningful for min_cost

    def policy(self) -> Policy:
        return _apply_lambda(self.template, self.lam)


@dataclass
class TuneResult:
    objective: str
    entries: list[CellResult]  # ranked best first
    budget: int

    @property
    def winner(self) -> CellResult:
        return self.entries[0]

    def speedup(self, cell: CellResult) -> Optional[float]:
        if self.objective != "min_cost" or not cell.metric_mean:
            return None
        return self.budget / cell.metric_mean


def _apply_lambda(template: Policy, lam: float) -> Policy:
    if lam == 1.0:
        return template
    # Scaled rejects a metric-driven template when it is built, before any step
    return Scaled(lam=lam, base=template)


def _cells(space: SearchSpace, ctx: TrialContext) -> list[tuple[Policy, float]]:
    """Every (template, lambda) of the space: its grid, or its draws under its seed.

    Each cell's policy is serialized here, as the ranking will, so a cell
    whose lambda product leaves the float range fails before any step.
    """
    seed = ctx.config.seed if space.seed is None else space.seed
    lams = space.lambda_grid or draw_lambdas(space.lambda_range, space.n_samples, seed)
    cells = [(template, float(lam)) for template in space.templates for lam in lams]
    for template, lam in cells:
        canonical_policy_key(_apply_lambda(template, lam))
    return cells


def _run_cells(cells: list[tuple[Policy, float]], ctx: TrialContext, objective: str,
               trials_per_point: int, init=None
               ) -> tuple[list[CellResult], list[TrialTrace]]:
    """Run trials_per_point seeded trials per cell as one population and aggregate.

    Also returns every trial's trace, cell by cell, seeds in order.
    """
    seeds = [ctx.config.seed + r for r in range(trials_per_point)]
    trials = [(_apply_lambda(template, lam), seed) for template, lam in cells for seed in seeds]
    traces = run_population(ctx.model, ctx.task, trials, ctx.optimizer, ctx.config,
                            init=init)
    results = []
    for ci, (template, lam) in enumerate(cells):
        cell = traces[ci * trials_per_point:(ci + 1) * trials_per_point]
        results.append(_aggregate(template, lam, seeds, [t.outcome for t in cell], objective))
    return results, traces


def _aggregate(template: Policy, lam: float, seeds: list[int],
               outcomes: list[TrialOutcome], objective: str) -> CellResult:
    ok = [o for o in outcomes if not o.diverged]
    n_diverged = len(outcomes) - len(ok)
    cost_pool = ok if ok else outcomes
    cost = float(np.mean([o.iterations_run for o in cost_pool]))

    if objective == "max_accuracy":
        vals = [o.final_accuracy for o in ok]
        mean = float(np.mean(vals)) if vals else None
        std = float(np.std(vals)) if vals else None
        reached = None
    else:
        # a cell that never reaches the target in any repeat ranks last
        hits = [o.iterations_to_target for o in ok if o.iterations_to_target is not None]
        reached = len(hits) > 0
        mean = float(np.mean(hits)) if reached else None
        std = float(np.std(hits)) if reached else None

    return CellResult(template=template, lam=lam, seeds=list(seeds), outcomes=outcomes,
                      metric_mean=mean, metric_std=std, cost_iters=cost,
                      n_diverged=n_diverged, reached_target=reached)


def _rank(entries: list[CellResult], objective: str) -> list[CellResult]:
    def key(cell: CellResult):
        tie = (cell.cost_iters, canonical_policy_key(cell.policy()))
        if cell.metric_mean is None:
            return (1, 0.0) + tie
        value = -cell.metric_mean if objective == "max_accuracy" else cell.metric_mean
        return (0, value) + tie

    return sorted(entries, key=key)


def _search(cells: list[tuple[Policy, float]], ctx: TrialContext, objective: str,
            trials_per_point: int, init=None) -> tuple[TuneResult, np.ndarray]:
    """Train the cells as one population and rank them by the objective.

    Returns the result and the params the winner's first trial ended with;
    raises AllDiverged when every trial of every cell diverged.
    """
    unranked, traces = _run_cells(cells, ctx, objective, trials_per_point, init=init)
    entries = _rank(unranked, objective)
    need(any(e.n_diverged != len(e.outcomes) for e in entries),
         "every cell diverged in every trial", error=AllDiverged)
    winner = next(i for i, cell in enumerate(unranked) if cell is entries[0])
    return (TuneResult(objective=objective, entries=entries, budget=ctx.config.budget),
            traces[winner * trials_per_point].final_params)


def grid_search(space: SearchSpace, ctx: TrialContext) -> TuneResult:
    """Sweep templates x the space's lambdas (grid or draws), ranked by the objective."""
    need(space.objective != "min_cost" or ctx.config.target_accuracy is not None,
         "min_cost objective requires target_accuracy", error=PolicyError)
    return _search(_cells(space, ctx), ctx, space.objective, space.trials_per_point)[0]


def draw_lambdas(lambda_range: tuple[float, float], n: int, seed: int) -> list[float]:
    """n log-uniform draws from [low, high], deterministic in the seed."""
    _check_draws(lambda_range, n)
    low, high = lambda_range
    rng = np.random.default_rng(seed)
    return [float(v) for v in np.exp(rng.uniform(np.log(low), np.log(high), n))]


@dataclass
class RangeTestResult:
    ks: list[float]
    accuracies: list[float]   # final accuracy per probe (0.0 when diverged)
    diverged: list[bool]
    outcomes: list[TrialOutcome]
    trial_budget: int
    seed: int
    k_best: float
    bracket: tuple[float, float]


def range_test(ctx: TrialContext, k_grid, trial_budget: Optional[int] = None,
               tolerance: float = 0.05) -> RangeTestResult:
    """Probe each fixed LR briefly and bracket the useful range.

    Probes run for trial_budget iterations (default: 10% of the context
    budget). The bracket spans from the largest k below the best whose
    accuracy is within `tolerance` of the best, up to the best k, extended
    one grid step above when that step did not diverge.
    """
    ks = list(k_grid)
    _check_grid("k_grid", ks)
    ks = sorted(map(float, ks))
    need(len(set(ks)) == len(ks), "k_grid values must be distinct", error=PolicyError)
    need(finite(tolerance) and tolerance >= 0, "tolerance must be finite and >= 0, got %r",
         tolerance, error=PolicyError)
    budget = trial_budget if trial_budget is not None else max(1, ctx.config.budget // 10)
    try:
        probe_cfg = replace(ctx.config, budget=budget, target_accuracy=None)
    except ValueError as e:  # the probe budget's own rule, under the key the caller gave
        raise PolicyError(f"trial_budget: {e}") from None
    need_count("trial_budget", budget, 1, PolicyError)

    cells = [(Fix(k=k), 1.0) for k in ks]
    results, _ = _run_cells(cells, replace(ctx, config=probe_cfg), "max_accuracy", 1)

    div = [cell.n_diverged > 0 for cell in results]
    accs = [0.0 if d else cell.metric_mean for d, cell in zip(div, results)]
    need(not all(div), "every range-test probe diverged", error=AllDiverged)

    best = max(range(len(ks)), key=lambda i: (not div[i], accs[i], -i))
    lo = ks[best]
    for i in range(best - 1, -1, -1):
        if not div[i] and accs[i] >= accs[best] - tolerance:
            lo = ks[i]
            break
    hi = ks[best]
    if best + 1 < len(ks) and not div[best + 1]:
        hi = ks[best + 1]
    return RangeTestResult(ks=ks, accuracies=accs, diverged=div, trial_budget=budget,
                           outcomes=[cell.outcomes[0] for cell in results],
                           seed=probe_cfg.seed, k_best=ks[best], bracket=(lo, hi))


def tune_result_to_dict(result: TuneResult) -> dict:
    entries = []
    for rank, cell in enumerate(result.entries, start=1):
        entries.append({
            "rank": rank,
            "policy": policy_to_dict(cell.template),
            "lambda": cell.lam,
            "metric_mean": cell.metric_mean,
            "metric_std": cell.metric_std,
            "cost_iters": cell.cost_iters,
            "n_trials": len(cell.outcomes),
            "n_diverged": cell.n_diverged,
            "reached_target": cell.reached_target,
            "speedup": result.speedup(cell),
        })
    return {"objective": result.objective, "budget": result.budget,
            "entries": entries}


def write_leaderboard_csv(result: TuneResult, path):
    write_csv(path, ["rank", "policy", "lambda", "metric_mean", "metric_std", "cost_iters"],
              ([rank, canonical_policy_key(cell.template), repr(cell.lam),
                "" if cell.metric_mean is None else repr(cell.metric_mean),
                "" if cell.metric_std is None else repr(cell.metric_std),
                repr(cell.cost_iters)]
               for rank, cell in enumerate(result.entries, start=1)))


def compose_multi(boundaries, phase_results: list[TuneResult]) -> Composite:
    """Stitch per-phase winners into one composite policy.

    boundaries is the full fence list [0, b1, ..., total]; phase i covers
    [boundaries[i], boundaries[i+1]) and gets phase_results[i]'s winner.
    """
    need(phase_results, "phase results are empty", error=PolicyError)
    need(len(boundaries) == len(phase_results) + 1, "need %s boundaries for %s phases, got %s",
         len(phase_results) + 1, len(phase_results), len(boundaries), error=PolicyError)
    segments = []
    for i, result in enumerate(phase_results):
        need(result.entries, "phase %s result is empty", i, error=PolicyError)
        winner = result.winner
        need(winner.metric_mean is not None, "phase %s winner diverged", i, error=AllDiverged)
        segments.append(Segment(start=int(boundaries[i]), end=int(boundaries[i + 1]),
                                policy=winner.policy()))
    return Composite(segments=tuple(segments))


def compose_search(space: SearchSpace, ctx: TrialContext) -> tuple[Composite, list[TuneResult]]:
    """Search each phase of space.boundaries in turn, warm-starting from the last winner.

    Phase i candidates all start from the parameters the phase i-1 winner
    ended with, so later phases are tuned against realistic late-stage
    behavior rather than a fresh init.
    """
    bounds = space.boundaries
    need(bounds is not None, "compose_search needs boundaries", error=PolicyError)
    cells = _cells(space, ctx)
    # fail before phase 0 runs if a candidate cannot cover the longest phase
    longest = max(e - b for b, e in zip(bounds, bounds[1:]))
    for template, lam in cells:
        compile_policy(_apply_lambda(template, lam), longest)

    phase_results = []
    checkpoint = None
    for start, end in zip(bounds, bounds[1:]):
        phase_ctx = replace(ctx, config=replace(ctx.config, budget=end - start,
                                                target_accuracy=None))
        try:
            # the next phase starts from the params the winner's first trial ended with
            result, checkpoint = _search(cells, phase_ctx, "max_accuracy",
                                         space.trials_per_point, init=checkpoint)
        except AllDiverged:
            raise AllDiverged(f"every candidate diverged in phase [{start}, {end})") from None
        phase_results.append(result)

    composite = compose_multi(bounds, phase_results)
    return composite, phase_results
