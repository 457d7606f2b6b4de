"""LR policy search: grid, random, LR range test, cost ranking, composition.

Every search is deterministic for a given (space, context): trial seeds
derive from the context seed and cells are ranked by value with fixed tie
breaks. All the trials of a search (or of one compose phase) train as one
stacked population (`trainer.run_population`), whose rows are bit for bit
the trials run alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import ModelSpec
from .optim import OptimizerSpec
from .problems import TaskData
from .schedule import (Composite, Fix, Policy, PolicyError, Scaled, Segment,
                       canonical_policy_key, compile as compile_policy, policy_to_dict)
from .trainer import TrainConfig, TrialOutcome, TrialTrace, run_population


class AllDiverged(RuntimeError):
    """Every candidate trial diverged; there is nothing to rank."""


@dataclass(frozen=True)
class SearchSpace:
    """Templates under a lambda grid (or a range to draw one from), checked when built."""

    templates: tuple[Policy, ...]
    lambda_grid: Optional[tuple[float, ...]] = None
    lambda_range: Optional[tuple[float, float]] = None
    trials_per_point: int = 1
    objective: str = "max_accuracy"  # or "min_cost"

    def __post_init__(self):
        if not self.templates:
            raise PolicyError("templates must be non-empty")
        if self.trials_per_point < 1:
            raise PolicyError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if self.objective not in ("max_accuracy", "min_cost"):
            raise PolicyError(f"objective must be max_accuracy or min_cost, "
                              f"got {self.objective!r}")
        if (self.lambda_grid is None) == (self.lambda_range is None):
            raise PolicyError("give exactly one of lambda_grid and lambda_range")
        if self.lambda_grid is not None and not self.lambda_grid:
            raise PolicyError("lambda_grid must be non-empty")
        for lam in self.lambda_grid or ():
            if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
                raise PolicyError(f"lambda_grid values must be positive and finite, "
                                  f"got {lam!r}")


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


def _grid_cells(space: SearchSpace) -> list[tuple[Policy, float]]:
    """Every (template, lambda) of the grid, for the searches that sweep one."""
    if space.lambda_grid is None:
        raise PolicyError("this search needs lambda_grid")
    return [(template, float(lam)) for template in space.templates for lam in space.lambda_grid]


def _run_cells(cells: list[tuple[Policy, float]], ctx: TrialContext, objective: str,
               trials_per_point: int, init=None
               ) -> tuple[list[CellResult], list[TrialTrace]]:
    """Run trials_per_point seeded trials per cell as one population and aggregate.

    Also returns every trial's trace, cell by cell, seeds in order.
    """
    base_seed = ctx.config.seed
    trials = [(_apply_lambda(template, lam), base_seed + r)
              for template, lam in cells for r in range(trials_per_point)]
    traces = run_population(ctx.model, ctx.task, trials, ctx.optimizer, ctx.config,
                            init=init)
    results = []
    for ci, (template, lam) in enumerate(cells):
        cell = traces[ci * trials_per_point:(ci + 1) * trials_per_point]
        results.append(_aggregate(template, lam, base_seed, [t.outcome for t in cell],
                                  objective))
    return results, traces


def _aggregate(template: Policy, lam: float, base_seed: int,
               outcomes: list[TrialOutcome], objective: str) -> CellResult:
    seeds = [base_seed + r for r in range(len(outcomes))]
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

    return CellResult(template=template, lam=lam, seeds=seeds, outcomes=outcomes,
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


def grid_search(space: SearchSpace, ctx: TrialContext) -> TuneResult:
    """Exhaustive sweep over templates x lambda_grid, ranked by the objective."""
    if space.objective == "min_cost" and ctx.config.target_accuracy is None:
        raise PolicyError("min_cost objective requires target_accuracy")
    entries, _ = _run_cells(_grid_cells(space), ctx, space.objective,
                            space.trials_per_point)
    entries = _rank(entries, space.objective)
    if all(e.n_diverged == len(e.outcomes) for e in entries):
        raise AllDiverged("every cell diverged in every trial")
    return TuneResult(objective=space.objective, entries=entries,
                      budget=ctx.config.budget)


def draw_lambdas(lambda_range: tuple[float, float], n: int, seed: int) -> list[float]:
    """n log-uniform draws from [low, high], deterministic in the seed."""
    low, high = lambda_range
    if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
        raise PolicyError(f"lambda_range must satisfy 0 < low <= high, "
                          f"got {lambda_range!r}")
    if n < 1:
        raise PolicyError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return [float(v) for v in np.exp(rng.uniform(np.log(low), np.log(high), n))]


def random_search(space: SearchSpace, ctx: TrialContext, n: int, seed: int) -> TuneResult:
    """Grid search over n lambdas drawn log-uniformly from space.lambda_range."""
    if space.lambda_range is None:
        raise PolicyError("random_search needs lambda_range")
    lams = draw_lambdas(space.lambda_range, n, seed)
    drawn = replace(space, lambda_grid=tuple(lams), lambda_range=None)
    return grid_search(drawn, ctx)


def cost_effective(space: SearchSpace, ctx: TrialContext) -> TuneResult:
    """Rank candidates by iterations needed to hit the context's target accuracy."""
    if ctx.config.target_accuracy is None:
        raise PolicyError("cost_effective requires target_accuracy in the config")
    return grid_search(replace(space, objective="min_cost"), ctx)


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
    ks = sorted(float(k) for k in k_grid)
    if not ks:
        raise PolicyError("k_grid must be non-empty")
    for k in ks:
        if not (math.isfinite(k) and k > 0):
            raise PolicyError(f"k_grid values must be positive and finite, got {k!r}")
    if len(set(ks)) != len(ks):
        raise PolicyError("k_grid values must be distinct")
    budget = trial_budget if trial_budget is not None else max(1, ctx.config.budget // 10)
    probe_cfg = replace(ctx.config, budget=budget, target_accuracy=None)
    probe_ctx = TrialContext(ctx.model, ctx.task, ctx.optimizer, probe_cfg)

    cells = [(Fix(k=k), 1.0) for k in ks]
    results, _ = _run_cells(cells, probe_ctx, "max_accuracy", 1)

    accs, div, outcomes = [], [], []
    for cell in results:
        diverged = cell.n_diverged > 0
        div.append(diverged)
        accs.append(0.0 if diverged else cell.metric_mean)
        outcomes.append(cell.outcomes[0])
    if all(div):
        raise AllDiverged("every range-test probe diverged")

    best = max(range(len(ks)), key=lambda i: (not div[i], accs[i], -i))
    lo = ks[best]
    for i in range(best - 1, -1, -1):
        if not div[i] and accs[i] >= accs[best] - tolerance:
            lo = ks[i]
            break
    hi = ks[best]
    if best + 1 < len(ks) and not div[best + 1]:
        hi = ks[best + 1]
    return RangeTestResult(ks=ks, accuracies=accs, diverged=div, outcomes=outcomes,
                           trial_budget=budget, seed=probe_cfg.seed,
                           k_best=ks[best], bracket=(lo, hi))


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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "policy", "lambda", "metric_mean", "metric_std",
                         "cost_iters"])
        for rank, cell in enumerate(result.entries, start=1):
            writer.writerow([
                rank,
                canonical_policy_key(cell.template),
                repr(cell.lam),
                "" if cell.metric_mean is None else repr(cell.metric_mean),
                "" if cell.metric_std is None else repr(cell.metric_std),
                repr(cell.cost_iters),
            ])


def compose_multi(boundaries, phase_results: list[TuneResult]) -> Composite:
    """Stitch per-phase winners into one composite policy.

    boundaries is the full fence list [0, b1, ..., total]; phase i covers
    [boundaries[i], boundaries[i+1]) and gets phase_results[i]'s winner.
    """
    if not phase_results:
        raise PolicyError("phase results are empty")
    if len(boundaries) != len(phase_results) + 1:
        raise PolicyError(f"need {len(phase_results) + 1} boundaries for "
                          f"{len(phase_results)} phases, got {len(boundaries)}")
    segments = []
    for i, result in enumerate(phase_results):
        if not result.entries:
            raise PolicyError(f"phase {i} result is empty")
        winner = result.winner
        if winner.metric_mean is None:
            raise AllDiverged(f"phase {i} winner diverged")
        segments.append(Segment(start=int(boundaries[i]), end=int(boundaries[i + 1]),
                                policy=winner.policy()))
    return Composite(segments=tuple(segments))


def compose_search(space: SearchSpace, ctx: TrialContext,
                   boundaries) -> tuple[Composite, list[TuneResult]]:
    """Search each phase in turn, warm-starting from the previous winner.

    Phase i candidates all start from the parameters the phase i-1 winner
    ended with, so later phases are tuned against realistic late-stage
    behavior rather than a fresh init.
    """
    cells = _grid_cells(space)
    bounds = [int(b) for b in boundaries]
    if len(bounds) < 2 or bounds[0] != 0 or any(b >= e for b, e in zip(bounds, bounds[1:])):
        raise PolicyError(f"boundaries must start at 0 and strictly increase, "
                          f"got {boundaries!r}")

    # fail before phase 0 runs if a candidate cannot cover the longest phase
    longest = max(e - b for b, e in zip(bounds, bounds[1:]))
    for template, lam in cells:
        compile_policy(_apply_lambda(template, lam), longest)

    phase_results = []
    checkpoint = None
    for start, end in zip(bounds, bounds[1:]):
        phase_cfg = replace(ctx.config, budget=end - start, target_accuracy=None)
        phase_ctx = TrialContext(ctx.model, ctx.task, ctx.optimizer, phase_cfg)
        unranked, traces = _run_cells(cells, phase_ctx, "max_accuracy",
                                      space.trials_per_point, init=checkpoint)
        entries = _rank(unranked, "max_accuracy")
        if entries[0].metric_mean is None:
            raise AllDiverged(f"every candidate diverged in phase [{start}, {end})")
        result = TuneResult(objective="max_accuracy", entries=entries,
                            budget=end - start)
        phase_results.append(result)
        # the next phase starts from the params the winner's first trial ended with
        winner_cell = next(ci for ci, cell in enumerate(unranked) if cell is result.winner)
        checkpoint = traces[winner_cell * space.trials_per_point].final_params

    composite = compose_multi(bounds, phase_results)
    return composite, phase_results
