"""Search orchestration: grids, ranking, range tests, composition."""

from dataclasses import replace

import numpy as np
import pytest

from lrforge import trainer
from lrforge.adaptive import ReduceOnPlateau
from lrforge.model import MLP, Linear, forward_loss_grad
from lrforge.optim import OptimizerSpec
from lrforge.schedule import Composite, Fix, PolicyError, Poly, Scaled, Step, Tri, lr_at
from lrforge.trainer import TrainConfig, TrialOutcome
from lrforge.tuner import (
    AllDiverged,
    CellResult,
    SearchSpace,
    TrialContext,
    TuneResult,
    compose_multi,
    compose_search,
    cost_effective,
    draw_lambdas,
    grid_search,
    random_search,
    range_test,
    tune_result_to_dict,
    write_leaderboard_csv,
)

SGD = OptimizerSpec("sgd")


def test_grid_covers_the_full_product(blobs_ctx):
    space = SearchSpace(templates=(Fix(0.05), Fix(0.2)),
                        lambda_grid=(0.5, 1.0, 2.0), trials_per_point=2)
    result = grid_search(space, blobs_ctx)
    assert len(result.entries) == 6
    assert result.budget == blobs_ctx.config.budget
    for cell in result.entries:
        assert len(cell.outcomes) == 2
        assert cell.seeds == [blobs_ctx.config.seed, blobs_ctx.config.seed + 1]
    # ranked best first under max_accuracy
    means = [c.metric_mean for c in result.entries if c.metric_mean is not None]
    assert means == sorted(means, reverse=True)


def test_rank_ties_break_on_canonical_key(blobs_ctx):
    # gamma = 1 makes STEP a constant schedule, so both cells run the
    # exact same trials; FIX must then win on the canonical key.
    space = SearchSpace(templates=(Step(k=0.05, gamma=1.0, l=5), Fix(0.05)),
                        lambda_grid=(1.0,))
    result = grid_search(space, blobs_ctx)
    assert result.entries[0].metric_mean == result.entries[1].metric_mean
    assert isinstance(result.entries[0].template, Fix)
    assert isinstance(result.entries[1].template, Step)


def test_min_cost_puts_unreached_cells_last(blobs_ctx):
    ctx = TrialContext(blobs_ctx.model, blobs_ctx.task, blobs_ctx.optimizer,
                       replace(blobs_ctx.config, target_accuracy=0.9))
    space = SearchSpace(templates=(Fix(0.1), Fix(1e-9)), lambda_grid=(1.0,),
                        objective="min_cost")
    result = grid_search(space, ctx)
    winner, loser = result.entries
    assert winner.template == Fix(0.1)
    assert winner.reached_target
    assert winner.metric_mean is not None
    assert loser.metric_mean is None and loser.reached_target is False
    assert result.speedup(winner) == ctx.config.budget / winner.metric_mean
    assert result.speedup(loser) is None


def test_speedup_is_none_for_accuracy_objective(blobs_ctx):
    space = SearchSpace(templates=(Fix(0.05),), lambda_grid=(1.0,))
    result = grid_search(space, blobs_ctx)
    assert result.speedup(result.winner) is None


def test_cost_effective_requires_a_target(blobs_ctx):
    space = SearchSpace(templates=(Fix(0.1),), lambda_grid=(1.0,))
    with pytest.raises(PolicyError, match="target_accuracy"):
        cost_effective(space, blobs_ctx)
    ctx = TrialContext(blobs_ctx.model, blobs_ctx.task, blobs_ctx.optimizer,
                       replace(blobs_ctx.config, target_accuracy=0.8))
    result = cost_effective(space, ctx)
    assert result.objective == "min_cost"


def test_all_diverged_raises(blobs_task):
    ctx = TrialContext(MLP(2, 8, 3), blobs_task, SGD,
                       TrainConfig(batch_size=16, budget=100, eval_every=50, seed=0))
    space = SearchSpace(templates=(Fix(1e12),), lambda_grid=(1.0, 10.0))
    with pytest.raises(AllDiverged):
        grid_search(space, ctx)


def test_space_validation(blobs_ctx):
    with pytest.raises(PolicyError, match="templates"):
        grid_search(SearchSpace(templates=(), lambda_grid=(1.0,)), blobs_ctx)
    with pytest.raises(PolicyError, match="lambda_grid"):
        grid_search(SearchSpace(templates=(Fix(0.1),), lambda_grid=()), blobs_ctx)
    with pytest.raises(PolicyError, match="positive"):
        grid_search(SearchSpace(templates=(Fix(0.1),), lambda_grid=(-1.0,)), blobs_ctx)
    with pytest.raises(PolicyError, match="trials_per_point"):
        grid_search(SearchSpace(templates=(Fix(0.1),), lambda_grid=(1.0,),
                                trials_per_point=0), blobs_ctx)
    with pytest.raises(PolicyError, match="objective"):
        grid_search(SearchSpace(templates=(Fix(0.1),), lambda_grid=(1.0,),
                                objective="median"), blobs_ctx)


def test_space_takes_exactly_one_of_grid_and_range(blobs_ctx):
    for lams in ({}, {"lambda_grid": (1.0,), "lambda_range": (0.1, 1.0)}):
        with pytest.raises(PolicyError, match="exactly one of lambda_grid and lambda_range"):
            SearchSpace(templates=(Fix(0.1),), **lams)
    ranged = SearchSpace(templates=(Fix(0.1),), lambda_range=(0.1, 1.0))
    for search in (grid_search, lambda s, c: compose_search(s, c, [0, 50])):
        with pytest.raises(PolicyError, match="needs lambda_grid"):
            search(ranged, blobs_ctx)


def test_lambda_scaling_rejects_metric_driven_policies(blobs_ctx):
    space = SearchSpace(templates=(ReduceOnPlateau(k=0.1, factor=0.5, patience=2),),
                        lambda_grid=(0.5,))
    with pytest.raises(PolicyError, match="lambda scaling"):
        grid_search(space, blobs_ctx)


def test_draw_lambdas_deterministic_log_uniform():
    a = draw_lambdas((0.001, 0.1), n=8, seed=4)
    b = draw_lambdas((0.001, 0.1), n=8, seed=4)
    assert a == b
    assert all(0.001 <= v <= 0.1 for v in a)
    rng = np.random.default_rng(4)
    want = np.exp(rng.uniform(np.log(0.001), np.log(0.1), 8))
    assert a == [float(v) for v in want]
    assert draw_lambdas((0.5, 0.5), n=3, seed=0) == [0.5, 0.5, 0.5]


def test_draw_lambdas_validation():
    for bad in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, float("inf"))):
        with pytest.raises(PolicyError, match="lambda_range"):
            draw_lambdas(bad, n=3, seed=0)
    with pytest.raises(PolicyError, match="n must be"):
        draw_lambdas((0.1, 1.0), n=0, seed=0)


def test_random_search_is_grid_search_on_the_draws(blobs_ctx):
    space = SearchSpace(templates=(Fix(0.1),), lambda_range=(0.01, 1.0))
    result = random_search(space, blobs_ctx, n=3, seed=11)
    lams = draw_lambdas((0.01, 1.0), n=3, seed=11)
    manual = grid_search(replace(space, lambda_grid=tuple(lams), lambda_range=None),
                         blobs_ctx)
    assert tune_result_to_dict(result) == tune_result_to_dict(manual)
    with pytest.raises(PolicyError, match="lambda_range"):
        random_search(SearchSpace(templates=(Fix(0.1),)), blobs_ctx, n=3, seed=0)


# --- range test ---


def test_range_test_sorts_probes_and_brackets(blobs_ctx):
    result = range_test(blobs_ctx, k_grid=[0.3, 1e-6, 0.05], trial_budget=60)
    assert result.ks == [1e-6, 0.05, 0.3]
    assert result.trial_budget == 60
    assert len(result.accuracies) == 3 and len(result.outcomes) == 3
    assert result.k_best in result.ks
    lo, hi = result.bracket
    assert lo <= result.k_best <= hi
    assert lo in result.ks and hi in result.ks
    best_acc = result.accuracies[result.ks.index(result.k_best)]
    assert all(best_acc >= a for a in result.accuracies)
    # 1e-6 barely moves the init; it must not beat the trained probes
    assert result.k_best != 1e-6


def test_range_test_default_budget_is_a_tenth(blobs_ctx):
    result = range_test(blobs_ctx, k_grid=[0.05])
    assert result.trial_budget == blobs_ctx.config.budget // 10
    assert result.outcomes[0].iterations_run <= result.trial_budget


def test_range_test_excludes_diverged_probes(blobs_task):
    ctx = TrialContext(MLP(2, 8, 3), blobs_task, SGD,
                       TrainConfig(batch_size=16, budget=600, eval_every=60, seed=0))
    result = range_test(ctx, k_grid=[0.01, 0.1, 1e9])
    assert result.diverged == [False, False, True]
    assert result.accuracies[2] == 0.0
    assert result.k_best != 1e9
    assert result.bracket[1] != 1e9  # the bracket never extends into a blow-up


def test_range_test_validation(blobs_ctx):
    with pytest.raises(PolicyError, match="non-empty"):
        range_test(blobs_ctx, k_grid=[])
    with pytest.raises(PolicyError, match="positive"):
        range_test(blobs_ctx, k_grid=[0.1, -0.5])
    with pytest.raises(PolicyError, match="distinct"):
        range_test(blobs_ctx, k_grid=[0.1, 0.1])


def test_range_test_all_diverged(blobs_task):
    ctx = TrialContext(MLP(2, 8, 3), blobs_task, SGD,
                       TrainConfig(batch_size=16, budget=100, eval_every=50, seed=0))
    with pytest.raises(AllDiverged):
        range_test(ctx, k_grid=[1e12, 1e15], trial_budget=50)


# --- composition ---


def _won_result(policy, budget, metric=0.9):
    outcome = TrialOutcome(final_accuracy=metric, best_accuracy=metric,
                           iterations_run=budget, iterations_to_target=None,
                           diverged=False, wall_time_sec=0.0)
    cell = CellResult(template=policy, lam=1.0, seeds=[0], outcomes=[outcome],
                      metric_mean=metric, metric_std=0.0, cost_iters=float(budget),
                      n_diverged=0, reached_target=None)
    return TuneResult(objective="max_accuracy", entries=[cell], budget=budget)


def test_compose_multi_stitches_phase_winners():
    phases = [_won_result(Tri(k0=0.1, k1=0.5, l=1500), 30000),
              _won_result(Tri(k0=0.01, k1=0.05, l=1000), 30000),
              _won_result(Tri(k0=0.001, k1=0.005, l=500), 4000)]
    composite = compose_multi([0, 30000, 60000, 64000], phases)
    assert isinstance(composite, Composite)
    assert [(s.start, s.end) for s in composite.segments] == [
        (0, 30000), (30000, 60000), (60000, 64000)]
    assert composite.segments[1].policy == Tri(k0=0.01, k1=0.05, l=1000)
    # each phase starts its own cycle at the boundary
    assert lr_at(composite, 0) == 0.1
    assert lr_at(composite, 30000) == 0.01
    assert lr_at(composite, 60000) == 0.001
    with pytest.raises(PolicyError):
        lr_at(composite, 64000)


def test_compose_multi_boundary_count_checked():
    phases = [_won_result(Fix(0.1), 100), _won_result(Fix(0.01), 100)]
    with pytest.raises(PolicyError, match="boundaries"):
        compose_multi([0, 100], phases)
    with pytest.raises(PolicyError, match="empty"):
        compose_multi([0], [])


def test_compose_multi_rejects_a_diverged_winner():
    bad = _won_result(Fix(0.1), 100)
    bad.entries[0].metric_mean = None
    with pytest.raises(AllDiverged, match="phase 1"):
        compose_multi([0, 100, 200], [_won_result(Fix(0.1), 100), bad])


def test_compose_multi_applies_the_winning_lambda():
    result = _won_result(Fix(0.1), 100)
    result.entries[0].lam = 3.0
    composite = compose_multi([0, 100], [result])
    assert composite.segments[0].policy == Scaled(lam=3.0, base=Fix(0.1))
    assert lr_at(composite, 0) == pytest.approx(0.3)


def test_compose_search_runs_phases_and_warm_starts(blobs_ctx):
    # lambda 1e-6 freezes learning; in phase 2 it still scores high only
    # because every phase-2 candidate starts from the phase-1 winner.
    space = SearchSpace(templates=(Fix(0.05),), lambda_grid=(1.0, 1e-6))
    composite, results = compose_search(space, blobs_ctx, [0, 100, 200])
    assert len(results) == 2
    assert all(r.budget == 100 for r in results)
    assert [(s.start, s.end) for s in composite.segments] == [(0, 100), (100, 200)]
    assert composite.segments[0].policy == results[0].winner.policy()

    phase1_best = results[0].winner.metric_mean
    assert phase1_best > 0.8
    frozen_phase2 = next(c for c in results[1].entries if c.lam == 1e-6)
    assert frozen_phase2.metric_mean > 0.8, "phase 2 must start from the checkpoint"
    frozen_phase1 = next(c for c in results[0].entries if c.lam == 1e-6)
    assert frozen_phase1.metric_mean < 0.7, "fresh init at lr ~0 should stay near chance"


def test_compose_search_boundary_validation(blobs_ctx):
    space = SearchSpace(templates=(Fix(0.05),), lambda_grid=(1.0,))
    for bad in ([0], [1, 2], [0, 50, 50], [0, 60, 30]):
        with pytest.raises(PolicyError, match="boundaries"):
            compose_search(space, blobs_ctx, bad)


def test_compose_search_rejects_a_short_horizon_before_phase_0(blobs_ctx, monkeypatch):
    # t_max 150 covers the 100-step phase 0 but not the 300-step phase 1
    steps = []
    monkeypatch.setattr(trainer, "forward_loss_grad",
                        lambda *a: steps.append(1) or forward_loss_grad(*a))
    space = SearchSpace(templates=(Fix(0.05), Poly(k=0.1, p=1.0, t_max=150)),
                        lambda_grid=(1.0,))
    with pytest.raises(PolicyError, match="POLY t_max"):
        compose_search(space, blobs_ctx, [0, 100, 400])
    assert steps == []


def test_leaderboard_csv(tmp_path, blobs_ctx):
    ctx = TrialContext(blobs_ctx.model, blobs_ctx.task, blobs_ctx.optimizer,
                       replace(blobs_ctx.config, target_accuracy=0.9))
    space = SearchSpace(templates=(Fix(0.1), Fix(1e-9)), lambda_grid=(1.0,),
                        objective="min_cost")
    result = grid_search(space, ctx)
    path = tmp_path / "board.csv"
    write_leaderboard_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,policy,lambda,metric_mean,metric_std,cost_iters"
    assert len(lines) == 3
    assert lines[1].startswith('1,"{""family"":""FIX""')
    # the never-reached cell leaves its metric columns empty
    assert lines[2].split(",")[-3:-1] == ["", ""] or ',,,' in lines[2]
