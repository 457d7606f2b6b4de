"""Acceptance gate: one product-level check per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with -s) and carries its
tolerances inline, so `pytest -v tests/test_acceptance.py` reads as the
release checklist. The MNIST check is optional and skips unless
LRFORGE_MNIST_DIR points at the four classic IDX files.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import SWEEP_CASES, T_MAX_SWEEP, ref_lr, rel_err

from lrforge import optim, schedule, store, trainer, tuner
from lrforge.model import MLP, Linear, forward_loss_grad, init_params
from lrforge.optim import OptimizerSpec
from lrforge.problems import (MultiBasin, Quadratic, Rosenbrock, Well, idx_task,
                              surface_value_grad)
from lrforge.schedule import Fix, PolicyError, Scaled, Sin2, Tri, Tri2, lr_at
from lrforge.trainer import TrainConfig, run_surface_trial, run_trial
from lrforge.tuner import SearchSpace, TrialContext

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ESCAPE_MANIFEST = os.path.join(REPO, "manifests", "surface_escape.json")

SGD = OptimizerSpec("sgd")
ADAM = OptimizerSpec("adam")


@contextmanager
def criterion(n, summary):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {n}: {summary}")
        raise
    print(f"PASS criterion {n}: {summary}")


def test_criterion_01_schedule_oracle_equivalence():
    rng = np.random.default_rng(20260817)
    ts = [int(v) for v in rng.integers(0, T_MAX_SWEEP + 1, 100_000)]
    with criterion(1, "14 families match the independent oracle at 1e5 points "
                      "each, rel err < 1e-12, under 10 s"):
        started = time.perf_counter()
        worst = 0.0
        for name in sorted(SWEEP_CASES):
            policy = SWEEP_CASES[name]
            for t in ts:
                err = rel_err(lr_at(policy, t), ref_lr(policy, t))
                if err > worst:
                    worst = err
                assert err < 1e-12, f"{name} at t={t}: rel err {err:.3e}"
        elapsed = time.perf_counter() - started
        assert len(SWEEP_CASES) == 14
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        print(f"  worst rel err {worst:.2e}, {elapsed:.1f}s", end=" ")


def test_criterion_02_lambda_linearity_is_exact():
    rng = np.random.default_rng(7)
    families = sorted(SWEEP_CASES)
    with criterion(2, "1000 random (policy, lambda, t) triples scale exactly"):
        for _ in range(1000):
            policy = SWEEP_CASES[families[rng.integers(len(families))]]
            lam = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            t = int(rng.integers(0, T_MAX_SWEEP + 1))
            scaled = Scaled(lam=lam, base=policy)
            assert lr_at(scaled, t) == lam * lr_at(policy, t)


def test_criterion_03_adam_first_step_and_convergence():
    with criterion(3, "Adam: first step 1.0 -> 0.9 (tol 1e-6), zero-grad fixed "
                      "point, |theta| < 1e-3 on the unit quadratic in 2000 steps"):
        state = optim.init_state(ADAM, 1)
        new, state = optim.step(np.array([1.0]), np.array([1.0]), 0.1, state)
        assert abs(new[0] - 0.9) < 1e-6

        params = np.array([0.3, -0.7])
        state = optim.init_state(ADAM, 2)
        for _ in range(5):
            stepped, state = optim.step(params, np.zeros(2), 0.1, state)
            assert np.array_equal(stepped, params)

        path = run_surface_trial(Quadratic(a=np.eye(2)), (0.6, 0.8),
                                 Fix(0.01), ADAM, 2000)
        norms = [float(np.hypot(p[0], p[1])) for p in path.points]
        assert norms[0] == pytest.approx(1.0)
        first_below = next((i for i, v in enumerate(norms) if v < 1e-3), None)
        assert first_below is not None, "never reached |theta| < 1e-3"
        print(f"  reached at step {first_below}", end=" ")


def test_criterion_04_gradient_checks():
    with criterion(4, "analytic grads match central differences: models rel "
                      "1e-5 on 200 coords each, surfaces abs 1e-6, under 30 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(12)
        for spec in (Linear(50, 5), MLP(20, 16, 5)):
            params = init_params(spec, seed=1)
            x = rng.normal(size=(16, spec.d_in))
            y = rng.integers(0, 5, size=16)
            _, grad = forward_loss_grad(spec, params[None], x, y)
            coords = rng.choice(params.size, size=200, replace=False)
            eps = 1e-6
            for i in coords:
                bumped = params.copy()
                bumped[i] += eps
                up, _ = forward_loss_grad(spec, bumped[None], x, y)
                bumped[i] -= 2 * eps
                dn, _ = forward_loss_grad(spec, bumped[None], x, y)
                fd = (up[0] - dn[0]) / (2 * eps)
                # 1e-9 absolute floor: central differences at h=1e-6 cannot
                # resolve components smaller than the cancellation noise
                assert grad[0, i] == pytest.approx(fd, rel=1e-5, abs=1e-9)

        surfaces = (Quadratic(a=np.array([[2.0, 0.5], [0.5, 1.0]])),
                    Rosenbrock(),
                    MultiBasin(wells=(Well((0.0, 0.0), 1.1, 0.4),
                                      Well((0.9, 0.0), 2.0, 0.4))))
        for surface in surfaces:
            for _ in range(50):
                point = rng.uniform(-1.5, 1.5, size=2)
                _, grad = surface_value_grad(surface, point)
                for axis in range(2):
                    h = np.zeros(2)
                    h[axis] = 1e-6
                    up, _ = surface_value_grad(surface, point + h)
                    dn, _ = surface_value_grad(surface, point - h)
                    assert abs(grad[axis] - (up - dn) / 2e-6) < 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_05_surface_escape_ordering():
    with open(ESCAPE_MANIFEST, "r", encoding="utf-8") as f:
        doc = json.load(f)
    wells = tuple(Well(center=tuple(w["center"]), depth=w["depth"], width=w["width"])
                  for w in doc["surface"]["wells"])
    surface = MultiBasin(wells=wells)
    policies = {entry["name"]: schedule.policy_from_dict(entry["policy"])
                for entry in doc["policies"]}
    with criterion(5, "restart schedule escapes the shallow trap that a fixed "
                      "LR cannot leave: final(nstep) < final(fix)"):
        finals = {}
        for name, policy in policies.items():
            path = run_surface_trial(surface, doc["start"], policy, SGD,
                                     doc["iterations"])
            assert not path.diverged
            finals[name] = path.final_value()
        assert finals["nstep"] < finals["fix"]
        print(f"  fix {finals['fix']:.4f}, nstep {finals['nstep']:.4f}, "
              f"triexp {finals['triexp']:.4f}", end=" ")


def test_criterion_06_cyclic_beats_fixed_to_target(moons_task):
    cfg = TrainConfig(batch_size=32, budget=10_000, eval_every=10,
                      target_accuracy=0.95, seed=0)
    ctx = TrialContext(MLP(2, 16, 2), moons_task, SGD, cfg)
    with criterion(6, "cyclic policy reaches 95% on moons with speedup > 1.2x "
                      "over the best fixed LR, under 2 min"):
        started = time.perf_counter()
        fixed = tuner.grid_search(
            SearchSpace(templates=(Fix(1e-4), Fix(1e-3), Fix(1e-2), Fix(0.1)),
                        lambda_grid=(1.0,), objective="min_cost"), ctx)
        cyclic = tuner.grid_search(
            SearchSpace(templates=(Tri2(k0=0.01, k1=0.6, l=250),
                                   Sin2(k0=0.01, k1=0.6, l=250)),
                        lambda_grid=(1.0,), objective="min_cost"), ctx)
        cyc_best = cyclic.winner
        assert cyc_best.reached_target, "no cyclic policy reached the target"
        fix_best = fixed.winner
        if fix_best.reached_target:
            speedup = fix_best.metric_mean / cyc_best.metric_mean
            assert speedup > 1.2, f"speedup only {speedup:.2f}x"
            note = (f"{cyc_best.metric_mean:.0f} vs {fix_best.metric_mean:.0f} "
                    f"iters, {speedup:.2f}x")
        else:
            note = "every fixed LR missed the target"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(f"  {note}, {elapsed:.0f}s", end=" ")


def test_criterion_07_curated_grid_matches_random_search(moons_task):
    template = schedule.TriExp(k0=1.0, k1=3.0, l=100, gamma=0.995)
    curated = (0.001, 0.005, 0.01, 0.05, 0.1)
    with criterion(7, "curated lambda grid >= random search minus 0.002 over "
                      "5 repeats on moons, under 5 min"):
        started = time.perf_counter()
        grid_scores, random_scores = [], []
        for i in range(5):
            cfg = TrainConfig(batch_size=32, budget=400, eval_every=50, seed=100 + i)
            ctx = TrialContext(MLP(2, 16, 2), moons_task, SGD, cfg)
            grid = tuner.grid_search(
                SearchSpace(templates=(template,), lambda_grid=curated),
                ctx)
            grid_scores.append(grid.winner.metric_mean)
            rand = tuner.grid_search(
                SearchSpace(templates=(template,), lambda_range=(0.001, 0.1),
                            n_samples=5, seed=100 + i), ctx)
            random_scores.append(rand.winner.metric_mean)
        grid_mean = float(np.mean(grid_scores))
        random_mean = float(np.mean(random_scores))
        assert grid_mean >= random_mean - 0.002, (
            f"grid {grid_mean:.4f} vs random {random_mean:.4f}")
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        print(f"  grid {grid_mean:.4f} vs random {random_mean:.4f}, "
              f"{elapsed:.0f}s", end=" ")


def test_criterion_08_range_test_ordering(moons_task):
    cfg = TrainConfig(batch_size=32, budget=10_000, eval_every=100, seed=0)
    ctx = TrialContext(MLP(2, 16, 2), moons_task, SGD, cfg)
    with criterion(8, "k=1e-4 probes strictly below the best fixed LR"):
        result = tuner.range_test(ctx, k_grid=[0.1, 0.01, 0.001, 0.0001])
        tiny = result.accuracies[result.ks.index(1e-4)]
        best = result.accuracies[result.ks.index(result.k_best)]
        assert result.k_best != 1e-4
        assert tiny < best, f"k=1e-4 scored {tiny:.4f} vs best {best:.4f}"
        print(f"  1e-4 -> {tiny:.4f}, k_best {result.k_best:g} -> {best:.4f}",
              end=" ")


def _run_cli(*argv, cwd):
    env = {k: v for k, v in os.environ.items() if k != "LRFORGE_DB"}
    # the child runs in cwd, where a relative PYTHONPATH such as src would not resolve
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO, "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lrforge", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


def _read_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_criterion_09_cli_byte_determinism(tmp_path):
    base = {
        "task": "det",
        "dataset": {"kind": "blobs", "seed": 2, "n_per_class": 25,
                    "n_classes": 3, "d": 2, "separation": 8.0},
        "model": {"kind": "linear"},
        "optimizer": {"kind": "sgd"},
        "train": {"batch_size": 16, "budget": 150, "eval_every": 50, "seed": 0},
    }
    train_doc = dict(base, policy={"family": "TRI2",
                                   "params": {"k0": 0.01, "k1": 0.3, "l": 25}})
    tune_doc = dict(base, search={
        "templates": [{"family": "FIX", "params": {"k": 1.0}},
                      {"family": "EXP", "params": {"k": 1.0, "gamma": 0.98}}],
        "lambda_grid": [0.02, 0.2], "trials_per_point": 2})
    (tmp_path / "train.json").write_text(json.dumps(train_doc))
    (tmp_path / "tune.json").write_text(json.dumps(tune_doc))

    with criterion(9, "train/tune reruns are byte-identical and leave the db "
                      "unchanged, including under --workers 8"):
        a = _run_cli("train", "--manifest", "train.json", "--out-dir", "out_a",
                     "--db", "db.jsonl", cwd=tmp_path)
        assert a.returncode == 0, a.stderr
        db_after_train = (tmp_path / "db.jsonl").read_bytes()
        b = _run_cli("train", "--manifest", "train.json", "--out-dir", "out_b",
                     "--db", "db.jsonl", cwd=tmp_path)
        assert b.returncode == 0, b.stderr
        assert _read_tree(tmp_path / "out_b") == _read_tree(tmp_path / "out_a")
        assert (tmp_path / "db.jsonl").read_bytes() == db_after_train

        c = _run_cli("tune", "--manifest", "tune.json", "--workers", "1",
                     "--out-dir", "out_c", "--db", "db.jsonl", cwd=tmp_path)
        assert c.returncode == 0, c.stderr
        db_after_tune = (tmp_path / "db.jsonl").read_bytes()
        d = _run_cli("tune", "--manifest", "tune.json", "--workers", "8",
                     "--out-dir", "out_d", "--db", "db.jsonl", cwd=tmp_path)
        assert d.returncode == 0, d.stderr
        assert _read_tree(tmp_path / "out_d") == _read_tree(tmp_path / "out_c")
        assert (tmp_path / "db.jsonl").read_bytes() == db_after_tune


def test_criterion_10_store_guarantees(tmp_path):
    def rec(k, acc, wall):
        return store.TrialRecord(
            task="t", policy={"family": "FIX", "params": {"k": k}}, lam=1.0,
            seed=0, final_accuracy=acc, best_accuracy=acc, iterations_run=100,
            iterations_to_target=None, diverged=False, wall_time_sec=wall,
            timestamp="2026-01-01T00:00:00Z", artifact_version="x")

    path = tmp_path / "db.jsonl"
    with criterion(10, "store: idempotent append, conflict rejection, top-k "
                       "prefix stability, partial-line recovery"):
        db = store.PolicyStore(path)
        assert db.append(rec(0.1, 0.9, 1.0)) == 0
        before = path.read_bytes()
        assert db.append(rec(0.1, 0.9, 55.0)) == 0  # timing never conflicts
        assert path.read_bytes() == before
        with pytest.raises(store.StoreConflict):
            db.append(rec(0.1, 0.8, 1.0))

        for i, acc in enumerate((0.5, 0.95, 0.7, 0.9)):
            db.append(rec(0.2 + i, acc, 1.0))
        full = db.query_top_k("t", k=5)
        for k in range(6):
            assert db.query_top_k("t", k=k) == full[:k]

        whole = path.read_bytes()
        path.write_bytes(whole + b'{"v":1,"task')
        recovered = store.PolicyStore(path)
        assert len(recovered) == 5
        assert path.read_bytes() == whole
        recovered.append(rec(9.9, 0.1, 1.0))
        assert len(store.PolicyStore(path)) == 6


def test_criterion_11_three_phase_composite():
    def won(policy, budget):
        outcome = trainer.TrialOutcome(final_accuracy=0.9, best_accuracy=0.9,
                                       iterations_run=budget,
                                       iterations_to_target=None,
                                       diverged=False, wall_time_sec=0.0)
        cell = tuner.CellResult(template=policy, lam=1.0, seeds=[0],
                                outcomes=[outcome], metric_mean=0.9,
                                metric_std=0.0, cost_iters=float(budget),
                                n_diverged=0, reached_target=None)
        return tuner.TuneResult(objective="max_accuracy", entries=[cell],
                                budget=budget)

    phases = [won(Tri(k0=0.1, k1=0.5, l=1500), 30_000),
              won(Tri(k0=0.01, k1=0.05, l=1000), 30_000),
              won(Tri(k0=0.001, k1=0.005, l=500), 4_000)]
    boundaries = [0, 30_000, 60_000, 64_000]
    with criterion(11, "3-phase composite validates and is segment-local at "
                       "every boundary +-1"):
        composite = tuner.compose_multi(boundaries, phases)
        schedule.validate(composite)
        assert [(s.start, s.end) for s in composite.segments] == [
            (0, 30_000), (30_000, 60_000), (60_000, 64_000)]
        for i, seg in enumerate(composite.segments):
            for t in (seg.start, seg.start + 1, seg.end - 1):
                assert lr_at(composite, t) == lr_at(seg.policy, t - seg.start)
            if i > 0:
                prev = composite.segments[i - 1]
                t = seg.start - 1
                assert lr_at(composite, t) == lr_at(prev.policy, t - prev.start)
        with pytest.raises(PolicyError):
            lr_at(composite, boundaries[-1])


MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def test_criterion_12_mnist_grid_search_optional():
    mnist_dir = os.environ.get("LRFORGE_MNIST_DIR")
    if not mnist_dir:
        pytest.skip("set LRFORGE_MNIST_DIR to run the MNIST check")
    paths = [os.path.join(mnist_dir, name) for name in MNIST_FILES]
    if not all(os.path.exists(p) for p in paths):
        pytest.skip(f"IDX files not found under {mnist_dir}")

    task = idx_task(*paths, name="mnist")
    cfg = TrainConfig(batch_size=64, budget=10_000, eval_every=1000, seed=0)
    ctx = TrialContext(MLP(784, 64, 10), task, SGD, cfg)
    with criterion(12, "grid-search winner reaches 95% on MNIST within 10k "
                       "iterations"):
        result = tuner.grid_search(
            SearchSpace(templates=(Fix(0.1), Tri2(k0=0.01, k1=0.5, l=500)),
                        lambda_grid=(1.0,)),
            ctx)
        assert result.winner.metric_mean >= 0.95
        print(f"  top-1 accuracy {result.winner.metric_mean:.4f}", end=" ")
