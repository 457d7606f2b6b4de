"""The exact error of each check that rejects a value.

Every check that tests a value and raises names what it rejected. Each case
below triggers one such check, through the call a user makes, and pins the
class it raises (exactly, not a subclass) and its whole message. Checks
whose whole message another test already pins are left to that test.
"""

import argparse
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from lrforge import adaptive, cli, model, optim, problems, schedule, store, trainer, tuner
from lrforge.schedule import Fix, PolicyError, ReduceOnPlateau

FIX = Fix(k=0.1)
SGD = optim.OptimizerSpec()
ADAM = optim.OptimizerSpec("adam")
LINEAR = model.Linear(2, 2)
CTX = tuner.TrialContext(model=LINEAR, task=problems.gen_moons(seed=0, n=40), optimizer=SGD,
                         config=trainer.TrainConfig(batch_size=8, budget=10))
X, Y = np.zeros((4, 2)), np.zeros(4, dtype=np.int64)
CHANGE = schedule.ChangeOnPlateau(policies=(FIX,), patience=1)
RECORD = {"v": 1, "task": "t", "policy": {}, "lambda": 1.0, "seed": 0,
          "outcome": {"final_accuracy": 0.5, "best_accuracy": 0.5, "iterations_run": 3,
                      "iterations_to_target": None, "diverged": False}}
TWO_WELLS = (problems.Well((0.0, 0.0), 1.0, 1.0), problems.Well((1.0, 0.0), 1.0, 1.0))


def _write_idx(tmp, images=(2051, 1, 1, 1), labels=(2049, 1), pixels=b"\0", marks=b"\0"):
    """An IDX pair under tmp with the given header fields and payloads."""
    paths = str(tmp / "images.idx"), str(tmp / "labels.idx")
    for path, header, payload in zip(paths, (images, labels), (pixels, marks)):
        with open(path, "wb") as f:
            f.write(np.array(header, dtype=">i4").tobytes() + payload)
    return paths


def _truncated(tmp):
    path = tmp / "images.idx"
    path.write_bytes(b"abc")
    return str(path)


def _phase(metric_mean, entries=True):
    cell = tuner.CellResult(template=FIX, lam=1.0, seeds=[0], outcomes=[],
                            metric_mean=metric_mean, metric_std=None, cost_iters=1.0,
                            n_diverged=0, reached_target=None)
    return tuner.TuneResult(objective="max_accuracy", entries=[cell] if entries else [],
                            budget=5)


def _conflict(tmp):
    """A second append of a stored identity, with another outcome."""
    db = store.PolicyStore(tmp / "records.jsonl")
    record = store.TrialRecord("t", {"family": "FIX"}, 1.0, 0, 0.5, 0.5, 3, None, False)
    db.append(record)
    return lambda: db.append(replace(record, final_accuracy=0.6))


def _manifest(tmp, doc):
    path = tmp / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _surface(tmp, **changes):
    doc = {"surface": {"kind": "rosenbrock"}, "start": [0.0, 0.0], "iterations": 3,
           "policies": [{"family": "FIX", "params": {"k": 0.1}}], **changes}
    args = argparse.Namespace(manifest=_manifest(tmp, doc), out_dir=str(tmp / "out"))
    return lambda: cli.cmd_surface(args)


def _blocked(tmp):
    """A path under a plain file, where nothing can be created."""
    (tmp / "file").write_text("")
    return str(tmp / "file" / "x")


# (id, tmp -> (the call, the class it raises, its message))
CASES = [
    # optim
    ("eps-infinite", lambda tmp: (lambda: optim.OptimizerSpec("adam", eps=math.inf),
                                  ValueError, "eps must be finite, got inf")),
    ("optimizer-kind", lambda tmp: (lambda: optim.OptimizerSpec("lbfgs"),
                                    ValueError, "unknown optimizer kind 'lbfgs'")),
    ("step-shapes", lambda tmp: (
        lambda: optim.step(np.zeros(2), np.zeros(3), 0.1, optim.init_state(SGD, 2)),
        ValueError, "shape mismatch: params (2,), grads (3,), state (2,)")),
    # problems
    ("quadratic-entries", lambda tmp: (lambda: problems.Quadratic(a=[[True, 0], [0, 1]]),
                                       ValueError, "a must hold finite numbers, got "
                                       "[[True, 0], [0, 1]]")),
    ("quadratic-shape", lambda tmp: (lambda: problems.Quadratic(a=[[1.0]]),
                                     ValueError, "a must be 2x2, got shape (1, 1)")),
    ("quadratic-symmetric", lambda tmp: (lambda: problems.Quadratic(a=[[1.0, 2.0], [0.0, 1.0]]),
                                         ValueError, "a must be symmetric")),
    ("quadratic-definite", lambda tmp: (lambda: problems.Quadratic(a=[[1.0, 0.0], [0.0, -1.0]]),
                                        ValueError, "a must be positive definite")),
    ("rosenbrock", lambda tmp: (lambda: problems.Rosenbrock(a=math.nan),
                                ValueError, "rosenbrock a and b must be finite, got "
                                "Rosenbrock(a=nan, b=100.0)")),
    ("rosenbrock-int", lambda tmp: (lambda: problems.Rosenbrock(b=10**400),
                                    ValueError, "rosenbrock a and b must be finite, got "
                                    f"Rosenbrock(a=1.0, b={10**400})")),
    ("well-center", lambda tmp: (lambda: problems.Well((math.nan, 0.0), 1.0, 1.0),
                                 ValueError, "center coordinates must be finite, got (nan, 0.0)")),
    ("well-depth", lambda tmp: (lambda: problems.Well([0.0, 1], 0.0, 1.0),
                                ValueError, "well depth and width must be finite and > 0, got "
                                "Well(center=[0.0, 1], depth=0.0, width=1.0)")),
    ("wells-empty", lambda tmp: (lambda: problems.MultiBasin(wells=()),
                                 ValueError, "wells must be non-empty")),
    ("wells-deepest", lambda tmp: (lambda: problems.MultiBasin(wells=TWO_WELLS),
                                   ValueError, "deepest well must be unique")),
    ("surface-point", lambda tmp: (
        lambda: problems.surface_value_grad(problems.Rosenbrock(), np.zeros(3)),
        ValueError, "point must have shape (2,), got (3,)")),
    ("surface-type", lambda tmp: (lambda: problems.surface_value_grad(FIX, np.zeros(2)),
                                  ValueError, "unknown surface type Fix")),
    ("blobs-separation", lambda tmp: (
        lambda: problems.gen_blobs(seed=0, n_per_class=2, separation=math.nan),
        ValueError, "separation must be finite, got nan")),
    ("moons-noise", lambda tmp: (lambda: problems.gen_moons(seed=0, n=8, noise=-1.0),
                                 ValueError, "noise must be finite and >= 0, got -1.0")),
    ("idx-truncated", lambda tmp: (
        lambda p=_truncated(tmp): problems.load_idx(p, p),
        ValueError, f"truncated IDX file {tmp / 'images.idx'}: wanted 16 bytes, got 3")),
    ("idx-image-magic", lambda tmp: (
        lambda p=_write_idx(tmp, images=(7, 1, 1, 1)): problems.load_idx(*p),
        ValueError, f"bad magic in {tmp / 'images.idx'}: expected 2051, got 7")),
    ("idx-label-magic", lambda tmp: (
        lambda p=_write_idx(tmp, labels=(9, 1)): problems.load_idx(*p),
        ValueError, f"bad magic in {tmp / 'labels.idx'}: expected 2049, got 9")),
    ("idx-lengths", lambda tmp: (
        lambda p=_write_idx(tmp, labels=(2049, 2), marks=b"\0\0"): problems.load_idx(*p),
        ValueError, "length mismatch: 1 images vs 2 labels")),
    ("save-images", lambda tmp: (
        lambda: problems.save_idx(np.zeros((2, 2)), np.zeros(2), tmp / "i", tmp / "l"),
        ValueError, "images must be (n, rows, cols), got shape (2, 2)")),
    ("save-lengths", lambda tmp: (
        lambda: problems.save_idx(np.zeros((2, 1, 1)), np.zeros(3), tmp / "i", tmp / "l"),
        ValueError, "length mismatch: 2 images vs 3 labels")),
    # trainer
    ("target-accuracy", lambda tmp: (lambda: trainer.TrainConfig(target_accuracy=1.5),
                                     ValueError, "target_accuracy must be in (0, 1], got 1.5")),
    ("surface-start", lambda tmp: (
        lambda: trainer.run_surface_trial(problems.Rosenbrock(), (0.0, 0.0, 0.0), FIX, SGD, 3),
        ValueError, "start must be a 2-D point, got shape (3,)")),
    ("budget-memory", lambda tmp: (
        lambda: trainer.run_trial(LINEAR, CTX.task, FIX, SGD, replace(CTX.config, budget=2**50)),
        ValueError, f"budget {2**50} is too large to hold the LR and loss traces in memory "
        "(trials: 1)")),
    # tuner
    ("lambda-range-pair", lambda tmp: (
        lambda: tuner.SearchSpace(templates=(FIX,), lambda_range=(0.1,), n_samples=2),
        PolicyError, "lambda_range must be [low, high]")),
    ("lambda-range-order", lambda tmp: (
        lambda: tuner.SearchSpace(templates=(FIX,), lambda_range=(1.0, 0.1), n_samples=2),
        PolicyError, "lambda_range must satisfy 0 < low <= high, got (1.0, 0.1)")),
    ("draws-n-required", lambda tmp: (lambda: tuner.draw_lambdas((0.1, 1.0), None, 0),
                                      PolicyError, "n_samples is required")),
    ("boundaries-min-cost", lambda tmp: (
        lambda: tuner.SearchSpace(templates=(FIX,), boundaries=(0, 5), objective="min_cost"),
        PolicyError, "objective min_cost does not apply with boundaries: "
        "each phase ranks by accuracy")),
    ("lambda-range-boundaries", lambda tmp: (
        lambda: tuner.SearchSpace(templates=(FIX,), boundaries=(0, 5), lambda_range=(0.1, 1.0),
                                  n_samples=2),
        PolicyError, "lambda_range applies only to a max_accuracy search without boundaries, "
        "which samples it; give lambda_grid")),
    ("all-cells-diverged", lambda tmp: (
        lambda: tuner.grid_search(tuner.SearchSpace(templates=(Fix(k=1e300),),
                                                    lambda_grid=(1e300,)), CTX),
        tuner.AllDiverged, "every cell diverged in every trial")),
    ("all-probes-diverged", lambda tmp: (
        lambda: tuner.range_test(replace(CTX, optimizer=ADAM), [1e308], trial_budget=5),
        tuner.AllDiverged, "every range-test probe diverged")),
    ("compose-empty", lambda tmp: (lambda: tuner.compose_multi([0], []),
                                   PolicyError, "phase results are empty")),
    ("compose-boundaries", lambda tmp: (
        lambda: tuner.compose_multi([0, 5], [_phase(0.5), _phase(0.5)]),
        PolicyError, "need 3 boundaries for 2 phases, got 2")),
    ("compose-phase-empty", lambda tmp: (
        lambda: tuner.compose_multi([0, 5], [_phase(0.5, entries=False)]),
        PolicyError, "phase 0 result is empty")),
    ("compose-phase-diverged", lambda tmp: (lambda: tuner.compose_multi([0, 5], [_phase(None)]),
                                            tuner.AllDiverged, "phase 0 winner diverged")),
    ("compose-no-boundaries", lambda tmp: (
        lambda: tuner.compose_search(tuner.SearchSpace(templates=(FIX,)), CTX),
        PolicyError, "compose_search needs boundaries")),
    # model
    ("mlp-widths", lambda tmp: (lambda: model.MLP(2, 0, 2), ValueError,
                                "invalid model dimensions: MLP(d_in=2, hidden=0, n_classes=2)")),
    ("linear-widths", lambda tmp: (lambda: model.Linear(2, 1), ValueError,
                                   "invalid model dimensions: Linear(d_in=2, n_classes=1)")),
    ("linear-width-type", lambda tmp: (lambda: model.Linear(2.0, 2), ValueError,
                                       "invalid model dimensions: Linear(d_in=2.0, n_classes=2)")),
    ("forward-stack", lambda tmp: (lambda: model.forward_loss_grad(LINEAR, np.zeros(6), X, Y),
                                   ValueError, "params must be a (C, P) stack, got shape (6,)")),
    ("forward-empty", lambda tmp: (
        lambda: model.forward_loss_grad(LINEAR, np.zeros((1, 6)), X[:0], Y[:0]),
        ValueError, "empty batch")),
    ("forward-width", lambda tmp: (
        lambda: model.forward_loss_grad(LINEAR, np.zeros((1, 6)), np.zeros((4, 3)), Y),
        ValueError, "feature width 3 does not match d_in 2")),
    ("forward-labels", lambda tmp: (
        lambda: model.forward_loss_grad(LINEAR, np.zeros((1, 6)), X, Y + 2),
        ValueError, "labels out of range [0, 2)")),
    # adaptive
    ("observe-metric", lambda tmp: (
        lambda: adaptive.observe(adaptive.AdaptiveState(), CHANGE, math.nan),
        PolicyError, "observed metric must be finite, got nan")),
    ("current-lr-origin", lambda tmp: (
        lambda: adaptive.current_lr(adaptive.AdaptiveState(local_t_origin=5), CHANGE, 3),
        PolicyError, "t (3) precedes the active policy's origin (5)")),
    # store
    ("record-version", lambda tmp: (lambda: store._record_from_obj({**RECORD, "v": 2}),
                                    ValueError, "unsupported record schema version 2")),
    ("record-types", lambda tmp: (lambda: store._record_from_obj({**RECORD, "seed": "0"}),
                                  TypeError, "an identity or outcome field has the wrong type")),
    ("record-info-types", lambda tmp: (
        lambda: store._record_from_obj({**RECORD, "timestamp": 5}), TypeError,
        "wall_time_sec must be finite or None, and timestamp and artifact_version a str or None")),
    ("record-policy-nan", lambda tmp: (
        lambda: store.TrialRecord("t", {"k": math.nan}, 1.0, 0, 0.5, 0.5, 3, None, False).key(),
        TypeError, "policy must hold no NaN or infinity")),
    ("top-k-objective", lambda tmp: (
        lambda: store.PolicyStore(tmp / "db.jsonl").query_top_k("t", 1, "median"),
        ValueError, "objective must be max_accuracy or min_cost, got 'median'")),
    ("store-conflict", lambda tmp: (
        _conflict(tmp), store.StoreConflict,
        """record for ('t', '{"family":"FIX"}', 1.0, 0) already exists """
        "with a different outcome")),
    # cli
    ("manifest-object", lambda tmp: (lambda: cli._check(5, cli.MANIFEST["train"], "train"),
                                     cli.ManifestError, "'train' must be a JSON object")),
    ("manifest-not-object", lambda tmp: (
        lambda p=_manifest(tmp, [1]): cli._load_manifest(p),
        cli.ManifestError, f"manifest {tmp / 'm.json'} must be a JSON object")),
    ("manifest-missing", lambda tmp: (lambda: cli._read({}, "dataset"),
                                      cli.ManifestError, "manifest is missing 'dataset'")),
    ("db-blocked", lambda tmp: (
        lambda p=_blocked(tmp): cli._open_db(argparse.Namespace(db=p), {}),
        OSError, f"cannot append to record database {tmp / 'file' / 'x'}")),
    ("out-dir-missing", lambda tmp: (lambda: cli._out_dir({}, None), cli.ManifestError,
                                     "out_dir is required (manifest key or --out-dir)")),
    ("out-dir-blocked", lambda tmp: (lambda p=_blocked(tmp): cli._out_dir({}, p), OSError,
                                     f"cannot write to output directory {tmp / 'file' / 'x'}")),
    ("surface-start-pair", lambda tmp: (_surface(tmp, start=[0.0]), cli.ManifestError,
                                        "start must be [x, y]")),
    ("surface-no-policies", lambda tmp: (_surface(tmp, policies=[]), cli.ManifestError,
                                         "policies must be non-empty")),
    ("surface-duplicate", lambda tmp: (
        _surface(tmp, policies=[{"name": "a", "policy": {"family": "FIX", "params": {"k": 0.1}}},
                                {"name": "a", "policy": {"family": "FIX", "params": {"k": 0.2}}}]),
        cli.ManifestError, "duplicate policy name 'a'")),
    # schedule's closed forms
    ("poly-t-max", lambda tmp: (lambda: schedule.lr_at(schedule.Poly(k=1.0, p=1.0, t_max=5), 6),
                                PolicyError, "t (6) exceeds t_max (5) for POLY")),
    ("composite-horizon", lambda tmp: (
        lambda: schedule.lr_at(schedule.Composite(segments=(schedule.Segment(0, 10, FIX),)), 10),
        PolicyError, "t (10) is past the composite horizon (last segment ends at 10)")),
    ("no-closed-form", lambda tmp: (
        lambda: schedule.lr_at(ReduceOnPlateau(k=0.1, factor=0.5, patience=1), 0),
        PolicyError, "PLATEAU_REDUCE has no closed form over t; drive it through a trainer")),
    # schedule's JSON reader, on nesting past the recursion limit
    ("json-nesting", lambda tmp: (
        lambda: schedule.policy_from_json("[" * 100000), PolicyError,
        "invalid policy JSON: maximum recursion depth exceeded while decoding a JSON array "
        "from a unicode string")),
]


@pytest.mark.parametrize("case", [pytest.param(case, id=name) for name, case in CASES])
def test_each_check_raises_its_exact_error(tmp_path, case):
    call, error, message = case(tmp_path)
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error
    assert str(e.value) == message
    assert not os.path.exists(tmp_path / "out") and not os.path.exists(tmp_path / "db.jsonl")
