"""Byte digest of the training paths the manifest fingerprint does not reach.

`fingerprint.json` pins the shipped manifests, which all train an MLP with
plain SGD. This pins `run_population` traces for {Linear, MLP} x {SGD,
momentum SGD, Adam, Adam with its own settings}, fresh and warm-started, and
momentum and Adam paths over the 2-D surfaces. A change that moves one float
in the last bit fails here.

Change DIGEST only when outputs are meant to change, and say why. Print
the digest of the current tree with:

    PYTHONPATH=src python tests/test_digest.py
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from lrforge import problems, schedule
from lrforge.adaptive import ChangeOnPlateau, ReduceOnPlateau
from lrforge.model import MLP, Linear
from lrforge.optim import OptimizerSpec
from lrforge.schedule import Fix, Scaled
from lrforge.trainer import TrainConfig, run_population, run_surface_trial

DIGEST = "4812611b1ea2b7d1327c1342b06f28a732447cc6b5485a8c3a68ce332882fd09"

pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

MODELS = (Linear(2, 2), MLP(2, 8, 2))
OPTIMIZERS = (OptimizerSpec("sgd"), OptimizerSpec("sgd", momentum=0.9),
              OptimizerSpec("adam"), OptimizerSpec("adam", beta1=0.8, beta2=0.99, eps=1e-6))
# (policy, seed): one diverges, one keeps integer LRs, two are metric-driven
TRIALS = [
    (Scaled(lam=1e5, base=Fix(1.0)), 1),
    (Scaled(lam=1e5, base=Fix(1e303)), 2),
    (Fix(1e-3), 3),
    (Fix(1), 4),
    (schedule.Tri2(k0=0.01, k1=0.5, l=20), 0),
    (schedule.CosineDecay(k=0.2, t_max=150, k_min=0.001), 2),
    (ReduceOnPlateau(k=0.05, factor=0.5, patience=1), 2),
    (ChangeOnPlateau(policies=(Fix(1e-4), Fix(0.05)), patience=1,
                     monitor="train_loss", mode="min", min_delta=1e-3), 7),
]
SURFACES = (
    problems.Quadratic(a=np.array([[3.0, 0.5], [0.5, 1.0]])),
    problems.Rosenbrock(),
    problems.MultiBasin(wells=(problems.Well(center=(1.0, 1.0), depth=2.0, width=0.8),
                               problems.Well(center=(-1.5, 0.5), depth=1.0, width=0.5))),
)
SURFACE_POLICIES = (Fix(0.002), schedule.Exp(k=0.05, gamma=0.99), Fix(10.0))
TASK = problems.gen_moons(seed=5, n=300, noise=0.2)


def _add_trace(h, trace):
    h.update(trace.step_lrs.tobytes())
    h.update(trace.step_losses.tobytes())
    h.update(repr((trace.lrs, trace.eval_iterations, trace.eval_accuracies,
                   trace.outcome.to_dict())).encode())
    # `.data` is the parameters' raw buffer
    h.update(trace.final_params.data)


def digest() -> str:
    h = hashlib.sha256()
    config = TrainConfig(batch_size=16, budget=150, eval_every=20, target_accuracy=0.88)
    for model in MODELS:
        for opt in OPTIMIZERS:
            fresh = run_population(model, TASK, TRIALS, opt, config)
            warm = run_population(model, TASK, TRIALS, opt,
                                  replace(config, budget=60, target_accuracy=None),
                                  init=fresh[1].final_params)
            for trace in fresh + warm:
                _add_trace(h, trace)
    for opt in OPTIMIZERS[1:]:
        for surface in SURFACES:
            for policy in SURFACE_POLICIES:
                path = run_surface_trial(surface, (-1.0, 1.5), policy, opt, 200)
                h.update(np.array(path.points).tobytes())
                h.update(repr((path.iterations, path.values, path.diverged)).encode())
    return h.hexdigest()


def test_training_paths_match_the_pinned_digest():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
