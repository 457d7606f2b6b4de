import pytest
from hypothesis import settings

from lrforge import problems
from lrforge.model import MLP, Linear
from lrforge.optim import OptimizerSpec
from lrforge.trainer import TrainConfig
from lrforge.tuner import TrialContext

# tests/test_oracle.py draws ten times its tier-1 examples under this profile,
# selected with --hypothesis-profile=oracle-deep; every other hypothesis test
# sets its own example count, which the profile leaves as it is
settings.register_profile("oracle-deep", max_examples=400)


@pytest.fixture(scope="session")
def blobs_task():
    # 3 well-separated clusters; trains to ~1.0 accuracy in a few hundred steps
    return problems.gen_blobs(seed=3, n_per_class=50, n_classes=3, d=2,
                              separation=8.0)


@pytest.fixture(scope="session")
def moons_task():
    return problems.gen_moons(seed=5, n=800, noise=0.2)


@pytest.fixture
def blobs_ctx(blobs_task):
    return TrialContext(
        model=Linear(d_in=2, n_classes=3),
        task=blobs_task,
        optimizer=OptimizerSpec(kind="sgd"),
        config=TrainConfig(batch_size=16, budget=200, eval_every=50, seed=0),
    )


@pytest.fixture
def moons_mlp():
    return MLP(d_in=2, hidden=16, n_classes=2)
