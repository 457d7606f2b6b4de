"""lrforge: learning rate policy engine and tuning toolkit."""

__version__ = "0.1.0"

from .schedule import (  # noqa: F401
    Composite, CosineDecay, Exp, Fix, LinearDecay, NStep, Policy, PolicyError,
    Poly, Scaled, Segment, Sin, Sin2, SinExp, Step, Tri, Tri2, TriExp, Warmup,
    lr_at, policy_from_dict, policy_from_json, policy_to_dict, sample_trace,
    validate,
)
from .adaptive import (  # noqa: F401
    AdaptiveState, ChangeOnPlateau, Reduced, ReduceOnPlateau, Switched,
    current_lr, initial_state, observe,
)
from .optim import OptimizerSpec, OptimizerState, init_state  # noqa: F401
from .problems import (  # noqa: F401
    Dataset, MultiBasin, Quadratic, Rosenbrock, TaskData, Well, gen_blobs,
    gen_moons, load_idx, surface_value_grad,
)
from .model import (  # noqa: F401
    MLP, Linear, ModelSpec, accuracy_on, forward_loss_grad, init_params, layout,
    param_count, views,
)
from .trainer import (  # noqa: F401
    SurfacePath, TrainConfig, TrialOutcome, TrialTrace, run_population,
    run_surface_trial, run_trial,
)
from .tuner import (  # noqa: F401
    AllDiverged, RangeTestResult, SearchSpace, TrialContext, TuneResult,
    compose_multi, compose_search, grid_search, range_test,
)
from .store import PolicyStore, StoreConflict, TrialRecord, make_record  # noqa: F401
