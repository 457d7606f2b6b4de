"""The state machine behind the metric-driven policies.

`ReduceOnPlateau` (PLATEAU_REDUCE) and `ChangeOnPlateau` (PLATEAU_CHANGE)
are rows of the policy table in `schedule`, which checks and serializes
them like every other family; they are re-exported here. Unlike the
closed-form families they carry state between metric observations.
`observe` is a pure transition: it takes the current state and one metric
value and returns (new_state, action) without mutating anything, so a trial
can be replayed exactly.

A plateau is `patience` consecutive observations that fail to improve the
best seen metric by more than `min_delta`. Equal metrics are stalls, not
improvements. During cooldown observations neither count toward a stall
nor trigger actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .schedule import ChangeOnPlateau, PolicyError, ReduceOnPlateau, lr_at

PlateauPolicy = ReduceOnPlateau | ChangeOnPlateau


@dataclass(frozen=True)
class AdaptiveState:
    best_metric: Optional[float] = None
    stall_count: int = 0
    cooldown_remaining: int = 0
    current_lr: float = 0.0
    policy_index: int = 0
    local_t_origin: int = 0


class Reduced(NamedTuple):
    new_lr: float


class Switched(NamedTuple):
    policy_index: int


def initial_state(config: PlateauPolicy) -> AdaptiveState:
    if not isinstance(config, PlateauPolicy):
        raise PolicyError(f"{type(config).__name__} is not a metric-driven policy")
    lr = config.k if isinstance(config, ReduceOnPlateau) else 0.0
    return AdaptiveState(current_lr=lr)


def _improved(config: PlateauPolicy, best: Optional[float], metric: float) -> bool:
    if best is None:
        return True
    if config.mode == "min":
        return best - metric > config.min_delta
    return metric - best > config.min_delta


def observe(state: AdaptiveState, config: PlateauPolicy, metric: float,
            t: int = 0) -> tuple[AdaptiveState, Optional[Reduced | Switched]]:
    """Fold one metric observation into the state.

    t is the iteration index at which a switched-to policy would start;
    only the change variant uses it (as the new local t origin).
    """
    if not isinstance(metric, (int, float)) or not math.isfinite(metric):
        raise PolicyError(f"observed metric must be finite, got {metric!r}")
    metric = float(metric)

    if _improved(config, state.best_metric, metric):
        best, stall = metric, 0
    else:
        best = state.best_metric
        stall = state.stall_count if state.cooldown_remaining > 0 else state.stall_count + 1

    if state.cooldown_remaining > 0:
        return replace(state, best_metric=best, stall_count=stall,
                       cooldown_remaining=state.cooldown_remaining - 1), None

    if stall < config.patience:
        return replace(state, best_metric=best, stall_count=stall), None

    # plateau: act, reset the stall counter, start cooldown
    if isinstance(config, ReduceOnPlateau):
        new_lr = max(state.current_lr * config.factor, config.min_lr)
        new_state = replace(state, best_metric=best, stall_count=0,
                            cooldown_remaining=config.cooldown, current_lr=new_lr)
        return new_state, Reduced(new_lr)

    if state.policy_index + 1 < len(config.policies):
        idx = state.policy_index + 1
        new_state = replace(state, best_metric=best, stall_count=0,
                            cooldown_remaining=config.cooldown,
                            policy_index=idx, local_t_origin=t)
        return new_state, Switched(idx)

    # already on the last policy: hold it
    return replace(state, best_metric=best, stall_count=0,
                   cooldown_remaining=config.cooldown), None


def current_lr(state: AdaptiveState, config: PlateauPolicy, t: int) -> float:
    """LR to apply at iteration t under the given state."""
    if isinstance(config, ReduceOnPlateau):
        return state.current_lr
    local = t - state.local_t_origin
    if local < 0:
        raise PolicyError(f"t ({t}) precedes the active policy's origin "
                          f"({state.local_t_origin})")
    return lr_at(config.policies[state.policy_index], local)
