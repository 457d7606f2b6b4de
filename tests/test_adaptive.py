"""State transitions for the metric-driven policies."""

from functools import partial

import pytest

from lrforge.adaptive import (
    AdaptiveState,
    ChangeOnPlateau,
    ReduceOnPlateau,
    Reduced,
    Switched,
    current_lr,
    initial_state,
    observe,
)
from lrforge.schedule import Fix, PolicyError, Step, policy_from_dict, policy_to_dict


def _feed(config, metrics, state=None, t=0):
    state = state if state is not None else initial_state(config)
    actions = []
    for m in metrics:
        state, action = observe(state, config, m, t=t)
        actions.append(action)
    return state, actions


REDUCE = ReduceOnPlateau(k=0.1, factor=0.5, patience=2)


def test_first_observation_sets_best_without_stalling():
    state, actions = _feed(REDUCE, [0.4])
    assert state.best_metric == 0.4
    assert state.stall_count == 0
    assert actions == [None]


def test_plateau_after_patience_stalls_reduces():
    state, actions = _feed(REDUCE, [0.5, 0.5, 0.5])
    assert actions == [None, None, Reduced(0.05)]
    assert state.current_lr == pytest.approx(0.05)
    assert state.stall_count == 0  # reset by the action


def test_equal_metric_is_a_stall_not_an_improvement():
    state, _ = _feed(REDUCE, [0.5, 0.5])
    assert state.stall_count == 1
    assert state.best_metric == 0.5


def test_improvement_resets_the_stall_count():
    state, actions = _feed(REDUCE, [0.5, 0.5, 0.6, 0.6, 0.6])
    # stall, improve(reset), stall, stall -> reduce on the last step
    assert actions == [None, None, None, None, Reduced(0.05)]
    assert state.best_metric == 0.6


def test_min_delta_requires_strict_margin():
    config = ReduceOnPlateau(k=0.1, factor=0.5, patience=1, min_delta=0.1)
    # +0.1 is not an improvement (must exceed min_delta), so it stalls and fires
    _, actions = _feed(config, [0.5, 0.6])
    assert actions == [None, Reduced(0.05)]
    _, actions = _feed(config, [0.5, 0.61])
    assert actions == [None, None]


def test_mode_min_tracks_decreasing_metrics():
    config = ReduceOnPlateau(k=0.1, factor=0.5, patience=1, mode="min",
                             monitor="train_loss")
    state, actions = _feed(config, [1.0, 0.8, 0.9])
    assert actions == [None, None, Reduced(0.05)]
    assert state.best_metric == 0.8


def test_reduction_floors_at_min_lr():
    config = ReduceOnPlateau(k=0.1, factor=0.1, patience=1, min_lr=0.05)
    state, actions = _feed(config, [0.5, 0.5, 0.5])
    assert actions[1] == Reduced(0.05)  # 0.01 clamped up
    assert actions[2] == Reduced(0.05)  # stays at the floor
    assert state.current_lr == 0.05


def test_cooldown_suppresses_stall_counting_and_actions():
    config = ReduceOnPlateau(k=0.1, factor=0.5, patience=1, cooldown=2)
    state, actions = _feed(config, [0.5, 0.5])
    assert actions == [None, Reduced(0.05)]
    assert state.cooldown_remaining == 2
    # two stalls during cooldown: no counting, no actions
    state, actions = _feed(config, [0.5, 0.5], state=state)
    assert actions == [None, None]
    assert state.stall_count == 0
    assert state.cooldown_remaining == 0
    # cooldown over: the next stall counts and fires at patience=1
    state, actions = _feed(config, [0.5], state=state)
    assert actions == [Reduced(0.025)]


def test_improvement_during_cooldown_still_updates_best():
    config = ReduceOnPlateau(k=0.1, factor=0.5, patience=1, cooldown=1)
    state, _ = _feed(config, [0.5, 0.5])          # reduce, cooldown starts
    state, actions = _feed(config, [0.9], state=state)
    assert actions == [None]
    assert state.best_metric == 0.9


CHANGE = ChangeOnPlateau(policies=(Fix(k=0.5), Step(k=0.1, gamma=0.5, l=2),
                                   Fix(k=0.001)), patience=1)


def test_change_advances_and_restarts_local_time():
    state = initial_state(CHANGE)
    assert current_lr(state, CHANGE, 0) == 0.5
    state, action = observe(state, CHANGE, 0.5, t=10)
    state, action = observe(state, CHANGE, 0.5, t=20)
    assert action == Switched(1)
    assert state.policy_index == 1
    assert state.local_t_origin == 20
    # the new policy sees local t: 20 -> 0, 24 -> 4
    assert current_lr(state, CHANGE, 20) == 0.1
    assert current_lr(state, CHANGE, 24) == pytest.approx(0.025)


def test_change_holds_the_last_policy():
    state = initial_state(CHANGE)
    for t in (1, 2, 3, 4):  # two plateaus use up the list
        state, _ = observe(state, CHANGE, 0.5, t=t)
    assert state.policy_index == 2
    state, action = observe(state, CHANGE, 0.5, t=5)
    assert action is None            # nothing left to switch to
    assert state.stall_count == 0    # but the plateau still resets
    assert current_lr(state, CHANGE, 100) == 0.001


def test_change_respects_cooldown():
    config = ChangeOnPlateau(policies=(Fix(k=0.5), Fix(k=0.1), Fix(k=0.01)),
                             patience=1, cooldown=3)
    state, actions = _feed(config, [0.5, 0.5, 0.5, 0.5], t=7)
    assert actions == [None, Switched(1), None, None]
    assert state.policy_index == 1


def test_current_lr_rejects_t_before_origin():
    state = AdaptiveState(policy_index=0, local_t_origin=50)
    with pytest.raises(PolicyError, match="precedes"):
        current_lr(state, CHANGE, 49)


def test_initial_state_rejects_a_closed_form_policy():
    with pytest.raises(PolicyError, match="Fix is not a metric-driven policy"):
        initial_state(Fix(k=0.1))


def test_observe_rejects_non_finite_metric():
    state = initial_state(REDUCE)
    with pytest.raises(PolicyError, match="finite"):
        observe(state, REDUCE, float("nan"))


@pytest.mark.parametrize("config,fragment", [
    (partial(ReduceOnPlateau, k=0.1, factor=1.0, patience=1), "factor"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.0, patience=1), "factor"),
    (partial(ReduceOnPlateau, k=0.0, factor=0.5, patience=1), "k must be > 0"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=0), "patience"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=1, min_delta=-0.1), "min_delta"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=1, cooldown=-1), "cooldown"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=1, mode="sideways"), "mode"),
    (partial(ReduceOnPlateau, k=0.1, factor=0.5, patience=1, monitor="vibes"), "monitor"),
    (partial(ChangeOnPlateau, policies=(), patience=1), "non-empty"),
    # the held policy fails as it is built, before the ChangeOnPlateau
    (partial(lambda: ChangeOnPlateau(policies=(Fix(k=-1.0),), patience=1)), "k must be >= 0"),
])
def test_validate_plateau_rejects(config, fragment):
    with pytest.raises(PolicyError, match=fragment):
        config()


def test_reduce_round_trips_through_wire_format():
    config = ReduceOnPlateau(k=0.1, factor=0.5, patience=3, monitor="train_loss",
                             mode="min", min_delta=0.01, cooldown=2, min_lr=1e-5)
    assert policy_from_dict(policy_to_dict(config)) == config


def test_change_round_trips_through_wire_format():
    assert policy_from_dict(policy_to_dict(CHANGE)) == CHANGE


def test_plateau_wire_format_rejects_unknown_and_missing_params():
    with pytest.raises(PolicyError, match="unknown params"):
        policy_from_dict({"family": "PLATEAU_REDUCE",
                          "params": {"k": 0.1, "factor": 0.5, "patience": 1,
                                     "zap": 1}})
    with pytest.raises(PolicyError, match="missing required param"):
        policy_from_dict({"family": "PLATEAU_CHANGE", "params": {"patience": 1}})


def test_lambda_does_not_apply_to_plateau_policies():
    doc = policy_to_dict(REDUCE)
    doc["lambda"] = 0.5
    with pytest.raises(PolicyError, match="does not apply"):
        policy_from_dict(doc)
