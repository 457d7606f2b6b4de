"""Optimizer update rules against hand-computed steps."""

import math

import numpy as np
import pytest

from lrforge.optim import OptimizerSpec, init_state, select, step
from reference import _ref_update

SGD = OptimizerSpec("sgd")
ADAM = OptimizerSpec("adam")


def test_sgd_first_step_is_lr_times_grad():
    params = np.array([1.0, -2.0])
    grads = np.array([0.5, 1.0])
    new, state = step(params, grads, 0.1, init_state(SGD, 2))
    assert np.allclose(new, [0.95, -2.1])
    assert np.array_equal(state.moments[0], grads)


def test_sgd_momentum_recursion():
    # g=1 each step, mu=0.9, lr=0.1: velocity 1, 1.9, 2.71
    params = np.zeros(1)
    grads = np.ones(1)
    state = init_state(OptimizerSpec("sgd", momentum=0.9), 1)
    history = []
    for _ in range(3):
        params, state = step(params, grads, 0.1, state)
        history.append(params[0])
    assert history[0] == pytest.approx(-0.1, rel=1e-12)
    assert history[1] == pytest.approx(-0.29, rel=1e-12)
    assert history[2] == pytest.approx(-0.561, rel=1e-12)
    assert state.moments[0][0] == pytest.approx(2.71, rel=1e-12)


def test_adam_first_step_hand_computed():
    # theta=1, g=1, lr=0.1: bias-corrected m^ = v^ = 1, so theta' ~ 0.9
    params = np.array([1.0])
    new, state = step(params, np.array([1.0]), 0.1, init_state(ADAM, 1))
    assert new[0] == pytest.approx(0.9, abs=1e-6)
    assert state.t == 1
    m, v = state.moments
    assert m[0] == pytest.approx(0.1, rel=1e-12)
    assert v[0] == pytest.approx(0.001, rel=1e-12)


def test_adam_first_step_scale_invariance():
    # bias correction makes the first step ~lr for any gradient scale well
    # above eps (for |g| near eps the denominator's eps term bites)
    for g in (1e-2, 1.0, 1e6):
        new, _ = step(np.zeros(1), np.array([g]), 0.1, init_state(ADAM, 1))
        assert new[0] == pytest.approx(-0.1, rel=1e-5)


def test_adam_eps_sits_outside_the_sqrt():
    # with g = eps = 1e-8: sqrt(v^) = g, so the step is lr * g / (g + eps)
    # = lr/2 exactly; eps inside the sqrt would give ~1e-4 * lr instead
    new, _ = step(np.zeros(1), np.array([1e-8]), 1.0, init_state(ADAM, 1))
    assert new[0] == pytest.approx(-0.5, rel=1e-9)


def test_adam_zero_gradient_is_a_fixed_point():
    params = np.array([0.3, -0.7])
    state = init_state(ADAM, 2)
    for _ in range(3):
        params_next, state = step(params, np.zeros(2), 0.5, state)
        assert np.array_equal(params_next, params)
        params = params_next


def test_adam_bias_correction_recovers_constant_gradient():
    # under constant g, m^ == g and v^ == g^2 at every step
    g = np.array([0.37, -2.0, 5.5])
    state = init_state(ADAM, 3)
    params = np.zeros(3)
    for t in range(1, 6):
        params, state = step(params, g, 0.01, state)
        m, v = state.moments
        m_hat = m / (1 - ADAM.beta1**t)
        v_hat = v / (1 - ADAM.beta2**t)
        assert np.allclose(m_hat, g, rtol=1e-12)
        assert np.allclose(v_hat, g * g, rtol=1e-12)


def test_steps_do_not_mutate_inputs():
    params = np.array([1.0, 2.0])
    grads = np.array([0.1, 0.2])
    params_copy, grads_copy = params.copy(), grads.copy()
    sgd_state = init_state(OptimizerSpec("sgd", momentum=0.5), 2)
    step(params, grads, 0.1, sgd_state)
    assert np.array_equal(params, params_copy)
    assert np.array_equal(grads, grads_copy)
    assert np.array_equal(sgd_state.moments[0], np.zeros(2))
    adam_state = init_state(ADAM, 2)
    step(params, grads, 0.1, adam_state)
    assert np.array_equal(params, params_copy)
    assert np.array_equal(adam_state.moments[0], np.zeros(2))
    assert adam_state.t == 0


def test_lr_zero_is_a_no_op_for_sgd():
    params = np.array([1.0])
    new, _ = step(params, np.array([5.0]), 0.0, init_state(SGD, 1))
    assert np.array_equal(new, params)


def test_a_good_lr_column_of_any_real_dtype_passes():
    for lr in (np.array([[0.1], [0.0], [2.0]]), np.array([[1], [0], [3]]),
               np.array([[True], [False], [True]]), np.array([[0.5], [1], [0]], dtype=object)):
        new, _ = step(np.zeros((3, 2)), np.ones((3, 2)), lr, init_state(SGD, (3, 2)))
        assert new.tolist() == (-lr.astype(float) * np.ones((3, 2))).tolist()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape mismatch"):
        step(np.zeros(2), np.ones(3), 0.1, init_state(SGD, 2))


def test_a_shape_mismatch_is_no_divergence():
    with pytest.raises(ValueError) as err:
        step(np.zeros(2), np.full(3, np.nan), float("nan"), init_state(SGD, 2))
    assert type(err.value) is ValueError and "shape mismatch" in str(err.value)


def test_a_step_is_the_update_alone():
    # the trainer decides divergence; a step takes any gradient and lr as given
    new, _ = step(np.zeros(2), np.array([np.inf, 1.0]), 0.5, init_state(SGD, 2))
    assert new.tolist() == [-np.inf, -0.5]
    new, _ = step(np.zeros(2), np.ones(2), float("nan"), init_state(SGD, 2))
    assert np.isnan(new).all()


# an lr or gradient that is not finite, or an lr below 0, as one row or as a
# column of a (2, 2) stack: the step applies the update formula to it as given
AS_GIVEN = [(math.nan, [1.0, 2.0]), (math.inf, [1.0, 2.0]), (np.float64("inf"), [1.0, 2.0]),
            (-0.1, [1.0, 2.0]), (0.1, [math.nan, 1.0]), (0.1, [math.inf, 1.0]),
            (np.array([[0.1], [math.nan]]), np.ones((2, 2))),
            (np.array([[-1.0], [math.nan]]), np.ones((2, 2)))]


@pytest.mark.parametrize("opt", [SGD, ADAM], ids=["sgd", "adam"])
@pytest.mark.parametrize("lr, grad", AS_GIVEN, ids=repr)
def test_a_step_applies_the_update_formula_to_any_lr_and_gradient(lr, grad, opt):
    grad = np.array(grad)
    params = np.linspace(-1.0, 1.0, grad.size).reshape(grad.shape)
    with np.errstate(all="ignore"):
        new, state = step(params, grad, lr, init_state(opt, grad.shape))
        moments = [np.zeros(grad.shape) for _ in state.moments]
        want = _ref_update(opt, params, grad, lr, moments, 1)
    assert new.tobytes() == want.tobytes()
    assert [m.tobytes() for m in state.moments] == [m.tobytes() for m in moments]


def test_init_validation():
    # a spec is checked when it is built, so no state is made from a bad one
    for kwargs, fragment in (({"momentum": 1.0}, r"momentum must be in \[0, 1\), got 1.0"),
                             ({"momentum": -0.1}, "momentum must be in"),
                             ({"kind": "adam", "beta1": 1.0}, "betas must be in"),
                             ({"kind": "adam", "beta2": -0.1}, "betas must be in"),
                             ({"kind": "adam", "eps": 0.0}, "eps must be > 0"),
                             ({"kind": "adam", "eps": math.nan}, "eps must be > 0, got nan"),
                             ({"kind": "adam", "eps": math.inf}, "eps must be finite"),
                             ({"kind": "adam", "eps": None}, "eps must be > 0, got None"),
                             ({"kind": "lbfgs"}, "unknown optimizer kind 'lbfgs'")):
        with pytest.raises(ValueError, match=fragment):
            OptimizerSpec(**kwargs)


def test_step_dispatches_on_state_type():
    # the state's spec decides the update
    new_sgd, st_sgd = step(np.zeros(1), np.ones(1), 0.1, init_state(SGD, 1))
    assert st_sgd.spec == SGD and len(st_sgd.moments) == 1
    new_adam, st_adam = step(np.zeros(1), np.ones(1), 0.1, init_state(ADAM, 1))
    assert st_adam.spec == ADAM and len(st_adam.moments) == 2
    assert new_sgd[0] != new_adam[0]


def test_init_state_carries_optimizer_settings():
    spec = OptimizerSpec(kind="sgd", momentum=0.7)
    sgd = init_state(spec, (3, 4))
    assert sgd.spec.momentum == 0.7 and sgd.t == 0
    assert [m.shape for m in sgd.moments] == [(3, 4)]
    spec = OptimizerSpec(kind="adam", beta1=0.8, beta2=0.9, eps=1e-6)
    adam = init_state(spec, (3, 4))
    assert (adam.spec.beta1, adam.spec.beta2, adam.spec.eps) == (0.8, 0.9, 1e-6)
    assert [m.shape for m in adam.moments] == [(3, 4), (3, 4)]
    assert not any(m.any() for m in adam.moments)


def test_select_keeps_the_moments_of_the_given_rows():
    params, grads = np.zeros((3, 2)), np.arange(6.0).reshape(3, 2)
    _, state = step(params, grads, np.full((3, 1), 0.1), init_state(ADAM, (3, 2)))
    kept = select(state, np.array([True, False, True]))
    assert kept.spec == ADAM and kept.t == 1
    for moment, full in zip(kept.moments, state.moments):
        assert np.array_equal(moment, full[[0, 2]])


def test_descriptor_strings():
    assert OptimizerSpec(kind="sgd").descriptor() == "sgd"
    assert OptimizerSpec(kind="sgd", momentum=0.9).descriptor() == "sgd(momentum=0.9)"
    assert OptimizerSpec(kind="adam").descriptor() == "adam"
