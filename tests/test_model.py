"""Flat-vector classifiers: init, loss/grad math."""

import math

import numpy as np
import pytest

from lrforge.model import (
    MLP,
    Linear,
    ParamVector,
    accuracy_on,
    forward_loss_grad,
    init_params,
    param_count,
)
from lrforge.problems import Dataset


def test_param_counts():
    assert param_count(Linear(784, 10)) == 7850
    assert param_count(MLP(784, 64, 10)) == 50890
    assert param_count(MLP(2, 16, 2)) == 82


def test_init_bounds_and_zero_biases():
    params = init_params(MLP(3, 5, 2), seed=0)
    limit1 = math.sqrt(6.0 / (3 + 5))
    limit2 = math.sqrt(6.0 / (5 + 2))
    w1, w2 = params.view("W1"), params.view("W2")
    assert (np.abs(w1) <= limit1).all() and np.abs(w1).max() > 0
    assert (np.abs(w2) <= limit2).all()
    assert (params.view("b1") == 0.0).all()
    assert (params.view("b2") == 0.0).all()


def test_init_seed_determinism():
    a = init_params(Linear(4, 3), seed=42)
    b = init_params(Linear(4, 3), seed=42)
    c = init_params(Linear(4, 3), seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError, match="dimensions"):
        init_params(Linear(0, 2), seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        init_params(MLP(2, 0, 2), seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        init_params(Linear(2, 1), seed=0)


def test_view_slices_share_storage():
    params = init_params(Linear(3, 2), seed=1)
    params.view("b")[:] = 7.0
    assert (params.data[6:8] == 7.0).all()
    with pytest.raises(KeyError):
        params.view("nope")


def test_zero_params_loss_is_log_n_classes():
    # all-zero logits: softmax is uniform, so the loss is exactly ln(C)
    for spec, c in ((Linear(4, 3), 3), (MLP(4, 6, 5), 5)):
        params = ParamVector(data=np.zeros(param_count(spec)),
                             layout=init_params(spec, 0).layout)
        x = np.random.default_rng(0).normal(size=(10, 4))
        y = np.arange(10) % c
        loss, _, _ = forward_loss_grad(spec, params, x, y)
        assert loss == pytest.approx(math.log(c), rel=1e-15)


def _fd_check(spec, n_coords, seed, rel=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed=seed)
    x = rng.normal(size=(8, spec.d_in))
    y = rng.integers(0, spec.n_classes, size=8)
    _, grad, _ = forward_loss_grad(spec, params, x, y)
    eps = 1e-6
    coords = rng.choice(params.data.size, size=min(n_coords, params.data.size),
                        replace=False)
    for i in coords:
        bumped = params.data.copy()
        bumped[i] += eps
        up, _, _ = forward_loss_grad(spec, ParamVector(bumped, params.layout), x, y)
        bumped[i] -= 2 * eps
        dn, _, _ = forward_loss_grad(spec, ParamVector(bumped, params.layout), x, y)
        fd = (up - dn) / (2 * eps)
        assert grad.data[i] == pytest.approx(fd, rel=rel, abs=1e-9), f"coord {i}"


def test_linear_gradient_matches_finite_differences():
    _fd_check(Linear(5, 3), n_coords=18, seed=2)


def test_mlp_gradient_matches_finite_differences():
    _fd_check(MLP(4, 7, 3), n_coords=30, seed=3)


def test_loss_is_stable_for_huge_logits():
    spec = Linear(2, 2)
    params = init_params(spec, 0)
    params.view("W")[:] = np.array([[500.0, -500.0], [500.0, -500.0]])
    x = np.array([[1.0, 1.0]])
    loss, grad, acc = forward_loss_grad(spec, params, x, np.array([0]))
    assert math.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad.data).all()
    assert acc == 1.0


def test_forward_validation():
    spec = Linear(3, 2)
    params = init_params(spec, 0)
    with pytest.raises(ValueError, match="empty batch"):
        forward_loss_grad(spec, params, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="feature width"):
        forward_loss_grad(spec, params, np.zeros((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match="labels out of range"):
        forward_loss_grad(spec, params, np.zeros((2, 3)), np.array([0, 2]))


def test_batch_accuracy_and_dataset_accuracy_agree():
    spec = MLP(2, 8, 2)
    params = init_params(spec, 7)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, size=40)
    _, _, batch_acc = forward_loss_grad(spec, params, feats, labels)
    ds = Dataset(features=feats, labels=labels.astype(np.int64),
                 n_classes=2, split="test")
    assert accuracy_on(spec, params, ds) == batch_acc
