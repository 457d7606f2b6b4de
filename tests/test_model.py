"""Flat-vector classifiers: layout, init, loss/grad math."""

import math

import numpy as np
import pytest

from lrforge.model import (
    MLP,
    Linear,
    accuracy_on,
    forward_loss_grad,
    init_params,
    layout,
    param_count,
    views,
)
from lrforge.problems import Dataset


def test_param_counts():
    assert param_count(Linear(784, 10)) == 7850
    assert param_count(MLP(784, 64, 10)) == 50890
    assert param_count(MLP(2, 16, 2)) == 82


def test_layout_follows_the_layer_widths():
    assert layout(Linear(3, 2)) == (("W1", (3, 2), 0), ("b1", (2,), 6))
    assert layout(MLP(3, 5, 2)) == (("W1", (3, 5), 0), ("b1", (5,), 15),
                                    ("W2", (5, 2), 20), ("b2", (2,), 30))


def test_init_bounds_and_zero_biases():
    params = init_params(MLP(3, 5, 2), seed=0)
    assert params.shape == (32,)
    limit1 = math.sqrt(6.0 / (3 + 5))
    limit2 = math.sqrt(6.0 / (5 + 2))
    p = views(MLP(3, 5, 2), params)
    assert (np.abs(p["W1"]) <= limit1).all() and np.abs(p["W1"]).max() > 0
    assert (np.abs(p["W2"]) <= limit2).all()
    assert (p["b1"] == 0.0).all()
    assert (p["b2"] == 0.0).all()


def test_init_seed_determinism():
    a = init_params(Linear(4, 3), seed=42)
    b = init_params(Linear(4, 3), seed=42)
    c = init_params(Linear(4, 3), seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError, match="dimensions"):
        init_params(Linear(0, 2), seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        init_params(MLP(2, 0, 2), seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        init_params(Linear(2, 1), seed=0)


def test_view_slices_share_storage():
    spec = Linear(3, 2)
    params = init_params(spec, seed=1)
    views(spec, params)["b1"][:] = 7.0
    assert (params[6:8] == 7.0).all()
    stack = np.stack([params, params + 1.0])
    views(spec, stack)["W1"][1] = 0.0
    assert views(spec, stack)["W1"].shape == (2, 3, 2)
    assert (stack[1, :6] == 0.0).all() and (stack[0, :6] == params[:6]).all()
    with pytest.raises(KeyError):
        views(spec, params)["nope"]


def test_zero_params_loss_is_log_n_classes():
    # all-zero logits: softmax is uniform, so the loss is exactly ln(C)
    for spec, c in ((Linear(4, 3), 3), (MLP(4, 6, 5), 5)):
        params = np.zeros((1, param_count(spec)))
        x = np.random.default_rng(0).normal(size=(10, 4))
        y = np.arange(10) % c
        loss, _, _ = forward_loss_grad(spec, params, x, y)
        assert loss[0] == pytest.approx(math.log(c), rel=1e-15)


def _fd_check(spec, n_coords, seed, rel=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed=seed)
    x = rng.normal(size=(8, spec.d_in))
    y = rng.integers(0, spec.n_classes, size=8)
    _, grad, _ = forward_loss_grad(spec, params[None], x, y)
    eps = 1e-6
    coords = rng.choice(params.size, size=min(n_coords, params.size), replace=False)
    for i in coords:
        bumped = params.copy()
        bumped[i] += eps
        up, _, _ = forward_loss_grad(spec, bumped[None], x, y)
        bumped[i] -= 2 * eps
        dn, _, _ = forward_loss_grad(spec, bumped[None], x, y)
        fd = (up[0] - dn[0]) / (2 * eps)
        assert grad[0, i] == pytest.approx(fd, rel=rel, abs=1e-9), f"coord {i}"


def test_linear_gradient_matches_finite_differences():
    _fd_check(Linear(5, 3), n_coords=18, seed=2)


def test_mlp_gradient_matches_finite_differences():
    _fd_check(MLP(4, 7, 3), n_coords=30, seed=3)


def test_loss_is_stable_for_huge_logits():
    spec = Linear(2, 2)
    params = init_params(spec, 0)[None]
    views(spec, params)["W1"][:] = np.array([[500.0, -500.0], [500.0, -500.0]])
    x = np.array([[1.0, 1.0]])
    loss, grad, acc = forward_loss_grad(spec, params, x, np.array([0]))
    assert math.isfinite(loss[0]) and loss[0] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()
    assert acc[0] == 1.0


def test_forward_validation():
    spec = Linear(3, 2)
    params = init_params(spec, 0)[None]
    with pytest.raises(ValueError, match="empty batch"):
        forward_loss_grad(spec, params, np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="feature width"):
        forward_loss_grad(spec, params, np.zeros((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError, match="labels out of range"):
        forward_loss_grad(spec, params, np.zeros((2, 3)), np.array([0, 2]))
    with pytest.raises(ValueError, match="stack"):
        forward_loss_grad(spec, params[0], np.zeros((2, 3)), np.array([0, 1]))


def test_batch_accuracy_and_dataset_accuracy_agree():
    spec = MLP(2, 8, 2)
    params = np.stack([init_params(spec, 7), init_params(spec, 8)])
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(40, 2))
    labels = rng.integers(0, 2, size=40)
    _, _, batch_acc = forward_loss_grad(spec, params, feats, labels)
    ds = Dataset(features=feats, labels=labels.astype(np.int64),
                 n_classes=2, split="test")
    assert accuracy_on(spec, params, ds).tolist() == batch_acc.tolist()
