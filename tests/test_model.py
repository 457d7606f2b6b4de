"""Flat-vector classifiers: layout, init, loss/grad math."""

import math

import numpy as np
import pytest

from lrforge.model import (
    MLP,
    Linear,
    _max_of_two,
    forward_loss_grad,
    init_params,
    layout,
    param_count,
    views,
)
from reference import ref_forward_loss_grad


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
    # a spec is checked when it is built, so no parameters are made for a bad one
    for bad in (lambda: Linear(0, 2), lambda: Linear(2, 1), lambda: MLP(2, 0, 2),
                lambda: MLP(0, 4, 2), lambda: MLP(2, 4, 1)):
        with pytest.raises(ValueError, match="invalid model dimensions"):
            bad()


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
        loss, _ = forward_loss_grad(spec, params, x, y)
        assert loss[0] == pytest.approx(math.log(c), rel=1e-15)


def _fd_check(spec, n_coords, seed, rel=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed=seed)
    x = rng.normal(size=(8, spec.d_in))
    y = rng.integers(0, spec.n_classes, size=8)
    _, grad = forward_loss_grad(spec, params[None], x, y)
    eps = 1e-6
    coords = rng.choice(params.size, size=min(n_coords, params.size), replace=False)
    for i in coords:
        bumped = params.copy()
        bumped[i] += eps
        up, _ = forward_loss_grad(spec, bumped[None], x, y)
        bumped[i] -= 2 * eps
        dn, _ = forward_loss_grad(spec, bumped[None], x, y)
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
    loss, grad = forward_loss_grad(spec, params, x, np.array([0]))
    assert math.isfinite(loss[0]) and loss[0] == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(grad).all()


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


# entries that overflow the logits, or put inf and NaN of either sign in them
SPECIAL = np.array([np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308])


# bit patterns: +-0, +-inf, +-qNaN, sNaN and qNaN payloads, +-max, +-denormal, +-1
SPECIAL_BITS = np.array([
    0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000123,
    0x7FF8000000000ABC, 0xFFF8000000000007, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x1, 0x8000000000000001, 0x3FF0000000000000, 0xBFF0000000000000,
], dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("layout", ["contiguous", "batch-major", "n-C-2"])
def test_max_of_two_is_the_max_reduce_bit_for_bit(layout):
    pairs = np.stack(np.meshgrid(SPECIAL_BITS, SPECIAL_BITS, indexing="ij"), -1).reshape(-1, 2)
    n = len(pairs)
    if layout == "contiguous":
        logits = pairs.reshape(1, n, 2).copy()
    elif layout == "batch-major":  # as `_forward` lays logits out
        logits = np.empty((n, 1, 2))
        logits[:, 0] = pairs
        logits = logits.swapaxes(0, 1)
    else:
        logits = np.repeat(pairs[:, None], 3, axis=1).swapaxes(0, 1)
    with np.errstate(invalid="ignore"):
        got = _max_of_two(logits[..., 0], logits[..., 1])
        want = logits.max(axis=-1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _special_stack(spec, rng, rows=24):
    """Seeded inits, most rows with a few entries replaced by SPECIAL values."""
    params = np.stack([init_params(spec, int(s)) for s in rng.integers(0, 1000, rows)])
    params *= rng.choice([1.0, 1e3, 1e150], size=(rows, 1))
    for row in params[1:]:
        at = rng.choice(row.size, size=rng.integers(1, 4), replace=False)
        row[at] = rng.choice(SPECIAL, size=at.size)
    return params


@pytest.mark.parametrize("spec", [Linear(3, 2), MLP(3, 6, 2), Linear(3, 3), MLP(3, 6, 3)],
                         ids=["linear-k2", "mlp-k2", "linear-k3", "mlp-k3"])
@pytest.mark.parametrize("batch", ["shared", "per-row", "labels-0", "labels-1", "labels-mixed"])
def test_forward_loss_grad_bytes_match_the_plain_reductions(spec, batch):
    # labels-*: per-row batches whose labels are all 0, all 1 or drawn, where
    # every other row's logits are exactly its last bias: pairs of SPECIAL
    # values and 0 and 1, which the one-hot and the target logit must meet
    rng = np.random.default_rng(spec.n_classes * 10 + len(spec.widths))
    for _ in range(20):
        params = _special_stack(spec, rng)
        rows, n = params.shape[0], int(rng.integers(1, 40))
        shape = (n,) if batch == "shared" else (rows, n)
        x = rng.normal(size=shape + (spec.d_in,)) * rng.choice([1.0, 1e200])
        y = rng.integers(0, spec.n_classes, size=shape)
        if batch.startswith("labels-"):
            p, top = views(spec, params), len(spec.widths) - 1
            p[f"W{top}"][::2] = 0.0
            p[f"b{top}"][::2] = rng.choice(np.append(SPECIAL, [0.0, 1.0]),
                                           size=p[f"b{top}"][::2].shape)
            if batch != "labels-mixed":
                y[...] = int(batch[-1])
        got = forward_loss_grad(spec, params, x, y)
        want = ref_forward_loss_grad(spec, params, x, y)[:2]  # the reference's accuracy aside
        assert len(got) == 2
        for name, a, b in zip(("loss", "grad"), got, want):
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name  # NaN sign bits included
    assert not np.isfinite(got[0]).all() and np.isnan(got[1]).any()
