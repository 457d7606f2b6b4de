"""Surfaces, synthetic datasets, and the IDX file format."""

import math

import numpy as np
import pytest

from lrforge.problems import (
    MultiBasin,
    Quadratic,
    Rosenbrock,
    Well,
    gen_blobs,
    gen_moons,
    idx_task,
    load_idx,
    save_idx,
    surface_value_grad,
)


# --- surfaces ---


def test_quadratic_value_and_grad():
    q = Quadratic(a=np.array([[2.0, 0.0], [0.0, 4.0]]))
    v, g = surface_value_grad(q, np.array([1.0, 1.0]))
    assert v == pytest.approx(3.0)           # 0.5 * (2 + 4)
    assert np.allclose(g, [2.0, 4.0])
    v0, g0 = surface_value_grad(q, np.zeros(2))
    assert v0 == 0.0 and np.allclose(g0, 0.0)


def test_quadratic_requires_spd():
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic(a=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        Quadratic(a=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="2x2"):
        Quadratic(a=np.eye(3))


def test_rosenbrock_minimum_and_a_known_point():
    r = Rosenbrock()
    v, g = surface_value_grad(r, np.array([1.0, 1.0]))
    assert v == 0.0
    assert np.allclose(g, 0.0)
    v, g = surface_value_grad(r, np.array([0.0, 0.0]))
    assert v == pytest.approx(1.0)           # (1-0)^2 + 100*(0-0)^2
    assert np.allclose(g, [-2.0, 0.0])


def test_single_well_bottom():
    surface = MultiBasin(wells=(Well(center=(0.5, -0.5), depth=2.0, width=0.3),))
    v, g = surface_value_grad(surface, np.array([0.5, -0.5]))
    assert v == pytest.approx(-2.0)
    assert np.allclose(g, 0.0)
    assert isinstance(v, float)


def test_two_well_superposition_hand_computed():
    surface = MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=1.0),
                                Well(center=(2.0, 0.0), depth=3.0, width=1.0)))
    v, _ = surface_value_grad(surface, np.array([1.0, 0.0]))
    want = -(math.exp(-0.5) + 3 * math.exp(-0.5))
    assert v == pytest.approx(want, rel=1e-12)


def test_multibasin_validation():
    with pytest.raises(ValueError, match="non-empty"):
        MultiBasin(wells=())
    with pytest.raises(ValueError):
        MultiBasin(wells=(Well(center=(0, 0), depth=-1.0, width=0.5),))
    with pytest.raises(ValueError):
        MultiBasin(wells=(Well(center=(0, 0), depth=1.0, width=0.0),))
    for center in ((0.0, 0.0, 1.0), (1.0,)):
        with pytest.raises(ValueError, match="center must have 2 coordinates"):
            MultiBasin(wells=(Well(center=center, depth=1.0, width=0.5),))
    # ambiguous deepest well is rejected: the global optimum must be unique
    with pytest.raises(ValueError, match="unique"):
        MultiBasin(wells=(Well(center=(0, 0), depth=1.0, width=0.5),
                          Well(center=(3, 3), depth=1.0, width=0.5)))


def test_surface_point_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        surface_value_grad(Rosenbrock(), np.zeros(3))


# --- synthetic datasets ---


def test_blobs_shapes_split_and_name():
    task = gen_blobs(seed=7, n_per_class=50, n_classes=2, d=2, separation=10.0)
    assert task.train.features.shape == (80, 2)
    assert task.test.features.shape == (20, 2)
    assert task.train.n_classes == 2
    assert task.name == "blobs(seed=7,n=50x2,d=2,sep=10)"
    assert task.train.labels.dtype == np.int64


def test_blobs_are_deterministic_in_the_seed():
    a = gen_blobs(seed=7, n_per_class=30, n_classes=3)
    b = gen_blobs(seed=7, n_per_class=30, n_classes=3)
    c = gen_blobs(seed=8, n_per_class=30, n_classes=3)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test.labels, b.test.labels)
    assert not np.array_equal(a.train.features, c.train.features)


def test_blobs_nearest_centroid_separability():
    # separation 10 vs unit noise: nearest deterministic center wins >99%
    task = gen_blobs(seed=11, n_per_class=200, n_classes=3, d=2, separation=10.0)
    angles = 2 * np.pi * np.arange(3) / 3
    centers = 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    for ds in (task.train, task.test):
        d2 = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
        pred = d2.argmin(axis=1)
        assert (pred == ds.labels).mean() > 0.99


def test_blobs_higher_dims_and_validation():
    task = gen_blobs(seed=1, n_per_class=10, n_classes=2, d=5)
    assert task.train.features.shape[1] == 5
    with pytest.raises(ValueError):
        gen_blobs(seed=1, n_per_class=0)
    with pytest.raises(ValueError):
        gen_blobs(seed=1, n_per_class=10, n_classes=1)


def test_moons_shapes_and_determinism():
    task = gen_moons(seed=5, n=800, noise=0.2)
    assert task.train.features.shape == (640, 2)
    assert task.test.features.shape == (160, 2)
    assert task.name == "moons(seed=5,n=800,noise=0.2)"
    again = gen_moons(seed=5, n=800, noise=0.2)
    assert np.array_equal(task.train.features, again.train.features)


def test_moons_noise_free_arcs():
    task = gen_moons(seed=0, n=400, noise=0.0)
    feats = np.vstack([task.train.features, task.test.features])
    labels = np.concatenate([task.train.labels, task.test.labels])
    outer = feats[labels == 0]
    inner = feats[labels == 1]
    # class 0 sits on the unit circle's upper half
    assert np.allclose(np.hypot(outer[:, 0], outer[:, 1]), 1.0)
    assert (outer[:, 1] >= -1e-12).all()
    # class 1 is the shifted, flipped arc
    assert np.allclose(np.hypot(inner[:, 0] - 1.0, inner[:, 1] - 0.5), 1.0)
    assert (inner[:, 1] <= 0.5 + 1e-12).all()
    assert len(outer) == 200 and len(inner) == 200


def test_split_partitions_without_loss():
    task = gen_moons(seed=9, n=100, noise=0.1)
    rows = {tuple(r) for r in np.vstack([task.train.features, task.test.features])}
    assert len(rows) == 100  # nothing duplicated or dropped


def test_moons_validation():
    with pytest.raises(ValueError):
        gen_moons(seed=0, n=3)
    with pytest.raises(ValueError):
        gen_moons(seed=0, n=10, noise=-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constructors_reject_non_finite_values(bad):
    for depth, width in ((bad, 0.5), (1.0, bad)):
        with pytest.raises(ValueError, match="depth and width must be finite and > 0"):
            Well(center=(0, 0), depth=depth, width=width)
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        gen_moons(seed=0, n=10, noise=bad)


# --- IDX files ---


def _tiny_idx(tmp_path, n=12, rows=4, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 5, size=n, dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(images, labels, ip, lp)
    return images, labels, ip, lp


def test_idx_round_trip(tmp_path):
    images, labels, ip, lp = _tiny_idx(tmp_path)
    ds = load_idx(ip, lp, split="test")
    assert ds.features.shape == (12, 12)
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.features, images.reshape(12, -1) / 255.0)
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert ds.n_classes == int(labels.max()) + 1
    assert ds.split == "test"


def test_idx_bad_magic(tmp_path):
    _, _, ip, lp = _tiny_idx(tmp_path)
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(ip, lp)


def test_idx_truncated(tmp_path):
    _, _, ip, lp = _tiny_idx(tmp_path)
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    images, labels, ip, lp = _tiny_idx(tmp_path)
    save_idx(images, labels, ip, tmp_path / "other.idx")
    save_idx(images[:6], labels[:6], tmp_path / "imgs6.idx", lp)
    with pytest.raises(ValueError, match="length mismatch"):
        load_idx(tmp_path / "imgs6.idx", tmp_path / "other.idx")


def test_save_idx_validation(tmp_path):
    with pytest.raises(ValueError, match="rows, cols"):
        save_idx(np.zeros((3, 4), dtype=np.uint8), np.zeros(3, dtype=np.uint8),
                 tmp_path / "a", tmp_path / "b")
    with pytest.raises(ValueError, match="length mismatch"):
        save_idx(np.zeros((3, 2, 2), dtype=np.uint8), np.zeros(4, dtype=np.uint8),
                 tmp_path / "a", tmp_path / "b")


def test_idx_task_harmonizes_class_counts(tmp_path):
    rng = np.random.default_rng(3)
    def pair(labels, prefix):
        images = rng.integers(0, 256, size=(len(labels), 2, 2), dtype=np.uint8)
        ip, lp = tmp_path / f"{prefix}i.idx", tmp_path / f"{prefix}l.idx"
        save_idx(images, np.asarray(labels, dtype=np.uint8), ip, lp)
        return ip, lp

    tri, trl = pair([0, 1, 2, 3], "train")     # classes 0..3
    tei, tel = pair([0, 1], "test")            # classes 0..1 only
    task = idx_task(tri, trl, tei, tel, name="toy")
    assert task.name == "toy"
    assert task.train.n_classes == 4
    assert task.test.n_classes == 4
