"""Surfaces, synthetic datasets, and the IDX file format."""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrforge.problems import (
    MultiBasin,
    Quadratic,
    Rosenbrock,
    Well,
    gen_blobs,
    gen_moons,
    idx_task,
    load_idx,
    surface_value_grad,
)

from reference import ref_surface_value_grad


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


@pytest.mark.parametrize("width", [1e154, 1e200, 10**160, 1e-162, 1e-200])
def test_a_well_width_whose_square_leaves_the_float_range_is_rejected(width):
    # MultiBasin divides by width**2 and by 2 * width**2
    with pytest.raises(ValueError, match=r"^well width must keep .* got "):
        Well(center=(0.0, 0.0), depth=1.0, width=width)


@pytest.mark.parametrize("width", [9e153, 10**150, 1e-160])
def test_a_well_width_near_the_float_range_evaluates(width):
    surface = MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=width),))
    value, grad = surface_value_grad(surface, np.array([0.5, 0.5]))
    assert math.isfinite(value) and np.isfinite(grad).all()


def test_surface_point_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        surface_value_grad(Rosenbrock(), np.zeros(3))


class _Bowl(Quadratic):
    """A surface type that is no surface type itself, only a subclass of one."""


SURFACES = {"quadratic": Quadratic(a=[[2.0, 0.5], [0.5, 1.0]]), "rosenbrock": Rosenbrock(),
            "multibasin": MultiBasin(wells=(Well(center=(0.0, 0.0), depth=1.0, width=0.7),
                                            Well(center=(1.0, -1.0), depth=2, width=1))),
            "subclass": _Bowl(a=[[2.0, 0.5], [0.5, 1.0]])}
# points that a surface path never passes, so surface_value_grad converts each
POINTS = {"list": [0.5, -2], "tuple": (0.5, -2.0), "int-array": np.array([1, -2]),
          "float32-array": np.array([0.5, -2.0], dtype=np.float32),
          "big-endian": np.array([0.5, -2.0], dtype=">f8"), "strided": np.arange(4.0)[::2]}


@pytest.mark.parametrize("point", POINTS.values(), ids=POINTS)
@pytest.mark.parametrize("surface", SURFACES.values(), ids=SURFACES)
def test_a_point_of_any_number_type_evaluates_as_its_float_array(surface, point):
    value, grad = surface_value_grad(surface, point)
    want_value, want_grad = ref_surface_value_grad(surface, np.asarray(point, dtype=float))
    assert type(value) is float and struct.pack("<d", value) == struct.pack("<d", want_value)
    assert grad.dtype == np.float64 and grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("surface", SURFACES.values(), ids=SURFACES)
def test_a_point_of_another_shape_is_rejected(surface):
    for point, shape in ((np.zeros(3), "(3,)"), ([1, 2, 3], "(3,)"),
                         (np.zeros((2, 1)), "(2, 1)"), (np.float64(1.0), "()")):
        with pytest.raises(ValueError, match=rf"^point must have shape \(2,\), got "
                                             rf"{re.escape(shape)}$"):
            surface_value_grad(surface, point)


def test_a_surface_of_another_type_is_rejected():
    for surface in ("quadratic", None, Well(center=(0.0, 0.0), depth=1.0, width=1.0)):
        with pytest.raises(ValueError, match=f"^unknown surface type {type(surface).__name__}$"):
            surface_value_grad(surface, np.zeros(2))


# the coordinates where float arithmetic has its edges: signed zeros, the
# infinities, NaN, the largest finite floats and subnormals
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324,
         1.5e-310]
EDGE_POINTS = [np.array([x, y]) for x in EDGES for y in EDGES]
DEEP = settings.get_current_profile_name() == "oracle-deep"
_reals = st.floats(allow_nan=False, allow_infinity=False)
_scale = st.one_of(st.floats(1e-100, 1e100), st.integers(1, 10))


@st.composite
def _surfaces(draw):
    kind = draw(st.sampled_from(["quadratic", "rosenbrock", "multibasin"]))
    if kind == "quadratic":
        p, r = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
        q = draw(st.floats(-0.5, 0.5)) * math.sqrt(p * r)
        return Quadratic(a=[[p, q], [q, r]])
    if kind == "rosenbrock":
        return Rosenbrock(a=draw(_reals), b=draw(_reals))
    depths = draw(st.lists(_scale, min_size=1, max_size=4, unique=True))
    return MultiBasin(wells=tuple(Well(center=(draw(_reals), draw(_reals)), depth=depth,
                                       width=draw(_scale)) for depth in depths))


@given(surface=_surfaces(),
       points=st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats()),
                                 st.one_of(st.sampled_from(EDGES), st.floats())), max_size=20))
@settings(max_examples=settings.default.max_examples if DEEP else 40,
          derandomize=True, deadline=None)
def test_surface_value_grad_matches_the_per_point_formulas(surface, points):
    # byte for byte, NaN sign bits included, at the edge points and the drawn ones;
    # CI reruns this under --hypothesis-profile=oracle-deep, as it does tests/test_oracle.py
    with np.errstate(all="ignore"):
        for x in EDGE_POINTS + [np.array(point) for point in points]:
            value, grad = surface_value_grad(surface, x)
            want_value, want_grad = ref_surface_value_grad(surface, x)
            assert type(value) is float
            assert struct.pack("<d", value) == struct.pack("<d", want_value), x
            assert grad.dtype == want_grad.dtype and grad.tobytes() == want_grad.tobytes(), x


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


def test_blobs_in_one_dimension_sit_on_a_line():
    # centers at separation * i: 0, 10, 20, not the circle of d >= 2
    task = gen_blobs(seed=4, n_per_class=400, n_classes=3, d=1, separation=10.0)
    assert task.name == "blobs(seed=4,n=400x3,d=1,sep=10)"
    features = np.concatenate([task.train.features, task.test.features])
    labels = np.concatenate([task.train.labels, task.test.labels])
    assert features.shape == (1200, 1)
    for i in range(3):
        # unit-variance noise: each mean of 400 points is within 4 standard errors
        assert abs(features[labels == i, 0].mean() - 10.0 * i) < 4 / 20
    again = gen_blobs(seed=4, n_per_class=400, n_classes=3, d=1, separation=10.0)
    other = gen_blobs(seed=5, n_per_class=400, n_classes=3, d=1, separation=10.0)
    for split in ("train", "test"):
        a, b = getattr(task, split), getattr(again, split)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(task.train.features, other.train.features)


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


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf, True, False,
    pytest.param(10**400, id="int-past-the-float-range"),
    pytest.param(-(10**400), id="-int-past-the-float-range"),
])
def test_constructors_reject_non_finite_values(bad):
    # no real number (see tests/test_scalar_rules.py), so no OverflowError either
    for depth, width in ((bad, 0.5), (1.0, bad)):
        with pytest.raises(ValueError, match="depth and width must be finite and > 0"):
            Well(center=(0, 0), depth=depth, width=width)
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        gen_moons(seed=0, n=10, noise=bad)
    for a, b in ((bad, 100.0), (1.0, bad)):
        with pytest.raises(ValueError, match="rosenbrock a and b must be finite"):
            Rosenbrock(a=a, b=b)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_quadratic_rejects_a_non_finite_matrix(bad):
    for a in ([[bad, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, bad]]):
        with pytest.raises(ValueError, match="symmetric|positive definite"):
            Quadratic(a=a)


# --- IDX files ---


def save_idx(images, labels, images_path, labels_path):
    """Write an IDX pair: images (n, rows, cols) and labels (n,), both uint8."""
    images_path.write_bytes(struct.pack(">iiii", 2051, *images.shape) + images.tobytes())
    labels_path.write_bytes(struct.pack(">ii", 2049, len(labels)) + labels.tobytes())


def _tiny_idx(tmp_path, n=12, rows=4, cols=3, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 5, size=n, dtype=np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
    save_idx(images, labels, ip, lp)
    return images, labels, ip, lp


def test_idx_round_trip(tmp_path):
    images, labels, ip, lp = _tiny_idx(tmp_path)
    ds = load_idx(ip, lp)
    assert ds.features.shape == (12, 12)
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.features, images.reshape(12, -1) / 255.0)
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert ds.n_classes == int(labels.max()) + 1


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


_INT32 = st.integers(-2**31, 2**31 - 1)


@settings(derandomize=True, deadline=None)
@given(sizes=st.tuples(_INT32, _INT32, _INT32), pixels=st.binary(max_size=63),
       marks=st.binary(max_size=63))
@example(sizes=(2**31 - 1,) * 3, pixels=bytes(8), marks=b"")  # past what read takes
@example(sizes=(-1, 1, 1), pixels=b"\0", marks=b"\0")  # an int32 -1
@example(sizes=(0, -1, -1), pixels=b"", marks=b"")  # no image of (2**32 - 1)**2 pixels
@example(sizes=(2, 2, 1), pixels=b"\0\x80\xff\1", marks=b"\1\4")
def test_a_drawn_idx_header_loads_or_names_its_file(tmp_path_factory, sizes, pixels, marks):
    # whatever sizes the images header gives (the labels header repeats the
    # count), load_idx returns their dataset or raises ValueError naming a file
    tmp = tmp_path_factory.mktemp("idx")
    ip, lp = tmp / "images.idx", tmp / "labels.idx"
    ip.write_bytes(struct.pack(">iiii", 2051, *sizes) + pixels)
    lp.write_bytes(struct.pack(">ii", 2049, sizes[0]) + marks)
    try:
        ds = load_idx(ip, lp)
    except ValueError as e:
        assert str(ip) in str(e) or str(lp) in str(e)
    else:
        count, rows, cols = (v % 2**32 for v in sizes)  # IDX sizes are unsigned
        assert ds.features.shape == (count, rows * cols)
        assert np.array_equal(ds.features.ravel() * 255, list(pixels[:count * rows * cols]))
        assert ds.labels.tolist() == list(marks[:count])
