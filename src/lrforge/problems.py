"""Optimization test surfaces and small classification datasets.

Surfaces are 2-D scalar fields with analytic gradients, used to trace
optimizer trajectories; `surface_value_grad` is their one entry. Datasets
are deterministic functions of their seed: two calls with the same
arguments produce identical arrays. `load_idx` reads an IDX image/label
pair, such as MNIST's; lrforge writes no IDX files.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .schedule import finite, need, need_count

# IDX file layout (big-endian, sizes unsigned):
#   images: magic 2051, count, rows, cols, then count*rows*cols unsigned bytes
#   labels: magic 2049, count, then count unsigned bytes
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


# --- surfaces ---


@dataclass(frozen=True)
class Quadratic:
    """f(x) = 0.5 * x^T A x for symmetric positive definite A."""

    a: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.a, dtype=object)  # numpy numbers as Python ones
        # a NaN or infinite float fails the matrix checks below
        need(all(finite(v) or isinstance(v, float) for v in entries.flat),
             "a must hold finite numbers, got %r", self.a)
        object.__setattr__(self, "a", entries.astype(float))
        need(self.a.shape == (2, 2), "a must be 2x2, got shape %s", self.a.shape)
        need(np.allclose(self.a, self.a.T), "a must be symmetric")
        # NaN eigenvalues of an infinite a fail too
        need(np.linalg.eigvalsh(self.a).min() > 0, "a must be positive definite")

    def _value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return 0.5 * float(x @ self.a @ x), self.a @ x


@dataclass(frozen=True)
class Rosenbrock:
    """f(x, y) = (a - x)^2 + b * (y - x^2)^2."""

    a: float = 1.0
    b: float = 100.0

    def __post_init__(self):
        need(finite(self.a) and finite(self.b),
             "rosenbrock a and b must be finite, got Rosenbrock(a=%r, b=%r)", self.a, self.b)

    def _value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        # numpy scalar **, not x*x, which rounds otherwise at some points, nor
        # Python's float **, which raises OverflowError where numpy gives inf
        a, b, x0 = self.a, self.b, x[0]
        r = x[1] - x0 ** 2
        v = (a - x0) ** 2 + b * r ** 2
        g = np.array([-2 * (a - x0) - 4 * b * x0 * r, 2 * b * r])
        return float(v), g


@dataclass(frozen=True)
class Well:
    center: tuple[float, float]
    depth: float
    width: float

    def __post_init__(self):
        need(len(self.center) == 2, "center must have 2 coordinates, got %r", len(self.center))
        need(all(map(finite, self.center)),
             "center coordinates must be finite, got %r", self.center)
        need(all(finite(v) and v > 0 for v in (self.depth, self.width)),
             "well depth and width must be finite and > 0, got Well(center=%r, depth=%r, "
             "width=%r)", self.center, self.depth, self.width)
        # MultiBasin divides by width**2 and 2 * width**2
        need(self.width * self.width > 0 and finite(2 * self.width * self.width),
             "well width must keep width**2 nonzero and 2 * width**2 finite, got %r",
             self.width)


@dataclass(frozen=True)
class MultiBasin:
    """Sum of negative Gaussian wells; the unique deepest well is the global optimum.

    f(x) = -sum_i depth_i * exp(-|x - c_i|^2 / (2 * width_i^2))

    The wells are stacked when the surface is built. An evaluation makes one
    subtract over all of them, a per-row dot for each |x - c_i|^2 and one
    `np.exp`; the rest is Python float arithmetic, well by well, with the
    floats a loop over the wells gives. The dot and exp stay numpy's, whose
    bytes the paths are pinned to: `d0*d0 + d1*d1` rounds otherwise than
    the fused BLAS dot, and `math.exp` otherwise than numpy's SIMD exp on
    AVX-512 machines (which SIMD level to pin is the numeric-platform item
    of ROADMAP.md).
    """

    wells: tuple[Well, ...]

    def __post_init__(self):
        need(self.wells, "wells must be non-empty")
        depths = sorted((w.depth for w in self.wells), reverse=True)
        need(len(depths) < 2 or depths[0] != depths[1], "deepest well must be unique")
        # the (k, 2) centers, each 2 * width^2 as a float, and each depth and
        # width^2, which every evaluation reads
        object.__setattr__(self, "_terms", (
            np.array([w.center for w in self.wells], dtype=float),
            tuple(float(2 * w.width ** 2) for w in self.wells),
            tuple((w.depth, w.width ** 2) for w in self.wells)))

    def _value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        centers, spreads, terms = self._terms
        d = x - centers
        dots = (d[:, None, :] @ d[:, :, None]).ravel().tolist()
        # a Python float quotient, which overflows to -inf without a numpy warning
        exps = np.exp([-dot / spread for dot, spread in zip(dots, spreads)]).tolist()
        value = g0 = g1 = 0.0
        for (d0, d1), exp, (depth, width2) in zip(d.tolist(), exps, terms):
            e = depth * exp
            value, g0, g1 = value - e, g0 + e * d0 / width2, g1 + e * d1 / width2
        return value, np.array([g0, g1])


Surface = Quadratic | Rosenbrock | MultiBasin
_FLOAT = np.dtype(float)


def surface_value_grad(surface: Surface, point: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate f and its gradient at a 2-D point.

    A native float64 array, what a surface path passes, goes to the surface
    as it is; any other point is converted first. An exact surface type is
    known without an `isinstance` test.
    """
    x = (point if type(point) is np.ndarray and point.dtype is _FLOAT
         else np.asarray(point, dtype=float))
    if x.shape != (2,):
        need(False, "point must have shape (2,), got %s", x.shape)
    if type(surface) not in Surface.__args__ and not isinstance(surface, Surface):
        need(False, "unknown surface type %s", type(surface).__name__)
    return surface._value_grad(x)


# --- datasets ---


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    n_classes: int


@dataclass(frozen=True)
class TaskData:
    """A named train/test pair; the name keys trial records in the store."""

    name: str
    train: Dataset
    test: Dataset


def _size(name: str, value: int, low: int):
    """Reject a size that is no integer >= low, or past the largest that numpy can index."""
    need_count(name, value, low)
    need(value <= np.iinfo(np.intp).max, "%s must be <= %s, got %r",
         name, np.iinfo(np.intp).max, value)


def _split_80_20(name: str, features: np.ndarray, labels: np.ndarray,
                 n_classes: int, rng: np.random.Generator) -> TaskData:
    # fixed head/tail split after a seeded shuffle
    n = features.shape[0]
    perm = rng.permutation(n)
    features, labels = features[perm], labels[perm]
    cut = (4 * n) // 5
    return TaskData(name=name, train=Dataset(features[:cut], labels[:cut], n_classes),
                    test=Dataset(features[cut:], labels[cut:], n_classes))


def gen_blobs(seed: int, n_per_class: int, n_classes: int = 2, d: int = 2,
              separation: float = 10.0) -> TaskData:
    """Isotropic unit-variance Gaussian clusters with centers `separation` apart.

    Centers sit on a circle in the first two feature dimensions (on a line
    for d=1), so their spacing is deterministic and independent of the seed.
    """
    _size("n_per_class", n_per_class, 1)
    _size("n_classes", n_classes, 2)
    _size("d", d, 1)
    need_count("seed", seed)
    need(finite(separation), "separation must be finite, got %r", separation)
    rng = np.random.default_rng(seed)
    centers = np.zeros((n_classes, d))
    if d == 1:
        centers[:, 0] = separation * np.arange(n_classes)
    else:
        angles = 2 * np.pi * np.arange(n_classes) / n_classes
        centers[:, 0] = separation * np.cos(angles)
        centers[:, 1] = separation * np.sin(angles)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    features = centers[labels] + rng.standard_normal((labels.size, d))
    name = f"blobs(seed={seed},n={n_per_class}x{n_classes},d={d},sep={separation:g})"
    return _split_80_20(name, features, labels, n_classes, rng)


def gen_moons(seed: int, n: int, noise: float = 0.1) -> TaskData:
    """Two interleaving half-circle arcs with Gaussian coordinate noise."""
    _size("n", n, 4)
    need(finite(noise) and noise >= 0, "noise must be finite and >= 0, got %r", noise)
    need_count("seed", seed)
    rng = np.random.default_rng(seed)
    n_outer = n // 2
    n_inner = n - n_outer
    t_outer = np.linspace(0, np.pi, n_outer)
    t_inner = np.linspace(0, np.pi, n_inner)
    outer = np.column_stack([np.cos(t_outer), np.sin(t_outer)])
    inner = np.column_stack([1 - np.cos(t_inner), 0.5 - np.sin(t_inner)])
    features = np.vstack([outer, inner])
    labels = np.concatenate([np.zeros(n_outer, dtype=np.int64),
                             np.ones(n_inner, dtype=np.int64)])
    features = features + noise * rng.standard_normal(features.shape)
    name = f"moons(seed={seed},n={n},noise={noise:g})"
    return _split_80_20(name, features, labels, 2, rng)


# --- IDX files ---


def _read_exact(f, n: int, path) -> bytes:
    """The next n bytes of f; n is checked against the bytes the file has left
    before any read, so no header size reaches `read`."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    need(n <= left, "truncated IDX file %s: wanted %s bytes, got %s", path, n, left)
    return f.read(n)


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair, scaling pixels to [0, 1].

    Header sizes are read unsigned, as the format writes them, so no header
    asks for a negative number of bytes.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iIII", _read_exact(f, 16, images_path))
        need(magic == IDX_IMAGE_MAGIC, "bad magic in %s: expected %s, got %s",
             images_path, IDX_IMAGE_MAGIC, magic)
        _size(f"rows * cols in {images_path}", rows * cols, 0)
        raw = _read_exact(f, count * rows * cols, images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">iI", _read_exact(f, 8, labels_path))
        need(magic == IDX_LABEL_MAGIC, "bad magic in %s: expected %s, got %s",
             labels_path, IDX_LABEL_MAGIC, magic)
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    need(count == label_count, "length mismatch: %s images vs %s labels", count, label_count)
    features = images.astype(np.float64) / 255.0
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(features, labels.astype(np.int64), n_classes)


def idx_task(train_images, train_labels, test_images, test_labels,
             name: str = "idx") -> TaskData:
    train = load_idx(train_images, train_labels)
    test = load_idx(test_images, test_labels)
    n_classes = max(train.n_classes, test.n_classes)
    return TaskData(name=name, train=Dataset(train.features, train.labels, n_classes),
                    test=Dataset(test.features, test.labels, n_classes))
