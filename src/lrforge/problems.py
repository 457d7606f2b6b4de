"""Optimization test surfaces and small classification datasets.

Surfaces are 2-D scalar fields with analytic gradients, used to trace
optimizer trajectories. Datasets are deterministic functions of their
seed: two calls with the same arguments produce identical arrays.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# IDX file layout (big-endian):
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
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.a.shape != (2, 2):
            raise ValueError(f"a must be 2x2, got shape {self.a.shape}")
        if not np.allclose(self.a, self.a.T):
            raise ValueError("a must be symmetric")
        if np.linalg.eigvalsh(self.a).min() <= 0:
            raise ValueError("a must be positive definite")


@dataclass(frozen=True)
class Rosenbrock:
    """f(x, y) = (a - x)^2 + b * (y - x^2)^2."""

    a: float = 1.0
    b: float = 100.0


@dataclass(frozen=True)
class Well:
    center: tuple[float, float]
    depth: float
    width: float

    def __post_init__(self):
        if len(self.center) != 2:
            raise ValueError(f"center must have 2 coordinates, got {len(self.center)}")
        if not (0 < self.depth < math.inf and 0 < self.width < math.inf):
            raise ValueError(f"well depth and width must be finite and > 0, got {self}")


@dataclass(frozen=True)
class MultiBasin:
    """Sum of negative Gaussian wells; the unique deepest well is the global optimum.

    f(x) = -sum_i depth_i * exp(-|x - c_i|^2 / (2 * width_i^2))
    """

    wells: tuple[Well, ...]

    def __post_init__(self):
        if not self.wells:
            raise ValueError("wells must be non-empty")
        depths = sorted((w.depth for w in self.wells), reverse=True)
        if len(depths) > 1 and depths[0] == depths[1]:
            raise ValueError("deepest well must be unique")


Surface = Quadratic | Rosenbrock | MultiBasin


def surface_value_grad(surface: Surface, point: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate f and its gradient at a 2-D point."""
    x = np.asarray(point, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"point must have shape (2,), got {x.shape}")
    if isinstance(surface, Quadratic):
        return 0.5 * float(x @ surface.a @ x), surface.a @ x
    if isinstance(surface, Rosenbrock):
        a, b = surface.a, surface.b
        v = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
        g = np.array([-2 * (a - x[0]) - 4 * b * x[0] * (x[1] - x[0] ** 2),
                      2 * b * (x[1] - x[0] ** 2)])
        return float(v), g
    if isinstance(surface, MultiBasin):
        value = 0.0
        grad = np.zeros(2)
        for w in surface.wells:
            d = x - np.asarray(w.center, dtype=float)
            e = w.depth * np.exp(-float(d @ d) / (2 * w.width ** 2))
            value -= e
            grad += e * d / w.width ** 2
        return float(value), grad
    raise ValueError(f"unknown surface type {type(surface).__name__}")


# --- datasets ---


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    n_classes: int
    split: str            # "train" or "test"


@dataclass(frozen=True)
class TaskData:
    """A named train/test pair; the name keys trial records in the store."""

    name: str
    train: Dataset
    test: Dataset


def _split_80_20(name: str, features: np.ndarray, labels: np.ndarray,
                 n_classes: int, rng: np.random.Generator) -> TaskData:
    # fixed head/tail split after a seeded shuffle
    n = features.shape[0]
    perm = rng.permutation(n)
    features, labels = features[perm], labels[perm]
    cut = (4 * n) // 5
    train = Dataset(features[:cut], labels[:cut], n_classes, "train")
    test = Dataset(features[cut:], labels[cut:], n_classes, "test")
    return TaskData(name=name, train=train, test=test)


def gen_blobs(seed: int, n_per_class: int, n_classes: int = 2, d: int = 2,
              separation: float = 10.0) -> TaskData:
    """Isotropic unit-variance Gaussian clusters with centers `separation` apart.

    Centers sit on a circle in the first two feature dimensions (on a line
    for d=1), so their spacing is deterministic and independent of the seed.
    """
    if n_per_class < 1 or n_classes < 2 or d < 1:
        raise ValueError("need n_per_class >= 1, n_classes >= 2, d >= 1")
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
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if not 0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
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
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated IDX file {path}: wanted {n} bytes, got {len(buf)}")
    return buf


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Read an IDX image/label file pair, scaling pixels to [0, 1]."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad magic in {images_path}: "
                             f"expected {IDX_IMAGE_MAGIC}, got {magic}")
        raw = _read_exact(f, count * rows * cols, images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">ii", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad magic in {labels_path}: "
                             f"expected {IDX_LABEL_MAGIC}, got {magic}")
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if count != label_count:
        raise ValueError(f"length mismatch: {count} images vs {label_count} labels")
    features = images.astype(np.float64) / 255.0
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(features, labels.astype(np.int64), n_classes, split)


def save_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path):
    """Write an IDX pair; images are (n, rows, cols) uint8."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError(f"images must be (n, rows, cols), got shape {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ValueError(f"length mismatch: {images.shape[0]} images vs "
                         f"{labels.shape[0]} labels")
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        f.write(labels.tobytes())


def idx_task(train_images, train_labels, test_images, test_labels,
             name: str = "idx") -> TaskData:
    train = load_idx(train_images, train_labels, "train")
    test = load_idx(test_images, test_labels, "test")
    n_classes = max(train.n_classes, test.n_classes)
    train = Dataset(train.features, train.labels, n_classes, "train")
    test = Dataset(test.features, test.labels, n_classes, "test")
    return TaskData(name=name, train=train, test=test)
