"""Binary imbalanced datasets and seeded synthetic shape generators.

Labels are +1 for the minority class and -1 for the majority class
throughout the package. A ``Dataset`` checks the data it is built from;
``_checked`` builds one from a checked one's rows (``subset``, the grid
search's standardized folds) without checking them again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np

from .graphs import GraphParameterError, _integer, as_points

MINORITY = 1
MAJORITY = -1


class DatasetError(ValueError):
    """Raised for malformed feature/label data."""


def _binary_labels(labels: np.ndarray) -> bool:
    """Whether every label is exactly +1 or -1; a non-numeric one never is."""
    return labels.dtype.kind in "iuf" and bool(np.all(abs(labels) == 1))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus -1/+1 labels, minority encoded as +1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        try:
            feats = as_points(self.features)
        except GraphParameterError as exc:
            raise DatasetError(str(exc)) from None
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DatasetError(
                f"labels must be length-{feats.shape[0]} 1-d, got shape {labels.shape}"
            )
        if not _binary_labels(labels):
            raise DatasetError("labels must contain only +1 (minority) and -1 (majority)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(int, copy=False))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_minority(self) -> int:
        return int(np.count_nonzero(self.labels == MINORITY))

    @property
    def n_majority(self) -> int:
        return int(np.count_nonzero(self.labels == MAJORITY))

    def minority_indices(self) -> np.ndarray:
        return (self.labels == MINORITY).nonzero()[0]  # labels are 1-d: flatnonzero, one call less

    def minority_features(self) -> np.ndarray:
        return self.features[self.labels == MINORITY]

    def majority_features(self) -> np.ndarray:
        return self.features[self.labels == MAJORITY]

    def subset(self, idx) -> "Dataset":
        """Rows picked by integer ids in [0, n) or by a length-n boolean mask; only
        the selector is checked, the rows are already."""
        idx = np.asarray(idx)
        is_mask = idx.dtype == bool and idx.shape == (self.n,)
        is_ids = idx.ndim == 1 and (idx.size == 0 or np.issubdtype(idx.dtype, np.integer)
                                    and 0 <= idx.min() and idx.max() < self.n)
        if not (is_mask or is_ids):
            raise DatasetError(f"subset takes integer row ids in [0, {self.n}) or a "
                               f"length-{self.n} boolean mask, got {idx.dtype} {idx.shape}")
        # take gathers rows several times faster than fancy indexing
        idx = np.flatnonzero(idx) if is_mask else idx.astype(np.intp, copy=False)
        return _checked(self.features.take(idx, axis=0), self.labels.take(idx))


def _checked(features: np.ndarray, labels: np.ndarray) -> Dataset:
    """A ``Dataset`` of rows taken from, or computed from, a checked one's, built
    without its checks: ``features`` a finite float (n, d) array and ``labels`` its
    n int labels of +1 and -1. Only an empty set raises, as ``Dataset`` does."""
    if features.shape[0] < 1:
        raise DatasetError(f"expected an (n, d) matrix with n >= 1, d >= 1, "
                           f"got shape {features.shape}")
    ds = object.__new__(Dataset)
    object.__setattr__(ds, "features", features)
    object.__setattr__(ds, "labels", labels)
    return ds


class Shape(Enum):
    MOONS = "moons"
    SWISS_ROLLS = "swiss_rolls"
    GAUSSIAN_IN_CIRCLE = "gaussian_in_circle"
    CIRCLES = "circles"


# Default noise scales per shape. Calibrated so a 5-NN classifier on the raw
# imbalanced data scores mid-range F1: separable but with genuine class
# overlap (moons mild, swiss rolls heavy, the two radial shapes in between).
DEFAULT_NOISE = {
    Shape.MOONS: 0.15,
    Shape.SWISS_ROLLS: 0.5,
    Shape.GAUSSIAN_IN_CIRCLE: 0.25,
    Shape.CIRCLES: 0.1,
}

# Geometry constants for the radial shapes, calibrated jointly with the noise
# scales against the same 5-NN baseline (see tests for the spot checks).
SWISS_RADIAL_RATE = 0.43      # spiral radius per radian of arm angle
SWISS_ANGLE_SPAN = (0.5 * np.pi, 2.5 * np.pi)
GAUSSIAN_BLOB_SIGMA = 0.95    # minority cluster spread
GAUSSIAN_RING_RADIUS = 2.0    # majority annulus center radius
CIRCLES_INNER_FACTOR = 0.72   # minority circle radius / majority circle radius


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one seeded synthetic binary dataset."""

    shape: Shape
    n_minority: int = 50
    n_majority: int = 300
    noise: float | None = None  # None = shape default
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.shape, Shape):
            raise DatasetError(f"shape must be a Shape, got {self.shape!r}")
        for name in ("n_minority", "n_majority", "seed"):
            _integer(getattr(self, name), name, DatasetError)
        if self.n_minority < 1 or self.n_majority < 1:
            raise DatasetError("class sizes must be positive")
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")
        # NaN fails the comparison, and so does an int past the float range
        if self.noise is not None and not (isinstance(self.noise, Real)
                                           and 0 <= self.noise <= sys.float_info.max):
            raise DatasetError(f"noise must be a finite number >= 0, got {self.noise!r}")


def _moons(rng, n_min, n_maj):
    t_maj = rng.uniform(0.0, np.pi, size=n_maj)
    t_min = rng.uniform(0.0, np.pi, size=n_min)
    maj = np.column_stack([np.cos(t_maj), np.sin(t_maj)])
    mino = np.column_stack([1.0 - np.cos(t_min), 0.5 - np.sin(t_min)])
    return mino, maj


def _swiss_rolls(rng, n_min, n_maj):
    lo, hi = SWISS_ANGLE_SPAN
    th_maj = rng.uniform(lo, hi, size=n_maj)
    th_min = rng.uniform(lo, hi, size=n_min)
    r_maj = SWISS_RADIAL_RATE * th_maj
    r_min = SWISS_RADIAL_RATE * th_min
    maj = np.column_stack([r_maj * np.cos(th_maj), r_maj * np.sin(th_maj)])
    # second arm: same spiral rotated by pi
    mino = np.column_stack([-r_min * np.cos(th_min), -r_min * np.sin(th_min)])
    return mino, maj


def _gaussian_in_circle(rng, n_min, n_maj):
    mino = rng.normal(0.0, GAUSSIAN_BLOB_SIGMA, size=(n_min, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n_maj)
    maj = GAUSSIAN_RING_RADIUS * np.column_stack([np.cos(ang), np.sin(ang)])
    return mino, maj


def _circles(rng, n_min, n_maj):
    ang_maj = rng.uniform(0.0, 2.0 * np.pi, size=n_maj)
    ang_min = rng.uniform(0.0, 2.0 * np.pi, size=n_min)
    maj = np.column_stack([np.cos(ang_maj), np.sin(ang_maj)])
    mino = CIRCLES_INNER_FACTOR * np.column_stack([np.cos(ang_min), np.sin(ang_min)])
    return mino, maj


_SHAPE_FNS = {
    Shape.MOONS: _moons,
    Shape.SWISS_ROLLS: _swiss_rolls,
    Shape.GAUSSIAN_IN_CIRCLE: _gaussian_in_circle,
    Shape.CIRCLES: _circles,
}


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Seeded draw of one of the four benchmark shapes.

    Noise is isotropic Gaussian added to every coordinate after the noiseless
    shape is laid out; rows are shuffled so class blocks are not contiguous.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noise = DEFAULT_NOISE[spec.shape] if spec.noise is None else float(spec.noise)
    mino, maj = _SHAPE_FNS[spec.shape](rng, spec.n_minority, spec.n_majority)
    feats = np.vstack([mino, maj])
    feats = feats + rng.normal(0.0, noise, size=feats.shape)
    labels = np.concatenate([
        np.full(spec.n_minority, MINORITY),
        np.full(spec.n_majority, MAJORITY),
    ])
    perm = rng.permutation(feats.shape[0])
    return Dataset(feats[perm], labels[perm])
