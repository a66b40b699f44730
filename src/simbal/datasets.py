"""Binary imbalanced datasets and seeded synthetic shape generators.

Labels are +1 for the minority class and -1 for the majority class
throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import as_points

MINORITY = 1
MAJORITY = -1


class DatasetError(ValueError):
    """Raised for malformed feature/label data."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus -1/+1 labels, minority encoded as +1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = as_points(self.features)
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DatasetError(
                f"labels must be length-{feats.shape[0]} 1-d, got shape {labels.shape}"
            )
        if not np.all(np.isin(labels, (MINORITY, MAJORITY))):
            raise DatasetError("labels must contain only +1 (minority) and -1 (majority)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_minority(self) -> int:
        return int(np.sum(self.labels == MINORITY))

    @property
    def n_majority(self) -> int:
        return int(np.sum(self.labels == MAJORITY))

    def minority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == MINORITY)

    def minority_features(self) -> np.ndarray:
        return self.features[self.labels == MINORITY]

    def majority_features(self) -> np.ndarray:
        return self.features[self.labels == MAJORITY]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(self.features[idx], self.labels[idx])


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
        if self.n_minority < 1 or self.n_majority < 1:
            raise DatasetError("class sizes must be positive")


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
