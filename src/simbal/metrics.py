"""Binary confusion-matrix metrics with the minority class as positive."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import MINORITY, _binary_labels


class MetricError(ValueError):
    """Raised for invalid confusion counts."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise MetricError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(y_true, y_pred) -> ConfusionCounts:
    """Tally the four cells; +1 is the positive (minority) class, -1 the negative."""
    yt, yp = np.asarray(y_true), np.asarray(y_pred)
    if yt.shape != yp.shape or yt.ndim != 1:
        raise MetricError(f"label vectors must be equal-length 1-d, got {yt.shape} vs {yp.shape}")
    if not (_binary_labels(yt) and _binary_labels(yp)):
        raise MetricError("labels must contain only +1 (minority) and -1 (majority)")
    # one pass over the cells 2 * (truly minority) + (predicted minority)
    tn, fp, fn, tp = np.bincount(2 * (yt == MINORITY) + (yp == MINORITY), minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def f1_score(c: ConfusionCounts) -> float:
    """2tp / (2tp + fp + fn); 0 when the denominator vanishes."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return 0.0
    return 2 * c.tp / denom


def mcc_score(c: ConfusionCounts) -> float:
    """Matthews correlation coefficient; 0 when any marginal factor vanishes."""
    denom_sq = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom_sq == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom_sq)
