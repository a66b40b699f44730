import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import ConfusionCounts, confusion_counts, f1_score, mcc_score
from simbal.metrics import MetricError

counts_st = st.integers(0, 10_000)


def direct_f1(tp, fp, tn, fn):
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def direct_mcc(tp, fp, tn, fn):
    den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den_sq)


class TestConfusionCounts:
    def test_tally_by_hand(self):
        y_true = [1, 1, 1, -1, -1, -1, -1]
        y_pred = [1, -1, 1, -1, 1, -1, -1]
        c = confusion_counts(y_true, y_pred)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 3, 1)
        assert c.total == 7
        # a seeded fold of float labels, the size of a CV test fold: the four
        # sums, as Python ints
        rng = np.random.Generator(np.random.PCG64(88))
        yt, yp = rng.choice([-1.0, 1.0], size=(2, 88))
        c = confusion_counts(yt, yp)
        assert (c.tp, c.fp, c.tn, c.fn) == (np.sum((yt == 1) & (yp == 1)),
                                             np.sum((yt == -1) & (yp == 1)),
                                             np.sum((yt == -1) & (yp == -1)),
                                             np.sum((yt == 1) & (yp == -1)))
        assert all(type(v) is int for v in (c.tp, c.fp, c.tn, c.fn))

    def test_rejects_negative(self):
        with pytest.raises(MetricError):
            ConfusionCounts(-1, 0, 0, 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(MetricError):
            confusion_counts([1, -1], [1])

    @pytest.mark.parametrize("y_true, y_pred", [([0, 1, 0], [1, 1, 0]), ([1.7, -1], [1, -1]),
                                                ([1, -1], [1, 0.5])])
    def test_rejects_labels_that_are_not_plus_or_minus_one(self, y_true, y_pred):
        # 0 is not the majority label, and 1.7 is not truncated to a positive
        with pytest.raises(MetricError, match=r"only \+1 \(minority\) and -1"):
            confusion_counts(y_true, y_pred)


class TestF1:
    def test_perfect(self):
        assert f1_score(ConfusionCounts(5, 0, 7, 0)) == 1.0

    def test_zero_tp_with_misses(self):
        assert f1_score(ConfusionCounts(0, 0, 7, 3)) == 0.0

    def test_zero_denominator(self):
        assert f1_score(ConfusionCounts(0, 0, 9, 0)) == 0.0

    def test_worked_example(self):
        assert f1_score(ConfusionCounts(8, 2, 0, 4)) == pytest.approx(16 / 22)


class TestMcc:
    def test_perfect(self):
        assert mcc_score(ConfusionCounts(5, 0, 7, 0)) == 1.0

    def test_all_one_class_prediction(self):
        assert mcc_score(ConfusionCounts(0, 0, 8, 2)) == 0.0

    def test_worked_example(self):
        expected = (6 * 3 - 1 * 2) / math.sqrt(7 * 8 * 4 * 5)
        assert mcc_score(ConfusionCounts(6, 1, 3, 2)) == pytest.approx(expected, abs=1e-12)

    def test_inverted_prediction_is_negative(self):
        assert mcc_score(ConfusionCounts(0, 7, 0, 5)) == pytest.approx(-1.0)


@settings(max_examples=300, deadline=None)
@given(counts_st, counts_st, counts_st, counts_st)
def test_scores_match_direct_formulas(tp, fp, tn, fn):
    c = ConfusionCounts(tp, fp, tn, fn)
    assert abs(f1_score(c) - direct_f1(tp, fp, tn, fn)) <= 1e-12
    assert abs(mcc_score(c) - direct_mcc(tp, fp, tn, fn)) <= 1e-12
    assert 0.0 <= f1_score(c) <= 1.0
    assert -1.0 <= mcc_score(c) <= 1.0


def test_counts_from_random_labels_match_numpy_tally():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        n = int(rng.integers(1, 200))
        yt = rng.choice([-1, 1], size=n)
        yp = rng.choice([-1, 1], size=n)
        c = confusion_counts(yt, yp)
        assert c.tp == np.sum((yt == 1) & (yp == 1))
        assert c.fp == np.sum((yt == -1) & (yp == 1))
        assert c.tn == np.sum((yt == -1) & (yp == -1))
        assert c.fn == np.sum((yt == 1) & (yp == -1))
        assert c.total == n
