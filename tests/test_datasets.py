import numpy as np
import pytest

from simbal import (Dataset, MAJORITY, MINORITY, Shape, SyntheticSpec, generate_synthetic,
                    synthetic_benchmark)
from simbal.datasets import DatasetError


class TestDatasetType:
    def test_counts_and_views(self):
        ds = Dataset([[0.0], [1.0], [2.0]], [1, -1, -1])
        assert (ds.n, ds.d, ds.n_minority, ds.n_majority) == (3, 1, 1, 2)
        assert ds.minority_indices().tolist() == [0]
        assert ds.majority_features().tolist() == [[1.0], [2.0]]

    def test_subset_keeps_alignment(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), [1, -1, 1, -1])
        sub = ds.subset([2, 3])
        assert sub.labels.tolist() == [1, -1]
        assert sub.features[0].tolist() == [4.0, 5.0]

    def test_subset_by_boolean_mask(self):
        ds = Dataset(np.arange(10.0).reshape(5, 2), [1, -1, -1, 1, -1])
        sub = ds.subset(ds.labels == MINORITY)
        assert sub.features.tolist() == [[0.0, 1.0], [6.0, 7.0]]
        assert sub.labels.tolist() == [1, 1]
        assert ds.subset(np.array([3, 0])).labels.tolist() == [1, 1]

    @pytest.mark.parametrize("idx", [[0.9, 3.7], [True, False], [[0, 1]], [0, 5], [-1], 2,
                                     ["0"]])
    def test_subset_rejects_other_selectors(self, idx):
        ds = Dataset(np.arange(10.0).reshape(5, 2), [1, -1, -1, 1, -1])
        with pytest.raises(DatasetError, match="subset"):
            ds.subset(idx)

    def test_rejects_bad_labels(self):
        with pytest.raises(DatasetError):
            Dataset([[0.0], [1.0]], [1, 2])

    @pytest.mark.parametrize("labels", [[1.7, -1.2], [1, -1.5], [1.0, -1.9], ["a", "b"], [1, "a"],
                                        ["1", "-1"], [1 + 0j, -1], [True, True]])
    def test_rejects_labels_that_are_not_exactly_plus_or_minus_one(self, labels):
        with pytest.raises(DatasetError, match="only \\+1"):
            Dataset([[0.0], [1.0]], labels)

    def test_float_labels_equal_to_one_are_read_as_ints(self):
        ds = Dataset([[0.0], [1.0], [2.0]], np.array([1.0, -1.0, -1.0]))
        assert ds.labels.dtype == int and ds.labels.tolist() == [1, -1, -1]

    def test_rejects_length_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset([[0.0], [1.0]], [1])

    def test_rejects_nonfinite_features(self):
        with pytest.raises(Exception):
            Dataset([[np.inf], [0.0]], [1, -1])


class TestGenerateSynthetic:
    @pytest.mark.parametrize("shape", list(Shape))
    def test_default_class_sizes(self, shape):
        ds = generate_synthetic(SyntheticSpec(shape, seed=3))
        assert ds.n_minority == 50
        assert ds.n_majority == 300
        assert ds.d == 2

    @pytest.mark.parametrize("shape", list(Shape))
    def test_seed_determinism(self, shape):
        a = generate_synthetic(SyntheticSpec(shape, seed=11))
        b = generate_synthetic(SyntheticSpec(shape, seed=11))
        c = generate_synthetic(SyntheticSpec(shape, seed=12))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_circles_minority_is_inner(self):
        ds = generate_synthetic(SyntheticSpec(Shape.CIRCLES, seed=5))
        r_min = np.linalg.norm(ds.minority_features(), axis=1).mean()
        r_maj = np.linalg.norm(ds.majority_features(), axis=1).mean()
        assert r_min < r_maj

    def test_gaussian_blob_sits_inside_ring(self):
        ds = generate_synthetic(SyntheticSpec(Shape.GAUSSIAN_IN_CIRCLE, seed=5))
        r_min = np.linalg.norm(ds.minority_features(), axis=1).mean()
        r_maj = np.linalg.norm(ds.majority_features(), axis=1).mean()
        assert r_min < r_maj

    def test_rows_are_shuffled(self):
        ds = generate_synthetic(SyntheticSpec(Shape.MOONS, seed=0))
        assert not np.all(ds.labels[:50] == MINORITY)
        assert np.sum(ds.labels == MAJORITY) == 300

    def test_custom_sizes_and_noise(self):
        spec = SyntheticSpec(Shape.MOONS, n_minority=10, n_majority=40, noise=0.0, seed=1)
        ds = generate_synthetic(spec)
        assert ds.n_minority == 10 and ds.n == 50
        # noiseless moons live exactly on the two unit arcs
        mino = ds.minority_features()
        radii = np.linalg.norm(mino - np.array([1.0, 0.5]), axis=1)
        assert np.allclose(radii, 1.0, atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(Shape.MOONS, n_minority=0)

    @pytest.mark.parametrize("field, value", [("seed", -1), ("noise", -0.1),
                                              ("noise", float("nan")), ("noise", float("inf")),
                                              ("noise", "a"), ("noise", [1.0, 2.0]),
                                              pytest.param("noise", 10 ** 400, id="noise-1e400")])
    def test_invalid_seed_and_noise(self, field, value):
        with pytest.raises(DatasetError, match=f"{field} must be"):
            SyntheticSpec(Shape.MOONS, **{field: value})

    def test_shape_given_as_its_name_is_rejected(self):
        # a shape's name is not a Shape: a typed error, not a KeyError from the shape table
        with pytest.raises(DatasetError, match="shape must be a Shape, got 'moons'"):
            generate_synthetic(SyntheticSpec("moons"))
        # the benchmark checks every shape before it names or draws the first
        with pytest.raises(DatasetError, match="shape must be a Shape, got 'moons'"):
            synthetic_benchmark(shapes=[Shape.CIRCLES, "moons"])
