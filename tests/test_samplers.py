import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simbal import (
    Dataset,
    MAXIMAL,
    Method,
    SamplerConfig,
    Shape,
    SyntheticSpec,
    knn_graph,
    minority_skeleton,
    oversample,
    oversample_gaussian,
    oversample_global,
    oversample_random,
    oversample_safelevel,
    oversample_simplicial,
    oversample_smote,
)
from simbal.complexes import SkeletonParameterError, SubdivisionCapExceeded, p_skeleton
from simbal.datasets import DatasetError
from simbal.evaluation import (CVConfig, EvaluationError, grid_search_eval, knn_classify,
                               method_grid, stratified_cv, synthetic_benchmark)
from simbal.graphs import MUTUAL, UNION, GraphParameterError, nearest
from simbal.samplers import (
    GRAPH_METHODS,
    GRAPH_VARIANTS,
    INVERSE_SAFETY,
    PLUS_ONE_SAFETY,
    Provenance,
    SampleStreams,
    SamplerParameterError,
    SyntheticBatch,
)
from simbal import samplers, variants
from simbal.variants import EmptyBorderlineError

from helpers import (
    in_convex_hull,
    per_point_oversample,
    per_row_combine,
    random_imbalanced_dataset,
    reconstruction_error,
    skeleton_table,
)

ALL_METHODS = list(Method)


def tiny_dataset(n_plus=6, n_minus=20, d=3, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    feats = np.vstack([rng.normal(0, 1, (n_plus, d)),
                       rng.normal(0.4, 1.1, (n_minus, d))])
    labels = np.concatenate([np.ones(n_plus, int), -np.ones(n_minus, int)])
    return Dataset(feats, labels)


class TestSamplerConfig:
    def test_graph_method_requires_k(self):
        with pytest.raises(SamplerParameterError):
            SamplerConfig(Method.SIMPLICIAL)

    def test_p_cannot_exceed_k(self):
        with pytest.raises(SamplerParameterError, match="exceeds"):
            SamplerConfig(Method.SIMPLICIAL, k=3, p=4)

    def test_p_zero_rejected(self):
        with pytest.raises(SamplerParameterError):
            SamplerConfig(Method.SMOTE, k=3, p=0)

    @pytest.mark.parametrize("method", [m for m, (_, edge_only) in GRAPH_VARIANTS.items()
                                        if edge_only])
    def test_edge_only_methods_ignore_p_above_k(self, method):
        # p is forced to 1 for these methods, so a p above k samples edges
        ds = random_imbalanced_dataset(3)
        got = oversample(ds, SamplerConfig(method, k=3, p=4, seed=4))
        want = oversample(ds, SamplerConfig(method, k=3, p=1, seed=4))
        assert np.array_equal(got.points, want.points)
        assert got.provenance == want.provenance
        assert all(len(pr.simplex) == 2 for pr in got.provenance)

    def test_baseline_methods_ignore_k(self):
        SamplerConfig(Method.RANDOM)
        SamplerConfig(Method.GAUSSIAN, k=None, p=None)

    def test_negative_target(self):
        with pytest.raises(SamplerParameterError):
            SamplerConfig(Method.RANDOM, target_count=-1)

    def test_seed_range(self):
        with pytest.raises(SamplerParameterError):
            SamplerConfig(Method.RANDOM, seed=2 ** 64)

    def test_numpy_integers_are_accepted(self):
        ds = random_imbalanced_dataset(2)
        cfg = SamplerConfig(Method.SIMPLICIAL, k=np.int64(3), p=np.int32(2),
                            seed=np.uint64(2 ** 64 - 1), target_count=np.int64(4))
        batch = oversample(ds, cfg)
        assert batch.m == 4 and batch.meta["k_used"] == 3
        assert batch.provenance == oversample(ds, SamplerConfig(
            Method.SIMPLICIAL, k=3, p=2, seed=2 ** 64 - 1, target_count=4)).provenance


_POINTS = np.arange(12.0).reshape(6, 2)
_LABELLED = Dataset(_POINTS, [1, 1, 1, -1, -1, -1])

# a float where a count belongs is an error, never the integer below it
NON_INTEGRAL = {
    "config-k": (lambda: SamplerConfig(Method.SIMPLICIAL, k=2.7), SamplerParameterError),
    "config-p": (lambda: SamplerConfig(Method.SIMPLICIAL, k=3, p=2.5), SamplerParameterError),
    "config-target_count": (lambda: SamplerConfig(Method.RANDOM, target_count=3.9),
                            SamplerParameterError),
    "config-seed": (lambda: SamplerConfig(Method.RANDOM, seed=1.5), SamplerParameterError),
    "oversample_random-m": (lambda: oversample_random(_LABELLED, 3.9), SamplerParameterError),
    "oversample_random-seed": (lambda: oversample_random(_LABELLED, 3, seed=1.5),
                               SamplerParameterError),
    "compute_safety-k": (lambda: variants.compute_safety(_LABELLED, 2.5), SamplerParameterError),
    "minority_skeleton-k": (lambda: minority_skeleton(_LABELLED, 2.5), SamplerParameterError),
    "knn_graph-k": (lambda: knn_graph(_POINTS, 2.5), GraphParameterError),
    "nearest-k": (lambda: nearest(_POINTS, _POINTS, 2.5), GraphParameterError),
    "p_skeleton-p": (lambda: p_skeleton(knn_graph(_POINTS, 2), 1.5), SkeletonParameterError),
    "knn_classify-k_clf": (lambda: knn_classify(_LABELLED, _POINTS, k_clf=2.5), EvaluationError),
    "cv-folds": (lambda: CVConfig(folds=4.0), EvaluationError),
    "cv-repeats": (lambda: CVConfig(repeats=1.5), EvaluationError),
    "cv-inner_folds": (lambda: CVConfig(mode="nested", inner_folds=4.0), EvaluationError),
    "cv-inner_repeats": (lambda: CVConfig(mode="nested", inner_repeats=2.5), EvaluationError),
    "stratified_cv-folds": (lambda: stratified_cv(_LABELLED, 3.0, 1, 0), EvaluationError),
    "stratified_cv-repeats": (lambda: stratified_cv(_LABELLED, 3, 1.5, 0), EvaluationError),
    "stratified_cv-seed": (lambda: stratified_cv(_LABELLED, 3, 1, 1.5), EvaluationError),
    "grid_search_eval-seed": (lambda: grid_search_eval({"a": _LABELLED}, [Method.RANDOM], (3,),
                                                       seed=1.5), EvaluationError),
    "synthetic_benchmark-seed": (lambda: synthetic_benchmark(seed=1.5), EvaluationError),
    "synthetic_spec-n_minority": (lambda: SyntheticSpec(Shape.MOONS, n_minority=10.5),
                                  DatasetError),
    "synthetic_spec-n_majority": (lambda: SyntheticSpec(Shape.MOONS, n_majority=40.0),
                                  DatasetError),
    "synthetic_spec-seed": (lambda: SyntheticSpec(Shape.MOONS, seed=1.5), DatasetError),
}


@pytest.mark.parametrize("sampler", [oversample_random, oversample_global, oversample_gaussian])
def test_negative_counts_are_typed_errors(sampler):
    with pytest.raises(SamplerParameterError, match="target_count must be >= 0, got -2"):
        sampler(_LABELLED, -2)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("sampler", [oversample_random, oversample_global, oversample_gaussian])
def test_out_of_range_seeds_are_typed_errors(sampler, seed):
    # the same check and wording as SamplerConfig's
    with pytest.raises(SamplerParameterError,
                       match=f"seed must fit in 64 unsigned bits, got {seed}"):
        sampler(_LABELLED, 3, seed=seed)


@pytest.mark.parametrize("case", NON_INTEGRAL)
def test_non_integral_counts_are_typed_errors(case):
    run, error = NON_INTEGRAL[case]
    with pytest.raises(error, match="must be an integer"):
        run()


@pytest.mark.parametrize("method", ALL_METHODS)
def test_method_table_drives_dispatch_and_grid(method):
    # GRAPH_VARIANTS is the one place method families live: it decides the
    # graph pipeline's knobs, whether p is forced to 1, and the (k, p) grid
    assert GRAPH_METHODS == set(GRAPH_VARIANTS)
    graph = method in GRAPH_VARIANTS
    ds = random_imbalanced_dataset(60)
    batch = oversample(ds, SamplerConfig(method, k=4 if graph else None, p=2,
                                         seed=0, target_count=12))
    assert batch.m == 12 and batch.meta["method"] == method.value
    grid = method_grid(method, (3, 5), (2, MAXIMAL))
    if not graph:
        assert grid == [(None, None)]
    elif GRAPH_VARIANTS[method][1]:
        assert batch.meta["p"] == 1
        assert all(len(pr.simplex) <= 2 for pr in batch.provenance)
        assert grid == [(3, 1), (5, 1)]
    else:
        assert batch.meta["p"] == 2
        assert grid == [(3, 2), (3, MAXIMAL), (5, 2), (5, MAXIMAL)]


class TestCommonContracts:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_count_reconstruction_determinism(self, method):
        ds = random_imbalanced_dataset(1)
        k = min(5, ds.n_minority - 1)
        cfg = SamplerConfig(method, k=k, p=2, seed=99)
        batch = oversample(ds, cfg)
        assert batch.m == ds.n_majority - ds.n_minority
        assert reconstruction_error(batch, ds.features) <= 1e-9
        for pr in batch.provenance:
            if pr.kind == "barycentric":
                lam = np.asarray(pr.lam)
                assert np.all(lam >= 0) and np.all(lam <= 1)
                assert abs(lam.sum() - 1.0) <= 1e-12
        again = oversample(ds, cfg)
        assert np.array_equal(batch.points, again.points)
        assert batch.provenance == again.provenance

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_target_count_override(self, method):
        ds = random_imbalanced_dataset(2)
        k = min(5, ds.n_minority - 1)
        assert oversample(ds, SamplerConfig(method, k=k, target_count=7)).m == 7
        empty = oversample(ds, SamplerConfig(method, k=k, target_count=0))
        assert empty.m == 0 and empty.points.shape == (0, ds.d) and empty.provenance == ()

    def test_seeds_differ(self):
        ds = tiny_dataset()
        a = oversample_simplicial(ds, k=3, seed=1)
        b = oversample_simplicial(ds, k=3, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_augmented_dataset_is_balanced(self):
        ds = tiny_dataset()
        aug = oversample_smote(ds, k=3, seed=0).augmented(ds)
        assert aug.n_minority == aug.n_majority == ds.n_majority

    def test_augmenting_a_dataset_of_another_width_raises(self):
        ds = tiny_dataset(d=2)
        wide = Dataset(np.hstack([ds.features, ds.features[:, :1]]), ds.labels)
        with pytest.raises(SamplerParameterError, match="width 2, the dataset d=3"):
            oversample_smote(ds, k=3, seed=0).augmented(wide)


class TestRandom:
    def test_outputs_are_exact_minority_rows(self):
        ds = tiny_dataset()
        batch = oversample_random(ds, seed=5)
        rows = {tuple(r) for r in ds.minority_features()}
        assert all(tuple(p) in rows for p in batch.points)
        for pr in batch.provenance:
            assert len(pr.simplex) == 1 and pr.lam == (1.0,)
            assert ds.labels[pr.simplex[0]] == 1

    def test_single_minority_point(self):
        ds = Dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1, -1, -1])
        batch = oversample_random(ds, m=5, seed=0)
        assert batch.m == 5
        assert np.array_equal(batch.points, np.zeros((5, 2)))


class TestGlobal:
    def test_two_minority_points_stay_on_segment(self):
        ds = Dataset([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [6.0, 5.0], [7.0, 5.0]],
                     [1, 1, -1, -1, -1])
        batch = oversample_global(ds, seed=3)
        assert batch.m == 1
        for p in batch.points:
            assert p[1] == pytest.approx(0.0)
            assert 0.0 <= p[0] <= 2.0

    def test_pair_provenance(self):
        ds = tiny_dataset()
        batch = oversample_global(ds, m=40, seed=4)
        idx_min = set(ds.minority_indices().tolist())
        for pr in batch.provenance:
            assert len(pr.simplex) == 2
            assert pr.simplex[0] < pr.simplex[1]
            assert set(pr.simplex) <= idx_min
            assert abs(sum(pr.lam) - 1.0) <= 1e-12

    def test_hull_membership(self):
        ds = tiny_dataset(n_plus=4, n_minus=9, d=2, seed=6)
        batch = oversample_global(ds, m=20, seed=7)
        hull_pts = ds.minority_features()
        assert all(in_convex_hull(p, hull_pts) for p in batch.points)

    def test_fallback_below_two_minority(self):
        ds = Dataset([[0.0], [1.0], [2.0]], [1, -1, -1])
        batch = oversample_global(ds, seed=1)
        assert "warnings" in batch.meta
        assert np.array_equal(batch.points, np.zeros((1, 1)))


class TestGaussian:
    def test_degenerate_minority_collapses_to_point(self):
        feats = np.vstack([np.tile([3.0, -1.0], (4, 1)),
                           np.random.Generator(np.random.PCG64(0)).normal(size=(9, 2))])
        ds = Dataset(feats, [1] * 4 + [-1] * 9)
        batch = oversample_gaussian(ds, m=50, seed=2)
        assert np.allclose(batch.points, [3.0, -1.0], atol=1e-4)

    def test_moments_match_fit(self):
        rng = np.random.Generator(np.random.PCG64(8))
        mino = rng.normal([1.0, -2.0], [0.5, 2.0], size=(40, 2))
        maj = rng.normal(0, 1, size=(90, 2))
        ds = Dataset(np.vstack([mino, maj]), [1] * 40 + [-1] * 90)
        batch = oversample_gaussian(ds, m=100_000, seed=9)
        fit_mean = mino.mean(axis=0)
        fit_std = mino.std(axis=0, ddof=1)
        assert np.all(np.abs(batch.points.mean(axis=0) - fit_mean) < 0.01 * fit_std * 3)

    def test_one_dimensional_variance(self):
        ds = Dataset([[-1.0], [1.0], [5.0], [6.0], [7.0]], [1, 1, -1, -1, -1])
        batch = oversample_gaussian(ds, m=100_000, seed=10)
        # fitted variance of {-1, +1} with ddof=1 is 2, so draws have var 2
        assert batch.points.var() == pytest.approx(2.0, abs=0.1)

    def test_provenance_kind(self):
        batch = oversample_gaussian(tiny_dataset(), m=3, seed=0)
        assert all(pr.kind == "gaussian" and pr.simplex == () for pr in batch.provenance)
        assert batch.provenance == (Provenance((), (), kind="gaussian"),) * 3
        assert repr(batch.provenance[2]) == "Provenance(simplex=(), lam=(), kind='gaussian')"

    def test_overflowing_fit_is_a_typed_error(self):
        # np.cov of coordinates near 1e155 overflows; the draws used to be all inf
        feats = np.random.Generator(np.random.PCG64(5)).normal(size=(100, 3))
        labels = [1] * 40 + [-1] * 60
        assert np.isfinite(oversample_gaussian(Dataset(feats * 1e150, labels)).points).all()
        with pytest.raises(SamplerParameterError, match="overflows"):
            oversample_gaussian(Dataset(feats * 1e155, labels))

    def test_empty_batch_takes_the_general_path(self):
        # m = 0 fits the covariance like any m: an empty (0, d) batch, or the
        # same overflow error
        feats = np.random.Generator(np.random.PCG64(5)).normal(size=(100, 3))
        labels = [1] * 40 + [-1] * 60
        batch = oversample_gaussian(Dataset(feats, labels), m=0, seed=4)
        assert batch.points.shape == (0, 3)
        assert batch.simplices.shape == batch.lam.shape == (0, 0)
        assert batch.meta == {"method": "gaussian", "seed": 4} and batch.provenance == ()
        with pytest.raises(SamplerParameterError, match="overflows"):
            oversample_gaussian(Dataset(feats * 1e155, labels), m=0)

    def test_fallback_below_two_minority(self):
        ds = Dataset([[4.0], [1.0], [2.0]], [1, -1, -1])
        batch = oversample_gaussian(ds, seed=1)
        assert "warnings" in batch.meta
        assert np.array_equal(batch.points, [[4.0]])


class TestSmote:
    def test_provenance_edges_only(self):
        ds = tiny_dataset()
        batch = oversample_smote(ds, k=3, seed=11)
        assert all(len(pr.simplex) == 2 for pr in batch.provenance)

    def test_candidates_equal_knn_edges(self):
        ds = random_imbalanced_dataset(3)
        k = min(4, ds.n_minority - 1)
        sk, idx_min, _ = minority_skeleton(ds, k, p=1)
        edges = knn_graph(ds.features[idx_min], k).edges
        assert sk.maximal_simplices == edges

    def test_matches_simplicial_at_p1(self):
        ds = tiny_dataset(seed=12)
        a = oversample_smote(ds, k=3, seed=13)
        b = oversample_simplicial(ds, k=3, p=1, seed=13)
        assert np.array_equal(a.points, b.points)


class TestSimplicial:
    def test_provenance_simplices_come_from_skeleton(self):
        ds = random_imbalanced_dataset(4)
        k = min(5, ds.n_minority - 1)
        batch = oversample_simplicial(ds, k=k, p=2, seed=14)
        sk, idx_min, _ = minority_skeleton(ds, k, p=2)
        valid = {tuple(int(idx_min[v]) for v in s) for s in sk.maximal_simplices}
        assert all(pr.simplex in valid for pr in batch.provenance)

    def test_three_point_triangle_hull(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9],
                          [5.0, 5.0], [6.0, 5.0], [5.5, 6.0], [6.5, 6.0]])
        ds = Dataset(feats, [1, 1, 1, -1, -1, -1, -1])
        batch = oversample_simplicial(ds, k=2, p=2, seed=15)
        assert batch.m == 1
        # rerun with a larger target for a real sample of the triangle
        batch = oversample_simplicial(ds, k=2, p=2, m=50, seed=15)
        tri = feats[:3]
        assert all(in_convex_hull(p, tri) for p in batch.points)

    def test_wrappers_reject_p_above_k(self):
        # the wrappers build a SamplerConfig, so they share its p <= k contract
        ds = tiny_dataset()
        with pytest.raises(SamplerParameterError, match="exceeds"):
            oversample_simplicial(ds, k=2, p=3)
        with pytest.raises(SamplerParameterError, match="exceeds"):
            oversample_safelevel(ds, k=2, p=3)

    def test_k_clamp_recorded(self):
        ds = tiny_dataset(n_plus=4)
        batch = oversample_simplicial(ds, k=10, seed=16)
        assert batch.meta["k_used"] == 3
        assert batch.meta["k_clamped"] is True

    def test_single_minority_falls_back_to_duplication(self):
        ds = Dataset([[2.0, 2.0], [0.0, 0.0], [1.0, 0.0]], [1, -1, -1])
        batch = oversample_simplicial(ds, k=3, seed=17)
        assert "warnings" in batch.meta
        assert np.array_equal(batch.points, [[2.0, 2.0]])

    def test_subdivision_cap_propagates(self):
        rng = np.random.Generator(np.random.PCG64(18))
        mino = rng.normal(0, 0.01, size=(50, 2))
        maj = rng.normal(5, 0.5, size=(120, 2))
        ds = Dataset(np.vstack([mino, maj]), [1] * 50 + [-1] * 120)
        with pytest.raises(SubdivisionCapExceeded):
            oversample_simplicial(ds, k=49, p=4, seed=0)

    def test_maximal_uses_whole_cliques(self):
        # tight minority cluster: the complex is one big clique, so every
        # synthetic point mixes all of it
        rng = np.random.Generator(np.random.PCG64(19))
        mino = rng.normal(0, 0.01, size=(5, 2))
        maj = rng.normal(4, 0.5, size=(12, 2))
        ds = Dataset(np.vstack([mino, maj]), [1] * 5 + [-1] * 12)
        batch = oversample_simplicial(ds, k=4, p=MAXIMAL, seed=20)
        assert all(len(pr.simplex) == 5 for pr in batch.provenance)


def lone_vertex_dataset() -> Dataset:
    """Three minority points whose mutual 1-NN graph leaves vertex 2 isolated."""
    mino = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, -0.0, -0.0]]
    maj = [[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [10.0, 11.0, 10.0], [10.0, 10.0, 11.0]]
    return Dataset(mino + maj, [1, 1, 1, -1, -1, -1, -1])


class CountingGenerator:
    """A generator that counts the calls of each of its methods in ``calls``."""

    def __init__(self, rng, name, calls):
        self._rng, self._name, self._calls = rng, name, calls

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)

        def counted(*args, **kwargs):
            self._calls[self._name, attr] += 1
            return method(*args, **kwargs)
        return counted


STREAM_ORDERS = {
    "gapped": [0, 1, 2, 5, 17, 18, 33, 300, 315, 316, 4096, 65_551],
    "descending": list(range(40, -1, -3)),
    "repeated": [5, 5, 0, 5, 3, 3, 4],
    "empty": [],
    "negative": [-1, 4, -7, -7],
    "sparse": [10 ** 9, 3, 10 ** 9 - 1, 123_456_789, 10 ** 9, 0, 2 ** 31 + 1, 2 ** 31],
}


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 22, 2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5])
    def test_streams_are_the_seed_and_its_first_jump(self, seed):
        # both bit generators come from one SeedSequence(seed), which splits
        # the seed into 32-bit words; each holds a state of its own, so a draw
        # on one leaves the other where it was
        streams = SampleStreams(seed)
        assert streams.selection.bit_generator.state == np.random.PCG64(seed).state
        assert streams.weights.bit_generator.state == np.random.PCG64(seed).jumped(1).state
        streams.selection.integers(0, 10, size=3)
        assert streams.weights.bit_generator.state == np.random.PCG64(seed).jumped(1).state

    @pytest.mark.parametrize("seed", [0, 22, 2 ** 64 - 1])
    def test_point_streams_match_jumped(self, seed):
        streams = SampleStreams(seed)
        for i in range(300):
            assert streams.point_stream(i).bit_generator.state == \
                np.random.PCG64(seed).jumped(i + 1).state

    @pytest.mark.parametrize("order", STREAM_ORDERS.values(), ids=STREAM_ORDERS.keys())
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_point_streams_are_jumped_generators(self, seed, order):
        # point_stream(i) is PCG64(seed).jumped(i + 1) in any lookup order;
        # indices near 10**9 build no table up to them
        streams = SampleStreams(seed)
        tracemalloc.start()
        try:
            exponential = [(rng.bit_generator.state, rng.standard_exponential(3))
                           for rng in map(streams.point_stream, order)]
            gamma = [(rng.standard_gamma(0.4), rng.uniform(size=2))
                     for rng in map(streams.point_stream, order)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert len(exponential) == len(gamma) == len(order)
        for i, (state, draws), (g, u) in zip(order, exponential, gamma):
            jumped = np.random.PCG64(seed).jumped(i + 1)
            assert state == jumped.state
            assert np.array_equal(draws, np.random.Generator(jumped).standard_exponential(3))
            rng = np.random.Generator(np.random.PCG64(seed).jumped(i + 1))
            assert g == rng.standard_gamma(0.4)
            assert np.array_equal(u, rng.uniform(size=2))

    @pytest.mark.parametrize("method,ds,cfg", [
        (Method.SMOTE, tiny_dataset(seed=21), {"k": 3}),
        (Method.SIMPLICIAL, tiny_dataset(seed=21), {"k": 3}),
        (Method.SIMPLICIAL, lone_vertex_dataset(), {"k": 1, "symmetrize": "mutual"}),
    ], ids=["smote", "simplicial", "simplicial-lone-vertices"])
    def test_weights_are_slices_of_one_exponential_draw(self, method, ds, cfg):
        # point i's weights are the next len(simplex) exponentials of the
        # seed's first jump after points 0..i-1 took theirs, lone vertices too
        seed = 22
        batch = oversample(ds, SamplerConfig(method, seed=seed, target_count=60, **cfg))
        sizes = [len(pr.simplex) for pr in batch.provenance]
        raw = np.random.Generator(np.random.PCG64(seed).jumped(1)).standard_exponential(sum(sizes))
        if "symmetrize" in cfg:
            assert 1 in sizes and 2 in sizes
        start = 0
        for pr, size in zip(batch.provenance, sizes):
            draws = raw[start:start + size]
            start += size
            assert np.asarray(pr.lam).tobytes() == (draws / draws.sum()).tobytes()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_one_draw_call_per_stream_whatever_m(self, method, monkeypatch):
        # a per-point loop over any stream would make m calls
        calls = Counter()

        class CountingStreams(SampleStreams):
            def __init__(self, seed):
                super().__init__(seed)
                for name in ("selection", "weights"):
                    setattr(self, name, CountingGenerator(getattr(self, name), name, calls))

        ds = random_imbalanced_dataset(2)
        for m in (1, 40, 400):
            cfg = SamplerConfig(method, k=5, seed=7, target_count=m)
            want = oversample(ds, cfg)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(samplers, "SampleStreams", CountingStreams)
                patch.setattr(variants, "SampleStreams", CountingStreams)
                got = oversample(ds, cfg)
            assert np.array_equal(got.points, want.points) and got.provenance == want.provenance
            assert calls and max(calls.values()) == 1, dict(calls)


class TestProvenance:
    def test_records_are_slotted_and_frozen(self):
        pr = Provenance((0, 2), (0.25, 0.75))
        assert not hasattr(pr, "__dict__")
        with pytest.raises(FrozenInstanceError):
            pr.lam = (1.0, 0.0)

    def test_equality_hash_and_repr(self):
        pr = Provenance((0, 2), (0.25, 0.75))
        assert pr == Provenance((0, 2), (0.25, 0.75))
        assert hash(pr) == hash(Provenance((0, 2), (0.25, 0.75)))
        assert pr != Provenance((0, 2), (0.25, 0.75), kind="gaussian")
        assert repr(pr) == "Provenance(simplex=(0, 2), lam=(0.25, 0.75), kind='barycentric')"


class TestSyntheticBatch:
    @pytest.mark.parametrize("method", [Method.SIMPLICIAL, Method.GLOBAL])
    def test_records_are_built_on_first_access_and_kept(self, method):
        batch = oversample(random_imbalanced_dataset(1), SamplerConfig(method, k=5, seed=4))
        assert "provenance" not in vars(batch)
        records = batch.provenance
        assert batch.provenance is records and len(records) == batch.m
        for pr, ids, lam in zip(records, batch.simplices.tolist(), batch.lam.tolist()):
            w = len(pr.simplex)
            assert pr.kind == "barycentric"
            assert ids[:w] == list(pr.simplex) and lam[:w] == list(pr.lam)
            assert all(v == -1 for v in ids[w:]) and all(x == 0.0 for x in lam[w:])

    def test_records_of_one_simplex_share_its_tuple(self):
        batch = oversample(random_imbalanced_dataset(2), SamplerConfig(Method.SIMPLICIAL, k=3,
                                                                       target_count=500))
        first = {}
        for pr in batch.provenance:
            assert first.setdefault(pr.simplex, pr.simplex) is pr.simplex
        assert len(first) < batch.m

    def test_duplicated_batches_keep_their_records(self):
        # one minority point: the graph, global and Gaussian samplers duplicate it
        lone = Dataset([[0.0, 1.0], [2.0, 2.0], [3.0, 1.0]], [-1, 1, -1])
        for method in (Method.GLOBAL, Method.GAUSSIAN, Method.SIMPLICIAL, Method.S_SAFELEVEL):
            batch = oversample(lone, SamplerConfig(method, k=2, target_count=3))
            assert batch.meta["warnings"] and batch.meta["method"] == method.value
            assert batch.provenance == (Provenance((1,), (1.0,)),) * 3

    def test_unread_batch_holds_only_its_arrays(self):
        # the records cost more than the points they describe; none may be
        # built before .provenance is read
        ds = random_imbalanced_dataset(3)
        cfg = SamplerConfig(Method.SIMPLICIAL, k=5, seed=6, target_count=3000)
        oversample(ds, cfg)  # warm any lazily built state
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = oversample(ds, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = batch.points.nbytes + batch.simplices.nbytes + batch.lam.nbytes
        assert arrays <= held <= arrays + 4 * 1024

    def test_batches_compare_by_identity(self):
        ds = tiny_dataset()
        cfg = SamplerConfig(Method.SIMPLICIAL, k=3, seed=2)
        a, b = oversample(ds, cfg), oversample(ds, cfg)
        assert a == a and a != b and hash(a) == hash(a) != hash(b)
        assert np.array_equal(a.points, b.points) and a.provenance == b.provenance

    @pytest.mark.parametrize("points,simplices,lam", [
        (np.zeros(3), np.zeros((3, 1), int), np.ones((3, 1))),
        (np.zeros((3, 2)), np.zeros(3, int), np.ones(3)),
        (np.zeros((3, 2)), np.zeros((2, 1), int), np.ones((2, 1))),
        (np.zeros((3, 2)), np.zeros((3, 2), int), np.ones((3, 1))),
    ], ids=["points-1d", "simplices-1d", "rows-unaligned", "lam-unaligned"])
    def test_misshapen_arrays_are_typed_errors(self, points, simplices, lam):
        with pytest.raises(SamplerParameterError, match=r"\(m, d\), \(m, w\) and \(m, w\)"):
            SyntheticBatch(points, simplices, lam)


def tight_cluster_dataset() -> Dataset:
    """Twelve minority points in a tight cluster: with k=9 its cliques exceed 8 vertices."""
    rng = np.random.Generator(np.random.PCG64(41))
    mino = rng.normal(0.0, 0.01, size=(12, 3))
    maj = rng.normal(2.0, 1.0, size=(60, 3))
    return Dataset(np.vstack([mino, maj]), [1] * 12 + [-1] * 60)


def _outcome(run):
    """A batch's points, provenance, meta, simplex ids and weights, or the error it raised."""
    try:
        batch = run()
    except (ValueError, SubdivisionCapExceeded) as exc:
        return type(exc), str(exc)
    return batch.points, batch.provenance, batch.meta, batch.simplices, batch.lam


ORACLE_CASES = [(method, p, formula)
                for method in ALL_METHODS for p in (MAXIMAL, 2)
                for formula in ((INVERSE_SAFETY, PLUS_ONE_SAFETY)
                                if "safelevel" in method.value else (INVERSE_SAFETY,))]


@pytest.mark.parametrize("method,p,formula", ORACLE_CASES,
                         ids=[f"{m.value}-p{p}-{f}" for m, p, f in ORACLE_CASES])
def test_batched_sampling_matches_per_point_oracle(method, p, formula):
    cases = [(random_imbalanced_dataset(s), 5) for s in range(4)]
    cases.append((tight_cluster_dataset(), 9))
    for ds, k in cases:
        cfg = SamplerConfig(method, k=k, p=p, seed=31, safelevel_formula=formula)
        got = _outcome(lambda: oversample(ds, cfg))
        want = _outcome(lambda: per_point_oversample(ds, cfg))
        if isinstance(want[0], type):
            assert got == want
            continue
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])


def test_simplex_table_rows_are_the_sorted_simplices():
    # row i of the sampler's table is the i-th simplex of sorted(maximal_simplices)
    # of the public skeleton, both over minority positions, padded to the widest
    for seed, p, symmetrize in product(range(4), (MAXIMAL, 1, 2), (UNION, MUTUAL)):
        ds = random_imbalanced_dataset(seed)
        sk, idx_min, info = samplers.minority_skeleton(ds, 5, p, symmetrize)
        table, table_info = samplers._knn_skeleton(ds, idx_min, 5, p, symmetrize)
        simplices = sorted(sk.maximal_simplices)
        assert table_info == info
        assert table.shape == (len(simplices), max(map(len, simplices)))
        assert [tuple(v for v in row if v >= 0) for row in table.tolist()] == simplices


@pytest.mark.parametrize("p, symmetrize", [
    pytest.param(p, sym, id=sym if p == 1 else f"p{'max' if p is MAXIMAL else p}-{sym}")
    for p in (1, 2, MAXIMAL) for sym in (UNION, MUTUAL)])
def test_edge_table_matches_brute_force_skeleton(p, symmetrize):
    # the sampler's table, built from the kNN pairs, against the p-skeleton by
    # subset enumeration: values, order, shape and dtype, on tie-heavy rows of
    # a larger dataset; mutual graphs leave vertices isolated, (v, -1, ...) rows
    lone = 0
    for seed in range(40):
        rng = np.random.Generator(np.random.PCG64(seed + 900))
        n, d = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        features = np.round(rng.normal(size=(n + 10, d)), 1) * 10.0 ** rng.integers(-3, 4)
        ds = Dataset(features, [1, -1] * ((n + 10) // 2) + [1] * ((n + 10) % 2))
        ids = np.sort(rng.choice(n + 10, n, replace=False))
        k = int(rng.integers(1, n))
        table, info = samplers._knn_skeleton(ds, ids, k, p, symmetrize)
        want = skeleton_table(knn_graph(ds.features[ids], k, symmetrize), p)
        assert table.dtype == want.dtype and table.shape == want.shape
        assert np.array_equal(table, want) and info["k_used"] == k
        lone += bool((table[:, 1] < 0).any())
    assert lone >= (5 if symmetrize == MUTUAL else 0)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_larger_target_count_extends_the_batch(method):
    # the first 37 points are the same in both batches: point i's selection
    # draw comes i-th on the selection stream, and its weights follow those of
    # points 0..i-1 on the weights stream
    for seed in range(10):
        ds = random_imbalanced_dataset(seed)
        small, large = (_outcome(lambda: oversample(ds, SamplerConfig(
            method, k=5, seed=seed, target_count=m))) for m in (37, 80))
        if isinstance(small[0], type):
            assert small == large
            continue
        assert small[0].tobytes() == large[0][:37].tobytes()
        assert small[1] == large[1][:37]


def test_combining_a_stack_equals_combining_each_part():
    # the grid search combines the variates of several samplers' rows in one
    # call, padded to the stack's widest; each part must come out as it would
    # alone, lone vertices included, even though one part's all-underflowed
    # width-3 row sends that width group of the whole stack through the
    # centre fallback of dirichlet_weights
    rng = np.random.Generator(np.random.PCG64(8))
    features = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-3, 4, size=(30, 1))
    parts = []
    for width, m in ((1, 7), (3, 40), (9, 25), (5, 1), (4, 0)):
        verts, gammas = np.full((m, width), -1), np.zeros((m, width))
        for i, w in enumerate(rng.integers(1, width + 1, size=m).tolist()):
            verts[i, :w] = np.sort(rng.choice(30, w, replace=False))
            gammas[i, :w] = rng.standard_exponential(w) * 10.0 ** rng.integers(-300, 300)
        parts.append((verts, gammas))
    verts, gammas = parts[1]
    verts[0], gammas[0] = [3, 8, 21], 0.0
    bounds = np.cumsum([0, *(len(v) for v, _ in parts)]).tolist()
    stack = np.full((bounds[-1], 9), -1), np.zeros((bounds[-1], 9))
    for (v, g), lo, hi in zip(parts, bounds, bounds[1:]):
        stack[0][lo:hi, :v.shape[1]], stack[1][lo:hi, :v.shape[1]] = v, g
    points, lam = samplers._combine(features, *stack)
    assert (np.count_nonzero(stack[0] >= 0, axis=1) == 3).sum() > 1
    assert lam[bounds[1]].tolist() == [1 / 3] * 3 + [0.0] * 6
    for (v, g), lo, hi in zip(parts, bounds, bounds[1:]):
        part_points, part_lam = samplers._combine(features, v, g)
        assert points[lo:hi].tobytes() == part_points.tobytes()
        assert lam[lo:hi, :v.shape[1]].tobytes() == part_lam.tobytes()
        assert not lam[lo:hi, v.shape[1]:].any()


def _interleaved_stack(rng, widths, n_ids=40):
    """(features, verts, gammas): one row per width, ascending distinct ids padded with -1
    to the widest, exponential variates scaled by 10**-300..10**299 per row, 0 in the pads."""
    features = rng.normal(size=(n_ids, 3)) * 10.0 ** rng.integers(-3, 4, size=(n_ids, 1))
    verts = np.full((len(widths), max(widths)), -1)
    gammas = np.zeros(verts.shape)
    for i, w in enumerate(widths):
        verts[i, :w] = np.sort(rng.choice(n_ids, w, replace=False))
        gammas[i, :w] = rng.standard_exponential(w) * 10.0 ** rng.integers(-300, 300)
    return features, verts, gammas


@pytest.mark.parametrize("widths", [
    # every width 1-12, equal widths never adjacent, so the combine's width
    # sort moves nearly every row
    [(5 * i) % 12 + 1 for i in range(150)],
    [12, 1] * 20 + [7, 3, 7, 3, 11, 2, 11],
    [4] * 30,
    [1] * 9,
], ids=["cycle", "alternating", "one-width", "lone-vertices"])
def test_combine_equals_per_row_combine(widths):
    # the combine sorts its rows by width, works on slices and undoes the
    # sort: each row must come back in its own place, bit for bit, whatever
    # the order of the widths; one all-underflowed row takes the centre
    rng = np.random.Generator(np.random.PCG64(len(widths)))
    features, verts, gammas = _interleaved_stack(rng, widths)
    gammas[len(widths) // 2] = 0.0
    points, lam = samplers._combine(features, verts, gammas)
    want_points, want_lam = per_row_combine(features, verts, gammas)
    assert points.tobytes() == want_points.tobytes()
    assert lam.tobytes() == want_lam.tobytes()
    w = widths[len(widths) // 2]
    assert lam[len(widths) // 2, :w].tolist() == [1 / w] * w


@pytest.mark.parametrize("alpha_fn", [None, lambda ids: 0.5 + ids % 4],
                         ids=["exponential", "gamma"])
def test_variates_fill_the_slots_of_a_boolean_mask(alpha_fn):
    # the draws go to flatnonzero(verts >= 0), the row-major order in which
    # a boolean-mask assignment fills the unpadded slots
    rng = np.random.Generator(np.random.PCG64(4))
    verts = _interleaved_stack(rng, [(5 * i) % 12 + 1 for i in range(60)])[1]
    filled = verts >= 0
    want = np.zeros(verts.shape)
    weights = SampleStreams(9).weights
    want[filled] = (weights.standard_exponential(int(filled.sum())) if alpha_fn is None
                    else weights.standard_gamma(alpha_fn(verts[filled])))
    got_verts, gammas = samplers._variates(verts, SampleStreams(9), alpha_fn)
    assert got_verts is verts
    assert gammas.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", [Method.RANDOM, Method.SMOTE, Method.SIMPLICIAL,
                                    Method.SAFELEVEL, Method.S_SAFELEVEL,
                                    Method.ADASYN, Method.S_ADASYN])
def test_lone_vertex_rows_copy_their_vertex(method):
    # vertex 2's nearest minority point is 1, whose own is 0, so the mutual
    # 1-NN graph leaves 2 isolated; its -0.0 coordinates must survive the copy
    ds = lone_vertex_dataset()
    batch = oversample(ds, SamplerConfig(method, k=1, seed=3, target_count=64,
                                         symmetrize="mutual"))
    lone = [i for i, pr in enumerate(batch.provenance) if pr.simplex == (2,)]
    assert lone
    for i in lone:
        assert batch.provenance[i].lam == (1.0,)
        assert batch.points[i].tobytes() == ds.features[2].tobytes()


def test_tight_cluster_has_big_simplices():
    batch = oversample(tight_cluster_dataset(), SamplerConfig(Method.SIMPLICIAL, k=9))
    assert max(len(pr.simplex) for pr in batch.provenance) >= 8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000),
       st.sampled_from([Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN,
                        Method.SMOTE, Method.SIMPLICIAL]))
def test_any_seed_any_method_meets_contracts(seed, method):
    ds = random_imbalanced_dataset(seed % 97)
    k = min(3, ds.n_minority - 1)
    cfg = SamplerConfig(method, k=k, p=min(2, k), seed=seed)
    batch = oversample(ds, cfg)
    assert batch.m == ds.n_majority - ds.n_minority
    assert np.all(np.isfinite(batch.points))
    assert reconstruction_error(batch, ds.features) <= 1e-9


GEOMETRIES = ("generic", "duplicate", "collinear", "coplanar", "borderline-pair")


def adversarial_dataset(geometry, d, n_plus, n_minus, scale, seed) -> Dataset:
    """Minority sets built to break the geometry, on a majority cloud around them.

    ``duplicate`` repeats a few base points, ``collinear`` and ``coplanar`` lay
    the minority on a random line or plane, and ``borderline-pair`` puts two
    close minority points inside the majority cloud and the rest in a far
    cluster, so the borderline support is often just that pair.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    if geometry == "duplicate":
        base = rng.normal(size=(int(rng.integers(1, 4)), d))
        mino = base[rng.integers(0, base.shape[0], size=n_plus)]
    elif geometry in ("collinear", "coplanar"):
        span = rng.normal(size=(1 if geometry == "collinear" else 2, d))
        mino = rng.normal(size=d) + rng.normal(size=(n_plus, span.shape[0])) @ span
    elif geometry == "borderline-pair":
        mino = np.vstack([rng.normal(0.0, 0.05, size=(2, d)),
                          rng.normal(50.0, 1.0, size=(n_plus - 2, d))])
    else:
        mino = rng.normal(size=(n_plus, d))
    maj = rng.normal(0.0, 1.5, size=(n_minus, d))
    return Dataset(np.vstack([mino, maj]) * scale,
                   [1] * n_plus + [-1] * n_minus)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GEOMETRIES), st.sampled_from([1, 2, 3, 5]), st.integers(2, 9),
       st.integers(0, 12), st.sampled_from([1.0, 1e150, 1e-150]),
       st.sampled_from([1, 2, 3, MAXIMAL]), st.integers(0, 8), st.integers(0, 2 ** 32))
@example("generic", 1, 2, 3, 1.0, 3, 0, 0)
@example("duplicate", 2, 5, 4, 1e150, MAXIMAL, 2, 1)
@example("collinear", 3, 6, 9, 1e-150, 3, 1, 2)
@example("coplanar", 5, 8, 10, 1e150, 2, 0, 3)
@example("borderline-pair", 2, 6, 20, 1e-150, MAXIMAL, 2, 4)
def test_adversarial_inputs_meet_contracts(geometry, d, n_plus, extra_minus, scale, p,
                                           extra_k, seed):
    # k runs past n_plus - 1, so the clamp leaves p > k_used in many draws
    ds = adversarial_dataset(geometry, d, n_plus, n_plus + 1 + extra_minus, scale, seed)
    k = (1 if p is MAXIMAL else p) + extra_k
    for method in ALL_METHODS:
        cfg = SamplerConfig(method, k=k, p=p, seed=seed)
        first, again = (_outcome(lambda: oversample(ds, cfg)) for _ in range(2))
        if isinstance(first[0], type):
            # a minority with no majority-dominated point is the one declared refusal
            assert first[0] is EmptyBorderlineError and "borderline" in method.value
            assert first == again
            continue
        points, provenance, meta, simplices, lam = first
        assert np.array_equal(points, again[0])
        assert provenance == again[1] and meta == again[2]
        assert np.all(np.isfinite(points))
        if method is Method.GAUSSIAN:
            continue
        batch = SyntheticBatch(points, simplices, lam)
        assert batch.provenance == provenance
        assert reconstruction_error(batch, ds.features) <= 1e-12 * scale
        for pt, pr in list(zip(points, provenance))[:4]:
            assert in_convex_hull(pt / scale, ds.features[list(pr.simplex)] / scale)
