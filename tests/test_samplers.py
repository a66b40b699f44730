import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simbal import (
    Dataset,
    MAXIMAL,
    Method,
    SamplerConfig,
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
from simbal.complexes import SubdivisionCapExceeded
from simbal.evaluation import method_grid
from simbal.samplers import (
    GRAPH_METHODS,
    GRAPH_VARIANTS,
    INVERSE_SAFETY,
    PLUS_ONE_SAFETY,
    POINT_SAMPLERS,
    SampleStreams,
    SamplerParameterError,
    SyntheticBatch,
    _dirichlet_rows,
)
from simbal.geometry import sample_dirichlet
from simbal.variants import EmptyBorderlineError

from helpers import (
    in_convex_hull,
    per_point_oversample,
    random_imbalanced_dataset,
    reconstruction_error,
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


@pytest.mark.parametrize("method", ALL_METHODS)
def test_method_table_drives_dispatch_and_grid(method):
    # GRAPH_VARIANTS is the one place method families live: it decides the
    # dispatch, whether p is forced to 1, and the (k, p) grid
    assert GRAPH_METHODS == set(GRAPH_VARIANTS)
    graph = method in GRAPH_VARIANTS
    assert graph != (method in POINT_SAMPLERS)
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
        assert empty.m == 0 and empty.points.shape == (0, ds.d)

    def test_seeds_differ(self):
        ds = tiny_dataset()
        a = oversample_simplicial(ds, k=3, seed=1)
        b = oversample_simplicial(ds, k=3, seed=2)
        assert not np.array_equal(a.points, b.points)

    def test_augmented_dataset_is_balanced(self):
        ds = tiny_dataset()
        aug = oversample_smote(ds, k=3, seed=0).augmented(ds)
        assert aug.n_minority == aug.n_majority == ds.n_majority


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

    def test_overflowing_fit_is_a_typed_error(self):
        # np.cov of coordinates near 1e155 overflows; the draws used to be all inf
        feats = np.random.Generator(np.random.PCG64(5)).normal(size=(100, 3))
        labels = [1] * 40 + [-1] * 60
        assert np.isfinite(oversample_gaussian(Dataset(feats * 1e150, labels)).points).all()
        with pytest.raises(SamplerParameterError, match="overflows"):
            oversample_gaussian(Dataset(feats * 1e155, labels))

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


class TestStreams:
    def test_point_streams_are_fixed_offsets(self):
        ds = tiny_dataset(seed=21)
        seed = 22
        batch = oversample_simplicial(ds, k=3, p=MAXIMAL, m=6, seed=seed)
        for i, pr in enumerate(batch.provenance):
            lam = sample_dirichlet(np.ones(len(pr.simplex)),
                                   SampleStreams(seed).point_stream(i))
            assert np.array_equal(np.asarray(pr.lam), lam)

    @pytest.mark.parametrize("seed", [0, 22, 2 ** 64 - 1])
    def test_point_streams_match_jumped(self, seed):
        streams = SampleStreams(seed)
        for i, rng in enumerate(streams.point_streams(range(300))):
            assert rng.bit_generator.state == np.random.PCG64(seed).jumped(i + 1).state

    def test_point_streams_follow_given_order(self):
        streams = SampleStreams(5)
        draws = [rng.standard_normal(3) for rng in streams.point_streams([7, 2, 7])]
        assert np.array_equal(draws[0], streams.point_stream(7).standard_normal(3))
        assert np.array_equal(draws[1], streams.point_stream(2).standard_normal(3))
        assert np.array_equal(draws[2], draws[0])

    def test_dirichlet_rows_match_sample_dirichlet(self):
        # small alphas take the boosted path with uniforms; 1e-300 underflows
        # every component and falls back to the simplex centre
        alpha = np.array([[0.3, 2.0, 1.0], [1e-300, 1e-300, 1e-300], [5.0, 0.01, 1.0],
                          [1.0, 1.0, 1.0]])
        streams = SampleStreams(9)
        rows = _dirichlet_rows(alpha, 3, streams.point_streams(range(4)))
        for i in range(4):
            assert np.array_equal(rows[i], sample_dirichlet(alpha[i], streams.point_stream(i)))
        assert rows[1].tolist() == [1 / 3] * 3


def tight_cluster_dataset() -> Dataset:
    """Twelve minority points in a tight cluster: with k=9 its cliques exceed 8 vertices."""
    rng = np.random.Generator(np.random.PCG64(41))
    mino = rng.normal(0.0, 0.01, size=(12, 3))
    maj = rng.normal(2.0, 1.0, size=(60, 3))
    return Dataset(np.vstack([mino, maj]), [1] * 12 + [-1] * 60)


def _outcome(run):
    """A batch's points, provenance and meta, or the error it raised."""
    try:
        batch = run()
    except (ValueError, SubdivisionCapExceeded) as exc:
        return type(exc), str(exc)
    return batch.points, batch.provenance, batch.meta


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


@pytest.mark.parametrize("method", ALL_METHODS)
def test_larger_target_count_extends_the_batch(method):
    # point i is a function of i alone: its selection draw comes i-th on the
    # selection stream and its weights from its own stream
    for seed in range(10):
        ds = random_imbalanced_dataset(seed)
        small, large = (_outcome(lambda: oversample(ds, SamplerConfig(
            method, k=5, seed=seed, target_count=m))) for m in (37, 80))
        if isinstance(small[0], type):
            assert small == large
            continue
        assert small[0].tobytes() == large[0][:37].tobytes()
        assert small[1] == large[1][:37]


@pytest.mark.parametrize("method", [Method.RANDOM, Method.SMOTE, Method.SIMPLICIAL,
                                    Method.SAFELEVEL, Method.S_SAFELEVEL,
                                    Method.ADASYN, Method.S_ADASYN])
def test_lone_vertex_rows_copy_their_vertex(method):
    # vertex 2's nearest minority point is 1, whose own is 0, so the mutual
    # 1-NN graph leaves 2 isolated; its -0.0 coordinates must survive the copy
    mino = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, -0.0, -0.0]]
    maj = [[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [10.0, 11.0, 10.0], [10.0, 10.0, 11.0]]
    ds = Dataset(mino + maj, [1, 1, 1, -1, -1, -1, -1])
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
        points, provenance, meta = first
        assert np.array_equal(points, again[0])
        assert provenance == again[1] and meta == again[2]
        assert np.all(np.isfinite(points))
        if method is Method.GAUSSIAN:
            continue
        batch = SyntheticBatch(points, provenance)
        assert reconstruction_error(batch, ds.features) <= 1e-12 * scale
        for pt, pr in list(zip(points, provenance))[:4]:
            assert in_convex_hull(pt / scale, ds.features[list(pr.simplex)] / scale)
