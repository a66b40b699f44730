import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simbal import (
    MAXIMAL,
    Dataset,
    EmptyBorderlineError,
    Method,
    SamplerConfig,
    adasyn_weights,
    borderline_subset,
    compute_safety,
    oversample,
    oversample_safelevel,
    oversample_simplicial,
    safelevel_alphas,
)
from simbal.graphs import nearest
from simbal.samplers import GRAPH_VARIANTS, SamplerParameterError, _knn_tables, minority_skeleton
from simbal import samplers, variants
from simbal.variants import NeighborhoodSafety

from helpers import (in_convex_hull, nearest_id_sets, random_imbalanced_dataset,
                     reconstruction_error)


def line_dataset(minority_x, majority_x):
    """1-d dataset from coordinate lists; minority rows come first."""
    xs = list(minority_x) + list(majority_x)
    labels = [1] * len(minority_x) + [-1] * len(majority_x)
    return Dataset(np.array(xs, dtype=float).reshape(-1, 1), labels)


def position(safety):
    """Dataset-level minority id -> row in the safety arrays."""
    return {int(v): i for i, v in enumerate(safety.minority_indices)}


def brute_safety_counts(ds, k):
    """Independent neighbor classification by explicit sort."""
    out = {}
    for i in ds.minority_indices():
        ranked = sorted(
            (float(np.linalg.norm(ds.features[i] - ds.features[j])), j)
            for j in range(ds.n) if j != i)
        neigh = [j for _, j in ranked[:k]]
        out[int(i)] = int(np.sum(ds.labels[neigh] == 1))
    return out


class TestComputeSafety:
    def test_all_majority_neighborhood(self):
        ds = line_dataset([0.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        safety = compute_safety(ds, 3)
        assert safety.k_plus.tolist() == [0]
        assert (safety.k_plus / safety.k).tolist() == [0.0]
        assert (safety.k_minus / safety.k).tolist() == [1.0]

    def test_two_of_five_neighbors_minority(self):
        ds = line_dataset([0.0, 1.0, 2.0], [3.0, 4.0, 5.0, 50.0, 51.0, 52.0, 53.0])
        safety = compute_safety(ds, 5)
        pos = position(safety)
        assert safety.k_plus[pos[0]] == 2
        assert safety.k_plus[pos[0]] / safety.k == pytest.approx(0.4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        ds = random_imbalanced_dataset(seed)
        k = min(5, ds.n - 1)
        safety = compute_safety(ds, k)
        brute = brute_safety_counts(ds, k)
        pos = position(safety)
        assert all(safety.k_plus[pos[i]] == brute[i] for i in brute)

    def test_identity_is_exact_in_rationals(self):
        for seed in range(6):
            ds = random_imbalanced_dataset(seed + 30)
            k = min(6, ds.n_minority - 1)
            safety = compute_safety(ds, k)
            for kp, km in zip(safety.k_plus, safety.k_minus):
                assert Fraction(int(kp), k) + Fraction(int(km), k) == 1

    def test_k_too_large(self):
        ds = line_dataset([0.0], [1.0, 2.0])
        with pytest.raises(SamplerParameterError):
            compute_safety(ds, 3)


class TestBorderlineSubset:
    def test_fully_safe_cluster_excluded(self):
        ds = line_dataset([0.0, 0.1, 0.2], [10.0, 11.0, 12.0, 13.0])
        assert borderline_subset(ds, 2) == set()

    def test_pure_noise_excluded(self):
        ds = line_dataset([0.0], [0.3, 0.5, 0.7, 1.0, 2.0])
        assert borderline_subset(ds, 3) == set()

    def test_one_of_five_included(self):
        # each minority point sees the other minority point plus four majority
        # among its 5 nearest: dominated but not pure noise
        ds = line_dataset([0.0, 1.0], [2.0, 2.5, 3.0, 3.5, 40.0, 41.0, 42.0])
        b = borderline_subset(ds, 5)
        assert 0 in b and 1 in b

    def test_exact_half_is_not_borderline(self):
        # 2 of 4 neighbors minority: ratio exactly 1/2, excluded
        ds = line_dataset([0.0, 0.2, 0.4], [0.6, 0.8, 5.0, 5.5, 6.0, 6.5, 7.0])
        safety = compute_safety(ds, 4)
        pos = position(safety)
        assert safety.k_plus[pos[0]] == 2
        assert 0 not in borderline_subset(ds, 4)


class TestSafelevelAlphas:
    def _safety(self, k, k_plus):
        kp = np.array(k_plus)
        return NeighborhoodSafety(np.arange(len(k_plus)), k, kp, k - kp)

    def test_fully_safe_gives_uniform(self):
        safety = self._safety(4, [4, 4, 4])
        assert safelevel_alphas(safety, (0, 1, 2)).tolist() == [1.0, 1.0, 1.0]

    def test_inverse_formula_direction(self):
        # ratios (1, 0.5) -> alphas (1, 2): more Dirichlet mass toward the
        # vertex with the LOWER minority ratio
        safety = self._safety(4, [4, 2])
        assert safelevel_alphas(safety, (0, 1)).tolist() == [1.0, 2.0]

    def test_zero_ratio_clamps_to_k(self):
        safety = self._safety(5, [0, 5])
        assert safelevel_alphas(safety, (0, 1)).tolist() == [5.0, 1.0]

    def test_plus_one_formula(self):
        safety = self._safety(4, [4, 2, 0])
        out = safelevel_alphas(safety, (0, 1, 2), formula="plus-one")
        assert out.tolist() == [2.0, 1.5, 1.0]

    def test_unknown_formula(self):
        with pytest.raises(SamplerParameterError):
            safelevel_alphas(self._safety(2, [1]), (0,), formula="squared")

    def test_empty_neighborhood_is_rejected(self):
        # k = 0 with all-zero counts would give alpha = 0 (inverse) or NaN (plus-one)
        with pytest.raises(SamplerParameterError, match=r"need k >= 1 \(got 0\)"):
            safelevel_alphas(NeighborhoodSafety(np.arange(2), 0, [0, 0], [0, 0]), (0, 1))

    @given(st.integers(1, 10 ** 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k), min_size=1, max_size=20))))
    def test_alphas_are_never_below_one(self, case):
        # the sampler draws Gamma(alpha) directly, with no small-shape boost (only
        # sample_dirichlet boosts alpha < 1), so alpha >= 1 keeps its draws off zero
        k, k_plus = case
        safety = self._safety(k, k_plus)
        for formula in ("inverse", "plus-one"):
            assert safelevel_alphas(safety, range(len(k_plus)), formula=formula).min() >= 1.0


class TestAdasynWeights:
    def _safety(self, k, k_minus):
        km = np.array(k_minus)
        return NeighborhoodSafety(np.arange(len(k_minus)), k, k - km, km)

    def test_two_edges_normalized(self):
        # mean majority ratios 0.2 and 0.6 -> probabilities 0.25 and 0.75
        safety = self._safety(5, [1, 1, 3, 3])
        w = adasyn_weights(safety, [(0, 1), (2, 3)])
        assert np.allclose(w, [0.25, 0.75])

    def test_all_safe_uniform_fallback(self):
        safety = self._safety(5, [0, 0, 0])
        w = adasyn_weights(safety, [(0, 1), (1, 2), (0, 2)])
        assert np.allclose(w, 1.0 / 3.0)

    def test_sums_to_one_nonnegative(self):
        safety = self._safety(4, [0, 1, 2, 3, 4])
        w = adasyn_weights(safety, [(0, 1), (2,), (3, 4), (1, 2, 3)])
        assert w.min() >= 0 and w.sum() == pytest.approx(1.0)

    def test_scale_consistent(self):
        # same ratios expressed at k=4 and k=8 give identical probabilities
        small = self._safety(4, [1, 2, 3])
        large = self._safety(8, [2, 4, 6])
        simplices = [(0, 1), (1, 2)]
        assert np.allclose(adasyn_weights(small, simplices),
                           adasyn_weights(large, simplices))

    def test_empty_simplices(self):
        with pytest.raises(SamplerParameterError):
            adasyn_weights(self._safety(2, [1]), [])

    def test_rows_follow_dataset_ids(self):
        # minority ids 0, 2, 5: simplex means 2.5/4 and 1/4
        safety = NeighborhoodSafety(np.array([0, 2, 5]), 4, np.array([3, 1, 2]),
                                    np.array([1, 3, 2]))
        w = adasyn_weights(safety, [(2, 5), (0,)])
        assert w.tolist() == [(2.5 / 4) / (3.5 / 4), (1 / 4) / (3.5 / 4)]

    @pytest.mark.parametrize("vertex", [1, 3, 9, -1])
    def test_non_minority_vertex_is_a_typed_error(self, vertex):
        # the same check as safelevel_alphas, not a bare KeyError
        safety = NeighborhoodSafety(np.array([0, 2, 5]), 4, np.array([3, 1, 2]),
                                    np.array([1, 3, 2]))
        for fn in (adasyn_weights, safelevel_alphas):
            with pytest.raises(SamplerParameterError, match="minority vertex ids"):
                fn(safety, [(0, vertex)])


def borderline_triangle_dataset():
    """One borderline minority point whose neighborhood holds two safe
    minority points; the support complex is exactly their triangle."""
    minority = np.array([
        [0.0, 0.0],    # 0: borderline probe
        [2.0, 0.05],   # 1: safe cluster
        [2.0, -0.05],  # 2: safe cluster
        [2.2, 0.0],    # 3: safe cluster
        [2.25, 0.1],   # 4: safe cluster
        [2.3, -0.1],   # 5: safe cluster
    ])
    majority = np.vstack([
        np.array([[-0.3, 0.0], [-0.35, 0.1], [-0.3, -0.1]]),  # crowd the probe
        np.array([[-8.0, 6.0], [-8.5, 6.0], [-9.0, 6.0], [-8.0, 7.0],
                  [-9.0, 7.0], [-8.5, 7.5], [-9.5, 6.5]]),
    ])
    feats = np.vstack([minority, majority])
    labels = [1] * 6 + [-1] * len(majority)
    return Dataset(feats, labels)


class TestBorderlineSampler:
    def test_error_when_no_borderline_points(self):
        ds = line_dataset([0.0, 0.1, 0.2, 0.3], [9.0, 9.5, 10.0, 10.5, 11.0])
        with pytest.raises(EmptyBorderlineError, match="plain"):
            oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=3, seed=0))

    def test_probe_configuration_samples_inside_triangle(self):
        ds = borderline_triangle_dataset()
        border = borderline_subset(ds, 5)
        assert border == {0}
        batch = oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=5, p=2, target_count=60,
                                                seed=1))
        tri = ds.features[[0, 1, 2]]
        assert all(in_convex_hull(p, tri) for p in batch.points)
        assert all(0 in pr.simplex for pr in batch.provenance)

    @pytest.mark.parametrize("seed", range(6))
    def test_provenance_always_touches_borderline(self, seed):
        ds = random_imbalanced_dataset(seed + 60)
        k = min(5, ds.n_minority - 1)
        border = borderline_subset(ds, k)
        batch = oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=k, p=2, seed=seed))
        assert batch.meta["borderline"] == tuple(sorted(border))
        assert all(any(v in border for v in pr.simplex) for pr in batch.provenance)
        assert reconstruction_error(batch, ds.features) <= 1e-9

    def test_graph_mode_uses_edges(self):
        ds = random_imbalanced_dataset(61)
        k = min(5, ds.n_minority - 1)
        batch = oversample(ds, SamplerConfig(Method.BORDERLINE, k=k, target_count=30, seed=2))
        assert all(len(pr.simplex) <= 2 for pr in batch.provenance)

    def test_deterministic(self):
        ds = random_imbalanced_dataset(62)
        k = min(4, ds.n_minority - 1)
        a = oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=k, p=2, seed=3))
        b = oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=k, p=2, seed=3))
        assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("method", ["s_borderline", "s_safelevel", "s_adasyn"])
def test_peak_memory_below_one_distance_matrix(method):
    # safety counts search minority x all rows in blocks, so neither they nor
    # a whole run ever hold an n x n float64 matrix (72 MB at n = 3000)
    rng = np.random.Generator(np.random.PCG64(0))
    n, n_plus = 3000, 30
    ds = Dataset(np.vstack([rng.normal(0.5, 1.0, size=(n_plus, 2)),
                            rng.normal(0.0, 1.0, size=(n - n_plus, 2))]),
                 [1] * n_plus + [-1] * (n - n_plus))
    tracemalloc.start()
    try:
        compute_safety(ds, 5)
        oversample(ds, SamplerConfig(Method(method), k=5, seed=0, target_count=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def fully_safe_dataset(seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    mino = rng.normal(0, 0.2, size=(8, 2))
    maj = rng.normal(8, 0.5, size=(20, 2))
    return Dataset(np.vstack([mino, maj]), [1] * 8 + [-1] * 20)


class TestSafelevelSampler:
    def test_fully_safe_matches_plain_sampler_exactly(self):
        ds = fully_safe_dataset()
        a = oversample_safelevel(ds, k=3, p=2, seed=4)
        b = oversample_simplicial(ds, k=3, p=2, seed=4)
        assert np.array_equal(a.points, b.points)

    def test_lambda_skews_toward_low_safety_vertex(self):
        # one crowded minority point and a safe pair, all forming a single
        # triangle: alphas (2, 1, 1) pull lambda mass toward the crowded vertex
        minority = np.array([[0.0, 0.0], [2.0, 0.0], [2.2, 0.0]])
        majority = np.vstack([
            np.array([[-0.3, 0.2], [-0.3, -0.2], [0.0, 0.35], [0.0, -0.35]]),
            np.array([[6.0, 5.0], [5.5, 5.0], [6.5, 5.0]]),
        ])
        ds = Dataset(np.vstack([minority, majority]), [1, 1, 1] + [-1] * 7)
        safety = compute_safety(ds, 2)
        pos = position(safety)
        assert safety.k_plus[pos[0]] == 0
        assert safety.k_plus[pos[1]] == 2 and safety.k_plus[pos[2]] == 2
        alphas = safelevel_alphas(safety, (0, 1, 2))
        assert alphas.tolist() == [2.0, 1.0, 1.0]
        batch = oversample_safelevel(ds, k=2, m=6_000, seed=5)
        assert {pr.simplex for pr in batch.provenance} == {(0, 1, 2)}
        lam = np.array([pr.lam for pr in batch.provenance])
        # Dirichlet(2, 1, 1) has mean (1/2, 1/4, 1/4)
        assert np.allclose(lam.mean(axis=0), [0.5, 0.25, 0.25], atol=0.02)

    def test_plus_one_formula_changes_draws(self):
        ds = random_imbalanced_dataset(63)
        k = min(4, ds.n_minority - 1)
        a = oversample_safelevel(ds, k=k, seed=6, formula="inverse")
        b = oversample_safelevel(ds, k=k, seed=6, formula="plus-one")
        assert a.meta["formula"] == "inverse" and b.meta["formula"] == "plus-one"

    def test_empirical_lambda_mean_matches_alphas(self):
        # per-simplex lambda means must follow that simplex's own alphas,
        # which also catches vertex/alpha misalignment
        ds = random_imbalanced_dataset(64)
        k = min(4, ds.n_minority - 1)
        batch = oversample_safelevel(ds, k=k, p=2, m=40_000, seed=7)
        safety = compute_safety(ds, batch.meta["k_used"])
        by_simplex = {}
        for pr in batch.provenance:
            by_simplex.setdefault(pr.simplex, []).append(pr.lam)
        top = max(by_simplex, key=lambda s: len(by_simplex[s]))
        lams = np.array(by_simplex[top])
        alphas = safelevel_alphas(safety, top)
        expect = alphas / alphas.sum()
        se = np.sqrt(expect * (1 - expect) / len(lams))
        assert np.all(np.abs(lams.mean(axis=0) - expect) <= 4 * se + 5e-3)


class TestAdasynSampler:
    def test_selection_frequencies_follow_weights(self):
        ds = random_imbalanced_dataset(65)
        k = min(4, ds.n_minority - 1)
        batch = oversample(ds, SamplerConfig(Method.S_ADASYN, k=k, p=2, target_count=20_000,
                                           seed=8))
        safety = compute_safety(ds, batch.meta["k_used"])
        sk, idx_min, _ = minority_skeleton(ds, k, 2)
        all_sorted = sorted(tuple(int(idx_min[v]) for v in s) for s in sk.maximal_simplices)
        weights = adasyn_weights(safety, all_sorted)
        counts = {s: 0 for s in all_sorted}
        for pr in batch.provenance:
            counts[pr.simplex] += 1
        for s, w in zip(all_sorted, weights):
            se = np.sqrt(w * (1 - w) / batch.m)
            assert abs(counts[s] / batch.m - w) <= 4 * se + 1e-3

    def test_fully_safe_reduces_to_uniform_selection(self):
        ds = fully_safe_dataset(seed=1)
        a = oversample(ds, SamplerConfig(Method.S_ADASYN, k=3, p=2, seed=9))
        b = oversample_simplicial(ds, k=3, p=2, seed=9)
        # uniform weights use a different draw call, so points differ, but
        # contracts hold and the weight vector itself is flat
        safety = compute_safety(ds, a.meta["k_used"])
        sk, idx_min, _ = minority_skeleton(ds, 3, 2)
        simplices = sorted(tuple(int(idx_min[v]) for v in s) for s in sk.maximal_simplices)
        assert np.allclose(adasyn_weights(safety, simplices), 1.0 / len(simplices))
        assert a.m == b.m

    def test_graph_mode_uses_edges(self):
        ds = random_imbalanced_dataset(66)
        k = min(5, ds.n_minority - 1)
        batch = oversample(ds, SamplerConfig(Method.ADASYN, k=k, target_count=25, seed=10))
        assert all(len(pr.simplex) <= 2 for pr in batch.provenance)


class TestSinglePointFallbacks:
    def test_safelevel_and_adasyn_duplicate(self):
        ds = Dataset([[1.0, 2.0], [0.0, 0.0], [3.0, 3.0]], [1, -1, -1])
        for method in (Method.S_SAFELEVEL, Method.S_ADASYN):
            batch = oversample(ds, SamplerConfig(method, k=2, seed=0))
            assert np.array_equal(batch.points, [[1.0, 2.0]])
            assert "warnings" in batch.meta

    def test_borderline_raises(self):
        ds = Dataset([[1.0, 2.0], [0.0, 0.0], [3.0, 3.0]], [1, -1, -1])
        with pytest.raises(EmptyBorderlineError):
            oversample(ds, SamplerConfig(Method.S_BORDERLINE, k=2, seed=0))


def neighbor_list_datasets() -> dict[str, Dataset]:
    """Two-class sets over the ``nearest_id_sets()`` rows, whose first rows are the
    minority, plus a lattice minority with every point twice (distance ties
    everywhere, broken by index) and a 4-point minority that clamps k at 3."""
    sets = {}
    for i, (ref, n_query) in enumerate(nearest_id_sets()):
        n_plus = min(n_query, len(ref) // 4)
        sets[f"nearest-{i}"] = Dataset(ref, [1] * n_plus + [-1] * (len(ref) - n_plus))
    lattice = np.array([[x, y] for x in range(3) for y in range(3)] * 2, dtype=float)
    majority = np.array([[x + 0.5, y + 0.5] for x in range(4) for y in range(4)])
    sets["lattice-twice"] = Dataset(np.vstack([lattice, majority]), [1] * 18 + [-1] * 16)
    sets["four-points"] = Dataset(np.vstack([lattice[:4], majority]), [1] * 4 + [-1] * 16)
    return sets


WHOLE_MINORITY = [m for m, (variant, _) in GRAPH_VARIANTS.items() if variant != "borderline"]


@pytest.mark.parametrize("symmetrize", ["union", "mutual"])
@pytest.mark.parametrize("name", list(neighbor_list_datasets()))
def test_neighbor_lists_stand_in_for_the_search(name, symmetrize):
    # the grid search ranks a split's minority once at its largest k, K, builds
    # the edge and clique tables of every k <= K from those lists and hands
    # them over; every k and p must sample exactly as oversample does
    ds = neighbor_list_datasets()[name]
    x = ds.minority_features()
    big_k = min(5, len(x) - 1)
    lists = nearest(x, x, big_k, np.arange(len(x)))
    tables = {p: _knn_tables(lists, range(1, big_k + 1), symmetrize, p) for p in (1, MAXIMAL)}
    for method in WHOLE_MINORITY:
        for k, p in product(range(1, 6), (1,) if GRAPH_VARIANTS[method][1] else (1, 2, MAXIMAL)):
            if p is not MAXIMAL and p > k:
                continue
            cfg = SamplerConfig(method, k, p, seed=k, target_count=40, symmetrize=symmetrize)
            want = oversample(ds, cfg)
            got = samplers._batch(ds.features, *variants._draw(ds, cfg, tables))
            assert np.array_equal(got.points, want.points), (method, k, p)
            assert np.array_equal(got.simplices, want.simplices), (method, k, p)
            assert np.array_equal(got.lam, want.lam), (method, k, p)
            assert got.meta == want.meta, (method, k, p)


SAFETY_AWARE = [m for m, (variant, _) in GRAPH_VARIANTS.items() if variant is not None]


@pytest.mark.parametrize("name", list(neighbor_list_datasets()))
def test_safety_at_k_is_the_prefix_of_safety_at_a_larger_k(name):
    # (distance, index) order makes the k-search the first k columns of any
    # larger one, ties included, so a CV split can rank its minority once
    ds = neighbor_list_datasets()[name]
    big_k = min(8, ds.n - 1)
    full = compute_safety(ds, big_k)
    assert full.neighbors.shape == (ds.n_minority, big_k)
    for k in range(1, big_k + 1):
        safety, prefix = compute_safety(ds, k), full.neighbors[:, :k]
        assert np.array_equal(safety.neighbors, prefix), k
        assert np.array_equal(safety.minority_indices, full.minority_indices), k
        assert np.array_equal(safety.k_plus, (ds.labels[prefix] == 1).sum(axis=1)), k
        assert np.array_equal(safety.k_minus, k - safety.k_plus), k


def _outcome(run):
    """A draw's points, simplices, weights and meta, or the borderline error it raised."""
    try:
        batch = run()
    except EmptyBorderlineError as exc:
        return repr(exc)
    return (batch.points.tobytes(), np.asarray(batch.simplices).tobytes(), batch.lam.tobytes(),
            repr(batch.meta))


@pytest.mark.parametrize("symmetrize", ["union", "mutual"])
@pytest.mark.parametrize("name", list(neighbor_list_datasets()))
def test_ranked_lists_stand_in_for_the_safety_search(monkeypatch, name, symmetrize):
    # the grid search also hands over one safety ranking at its largest k; each
    # safety-aware draw counts over its first k columns, searches nothing, and
    # samples, or raises, exactly as oversample does
    ds = neighbor_list_datasets()[name]
    x = ds.minority_features()
    big_k = min(5, len(x) - 1)
    lists = nearest(x, x, big_k, np.arange(len(x)))
    tables = {p: _knn_tables(lists, range(1, big_k + 1), symmetrize, p) for p in (1, MAXIMAL)}
    tables[variants._RANKED] = compute_safety(ds, big_k).neighbors
    searches, search = [], variants.nearest
    monkeypatch.setattr(variants, "nearest", lambda *args: searches.append(args) or search(*args))
    for method in SAFETY_AWARE:
        for k, p in product(range(1, 6), (1,) if GRAPH_VARIANTS[method][1] else (1, 2, MAXIMAL)):
            if p is not MAXIMAL and p > k:
                continue
            cfg = SamplerConfig(method, k, p, seed=k, target_count=40, symmetrize=symmetrize)
            want = _outcome(lambda: oversample(ds, cfg))
            before = len(searches)
            got = _outcome(lambda: samplers._batch(ds.features, *variants._draw(ds, cfg, tables)))
            assert len(searches) == before, (method, k, p)
            assert got == want, (method, k, p)
    assert searches  # oversample itself searched
