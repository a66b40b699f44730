import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import MUTUAL, UNION, Dataset, distance_to_simplex, graphs, knn_graph, pairwise_distances
from simbal.datasets import DatasetError
from simbal.graphs import GraphParameterError, NeighborhoodGraph, cross_distances, nearest

from helpers import adjacency, nearest_id_digests, nearest_id_sets


def brute_knn_edges(pts, k, symmetrize):
    """Directed k-nearest via explicit (distance, index) sort, then merge."""
    n = len(pts)
    directed = set()
    for u in range(n):
        ranked = sorted((float(np.linalg.norm(pts[u] - pts[v])), v)
                        for v in range(n) if v != u)
        for _, v in ranked[:k]:
            directed.add((u, v))
    if symmetrize == UNION:
        return {(min(u, v), max(u, v)) for u, v in directed}
    return {(u, v) for u, v in directed if u < v and (v, u) in directed}


def random_points(seed, n=None, d=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    n = n or int(rng.integers(3, 25))
    d = d or int(rng.integers(1, 6))
    return rng.normal(size=(n, d))


class TestPairwiseDistances:
    def test_matches_norm_loop(self):
        pts = random_points(0, n=12, d=3)
        dist = pairwise_distances(pts)
        for i in range(12):
            for j in range(12):
                assert dist[i, j] == pytest.approx(np.linalg.norm(pts[i] - pts[j]), abs=1e-12)

    def test_exactly_symmetric_zero_diagonal(self):
        pts = random_points(1, n=40, d=4)
        dist = pairwise_distances(pts)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)

    def test_one_dimensional_input_treated_as_column(self):
        dist = pairwise_distances([0.0, 3.0, 7.0])
        assert dist[0, 1] == 3.0 and dist[1, 2] == 4.0

    def test_rejects_nan(self):
        with pytest.raises(GraphParameterError):
            pairwise_distances([[0.0, np.nan]])


class TestCrossDistances:
    def test_matches_pairwise_on_same_set(self):
        pts = random_points(2, n=15, d=3)
        assert np.allclose(cross_distances(pts, pts), pairwise_distances(pts), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(GraphParameterError):
            cross_distances(np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("call, error", [
    (lambda: Dataset([[0.0], [1.0, 2.0]], [1, -1]), DatasetError),
    (lambda: Dataset([["a"], ["b"]], [1, -1]), DatasetError),
    (lambda: distance_to_simplex("ab", [[0, 0]]), GraphParameterError),
], ids=["ragged-dataset", "string-dataset", "string-point"])
def test_ragged_or_non_numeric_points_are_typed_errors(call, error):
    # every entry that takes points converts them inside the typed check; a
    # Dataset raises its own error type with the check's message
    with pytest.raises(error, match="numeric"):
        call()


def brute_nearest(query, ref, k, self_ids=None):
    """k nearest ref rows per query row by an explicit sorted((distance, index))."""
    dist = cross_distances(query, ref)
    rows = []
    for i in range(len(query)):
        skip = None if self_ids is None else self_ids[i]
        ranked = sorted((float(dist[i, j]), j) for j in range(len(ref)) if j != skip)
        rows.append([j for _, j in ranked[:k]])
    return np.array(rows, dtype=int).reshape(len(query), k)


def tie_heavy_points(rng, kind, n, d):
    """Gaussian, small integer grid, rows drawn from a few base points, or a
    set that breaks the Gram identity: unit noise on a 1e8 offset, shells of
    radius 1 +- a few ulps around the first row, or per-row magnitudes 10^+-8."""
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "offset":
        return 1e8 + rng.normal(size=(n, d))
    if kind == "shells":
        unit = rng.normal(size=(n, d))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        centre = 3.0 * rng.normal(size=d)
        pts = centre + unit * (1.0 + rng.integers(-3, 4, size=(n, 1)) * 2.0**-52)
        pts[0] = centre
        return pts
    if kind == "mixed":
        return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(n, 1))
    base = rng.normal(size=(max(1, n // 4), d))
    return base[rng.integers(0, len(base), size=n)]


class TestNearest:
    def test_more_tied_copies_than_k_plus_one(self):
        # six copies of one point: the last copy's self lies beyond its first
        # k+1 = 3 candidates, so nothing is dropped but the overflow column
        pts = np.vstack([np.zeros((6, 2)), [[1.0, 0.0], [2.0, 0.0]]])
        got = nearest(pts, pts, 2, np.arange(8))
        assert got[5].tolist() == [0, 1] and got[0].tolist() == [1, 2]
        assert np.array_equal(got, brute_nearest(pts, pts, 2, np.arange(8)))

    def test_overflowing_distances_order_by_index(self):
        # squared differences overflow, so every off-diagonal distance is inf
        pts = np.arange(4.0).reshape(-1, 1) * 1e155
        assert np.all(np.isinf(pairwise_distances(pts)[~np.eye(4, dtype=bool)]))
        got = nearest(pts, pts, 3, np.arange(4))
        assert got.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        assert nearest(pts[2:3], pts, 2, [2]).tolist() == [[0, 1]]

    def test_overflowing_difference_ranks_last_without_a_warning(self):
        # 1e308 - (-1e308) overflows to inf. The tier-1 settings turn a
        # RuntimeWarning into an error, so these calls also check that none
        # escapes. Against 0.0 the square overflows as well: two inf
        # distances, and the tie goes to the lower id
        assert nearest([[1e308]], [[-1e308], [1e308]], 1).tolist() == [[1]]
        assert nearest([[1e308]], [[-1e308], [0.0]], 1).tolist() == [[0]]
        assert cross_distances([[1e308]], [[-1e308], [1e308]]).tolist() == [[np.inf, 0.0]]
        assert np.isinf(cross_distances([[1e308]], [[-1e308], [0.0]])).all()

    def test_two_points_one_dimension(self):
        assert nearest([0.0, 1.0], [0.0, 1.0], 1, [0, 1]).tolist() == [[1], [0]]
        assert nearest([0.4], [0.0, 1.0], 2).tolist() == [[0, 1]]

    def test_k_out_of_range(self):
        pts = random_points(8, n=5, d=2)
        nearest(pts, pts, 5)
        for k, self_ids in ((0, None), (6, None), (5, np.arange(5))):
            with pytest.raises(GraphParameterError):
                nearest(pts, pts, k, self_ids)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphParameterError):
            nearest(np.zeros((2, 2)), np.zeros((3, 3)), 1)

    def test_one_self_id_per_query_row(self):
        pts = random_points(9, n=5, d=2)
        for self_ids in ([0], np.arange(4), np.arange(6), [[0, 1, 2, 3, 4]], [[0, 1], [2, 3, 4]]):
            with pytest.raises(GraphParameterError):
                nearest(pts, pts, 2, self_ids)

    def test_self_ids_are_reference_rows(self):
        # a self id of 0.5 matches no column, so row 0 would keep itself
        pts = random_points(9, n=3, d=2)
        for self_ids in ([0.5, 1.0, 2.0], [5, 6, 7], [-1, 0, 1], [True, False, True]):
            with pytest.raises(GraphParameterError, match="self ids"):
                nearest(pts, pts, 1, self_ids)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gaussian", "grid", "dup", "offset", "shells", "mixed"]),
       mode=st.sampled_from(["self", "subset", "cross"]),
       n=st.integers(2, 30) | st.sampled_from([60, 120]),
       d=st.integers(1, 4) | st.sampled_from([16, 32]),
       scale=st.sampled_from([1.0, 1e150, 1e-150, 1e155, 1e-160]),
       block_elems=st.sampled_from([1, 7, 64, graphs._BLOCK_ELEMS]),
       filter_elems=st.sampled_from([1, 7, 64, graphs._FILTER_ELEMS]),
       fold=st.sampled_from([1, 7, graphs._FOLD]), data=st.data())
def test_nearest_matches_sorted_oracle(seed, kind, mode, n, d, scale, block_elems,
                                       filter_elems, fold, data):
    # self excluded over the whole set (the kNN graph), over a subset of query
    # rows (the safety counts), or a separate query set with no exclusion (the
    # classifier); small block sizes split the rows across several blocks, the
    # filter's sub-blocks split those unevenly, and n up to 120 leaves
    # k + 1 < n, so the Gram filter selects within a row; a small fold
    # constant folds rows of these sizes into 4 (k + 1) column classes or fewer
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = tie_heavy_points(rng, kind, n, d) * scale
    self_ids = None
    if mode == "self":
        query, self_ids = ref, np.arange(n)
    elif mode == "subset":
        self_ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        query = ref[self_ids]
    else:
        query = np.vstack([tie_heavy_points(rng, kind, int(rng.integers(1, 10)), d) * scale,
                           ref[:1]])
    k = data.draw(st.integers(1, n - (self_ids is not None)))
    with mock.patch.object(graphs, "_BLOCK_ELEMS", block_elems), \
            mock.patch.object(graphs, "_FILTER_ELEMS", filter_elems), \
            mock.patch.object(graphs, "_FOLD", fold):
        got = nearest(query, ref, k, self_ids)
    assert np.array_equal(got, brute_nearest(query, ref, k, self_ids))


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("skip", [False, True])
@pytest.mark.parametrize("periods, extra", [(1, -1), (1, 0), (1, 1), (2, -1), (3, 2)])
def test_fold_of_a_periodic_reference(k, skip, periods, extra):
    # the fold constant below k leaves the fold width at w = 4 (k + skip) (a
    # reference of w - 1 rows is not folded); the reference repeats w base
    # points on a small grid, so every copy of a base point falls in one
    # column class, and the rest of a row's first k, ties included, in the
    # classes of the next nearest base points
    kk = k + skip
    w = 4 * kk
    n_ref = periods * w + extra
    rng = np.random.Generator(np.random.PCG64(kk * 100 + n_ref))
    base = rng.integers(0, 4, size=(w, 2)).astype(float)
    ref = base[np.arange(n_ref) % w]
    if skip:
        query, self_ids = ref, np.arange(n_ref)
    else:
        query, self_ids = np.vstack([base, base + rng.normal(0.0, 0.1, size=base.shape)]), None
    with mock.patch.object(graphs, "_FOLD", 1):
        got = nearest(query, ref, k, self_ids)
    assert np.array_equal(got, brute_nearest(query, ref, k, self_ids))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gaussian", "grid", "dup", "offset", "shells", "mixed"]),
       n_shared=st.integers(1, 30) | st.just(120),
       sizes=st.lists(st.integers(0, 25), min_size=1, max_size=5),
       d=st.integers(1, 4) | st.just(16),
       scale=st.sampled_from([1.0, 1e150, 1e-150, 1e155, 1e-160]),
       k=st.integers(1, 8),
       block_elems=st.sampled_from([1, 64, graphs._BLOCK_ELEMS]),
       filter_elems=st.sampled_from([1, 64, graphs._FILTER_ELEMS]),
       fold=st.sampled_from([1, graphs._FOLD]))
def test_grouped_nearest_matches_each_reference(seed, kind, n_shared, sizes, d, scale, k,
                                                block_elems, filter_elems, fold):
    # reference c is the shared rows plus group c; a group row is a fresh
    # point or an exact copy of a shared row (random oversampling's rows).
    # With fewer than k shared rows the filter must keep every pair, and k_c
    # differs between groups
    rng = np.random.Generator(np.random.PCG64(seed))
    shared = tie_heavy_points(rng, kind, n_shared, d) * scale
    groups = []
    for size in sizes:
        copies = int(rng.integers(0, size + 1))
        rows = [shared[rng.integers(0, n_shared, size=copies)]]
        if size > copies:
            rows.append(tie_heavy_points(rng, kind, size - copies, d) * scale)
        groups.append(np.vstack(rows)[rng.permutation(size)])
    query = np.vstack([tie_heavy_points(rng, kind, int(rng.integers(1, 10)), d) * scale,
                       shared[:1], *(g[:1] for g in groups)])
    with mock.patch.object(graphs, "_BLOCK_ELEMS", block_elems), \
            mock.patch.object(graphs, "_FILTER_ELEMS", filter_elems), \
            mock.patch.object(graphs, "_FOLD", fold):
        got = graphs._search(query, np.vstack([shared, *groups]), k, n_shared, sizes)
    assert len(got) == len(sizes)
    offset = n_shared
    for group, ids in zip(groups, got):
        want = brute_nearest(query, np.vstack([shared, group]), min(k, n_shared + len(group)))
        assert np.array_equal(ids, np.where(want < n_shared, want, want + offset - n_shared))
        offset += len(group)


def test_filter_thresholds_on_the_columns_every_reference_holds():
    # nearest and a lone group take the threshold from all their columns, as
    # tight as one reference allows; several groups from the shared rows alone
    rng = np.random.Generator(np.random.PCG64(14))
    shared, groups = rng.normal(size=(40, 3)), [rng.normal(size=(m, 3)) for m in (7, 0, 12)]
    query = rng.normal(size=(9, 3))
    n_thr, candidates = [], graphs._candidates

    def recorded(q, r, qn, rn, kk, thr):
        n_thr.append(thr)
        return candidates(q, r, qn, rn, kk, thr)

    with mock.patch.object(graphs, "_candidates", recorded):
        nearest(query, shared, 5)
        nearest(shared, shared, 5, np.arange(40))
        graphs._search(query, np.vstack([shared, groups[0]]), 5, 40, [7])
        graphs._search(query, np.vstack([shared, *groups]), 5, 40, [7, 0, 12])
    assert n_thr == [40, 40, 47, 40]


def test_rerank_orders_rows_of_uneven_length():
    # rows of 4, 2 and 3 candidates: ties at distance 1 and 0.5 keep the lower
    # column, and row 1's two distances, whose squares overflow to inf, come
    # before the inf pads of its table row
    q = np.array([[0.0], [1e200], [0.5]])
    r = np.array([[0.0], [1.0], [-1.0], [1.0], [-1e200], [1e200], [-9e199]])
    rows = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2])
    cols = np.array([1, 2, 3, 6, 4, 6, 0, 1, 3])
    assert np.isinf(cross_distances(q[1:2], r[[4, 6]])).all()
    got = graphs._rerank(q, r, rows, cols, 2)
    assert got.tolist() == [[1, 2], [4, 6], [0, 1]]


@pytest.mark.parametrize("block_elems", [None, 90], ids=["one-chunk", "chunked"])
def test_rerank_matches_a_sorted_oracle_on_ragged_rows(block_elems):
    # 1-80 candidates per row (the grid classifier's widest virtual rows hold
    # 77): each row's distances are put into its own table row, so its first
    # ids must be the per-row sorted((distance, column)) ones. The reference
    # repeats its points, so distances tie exactly; the far rows' squared
    # differences overflow, and their inf distances rank by column, before
    # the inf pads of a row shorter than kk
    rng = np.random.Generator(np.random.PCG64(29))
    r = np.repeat(rng.normal(size=(30, 3)), 3, axis=0)
    r[::11] *= 1e200
    q = rng.normal(size=(40, 3))
    q[::7] *= 1e200
    sizes = np.concatenate([[1, 80, 77, 2], rng.integers(1, 81, size=36)])
    cols = [np.sort(rng.choice(len(r), n, replace=False)) for n in sizes]
    rows = np.repeat(np.arange(len(q)), sizes)
    kk = 20
    with mock.patch.object(graphs, "_BLOCK_ELEMS", block_elems or graphs._BLOCK_ELEMS):
        got = graphs._rerank(q, r, rows, np.concatenate(cols), kk)
    n_inf = n_tied = 0
    for i, row_cols in enumerate(cols):
        with np.errstate(over="ignore"):
            dist = np.sqrt(graphs._sq_norms(q[i] - r[row_cols]))
        finite = dist[np.isfinite(dist)]
        n_inf += dist.size - finite.size
        n_tied += finite.size - np.unique(finite).size
        want = [c for _, c in sorted(zip(dist.tolist(), row_cols.tolist()))][:kk]
        assert got[i, :len(want)].tolist() == want, i
    assert n_inf > kk and n_tied > kk and min(sizes) < kk


@pytest.mark.parametrize("kind", ["dup", "grid", "copies"])
def test_first_k_ids_do_not_depend_on_k(kind):
    # the prefix rule: with self skipped, the first k ids at any K >= k are
    # the ids at k. Tied copies at distance 0 rank by index, so a later
    # copy's self lies past its first k+1 candidates
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(seed))
        if kind == "copies":
            pts = np.repeat(rng.normal(size=(5, 2)), rng.integers(1, 9, size=5), axis=0)
        else:
            pts = tie_heavy_points(rng, kind, 40, 2)
        n, ids = len(pts), np.arange(len(pts))
        self_rank = (nearest(pts, pts, n) == ids[:, None]).argmax(axis=1)
        assert self_rank.max() >= 3
        widest = nearest(pts, pts, n - 1, ids)
        for k in range(1, n):
            assert np.array_equal(widest[:, :k], nearest(pts, pts, k, ids))


class TestNearestPath:
    def test_gaussian_input_never_takes_the_exact_path(self):
        pts = random_points(10, n=200, d=8)
        with mock.patch.object(graphs, "_every_pair", wraps=graphs._every_pair) as exact:
            got = nearest(pts, pts, 5, np.arange(200))
        assert exact.call_count == 0
        assert np.array_equal(got, brute_nearest(pts, pts, 5, np.arange(200)))

    def test_overflowing_norms_always_take_the_exact_path(self):
        # squared norms are inf at x1e155, so every block re-ranks every pair
        pts = random_points(11, n=200, d=8) * 1e155
        with mock.patch.object(graphs, "_BLOCK_ELEMS", 200 * 50), \
                mock.patch.object(graphs, "_every_pair", wraps=graphs._every_pair) as exact:
            got = nearest(pts, pts, 5, np.arange(200))
        assert exact.call_count == 200 // 50
        assert np.array_equal(got, brute_nearest(pts, pts, 5, np.arange(200)))

    def test_all_tied_rows_stay_under_one_distance_matrix(self):
        # every pair ties, so the filter keeps all of them; the re-rank still
        # gathers them in chunks of _BLOCK_ELEMS elements
        n, d = 1000, 16
        pts = np.ones((n, d))
        kept, candidates = [], graphs._candidates

        def counted(*args):
            pairs = candidates(*args)
            kept.append(pairs.size)
            return pairs

        with mock.patch.object(graphs, "_BLOCK_ELEMS", 50_000), \
                mock.patch.object(graphs, "_candidates", counted):
            tracemalloc.start()
            try:
                got = nearest(pts, pts, 5, np.arange(n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sum(kept) == n * n
        assert peak < n * n * 8
        assert got[0].tolist() == [1, 2, 3, 4, 5] and got[-1].tolist() == [0, 1, 2, 3, 4]


def test_safety_query_holds_no_gram_sized_array():
    # 250 x 1750 rows in d = 16: a Gram block of the query is 3.5 MB; the
    # filter's scratch arrays, allocated here by a thread that has none yet,
    # are 1.1 MB
    ref, n = nearest_id_sets()[0]
    peak = []

    def query():
        tracemalloc.start()
        try:
            nearest(ref[:n], ref, 5, np.arange(n))
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    worker = threading.Thread(target=query)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(peak) == 1
    assert peak[0] < 2_000_000


def test_threads_filter_through_their_own_buffers():
    # four threads query inputs of different shapes at once; a buffer shared
    # between threads would mix their Gram rows
    rng = np.random.Generator(np.random.PCG64(12))
    inputs = [(ref[:n], ref, np.arange(n)) for ref, n in nearest_id_sets()]
    inputs += [(rng.normal(size=(300, 8)), rng.normal(size=(900, 8)), None),
               (rng.integers(0, 3, size=(500, 3)).astype(float),) * 2 + (np.arange(500),)]
    expected = [nearest(q, r, 5, ids) for q, r, ids in inputs]
    start, results = threading.Barrier(len(inputs)), [[] for _ in inputs]

    def run(i):
        q, r, ids = inputs[i]
        start.wait(timeout=60)
        for _ in range(5):
            results[i].append(nearest(q, r, 5, ids))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for want, got in zip(expected, results):
        assert len(got) == 5 and all(np.array_equal(g, want) for g in got)


def test_far_offset_filters_on_centred_points():
    # unit noise on a 1e8 offset: uncentred, the bound scales with ||q||^2 ~ 1.6e17
    # and keeps every pair; shifted by the reference mean the filter keeps few
    ref, n = nearest_id_sets()[1]
    kept, candidates = [], graphs._candidates

    def counted(*args):
        pairs = candidates(*args)
        kept.append(pairs.size)
        return pairs

    with mock.patch.object(graphs, "_candidates", counted):
        got = nearest(ref, ref, 5, np.arange(n))
    assert sum(kept) < 0.05 * n * n
    assert np.array_equal(got, brute_nearest(ref, ref, 5, np.arange(n)))


def test_far_row_leaves_the_other_rows_tight():
    # one reference row 1e4 away sets the filter's scale; a slack that read the
    # largest reference norm would keep nearly every column of every row
    n, k = 500, 5
    ref = np.random.Generator(np.random.PCG64(15)).normal(size=(n, 8))
    ref[123] += 1e4
    kept, candidates = [], graphs._candidates

    def counted(*args):
        pairs = candidates(*args)
        kept.append(pairs.size)
        return pairs

    with mock.patch.object(graphs, "_candidates", counted):
        got = nearest(ref, ref, k, np.arange(n))
    assert sum(kept) < 2 * (k + 1) * n
    assert np.array_equal(got, brute_nearest(ref, ref, k, np.arange(n)))


def assert_filter_keeps_first(query, ref, kk, n_thr):
    """``_candidates`` keeps every column of each row's first kk, ties included."""
    pairs = graphs._candidates(*graphs._centred(query, ref), kk, n_thr)
    kept = np.zeros((len(query), len(ref)), dtype=bool)
    kept.flat[pairs] = True
    dist = cross_distances(query, ref)
    kth = np.sort(dist, axis=1)[:, kk - 1:kk]
    missed = np.argwhere((dist <= kth) & ~kept)
    assert missed.size == 0, missed[:5]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gaussian", "grid", "dup", "offset", "shells", "mixed"]),
       n=st.integers(2, 30) | st.sampled_from([60, 120]),
       d=st.integers(1, 4) | st.sampled_from([16, 32]),
       scale=st.sampled_from([1.0, 1e150, 1e-150, 1e155, 1e-160]),
       filter_elems=st.sampled_from([1, 7, 64, graphs._FILTER_ELEMS]),
       fold=st.sampled_from([1, 7, graphs._FOLD]), data=st.data())
def test_filter_keeps_a_superset_of_each_first_kk(seed, kind, n, d, scale, filter_elems,
                                                  fold, data):
    # checked on the filter itself, not through the re-rank: the first kk of a
    # row over all columns, which hold any n_thr threshold columns
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = tie_heavy_points(rng, kind, n, d) * scale
    query = np.vstack([tie_heavy_points(rng, kind, int(rng.integers(1, 10)), d) * scale, ref])
    kk = data.draw(st.integers(1, n))
    n_thr = data.draw(st.integers(kk, n))
    with mock.patch.object(graphs, "_FILTER_ELEMS", filter_elems), \
            mock.patch.object(graphs, "_FOLD", fold):
        assert_filter_keeps_first(query, ref, kk, n_thr)


def test_subnormal_distances_keep_their_ties():
    # at scale 1e-160 every squared distance is subnormal, so the re-rank's
    # underflow, carried into the filter's scaled units, must widen the slack
    rng = np.random.Generator(np.random.PCG64(0))
    ref = tie_heavy_points(rng, "gaussian", 60, 1) * 1e-160
    with mock.patch.object(graphs, "_BLOCK_ELEMS", 1), \
            mock.patch.object(graphs, "_FILTER_ELEMS", 1), \
            mock.patch.object(graphs, "_FOLD", 1):
        got = nearest(ref, ref, 1, np.arange(60))
        assert_filter_keeps_first(ref, ref, 2, 60)
    assert np.array_equal(got, brute_nearest(ref, ref, 1, np.arange(60)))


# ``nearest_id_digests()``, pinned: the ids are exact, so they hold for any
# BLAS, thread count and filter layout
NEAREST_ID_DIGESTS = ["a1b76d2888ebbf499c19ffba48976342f402be617fa23977288eaa08b6ea6118",
                      "18718995bd8bca69fc5869f554f16910f9aa4d0d4569551b9823778995ed2bde"]


def test_ids_do_not_depend_on_blas_threads():
    # the GEMM's summation order changes with the BLAS thread count; the
    # filter's bound holds for any order and the exact re-rank fixes the ids
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    run = subprocess.run(
        [sys.executable, "-c", "from helpers import nearest_id_digests as f; print(*f())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.split() == nearest_id_digests() == NEAREST_ID_DIGESTS


class TestKnnGraph:
    @pytest.mark.parametrize("symmetrize", [UNION, MUTUAL])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed, symmetrize):
        pts = random_points(seed)
        k = int(np.random.Generator(np.random.PCG64(seed + 1000)).integers(1, len(pts)))
        g = knn_graph(pts, k, symmetrize)
        assert set(g.edges) == brute_knn_edges(pts, k, symmetrize)

    def test_distance_ties_break_to_lower_index(self):
        # vertices 1, 2, 3 all at distance 1 from vertex 0; the two k=1
        # neighbors of 0 cannot skip a lower-indexed tied vertex
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        g = knn_graph(pts, 1, UNION)
        assert (0, 1) in g.edges  # 0 picks vertex 1, not 2 or 3

    def test_mutual_subset_of_union(self):
        pts = random_points(3, n=20, d=2)
        union = knn_graph(pts, 3, UNION).edges
        mutual = knn_graph(pts, 3, MUTUAL).edges
        assert mutual <= union

    def test_union_degree_at_least_k(self):
        pts = random_points(4, n=18, d=3)
        g = knn_graph(pts, 4, UNION)
        assert np.all(g.degrees() >= 4)

    def test_k_out_of_range(self):
        pts = random_points(5, n=6, d=2)
        for bad in (0, 6, -1):
            with pytest.raises(GraphParameterError):
                knn_graph(pts, bad)

    def test_bad_symmetrize(self):
        with pytest.raises(GraphParameterError):
            knn_graph(random_points(6, n=5, d=2), 2, symmetrize="either")

    def test_deterministic(self):
        pts = random_points(7, n=30, d=4)
        assert knn_graph(pts, 5).edges == knn_graph(pts, 5).edges


class TestNeighborhoodGraphType:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphParameterError):
            NeighborhoodGraph(3, frozenset({(0, 3)}))

    def test_rejects_unordered_edge(self):
        with pytest.raises(GraphParameterError):
            NeighborhoodGraph(3, frozenset({(2, 1)}))

    def test_adjacency_and_degrees_agree(self):
        g = NeighborhoodGraph(4, frozenset({(0, 1), (1, 2), (0, 2)}))
        adj = adjacency(g)
        assert adj[1] == {0, 2} and adj[3] == set()
        assert g.degrees().tolist() == [2, 2, 2, 0]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_union_graph_contains_every_nearest_neighbor(seed, k):
    pts = random_points(seed, n=max(k + 2, 6))
    g = knn_graph(pts, k, UNION)
    dist = pairwise_distances(pts)
    for u in range(len(pts)):
        others = [v for v in range(len(pts)) if v != u]
        nearest = min(others, key=lambda v: (dist[u, v], v))
        assert (min(u, nearest), max(u, nearest)) in g.edges
