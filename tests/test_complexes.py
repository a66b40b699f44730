import time
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import MAXIMAL, maximal_cliques, p_skeleton
from simbal import complexes, samplers
from simbal.complexes import SkeletonParameterError, SubdivisionCapExceeded
from simbal.graphs import MUTUAL, UNION, NeighborhoodGraph, _knn_pairs, knn_graph, nearest

from helpers import (
    adjacency,
    brute_force_maximal_cliques,
    brute_force_skeleton,
    random_graph,
    set_based_maximal_cliques,
)


def complete_graph(n):
    return NeighborhoodGraph(n, frozenset((u, v) for u in range(n)
                                          for v in range(u + 1, n)))


def star_with_hub(n_leaves=12):
    """Hub 0 joined to every leaf, leaves paired up: a fan of triangles through the hub."""
    edges = {(0, v) for v in range(1, n_leaves + 1)} | {(v, v + 1) for v in range(1, n_leaves, 2)}
    return NeighborhoodGraph(n_leaves + 1, frozenset(edges))


def mutual_knn_with_isolated():
    """Mutual 3-NN graph of a cloud plus three far outliers, which no cloud point lists back."""
    cloud = np.random.Generator(np.random.PCG64(4)).normal(size=(10, 2))
    g = knn_graph(np.vstack([cloud, [[40.0, 0.0], [0.0, 40.0], [-40.0, -40.0]]]), 3, MUTUAL)
    assert g.degrees()[10:].tolist() == [0, 0, 0]
    return g


ORACLE_GRAPHS = {
    **{str(seed): random_graph(seed, edge_prob=(0.2, 0.5, 0.8)[seed % 3]) for seed in range(30)},
    "star": star_with_hub(),
    "mutual_knn": mutual_knn_with_isolated(),
}


class TestMaximalCliques:
    def test_triangle_plus_pendant(self):
        g = NeighborhoodGraph(4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}))
        assert maximal_cliques(g) == {(0, 1, 2), (2, 3)}

    def test_isolated_vertices_are_zero_simplices(self):
        g = NeighborhoodGraph(3, frozenset({(0, 1)}))
        assert maximal_cliques(g) == {(0, 1), (2,)}

    def test_empty_graph(self):
        g = NeighborhoodGraph(4, frozenset())
        assert maximal_cliques(g) == {(0,), (1,), (2,), (3,)}

    def test_no_vertices(self):
        assert maximal_cliques(NeighborhoodGraph(0, frozenset())) == frozenset()

    def test_complete_graph_single_clique(self):
        assert maximal_cliques(complete_graph(6)) == {tuple(range(6))}

    @pytest.mark.parametrize("g", ORACLE_GRAPHS.values(), ids=ORACLE_GRAPHS.keys())
    def test_matches_subset_enumeration(self, g):
        assert maximal_cliques(g) == brute_force_maximal_cliques(g)


def knn_graph_of_random_points(seed, symmetrize):
    """kNN graph of 65..600 Gaussian points in d = 2..8 with k = 1..8: masks past 64 bits."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, d, k = int(rng.integers(65, 601)), int(rng.integers(2, 9)), int(rng.integers(1, 9))
    return knn_graph(rng.normal(size=(n, d)), k, symmetrize)


def erdos_renyi(n, prob, seed):
    """G(n, prob), its edges as numpy ints, as a caller may build them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = rng.uniform(size=(n, n)) < prob
    return NeighborhoodGraph(n, frozenset(zip(*np.nonzero(np.triu(keep, 1)))))


WIDE_GRAPHS = {
    **{f"knn-{seed}-{sym}": knn_graph_of_random_points(seed, sym)
       for seed in range(6) for sym in (UNION, MUTUAL)},
    "knn-600-k8": knn_graph(np.random.Generator(np.random.PCG64(6)).normal(size=(600, 3)), 8),
    "knn-65-k1": knn_graph(np.random.Generator(np.random.PCG64(7)).normal(size=(65, 2)), 1,
                           MUTUAL),
    **{f"dense-{n}": erdos_renyi(n, prob, seed=n)
       for n, prob in ((70, 0.6), (100, 0.5), (130, 0.4))},
    "complete-90": complete_graph(90),
    "edgeless-90": NeighborhoodGraph(90, frozenset()),
    "single-vertex": NeighborhoodGraph(1, frozenset()),
}


@pytest.mark.parametrize("g", WIDE_GRAPHS.values(), ids=WIDE_GRAPHS.keys())
def test_bitset_cliques_match_set_based_oracle(g):
    assert maximal_cliques(g) == set_based_maximal_cliques(g)


def moon_moser(n_triangles):
    """The complement of n disjoint triangles: its maximal cliques take one vertex
    of each triangle, 3**n of them, the most any graph on 3n vertices has."""
    n = 3 * n_triangles
    return NeighborhoodGraph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                                          if u // 3 != v // 3))


def lowest_degree_first(g):
    """g relabelled in ascending degree order (stable), so the lowest-vertex pivot
    is the vertex that prunes least."""
    new_id = np.argsort(np.argsort(g.degrees(), kind="stable"), kind="stable")
    return NeighborhoodGraph(g.n_vertices, frozenset(
        tuple(sorted((int(new_id[u]), int(new_id[v])))) for u, v in g.edges))


ADVERSARIAL_GRAPHS = {
    # closed forms are given where the clique set has one
    "moon-moser-6": (moon_moser(6), frozenset(product(*(range(3 * t, 3 * t + 3)
                                                          for t in range(6))))),
    "dense-30-lowest-degree-first": (lowest_degree_first(erdos_renyi(30, 0.7, seed=30)), None),
    "complete-40-plus-5-isolated": (NeighborhoodGraph(45, complete_graph(40).edges),
                                    frozenset({tuple(range(40))} | {(v,) for v in range(40, 45)})),
}


@pytest.mark.parametrize("g, closed_form", ADVERSARIAL_GRAPHS.values(),
                         ids=ADVERSARIAL_GRAPHS.keys())
def test_adversarial_cliques_match_set_based_oracle(g, closed_form):
    cliques = maximal_cliques(g)
    assert cliques == set_based_maximal_cliques(g)
    if closed_form is not None:
        assert cliques == closed_form


def test_disjoint_union_table_is_the_offset_tables():
    # the batching contract: graph i's ids offset by the vertices before it,
    # the union's table is the graphs' tables, offset, padded and in order
    graphs = [knn_graph_of_random_points(seed, sym) for seed in range(3) for sym in (UNION, MUTUAL)]
    graphs += [complete_graph(7), NeighborhoodGraph(3, frozenset()), star_with_hub(),
               mutual_knn_with_isolated()]
    offsets = np.cumsum([0] + [g.n_vertices for g in graphs])
    pairs = [g._pairs() for g in graphs]
    lo = np.concatenate([g_lo + off for (_, g_lo, _), off in zip(pairs, offsets)])
    hi = np.concatenate([g_hi + off for (_, _, g_hi), off in zip(pairs, offsets)])
    union = complexes._skeleton_table(int(offsets[-1]), lo, hi)
    tables = [complexes._skeleton_table(*pair) for pair in pairs]
    want = np.full((sum(len(t) for t in tables), union.shape[1]), -1)
    at = 0
    for table, off in zip(tables, offsets):
        want[at:at + len(table), :table.shape[1]] = np.where(table >= 0, table + off, -1)
        at += len(table)
    assert union.shape[1] == max(t.shape[1] for t in tables)
    assert np.array_equal(union, want)


@pytest.mark.parametrize("symmetrize", [UNION, MUTUAL])
def test_knn_clique_tables_match_one_table_per_k(symmetrize):
    # the grid search's one edge step and one clique step for all k of a split:
    # each k's table is the one its own search and builder give
    for seed in range(6):
        x = np.random.Generator(np.random.PCG64(seed)).normal(size=(37, 2 + seed % 3))
        ks = (1, 2, 3, 5, 8)[: 2 + seed % 4]
        neighbors = nearest(x, x, max(ks), np.arange(len(x)))
        for p in (1, MAXIMAL):
            tables = samplers._knn_tables(neighbors, ks, symmetrize, p)
            assert list(tables) == list(ks)
            for k in ks:
                want = complexes._skeleton_table(*_knn_pairs(x, k, symmetrize), p)
                assert tables[k].dtype == want.dtype, (p, k)
                assert tables[k].shape == want.shape and np.array_equal(tables[k], want), (p, k)


def test_tie_heavy_duplicates_match_set_based_oracle():
    # 12 points, 20 copies each: every k-list stays within its copies, so each
    # group holds 9-cliques sharing the copies ranked first
    pts = np.repeat(np.random.Generator(np.random.PCG64(1)).normal(size=(12, 2)), 20, axis=0)
    g = knn_graph(pts, 8)
    cliques = maximal_cliques(g)
    assert cliques == set_based_maximal_cliques(g)
    assert len(cliques) == 12 * 12 and {len(c) for c in cliques} == {9}


def test_table_order_spans_two_packed_keys():
    # 41**12 >= 2**62, so a 13-wide row of ids below 40 takes two int64 keys;
    # the four maximal cliques core + {edge of the 4-cycle 11-12-14-13} share
    # their first 11 ids and order on the second key alone
    core = range(11)
    edges = {(u, v) for u in core for v in range(u + 1, 15)}
    edges |= {(11, 12), (11, 13), (12, 14), (13, 14)}
    edges |= {(u + 15, v + 15) for u, v in random_graph(3, max_n=25, edge_prob=0.3).edges}
    g = NeighborhoodGraph(40, frozenset(edges))
    table = complexes._skeleton_table(*g._pairs())
    assert (g.n_vertices + 1) ** table.shape[1] >= 2 ** 62
    assert np.array_equal(table, table[np.lexsort(table.T[::-1])])
    assert {tuple(v for v in row if v >= 0) for row in table.tolist()} == \
        set_based_maximal_cliques(g)
    # and on rows of any ids in -1..n-1, with long shared prefixes and repeats
    rng = np.random.Generator(np.random.PCG64(5))
    rows = np.column_stack([rng.integers(-1, 2, size=(400, 11)), rng.integers(-1, 40, (400, 2))])
    rows = np.vstack([rows, rows[:50]])
    keys = complexes._row_keys(rows, 40)
    assert len(keys) == 2
    assert np.array_equal(np.lexsort(keys[::-1]), np.lexsort(rows.T[::-1]))


def star_plus_path(n):
    """Hub 0 joined to every other vertex, and the path 1 - 2 - ... - (n-1)."""
    return NeighborhoodGraph(n, frozenset({(0, v) for v in range(1, n)}
                                          | {(v, v + 1) for v in range(1, n - 1)}))


def circulant(n, reach):
    """Each vertex joined to the next ``reach`` vertices around the cycle of n."""
    return NeighborhoodGraph(n, frozenset(tuple(sorted((v, (v + s) % n)))
                                          for v in range(n) for s in range(1, reach + 1)))


LARGE_GRAPHS = {
    # the hub has degree n - 1: its neighbour list spans hundreds of words
    "star-plus-path": lambda: (star_plus_path(20_000),
                               frozenset((0, v, v + 1) for v in range(1, 19_999))),
    # the n cyclic windows of 6
    "circulant-5": lambda: (circulant(20_000, 5),
                            frozenset(tuple(sorted((v + s) % 20_000 for s in range(6)))
                                      for v in range(20_000))),
}


@pytest.mark.parametrize("case", LARGE_GRAPHS.values(), ids=LARGE_GRAPHS.keys())
def test_large_sparse_graphs_in_bounded_time_and_memory(case):
    g, closed_form = case()
    # best of two runs, as a loaded machine can slow one
    elapsed = []
    for _ in range(2):
        start = time.perf_counter()
        cliques = maximal_cliques(g)
        elapsed.append(time.perf_counter() - start)
    assert cliques == closed_form
    assert min(elapsed) < 1.0
    tracemalloc.start()
    try:
        maximal_cliques(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


class TestPSkeleton:
    def test_maximal_keeps_cliques_verbatim(self):
        g = NeighborhoodGraph(4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}))
        sk = p_skeleton(g, MAXIMAL)
        assert sk.maximal_simplices == maximal_cliques(g)

    def test_p1_subdivides_triangle_into_edges(self):
        g = NeighborhoodGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        sk = p_skeleton(g, 1)
        assert sk.maximal_simplices == {(0, 1), (0, 2), (1, 2)}

    def test_p1_of_an_edgeless_graph_is_its_vertices(self):
        # and so at every p; n = 0 sends a table of no rows through the sort
        for n, p in product(range(4), (1, 2, MAXIMAL)):
            sk = p_skeleton(NeighborhoodGraph(n, frozenset()), p)
            assert sk.maximal_simplices == {(v,) for v in range(n)}

    def test_shared_subsets_counted_once(self):
        # two triangles sharing edge (1, 2)
        g = NeighborhoodGraph(4, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}))
        sk = p_skeleton(g, 1)
        assert sorted(sk.maximal_simplices) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def test_small_maximal_cliques_survive_subdivision(self):
        # K4 on {0..3} plus pendant edge (3, 4): p=2 splits the K4 into its
        # triangles and keeps the edge whole
        edges = {(u, v) for u in range(4) for v in range(u + 1, 4)} | {(3, 4)}
        sk = p_skeleton(NeighborhoodGraph(5, frozenset(edges)), 2)
        assert (3, 4) in sk.maximal_simplices
        assert (0, 1, 2) in sk.maximal_simplices
        assert all(len(s) <= 3 for s in sk.maximal_simplices)

    def test_p_zero_rejected(self):
        with pytest.raises(SkeletonParameterError):
            p_skeleton(complete_graph(3), 0)

    def test_subdivision_cap(self, monkeypatch):
        monkeypatch.setattr(complexes, "SUBDIVISION_CAP", 100)
        with pytest.raises(SubdivisionCapExceeded, match="smaller p"):
            p_skeleton(complete_graph(25), 2)

    @pytest.mark.parametrize("cap", [3, 10, 30])
    @pytest.mark.parametrize("p", [1, 2])
    def test_cap_names_first_sorted_clique_past_it(self, p, cap, monkeypatch):
        # p = 2: walk the brute-force maximal cliques in sorted order: the error
        # must name the first one at which the running subset count passes the
        # cap. p = 1 reads the edges off the graph and subdivides nothing, so no
        # cap binds
        monkeypatch.setattr(complexes, "SUBDIVISION_CAP", cap)
        raised = 0
        for seed in range(40):
            g = random_graph(seed + 700, edge_prob=0.7)
            if p == 1:
                assert p_skeleton(g, 1).maximal_simplices == brute_force_skeleton(g, 1)
                continue
            count, first = 0, None
            for clique in sorted(brute_force_maximal_cliques(g)):
                if len(clique) > p + 1:
                    count += comb(len(clique), p + 1)
                    if count > cap:
                        first = clique
                        break
            if first is None:
                assert p_skeleton(g, p).maximal_simplices == brute_force_skeleton(g, p)
                continue
            raised += 1
            with pytest.raises(SubdivisionCapExceeded) as info:
                p_skeleton(g, p)
            assert f"the {len(first)}-clique {first} " in str(info.value)
            assert f"count to {count}," in str(info.value)
        assert raised >= 5 or p == 1

    @pytest.mark.parametrize("p", [1, 2, MAXIMAL])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_subset_enumeration(self, seed, p):
        g = random_graph(seed + 100, edge_prob=(0.2, 0.5, 0.8)[seed % 3])
        assert p_skeleton(g, p).maximal_simplices == brute_force_skeleton(g, p)


class TestMembershipStats:
    def test_every_vertex_covered(self):
        # every vertex lies in some maximal simplex, isolated ones as 1-tuples
        for seed in range(10):
            g = random_graph(seed + 500)
            covered = set().union(*p_skeleton(g, MAXIMAL).maximal_simplices)
            assert covered == set(range(g.n_vertices))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, None]))
def test_skeleton_simplices_are_cliques_and_antichain(seed, p):
    g = random_graph(seed)
    sk = p_skeleton(g, MAXIMAL if p is None else p)
    adj = adjacency(g)
    simplices = sorted(sk.maximal_simplices)
    for s in simplices:
        assert all(v in adj[u] for i, u in enumerate(s) for v in s[i + 1:])
        if p is not None:
            assert len(s) <= p + 1
    for i, s in enumerate(simplices):
        for t in simplices[i + 1:]:
            assert not set(s) < set(t) and not set(t) < set(s)
