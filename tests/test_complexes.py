import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simbal import MAXIMAL, maximal_cliques, p_skeleton
from simbal.complexes import SkeletonParameterError, SubdivisionCapExceeded
from simbal.graphs import MUTUAL, NeighborhoodGraph, knn_graph

from helpers import (
    brute_force_maximal_cliques,
    brute_force_skeleton,
    random_graph,
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


class TestPSkeleton:
    def test_maximal_keeps_cliques_verbatim(self):
        g = NeighborhoodGraph(4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}))
        sk = p_skeleton(g, MAXIMAL)
        assert sk.maximal_simplices == maximal_cliques(g)
        assert sk.max_dim is MAXIMAL

    def test_p1_subdivides_triangle_into_edges(self):
        g = NeighborhoodGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        sk = p_skeleton(g, 1)
        assert sk.maximal_simplices == {(0, 1), (0, 2), (1, 2)}

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

    def test_subdivision_cap(self):
        with pytest.raises(SubdivisionCapExceeded, match="smaller p"):
            p_skeleton(complete_graph(25), 2, subdivision_cap=100)

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
    adj = g.adjacency()
    simplices = sorted(sk.maximal_simplices)
    for s in simplices:
        assert all(v in adj[u] for i, u in enumerate(s) for v in s[i + 1:])
        if p is not None:
            assert len(s) <= p + 1
    for i, s in enumerate(simplices):
        for t in simplices[i + 1:]:
            assert not set(s) < set(t) and not set(t) < set(s)
