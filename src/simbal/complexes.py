"""Clique complexes: lowest-vertex-pivot Bron-Kerbosch cliques and p-skeletons.

A simplex is represented as a strictly ascending tuple of vertex ids; a
(p+1)-clique of the graph is a p-simplex of the clique complex. ``MAXIMAL``
(``None``) requests the full clique complex, i.e. no dimension cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .graphs import NeighborhoodGraph, _integer

# Sentinel for "no cap on simplex dimension" (the full clique complex).
MAXIMAL = None

# Refuse to subdivide a clique into more candidate simplices than this (p >= 2).
DEFAULT_SUBDIVISION_CAP = 1_000_000

Simplex = tuple[int, ...]


class SkeletonParameterError(ValueError):
    """Raised for invalid skeleton dimensions."""


class SubdivisionCapExceeded(RuntimeError):
    """Raised when subdividing an oversized clique would blow up combinatorially (p >= 2 only)."""


@dataclass(frozen=True)
class Skeleton:
    """Maximal simplices of the p-skeleton of a clique complex."""

    maximal_simplices: frozenset[Simplex]


def _bron_kerbosch_pivot(adj: list[int], r: Simplex, p: int, x: int,
                         out: list[Simplex]) -> None:
    """Bron-Kerbosch on bitsets: bit v of ``p``, ``x`` and ``adj[u]`` stands for vertex v."""
    if not p:
        if not x:
            out.append(tuple(sorted(r)))
        return
    # the lowest vertex of P | X: on sparse kNN graphs a cheap pivot beats a pruning one
    rest = p | x
    branch = p & ~adj[(rest & -rest).bit_length() - 1]
    while branch:
        low = branch & -branch
        v = low.bit_length() - 1
        _bron_kerbosch_pivot(adj, (*r, v), p & adj[v], x & adj[v], out)
        p ^= low
        x |= low
        branch ^= low


def maximal_cliques(g: NeighborhoodGraph) -> frozenset[Simplex]:
    """All inclusion-maximal cliques; isolated vertices come back as 1-tuples.

    Bron-Kerbosch from P = all vertices, X = {} on Python-int bitsets, one
    adjacency mask per vertex (San Segundo, Rodriguez-Losada & Jimenez,
    Computers & OR 2011). The lowest-vertex pivot is 1.3-1.5x faster than
    Tomita's on sparse kNN graphs but drops its worst-case bound on dense ones.
    """
    if g.n_vertices == 0:
        return frozenset()
    adj = [0] * g.n_vertices
    for u, v in g.edges:
        adj[u] |= 1 << int(v)  # int(): an edge of numpy ints would shift in 64 bits
        adj[v] |= 1 << int(u)
    found: list[Simplex] = []
    _bron_kerbosch_pivot(adj, (), (1 << g.n_vertices) - 1, 0, found)
    return frozenset(found)


def _one_skeleton(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 1-skeleton of the graph on 0..n-1 with edges lo < hi, in lexicographic order, as a
    -1-padded table in that order: a lone vertex v is a (v, -1) row, before every (v, x)."""
    lone = np.flatnonzero(np.bincount(np.concatenate([lo, hi]), minlength=n) == 0)
    return np.insert(np.column_stack([lo, hi]), np.searchsorted(lo, lone),
                     np.column_stack([lone, np.full_like(lone, -1)]), axis=0)


def p_skeleton(g: NeighborhoodGraph, p: int | None = MAXIMAL,
               subdivision_cap: int = DEFAULT_SUBDIVISION_CAP) -> Skeleton:
    """Maximal simplices of the p-skeleton of the clique complex of g.

    Maximal cliques of size at most p+1 are kept whole; larger ones are
    replaced by all their (p+1)-subsets. Subsets shared between overlapping
    cliques are kept once (set semantics). At p = 1 these are the edges and
    isolated vertices, read off with no clique step, so ``subdivision_cap``
    binds only for p >= 2.
    """
    if p is not MAXIMAL:
        p = _integer(p, "p", SkeletonParameterError)
        if p < 1:
            raise SkeletonParameterError(
                f"p must be >= 1 or MAXIMAL, got {p} (p=0 would reduce to point duplication)"
            )
    if p == 1:
        table = _one_skeleton(g.n_vertices, *np.array(sorted(g.edges), np.intp).reshape(-1, 2).T)
        return Skeleton(frozenset(tuple(v for v in row if v >= 0) for row in table.tolist()))
    cliques = maximal_cliques(g)
    if p is MAXIMAL:
        return Skeleton(cliques)
    size_cap = p + 1
    kept: set[Simplex] = set()
    generated = 0
    # sorted, so the error names the first clique (lexicographic) that passes the cap
    for clique in sorted(cliques):
        if len(clique) <= size_cap:
            kept.add(clique)
            continue
        n_subsets = comb(len(clique), size_cap)
        generated += n_subsets
        if generated > subdivision_cap:
            raise SubdivisionCapExceeded(
                f"subdividing the {len(clique)}-clique {clique} into C({len(clique)},{size_cap})="
                f"{n_subsets} simplices brings the count to {generated}, past the cap of "
                f"{subdivision_cap}; use a smaller p"
            )
        kept.update(combinations(clique, size_cap))
    # Deduplication is the whole of re-maximalization here: a maximal clique of
    # size < p+1 contained in a generated (p+1)-subset would itself sit inside a
    # larger clique, contradicting its maximality.
    return Skeleton(frozenset(kept))
