"""Clique complexes: lowest-vertex-pivot Bron-Kerbosch cliques and p-skeletons.

A simplex is represented as a strictly ascending tuple of vertex ids; a
(p+1)-clique of the graph is a p-simplex of the clique complex. ``MAXIMAL``
(``None``) requests the full clique complex, i.e. no dimension cap.

``_skeleton_table`` is the one builder: sorted edge arrays in, a -1-padded
simplex table out. The samplers and ``geometry.mean_model_distance`` call it on
the kNN pairs; ``p_skeleton`` on a graph's edges, returning the rows as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .graphs import NeighborhoodGraph, _integer

# Sentinel for "no cap on simplex dimension" (the full clique complex).
MAXIMAL = None

# Refuse to subdivide a clique into more candidate simplices than this (p >= 2).
SUBDIVISION_CAP = 1_000_000

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


def _skeleton_table(n: int, lo: np.ndarray, hi: np.ndarray, p: int | None = MAXIMAL) -> np.ndarray:
    """The p-skeleton of the clique complex of the graph on 0..n-1 with edges lo < hi
    (lexicographic) as a table: one maximal simplex per row, ids ascending, padded
    with -1 (below every id, so a row sorts as its tuple), rows in lexicographic order.

    At p = 1 the rows are the edges and the lone vertices, with no clique step.
    Otherwise they are the maximal cliques, those larger than p+1 replaced by
    their (p+1)-subsets: only there does ``SUBDIVISION_CAP`` bind.
    """
    if p is not MAXIMAL:
        p = _integer(p, "p", SkeletonParameterError)
        if p < 1:
            raise SkeletonParameterError(f"p must be >= 1 or MAXIMAL, got {p} "
                                         "(p=0 would reduce to point duplication)")
    if p == 1:
        lone = np.flatnonzero(np.bincount(np.concatenate([lo, hi]), minlength=n) == 0)
        return np.insert(np.column_stack([lo, hi]), np.searchsorted(lo, lone),
                         np.column_stack([lone, np.full_like(lone, -1)]), axis=0)
    adj = [0] * n
    for u, v in zip(lo.tolist(), hi.tolist()):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    simplices: list[Simplex] = []
    if n:
        _bron_kerbosch_pivot(adj, (), (1 << n) - 1, 0, simplices)
    if p is not MAXIMAL:
        size_cap, generated = p + 1, 0
        kept = {s for s in simplices if len(s) <= size_cap}
        # sorted, so the error names the first clique (lexicographic) that passes the cap
        for clique in sorted(s for s in simplices if len(s) > size_cap):
            n_subsets = comb(len(clique), size_cap)
            generated += n_subsets
            if generated > SUBDIVISION_CAP:
                raise SubdivisionCapExceeded(
                    f"subdividing the {len(clique)}-clique {clique} into C({len(clique)},"
                    f"{size_cap})={n_subsets} simplices brings the count to {generated}, past "
                    f"the cap of {SUBDIVISION_CAP}; use a smaller p"
                )
            kept.update(combinations(clique, size_cap))
        # the set's deduplication is the whole of re-maximalization: a maximal clique of
        # size < p+1 inside a generated (p+1)-subset would contradict its maximality
        simplices = list(kept)
    sizes = np.fromiter(map(len, simplices), dtype=np.intp, count=len(simplices))
    # at least one column, which lexsort needs, even for n = 0
    table = np.full((sizes.size, sizes.max(initial=1)), -1)
    table[np.arange(table.shape[1]) < sizes[:, None]] = list(chain.from_iterable(simplices))
    return table[np.lexsort(table.T[::-1])]


def maximal_cliques(g: NeighborhoodGraph) -> frozenset[Simplex]:
    """All inclusion-maximal cliques; isolated vertices come back as 1-tuples.

    Bron-Kerbosch from P = all vertices, X = {} on Python-int bitsets, one
    adjacency mask per vertex (San Segundo, Rodriguez-Losada & Jimenez,
    Computers & OR 2011). The lowest-vertex pivot is 1.3-1.5x faster than
    Tomita's on sparse kNN graphs but drops its worst-case bound on dense ones.
    """
    return p_skeleton(g, MAXIMAL).maximal_simplices


def p_skeleton(g: NeighborhoodGraph, p: int | None = MAXIMAL) -> Skeleton:
    """Maximal simplices of the p-skeleton of the clique complex of g.

    Maximal cliques of size at most p+1 are kept whole; larger ones are
    replaced by all their (p+1)-subsets. Subsets shared between overlapping
    cliques are kept once (set semantics). At p = 1 these are the edges and
    isolated vertices, read off with no clique step, so ``SUBDIVISION_CAP``
    binds only for p >= 2.
    """
    return _table_skeleton(_skeleton_table(*g._pairs(), p))


def _table_skeleton(table: np.ndarray) -> Skeleton:
    """The rows of a ``_skeleton_table`` as a ``Skeleton``, pads stripped."""
    return Skeleton(frozenset(tuple(v for v in row if v >= 0) for row in table.tolist()))
