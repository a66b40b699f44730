"""Clique complexes: maximal clique enumeration and p-skeleton extraction.

A simplex is represented as a strictly ascending tuple of vertex ids; a
(p+1)-clique of the graph is a p-simplex of the clique complex. ``MAXIMAL``
(``None``) requests the full clique complex, i.e. no dimension cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .graphs import NeighborhoodGraph

# Sentinel for "no cap on simplex dimension" (the full clique complex).
MAXIMAL = None

# Refuse to subdivide a clique into more candidate simplices than this.
DEFAULT_SUBDIVISION_CAP = 1_000_000

Simplex = tuple[int, ...]


class SkeletonParameterError(ValueError):
    """Raised for invalid skeleton dimensions."""


class SubdivisionCapExceeded(RuntimeError):
    """Raised when subdividing an oversized clique would blow up combinatorially."""


@dataclass(frozen=True)
class Skeleton:
    """Maximal simplices of the p-skeleton of a clique complex."""

    n_vertices: int
    max_dim: int | None  # None = MAXIMAL
    maximal_simplices: frozenset[Simplex]
    meta: dict = field(default_factory=dict, compare=False)

    def sorted_simplices(self) -> list[Simplex]:
        """Canonical (lexicographic) ordering, used for deterministic sampling."""
        return sorted(self.maximal_simplices)


def _bron_kerbosch_pivot(adj: list[set[int]], r: set[int], p: set[int], x: set[int],
                         out: list[frozenset[int]]) -> None:
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch_pivot(adj, r | {v}, p & adj[v], x & adj[v], out)
        p.discard(v)
        x.add(v)


def maximal_cliques(g: NeighborhoodGraph) -> frozenset[Simplex]:
    """All inclusion-maximal cliques; isolated vertices come back as 1-tuples.

    Bron-Kerbosch with Tomita pivoting, run once from P = all vertices, X = {}.
    """
    if g.n_vertices == 0:
        return frozenset()
    found: list[frozenset[int]] = []
    _bron_kerbosch_pivot(g.adjacency(), set(), set(range(g.n_vertices)), set(), found)
    return frozenset(tuple(sorted(c)) for c in found)


def p_skeleton(g: NeighborhoodGraph, p: int | None = MAXIMAL,
               subdivision_cap: int = DEFAULT_SUBDIVISION_CAP) -> Skeleton:
    """Maximal simplices of the p-skeleton of the clique complex of g.

    Maximal cliques of size at most p+1 are kept whole; larger ones are
    replaced by all their (p+1)-subsets. Subsets shared between overlapping
    cliques are kept once (set semantics).
    """
    if p is not MAXIMAL:
        p = int(p)
        if p < 1:
            raise SkeletonParameterError(
                f"p must be >= 1 or MAXIMAL, got {p} (p=0 would reduce to point duplication)"
            )
    cliques = maximal_cliques(g)
    if p is MAXIMAL:
        return Skeleton(g.n_vertices, MAXIMAL, cliques, meta=dict(g.meta))
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
    return Skeleton(g.n_vertices, p, frozenset(kept), meta=dict(g.meta))
