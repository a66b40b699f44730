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


def _degeneracy_order(n: int, adj: list[set[int]]) -> list[int]:
    """Deterministic vertex order by repeatedly removing a minimum-degree vertex.

    Lazy bucket queue: decremented vertices are re-pushed and stale entries are
    skipped on pop (an entry is stale once its vertex was removed or moved to a
    lower bucket).
    """
    deg = [len(a) for a in adj]
    buckets: list[list[int]] = [[] for _ in range(n)]
    for v in range(n - 1, -1, -1):
        buckets[deg[v]].append(v)
    removed = [False] * n
    order: list[int] = []
    cursor = 0
    for _ in range(n):
        v = -1
        while v < 0:
            while not buckets[cursor]:
                cursor += 1
            cand = buckets[cursor].pop()
            if not removed[cand] and deg[cand] == cursor:
                v = cand
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
                cursor = min(cursor, deg[w])
    return order


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

    Bron-Kerbosch with pivoting, seeded by a degeneracy vertex ordering so the
    outer branching stays shallow on sparse neighborhood graphs.
    """
    n = g.n_vertices
    adj = g.adjacency()
    order = _degeneracy_order(n, adj)
    pos = {v: i for i, v in enumerate(order)}
    found: list[frozenset[int]] = []
    for v in order:
        later = {u for u in adj[v] if pos[u] > pos[v]}
        earlier = {u for u in adj[v] if pos[u] < pos[v]}
        _bron_kerbosch_pivot(adj, {v}, later, earlier, found)
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
    for clique in cliques:
        if len(clique) <= size_cap:
            kept.add(clique)
            continue
        n_subsets = comb(len(clique), size_cap)
        generated += n_subsets
        if n_subsets > subdivision_cap or generated > subdivision_cap:
            raise SubdivisionCapExceeded(
                f"subdividing a {len(clique)}-clique into C({len(clique)},{size_cap})="
                f"{n_subsets} simplices exceeds the cap of {subdivision_cap}; use a smaller p"
            )
        kept.update(combinations(clique, size_cap))
    # Deduplication is the whole of re-maximalization here: a maximal clique of
    # size < p+1 contained in a generated (p+1)-subset would itself sit inside a
    # larger clique, contradicting its maximality.
    return Skeleton(g.n_vertices, p, frozenset(kept), meta=dict(g.meta))
