"""Clique complexes: maximal cliques by per-vertex Bron-Kerbosch, and p-skeletons.

A simplex is represented as a strictly ascending tuple of vertex ids; a
(p+1)-clique of the graph is a p-simplex of the clique complex. ``MAXIMAL``
(``None``) requests the full clique complex, i.e. no dimension cap.

``_skeleton_table`` turns sorted edge arrays into a -1-padded simplex table:
``samplers._knn_tables``, the samplers' one builder, calls it on kNN pairs, and
``p_skeleton`` on a graph's edges, returning the rows as tuples. Its clique
step, ``_clique_table``, runs Bron-Kerbosch from every vertex on its own
neighbourhood, breadth-first and vectorised over all vertices, with bitsets
as wide as a neighbourhood rather than the graph: time grows about linearly
with the number of vertices of a sparse graph, and memory stays bounded. Given
the disjoint union of several graphs it returns their tables together, offset,
so one call serves many (graph, k); a sampler cuts its p with ``_subdivide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .graphs import _BLOCK_ELEMS, NeighborhoodGraph, _integer

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


# _LOW[t] is the uint64 word with its lowest t bits set, t = 0..64.
_LOW = np.array([(1 << t) - 1 for t in range(65)], np.uint64)
# _LOWEST[b] is the position of the lowest set bit of the byte b > 0.
_LOWEST = np.array([(b & -b).bit_length() - 1 for b in range(256)], np.intp)
# _POW[t] is 2.0**t, t = 0..31.
_POW = 2.0 ** np.arange(32)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _below(t: np.ndarray, width: int) -> np.ndarray:
    """(len(t), width) uint64 words: the bitsets of the positions below each t."""
    return _LOW.take(np.minimum(np.maximum(t[:, None] - 64 * np.arange(width), 0), 64))


def _set_bits(words: np.ndarray) -> np.ndarray:
    """Flat indices of the set bits of a C-ordered uint64 array, ascending."""
    # byte j of a little-endian word holds its bits 8j..8j+7
    byte = words.astype("<u8", copy=False).view(np.uint8).ravel()
    full = byte.nonzero()[0]
    bits = np.unpackbits(byte.take(full), bitorder="little").nonzero()[0]
    return 8 * full.take(bits >> 3) + (bits & 7)


def _expand(adj: np.ndarray, nbr: np.ndarray, base: np.ndarray, r: np.ndarray,
            p: np.ndarray, x: np.ndarray, found: list) -> None:
    """Bron-Kerbosch from a block of nodes, one level per call.

    Node i works in its root's neighbour list, which starts at row base[i] of
    ``adj`` (the bitset of each neighbour's neighbours, over the positions in
    the list) and of ``nbr`` (their vertex ids). r[i] holds its clique R,
    p[i] and x[i] its bitsets P and X. Each R with P and X empty is maximal
    and goes to ``found``.
    """
    either = p | x
    done = ~either.any(axis=1)
    if done.any():
        found.append(r[done])
    # the pivot: the lowest position in P | X (where both are empty, any row:
    # with P empty the branch is too)
    byte = either.astype("<u8", copy=False).view(np.uint8)
    first = (byte != 0).argmax(axis=1)
    low = _LOWEST.take(byte[np.arange(first.size), first])
    branch = p & ~adj.take(base + 8 * first + low, axis=0)
    del either, done, byte, first, low  # the temporaries of one level go before the next
    # one child per branch bit
    width = p.shape[1]
    parent, at = np.divmod(_set_bits(branch), 64 * width)
    step = max(1, _BLOCK_ELEMS // (64 * width))
    for s in range(0, parent.size, step):
        _expand(adj, nbr, *_children(adj, nbr, base, r, p, x, branch,
                                     parent[s:s + step], at[s:s + step]), found)


def _children(adj, nbr, base, r, p, x, branch, i, v):
    """(base, R, P, X) of the children that add position v[j] to node i[j]."""
    # the loop before this child has moved the branch bits below v from P to X
    moved = branch.take(i, axis=0) & _below(v, p.shape[1])
    base = base.take(i)
    row = base + v
    near = adj.take(row, axis=0)
    return (base, np.concatenate([r.take(i, axis=0), nbr.take(row)[:, None]], axis=1),
            p.take(i, axis=0) & ~moved & near, (x.take(i, axis=0) | moved) & near)


def _clique_table(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The maximal cliques of the graph on 0..n-1 with edges lo < hi, as
    ``_skeleton_table`` gives them at p = MAXIMAL.

    Bron-Kerbosch runs once per vertex v on v's neighbourhood, as Eppstein,
    Loffler & Strash do ("Listing all maximal cliques in sparse graphs in
    near-optimal time", ISAAC 2010): R = {v}, P = v's neighbours later in
    (degree, id) order, X = the earlier ones, so each maximal clique is found
    once, at its earliest vertex. The vertices are relabelled in that order
    first. P and X are bitsets over the positions of v's sorted neighbour
    list, in as many uint64 words as its degree needs. The local adjacency
    rows come from the triangles, each listed once from its earliest vertex;
    they are built for a block of roots of one width at a time, about
    ``_BLOCK_ELEMS // 4`` words, from chunks of ``_BLOCK_ELEMS // 8`` entries.
    The search is breadth-first: each level expands a whole block of nodes at
    once, with the lowest position in P | X as the pivot and one child per bit
    of P minus the pivot's neighbours; the lower bits of that branch move from
    P to X, as in the recursive loop. A block of nodes holds at most
    ``_BLOCK_ELEMS // 64`` words per set, so at most ``_BLOCK_ELEMS`` children.
    """
    m = lo.size
    deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    vertex = deg.argsort(kind="stable")  # vertex[label[v]] = v
    label = np.empty(n, np.intp)
    label[vertex] = np.arange(n)
    deg = deg[vertex]
    src, dst = label[np.concatenate([lo, hi])], label[np.concatenate([hi, lo])]
    order = (src * n + dst).argsort()
    src, dst = src[order], dst[order]
    keys = src * n + dst
    # half-edge h = (src[h], dst[h]) is position h - first[src[h]] of src's
    # sorted list; twin[h] is (dst[h], src[h]), listed m places away before the sort
    first = np.concatenate([[0], np.cumsum(deg)])
    twin = np.empty_like(order)
    twin[order] = np.arange(2 * m)
    twin = twin.take((order + m) % max(2 * m, 1))
    # each array goes once used: the triangle arrays set the peak memory
    del label, order
    # the triangles a < b < c: pairs of half-edges up from a, closed by (b, c)
    up = np.flatnonzero(src < dst)
    below = deg - np.bincount(src[up], minlength=n)  # the neighbours below each vertex
    later = first[src[up] + 1] - up - 1
    h_ab = np.repeat(up, later)
    h_ac = _ranges(up + 1, later)
    del up, later
    # the wedge keys in order, so the lookups walk ``keys`` once; the triangles
    # come out in another order, which the bit sums below do not see
    bc = dst[h_ab] * n + dst[h_ac]
    order = bc.argsort()
    bc = bc.take(order)
    h_bc = np.searchsorted(keys, bc).clip(max=max(2 * m - 1, 0))
    closed = np.flatnonzero(keys[h_bc] == bc)
    del keys, bc
    h_bc, order = h_bc.take(closed), order.take(closed)
    h_ab, h_ac = h_ab.take(order), h_ac.take(order)
    del order
    # adjacency row h holds the positions in src[h]'s list of the common
    # neighbours of src[h] and dst[h]: here the pairs (row, position). c roots
    # nothing in the triangle, so its rows are left out
    h_ba = twin.take(h_ab)
    del twin, closed
    rows = np.concatenate([h_ab, h_ac, h_ba, h_bc])
    cols = np.concatenate([h_ac, h_ab, h_bc, h_ba])
    del h_ab, h_ac, h_ba, h_bc
    cols -= first.take(src.take(cols))
    # the roots, the vertices with a later neighbour; their widths never decrease
    roots = np.flatnonzero(below < deg)
    words = np.maximum(-(-deg // 64), 1)
    found = [np.flatnonzero(deg == 0)[:, None]]
    start = 0
    while start < roots.size:
        # the next block: roots of one width whose rows take about _BLOCK_ELEMS // 4
        # words (a root whose rows take more is a block of its own)
        width = int(words[roots[start]])
        stop = np.searchsorted(first[roots + 1],
                               first[roots[start]] + _BLOCK_ELEMS // (4 * width), "right")
        stop = min(max(stop, start + 1), np.searchsorted(words[roots], width, "right"))
        v = roots[start:stop]
        top, bottom = first[v[0]], first[v[-1] + 1]
        # distinct bits add up to their OR, and a float64 sum of distinct powers
        # of two below 2**32 is exact: one bincount per 32-bit half word
        halves = np.zeros(2 * width * (bottom - top))
        for s in range(0, rows.size, _BLOCK_ELEMS // 8):
            row, col = rows[s:s + _BLOCK_ELEMS // 8], cols[s:s + _BLOCK_ELEMS // 8]
            mine = ((row >= top) & (row < bottom)).nonzero()[0]
            col = col.take(mine)
            halves += np.bincount((row.take(mine) - top) * 2 * width + (col >> 5),
                                  _POW.take(col & 31), halves.size)
        halves = halves.astype(np.uint64).reshape(-1, width, 2)
        adj = halves[..., 0] | halves[..., 1] << np.uint64(32)
        del halves
        x = _below(below[v], width)
        p = _below(deg[v], width) & ~x
        step = max(1, _BLOCK_ELEMS // (64 * width))
        for s in range(0, v.size, step):
            _expand(adj, dst[top:bottom], first[v[s:s + step]] - top, v[s:s + step, None],
                    p[s:s + step], x[s:s + step], found)
        start = stop
    # padded with n, above every id, so each row's ids sort to its front
    table = np.full((sum(f.shape[0] for f in found),
                     max((f.shape[1] for f in found), default=1)), n)
    at = 0
    for f in found:
        table[at:at + f.shape[0], :f.shape[1]] = f
        at += f.shape[0]
    table = np.sort(np.append(vertex, n)[table], axis=1)
    table[table == n] = -1
    return table[np.lexsort(_row_keys(table, n)[::-1])]


def _row_keys(table: np.ndarray, n: int) -> list[np.ndarray]:
    """int64 keys of the rows of a table of ids in -1..n-1 whose lexicographic order is
    the rows': each packs as many columns, id + 1 in base n + 1, as stay below 2**62."""
    base, per = int(n) + 1, 1
    while per < table.shape[1] and base ** (per + 1) < 2 ** 62:
        per += 1
    powers = base ** np.arange(per - 1, -1, -1, dtype=np.int64)
    digits = table + 1
    return [digits[:, s:s + per] @ powers[max(0, s + per - table.shape[1]):]
            for s in range(0, table.shape[1], per)]


def _skeleton_table(n: int, lo: np.ndarray, hi: np.ndarray, p: int | None = MAXIMAL) -> np.ndarray:
    """The p-skeleton of the clique complex of the graph on 0..n-1 with edges lo < hi
    (lexicographic) as a table: one maximal simplex per row, ids ascending, padded
    with -1 (below every id, so a row sorts as its tuple), rows in lexicographic order.

    At p = 1 the rows are the edges and the lone vertices, with no clique step.
    Otherwise they are the maximal cliques, subdivided by ``_subdivide``.
    """
    p = _dimension(p)
    if p == 1:
        lone = np.flatnonzero(np.bincount(np.concatenate([lo, hi]), minlength=n) == 0)
        return np.insert(np.column_stack([lo, hi]), np.searchsorted(lo, lone),
                         np.column_stack([lone, np.full_like(lone, -1)]), axis=0)
    return _subdivide(_clique_table(n, lo, hi), p)


def _dimension(p) -> int | None:
    """p as an int >= 1, or MAXIMAL; ``SkeletonParameterError`` otherwise."""
    if p is MAXIMAL:
        return p
    p = _integer(p, "p", SkeletonParameterError)
    if p < 1:
        raise SkeletonParameterError(f"p must be >= 1 or MAXIMAL, got {p} "
                                     "(p=0 would reduce to point duplication)")
    return p


def _subdivide(cliques: np.ndarray, p: int | None) -> np.ndarray:
    """The ``_clique_table`` ``cliques`` at p >= 2 or MAXIMAL, those larger than p+1
    replaced by their (p+1)-subsets: only here, per table, does ``SUBDIVISION_CAP`` bind."""
    if p is MAXIMAL:
        return cliques
    size_cap, generated = p + 1, 0
    sizes = np.count_nonzero(cliques >= 0, axis=1)
    kept = set(map(tuple, cliques[sizes <= size_cap, :size_cap].tolist()))
    # the rows sort as their tuples, so the error names the first clique
    # (lexicographic) that passes the cap
    for clique in cliques[sizes > size_cap].tolist():
        clique = tuple(v for v in clique if v >= 0)
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
    # each kept row has min(width, p+1) entries, pads -1 included, so tuple
    # order is the table's
    return np.array(sorted(kept), dtype=int).reshape(-1, min(cliques.shape[1], size_cap))


def maximal_cliques(g: NeighborhoodGraph) -> frozenset[Simplex]:
    """All inclusion-maximal cliques; isolated vertices come back as 1-tuples.

    Bron-Kerbosch once per vertex v on v's neighbourhood, with P = v's later
    neighbours and X = the earlier ones in (degree, id) order (Eppstein,
    Loffler & Strash, "Listing all maximal cliques in sparse graphs in
    near-optimal time", ISAAC 2010), on bitsets over v's neighbour list. The
    pivot is the lowest vertex of P | X: cheap on sparse kNN graphs, without
    Tomita's worst-case bound on dense ones.
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
