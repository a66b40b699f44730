"""Exact (distance, index)-ordered nearest neighbours, kNN graphs.

``nearest`` is the one neighbour query: the kNN graph, the safety counts and
the kNN classifier all go through it. It runs over row blocks of the query.
One GEMM per block gives every squared distance by the Gram identity
||q||^2 + ||r||^2 - 2 q.r, but those values only filter. With a rounding
bound on them, built from Higham's gamma_{d+2} ("Accuracy and Stability of
Numerical Algorithms", ch. 3) and derived at ``_candidates``, each row keeps
every column that can rank among its first k, ties included. Only these
candidates get their distances recomputed from coordinate differences, the
formula ``cross_distances`` uses, and are sorted exactly. So the ids do not
depend on the BLAS, its summation order or its thread count. When two
candidate neighbors are at the same distance, the one with the lower vertex
index wins. Distances are Euclidean throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Symmetrization modes for the directed kNN relation.
UNION = "union"
MUTUAL = "mutual"

# Elements of one temporary: the (block, n_ref) Gram block that ``nearest``
# filters candidates with (8 MB of float64), the (pairs, d) coordinate
# differences of its exact re-rank, gathered in chunks even when every pair
# is a candidate, and the (block, n_b, d) difference tensor of
# ``cross_distances``. It sets the row block size, so no full
# (n_query, n_ref) matrix is ever held.
_BLOCK_ELEMS = 1_000_000

# A block whose squared norms reach this (or are inf) is re-ranked on every
# pair: below it no term of the Gram block or of its bound can overflow.
_NORM_LIMIT = 2.0 ** 1000


class GraphParameterError(ValueError):
    """Raised when a graph parameter is outside its valid range."""


def as_points(points) -> np.ndarray:
    """Validate and return an (n, d) float array of finite coordinates."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise GraphParameterError(
            f"expected an (n, d) matrix with n >= 1, d >= 1, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise GraphParameterError("point coordinates must be finite (no NaN/Inf)")
    return pts


@dataclass(frozen=True)
class NeighborhoodGraph:
    """Undirected graph over vertices 0..n_vertices-1 with canonical (u < v) edges."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_vertices < 0:
            raise GraphParameterError("n_vertices must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise GraphParameterError(f"invalid edge ({u}, {v}) for n={self.n_vertices}")

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=int)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """Row sums of squares of an (m, d) array; every exact distance goes through it."""
    return np.einsum("ij,ij->i", x, x)


def _check_dims(pa: np.ndarray, pb: np.ndarray) -> None:
    if pa.shape[1] != pb.shape[1]:
        raise GraphParameterError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")


def cross_distances(a, b) -> np.ndarray:
    """Euclidean distances between two point sets as an (n_a, n_b) matrix."""
    pa, pb = as_points(a), as_points(b)
    _check_dims(pa, pb)
    n_b, d = pb.shape
    out = np.empty((pa.shape[0], n_b), dtype=float)
    block = max(1, _BLOCK_ELEMS // (n_b * d))
    for start in range(0, pa.shape[0], block):
        diff = pa[start:start + block, None, :] - pb[None, :, :]
        out[start:start + block] = np.sqrt(_sq_norms(diff.reshape(-1, d))).reshape(-1, n_b)
    return out


def pairwise_distances(points) -> np.ndarray:
    """Full Euclidean distance matrix, exactly symmetric with a zero diagonal."""
    return cross_distances(points, points)


def _every_pair(n_rows: int, n_cols: int) -> np.ndarray:
    """Flat row-major ids of every pair of a block: the exact path."""
    return np.arange(n_rows * n_cols)


def _candidates(q, r, qn, rn, kk: int) -> np.ndarray:
    """Flat row-major ids of the (row, col) pairs that can rank in the first kk of their row.

    Rounding bound, with u = 2**-53 and D = ||q - r||^2 (Higham, "Accuracy
    and Stability of Numerical Algorithms", ch. 3; each bound holds for any
    summation order, so for any BLAS and thread count):
    - the re-rank computes D' = fl(sum fl(fl(q_k - r_k)^2)): nonnegative
      terms through at most d + 2 roundings, so |D' - D| <= gamma_{d+2} D;
    - here g = fl(||r||^2 + fl(-2q.r)) with the same norms: |fl(q.r) - q.r|
      <= gamma_d ||q|| ||r||, one more rounding for the sum, so
      |g + ||q||^2 - D| <= gamma_{d+1} (||q|| + ||r||)^2;
    - together |g + ||q||^2 - D'| <= 4 gamma_{d+2} (||q||^2 + ||r||^2), with
      gamma_m = m u / (1 - m u);
    - the order is by fl(sqrt(D')), and fl(sqrt(x)) <= fl(sqrt(y)) only if
      x < (1 + 5u) y: another 11u (qn + rn) on the threshold;
    - the three sums below, on values under 3 (qn + rn), add 9u (qn + rn).
    E = c (qn + rn) + a with c = 32 (d + 2) u is more than twice the sum.
    Underflow (IEEE gradual underflow) adds an absolute error of at most
    2**-1075 per operation, under 4 (d + 2) 2**-1074 in all:
    a = (d + 2) 2**-1060 covers it with room and lies far below any normal
    squared distance.
    ||q||^2 is the same along a row, so g leaves it out. Row i keeps column j
    when g_ij - E_ij <= T_i, T_i the kk-th smallest g_ij + E_ij of the row:
    every pair of the exact first kk is kept, and every tie with it.
    """
    if not max(qn.max(), rn.max()) < _NORM_LIMIT:  # also false on inf
        return _every_pair(len(q), len(r))
    d = q.shape[1]
    c, a = (d + 2) * 2.0 ** -48, (d + 2) * 2.0 ** -1060
    col = c * rn + a
    g = (-2.0 * q) @ r.T
    g += rn
    hi = g + col
    hi.partition(kk - 1, axis=1)
    t = hi[:, kk - 1] + 2.0 * c * qn
    del hi
    g -= col
    return np.flatnonzero(g <= t[:, None])


def _rerank(q, r, pairs, kk: int) -> np.ndarray:
    """(len(q), kk) first candidate cols per row, in exact (distance, index) order."""
    rows, cols = np.divmod(pairs, len(r))
    dist = np.empty(rows.size)
    step = max(1, _BLOCK_ELEMS // q.shape[1])
    for s in range(0, rows.size, step):
        diff = q[rows[s:s + step]]
        diff -= r[cols[s:s + step]]
        dist[s:s + step] = np.sqrt(_sq_norms(diff))
    order = np.lexsort((cols, dist, rows))
    first = np.searchsorted(rows, np.arange(len(q)))
    return cols[order[first[:, None] + np.arange(kk)]]


def nearest(query, ref, k: int, self_ids=None) -> np.ndarray:
    """(n_query, k) ``ref`` row ids nearest each query row, in (distance, index) order.

    ``self_ids[i]``, when given, is the ``ref`` row that query row i skips.
    Query rows go in blocks of ``_BLOCK_ELEMS // n_ref``, never as a full
    (n_query, n_ref) matrix. Per block one GEMM filters the candidates of
    each row: Gram-identity squared distances, kept within a rounding bound
    from Higham's gamma_{d+2} (``_candidates``) of the k-th smallest, so
    every tie survives. The candidates' distances are then recomputed from
    coordinate differences, as in ``cross_distances``, and sorted by (row,
    distance, index). A block with squared norms past an overflow-safe limit
    re-ranks every pair. The ids are exact whatever the BLAS and its thread
    count.
    """
    q, r = as_points(query), as_points(ref)
    k, skip = int(k), self_ids is not None
    if not 1 <= k <= r.shape[0] - skip:
        raise GraphParameterError(f"k must satisfy 1 <= k <= {r.shape[0] - skip}, got {k}")
    if skip and np.shape(self_ids) != (q.shape[0],):
        raise GraphParameterError(f"need one self id per query row, not {np.shape(self_ids)}")
    _check_dims(q, r)
    qn, rn = _sq_norms(q), _sq_norms(r)
    out = np.empty((q.shape[0], k), dtype=int)
    block = max(1, _BLOCK_ELEMS // r.shape[0])
    for start in range(0, q.shape[0], block):
        stop = min(start + block, q.shape[0])
        qb = q[start:stop]
        order = _rerank(qb, r, _candidates(qb, r, qn[start:stop], rn, k + skip), k + skip)
        if skip:
            # drop self by id (an inf sentinel would tie with distances that
            # overflow to inf); if self lies beyond the first k+1, drop the last
            keep = order != np.asarray(self_ids)[start:stop, None]
            keep[keep.all(axis=1), -1] = False
            order = order[keep].reshape(stop - start, k)
        out[start:stop] = order
    return out


def knn_graph(points, k: int, symmetrize: str = UNION) -> NeighborhoodGraph:
    """Symmetrized k-nearest-neighbor graph.

    Each vertex lists its k nearest other vertices (distance ties broken by
    lower index); the directed lists are then merged. With ``union`` an edge
    exists if either endpoint lists the other, with ``mutual`` only if both do.
    """
    pts = as_points(points)
    n = pts.shape[0]
    if not 1 <= k <= n - 1:
        raise GraphParameterError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    if symmetrize not in (UNION, MUTUAL):
        raise GraphParameterError(f"symmetrize must be '{UNION}' or '{MUTUAL}', got {symmetrize!r}")
    nbrs = nearest(pts, pts, k, np.arange(n)).tolist()
    directed = {(u, v) for u in range(n) for v in nbrs[u]}
    if symmetrize == UNION:
        edges = {(min(u, v), max(u, v)) for u, v in directed}
    else:
        edges = {(u, v) for u, v in directed if u < v and (v, u) in directed}
    return NeighborhoodGraph(n, frozenset(edges))
