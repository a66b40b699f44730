"""Exact (distance, index)-ordered nearest neighbours, kNN graphs.

``nearest`` is the one neighbour query: the kNN graph, the safety counts and
the kNN classifier all go through it. All tie-breaking is deterministic: when
two candidate neighbors are at the same distance, the one with the lower
vertex index wins. Distances are Euclidean throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Symmetrization modes for the directed kNN relation.
UNION = "union"
MUTUAL = "mutual"

# Row block size for the distance computation; caps the temporary
# (block, n, d) difference tensor at roughly 64 MB of float64.
_BLOCK_ELEMS = 8_000_000


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
    meta: dict = field(default_factory=dict, compare=False)

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


def _distance_blocks(pa: np.ndarray, pb: np.ndarray):
    """Row blocks (start, stop, distances of pa[start:stop] to pb), from coordinate differences."""
    if pa.shape[1] != pb.shape[1]:
        raise GraphParameterError(f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}")
    block = max(1, _BLOCK_ELEMS // max(1, pb.shape[0] * pb.shape[1]))
    for start in range(0, pa.shape[0], block):
        stop = min(start + block, pa.shape[0])
        diff = pa[start:stop, None, :] - pb[None, :, :]
        yield start, stop, np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def cross_distances(a, b) -> np.ndarray:
    """Euclidean distances between two point sets as an (n_a, n_b) matrix."""
    pa, pb = as_points(a), as_points(b)
    out = np.empty((pa.shape[0], pb.shape[0]), dtype=float)
    for start, stop, dist in _distance_blocks(pa, pb):
        out[start:stop] = dist
    return out


def pairwise_distances(points) -> np.ndarray:
    """Full Euclidean distance matrix, exactly symmetric with a zero diagonal."""
    return cross_distances(points, points)


def nearest(query, ref, k: int, self_ids=None) -> np.ndarray:
    """(n_query, k) ``ref`` row ids nearest each query row, in (distance, index) order.

    ``self_ids[i]``, when given, is the ``ref`` row that query row i skips.
    Distances go in row blocks, never as a full (n_query, n_ref) matrix.
    """
    q, r = as_points(query), as_points(ref)
    k, skip = int(k), self_ids is not None
    if not 1 <= k <= r.shape[0] - skip:
        raise GraphParameterError(f"k must satisfy 1 <= k <= {r.shape[0] - skip}, got {k}")
    if skip and np.shape(self_ids) != (q.shape[0],):
        raise GraphParameterError(f"need one self id per query row, not {np.shape(self_ids)}")
    out = np.empty((q.shape[0], k), dtype=int)
    for start, stop, dist in _distance_blocks(q, r):
        order = np.argsort(dist, axis=1, kind="stable")[:, :k + skip]
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
    return NeighborhoodGraph(n, frozenset(edges), meta={"k": k, "symmetrize": symmetrize})
