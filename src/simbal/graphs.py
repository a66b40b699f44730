"""Exact pairwise distances and symmetrized kNN graphs over point sets.

All tie-breaking is deterministic: when two candidate neighbors are at the
same distance, the one with the lower vertex index wins. Distances are
Euclidean throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Symmetrization modes for the directed kNN relation.
UNION = "union"
MUTUAL = "mutual"

# Row block size for the pairwise-distance computation; caps the temporary
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

    @property
    def n_edges(self) -> int:
        return len(self.edges)

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


def pairwise_distances(points) -> np.ndarray:
    """Full Euclidean distance matrix, exactly symmetric with a zero diagonal.

    Computed from coordinate differences so that entry (i, j) and entry (j, i)
    go through identical floating-point operations.
    """
    pts = as_points(points)
    n, d = pts.shape
    out = np.empty((n, n), dtype=float)
    block = max(1, _BLOCK_ELEMS // max(1, n * d))
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        out[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(out, 0.0)
    return out


def cross_distances(a, b) -> np.ndarray:
    """Euclidean distances between two point sets as an (n_a, n_b) matrix."""
    pa = as_points(a)
    pb = as_points(b)
    if pa.shape[1] != pb.shape[1]:
        raise GraphParameterError(
            f"dimension mismatch: {pa.shape[1]} vs {pb.shape[1]}"
        )
    na, d = pa.shape
    out = np.empty((na, pb.shape[0]), dtype=float)
    block = max(1, _BLOCK_ELEMS // max(1, pb.shape[0] * d))
    for start in range(0, na, block):
        stop = min(start + block, na)
        diff = pa[start:stop, None, :] - pb[None, :, :]
        out[start:stop] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return out


def _neighbor_order(dist_row: np.ndarray, self_index: int) -> np.ndarray:
    """Vertices ordered by (distance, index), self excluded."""
    n = dist_row.shape[0]
    order = np.lexsort((np.arange(n), dist_row))
    return order[order != self_index]


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
    dist = pairwise_distances(pts)
    directed: set[tuple[int, int]] = set()
    for u in range(n):
        for v in _neighbor_order(dist[u], u)[:k]:
            directed.add((u, int(v)))
    if symmetrize == UNION:
        edges = {(min(u, v), max(u, v)) for u, v in directed}
    else:
        edges = {(u, v) for u, v in directed if u < v and (v, u) in directed}
    return NeighborhoodGraph(n, frozenset(edges), meta={"k": k, "symmetrize": symmetrize})
