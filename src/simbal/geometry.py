"""Barycentric geometry: Dirichlet weights and exact point-to-hull distances."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import graphs
from .complexes import MAXIMAL, _skeleton_table, _table_skeleton
from .graphs import UNION, _floats, _knn_pairs, as_points


class GeometryParameterError(ValueError):
    """Raised for invalid barycentric or Dirichlet parameters."""


def dirichlet_weights(gammas: np.ndarray) -> np.ndarray:
    """Dirichlet weights along the last axis from independent Gamma(alpha_i) draws.

    Each row is normalized by its own sum; a row whose every component
    underflowed gets the simplex centre.
    """
    total = gammas.sum(axis=-1, keepdims=True)
    if total.min() > 0.0:
        return gammas / total
    centre = np.full(gammas.shape, 1.0 / gammas.shape[-1])
    return np.divide(gammas, total, out=centre, where=total > 0.0)


def sample_dirichlet(alpha, rng: np.random.Generator) -> np.ndarray:
    """One draw from Dirichlet(alpha) as a length-len(alpha) weight vector.

    Takes len(alpha) Gamma then len(alpha) uniform draws from ``rng``. A
    component with alpha < 1 is drawn as Gamma(alpha+1) * U**(1/alpha), which
    has the Gamma(alpha) law but does not underflow to zero as direct
    small-shape Gamma sampling does; the uniforms are drawn even with none.
    """
    try:
        a = np.asarray(alpha, dtype=float)
    except (TypeError, ValueError):
        raise GeometryParameterError(f"alpha must be numeric, got {alpha!r}") from None
    if a.ndim != 1 or a.size < 1:
        raise GeometryParameterError(f"alpha must be a 1-d vector, got shape {a.shape}")
    # a NaN fails the first comparison
    if not 0.0 < a.min() <= a.max() < np.inf:
        raise GeometryParameterError("all Dirichlet parameters must be positive and finite")
    small = a < 1.0
    g = rng.standard_gamma(a + small)
    # the exponent is 1/alpha where alpha < 1 and 0 elsewhere: U**0 is 1.0, so g stays exact
    return dirichlet_weights(g * rng.random(a.size) ** (small / a))


def _hull_distances(queries: np.ndarray, points: np.ndarray, simplices) -> np.ndarray:
    """Distance from each query row to the nearest hull of a ``points`` row-id tuple.

    Johnson's distance sub-algorithm of GJK (Gilbert, Johnson & Keerthi, IEEE
    J. Robotics and Automation 4(2), 1988): the nearest point lies in the
    relative interior of a face of at most d + 1 vertices (Caratheodory). The
    distinct such faces, at most sum_{s <= min(w, d+1)} C(w, s) per simplex of
    w vertices, are solved per size as one stack: the normal equations of each
    face's affine hull in differences to its first vertex, through ``pinv`` of
    the Gram stack, so repeated or collinear vertices raise nothing. Only
    weights all >= 0 count, and the distance is to the point they rebuild,
    not the solve's residual: a near-singular face can only over-estimate.
    Coordinates are divided by one power of two (exact), so no square
    overflows or underflows. Faces and query rows go in blocks, so no
    temporary of the solve exceeds ``_BLOCK_ELEMS`` elements.
    """
    d = points.shape[1]
    exp = np.frexp(max(np.abs(queries).max(), np.abs(points).max()))[1]
    q, pts = np.ldexp(queries, -exp), np.ldexp(points, -exp)
    faces = {face for simplex in simplices for size in range(1, min(len(simplex), d + 1) + 1)
             for face in combinations(simplex, size)}
    best = np.full(q.shape[0], np.inf)
    for size in sorted({len(f) for f in faces}):
        ids = np.array(sorted(f for f in faces if len(f) == size), dtype=int).reshape(-1, size)
        face_block = max(1, graphs._BLOCK_ELEMS // (size * d))
        for f0 in range(0, ids.shape[0], face_block):
            verts = pts[ids[f0:f0 + face_block]]
            base, edges = verts[:, 0], verts[:, 1:] - verts[:, :1]
            inv = np.linalg.pinv(np.einsum("fsd,ftd->fst", edges, edges))
            row_block = max(1, graphs._BLOCK_ELEMS // (verts.shape[0] * d))
            for r0 in range(0, q.shape[0], row_block):
                diff = q[r0:r0 + row_block, None, :] - base
                mu = np.einsum("fst,bft->bfs", inv, np.einsum("bfd,fsd->bfs", diff, edges))
                res = diff - np.einsum("bfs,fsd->bfd", mu, edges)
                dist = np.sqrt(np.einsum("bfd,bfd->bf", res, res))
                dist[(mu < 0.0).any(axis=-1) | (mu.sum(axis=-1) > 1.0)] = np.inf
                best[r0:r0 + row_block] = np.minimum(best[r0:r0 + row_block], dist.min(axis=1))
    return np.ldexp(best, exp)


def distance_to_simplex(q, vertices) -> float:
    """Euclidean distance from point q to the convex hull of the vertex rows.

    Raises ``GraphParameterError`` for an empty or non-finite q or vertex set.
    """
    verts = as_points(vertices)
    q = as_points(_floats(q).reshape(1, -1))
    if q.shape[1] != verts.shape[1]:
        raise GeometryParameterError(
            f"point/vertex shape mismatch: q {q.shape[1:]} vs vertices {verts.shape}"
        )
    return float(_hull_distances(q, verts, [tuple(range(verts.shape[0]))])[0])


def mean_model_distance(majority_pts, minority_pts, k: int, p: int | None = MAXIMAL) -> float:
    """Mean distance from each majority point to the nearest minority simplex.

    The geometric model is the p-skeleton of the minority union-kNN clique complex;
    each majority point contributes its distance to the nearest of the model's
    maximal simplices, all solved in one ``_hull_distances`` call. A single
    minority point degenerates to the mean point-to-point distance.
    """
    maj = as_points(majority_pts)
    mino = as_points(minority_pts)
    if maj.shape[1] != mino.shape[1]:
        raise GeometryParameterError(
            f"dimension mismatch: majority d={maj.shape[1]}, minority d={mino.shape[1]}"
        )
    if mino.shape[0] == 1:
        simplices = [(0,)]
    else:
        table = _skeleton_table(*_knn_pairs(mino, k, UNION), p)
        simplices = _table_skeleton(table).maximal_simplices
    return float(np.mean(_hull_distances(maj, mino, simplices)))
