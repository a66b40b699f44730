"""Barycentric geometry: Dirichlet weights and simplex projection distances."""

from __future__ import annotations

import numpy as np

from .complexes import MAXIMAL, Skeleton, p_skeleton
from .graphs import UNION, as_points, knn_graph

# Projected-gradient solver defaults; simplices here are tiny (p+1 <= k+1
# vertices), so a tight tolerance is cheap.
PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 10_000


class GeometryParameterError(ValueError):
    """Raised for invalid barycentric or Dirichlet parameters."""


def gamma_shapes(alpha) -> np.ndarray:
    """Gamma shapes whose draws ``dirichlet_weights`` turns into Dirichlet(alpha) weights.

    Components with alpha < 1 are drawn as Gamma(alpha+1) and boosted later,
    which avoids the underflow-to-zero failure mode of direct small-shape Gamma
    sampling.
    """
    a = np.asarray(alpha, dtype=float)
    if not 0.0 < a.min() <= a.max() < np.inf:  # a NaN fails the first comparison
        raise GeometryParameterError("all Dirichlet parameters must be positive and finite")
    return np.where(a < 1.0, a + 1.0, a)


def dirichlet_weights(alpha, gammas: np.ndarray, uniforms: np.ndarray | None = None) -> np.ndarray:
    """Dirichlet(alpha) weights along the last axis from raw Gamma and uniform draws.

    ``gammas`` are standard Gamma draws of ``gamma_shapes(alpha)``; components
    with alpha < 1 become Gamma(alpha+1) * U**(1/alpha), U from ``uniforms``,
    which may be omitted when no alpha is below 1. Each row is normalized by its
    own sum; a row whose every component underflowed gets the simplex centre.
    """
    a = np.asarray(alpha, dtype=float)
    if a.min() < 1.0:
        gammas = np.where(a < 1.0, gammas * uniforms ** (1.0 / a), gammas)
    total = gammas.sum(axis=-1, keepdims=True)
    if total.min() > 0.0:
        return gammas / total
    centre = np.full(gammas.shape, 1.0 / gammas.shape[-1])
    return np.divide(gammas, total, out=centre, where=total > 0.0)


def sample_dirichlet(alpha, rng: np.random.Generator) -> np.ndarray:
    """One draw from Dirichlet(alpha) as a length-len(alpha) weight vector.

    Uses the Gamma-normalization construction with the small-alpha boost of
    ``dirichlet_weights``; takes len(alpha) Gamma then len(alpha) uniform draws
    from ``rng``.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise GeometryParameterError(f"alpha must be a 1-d vector, got shape {a.shape}")
    g = rng.standard_gamma(gamma_shapes(a))
    return dirichlet_weights(a, g, rng.uniform(size=a.size))


def project_to_probability_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto {w : w >= 0, sum(w) = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css - 1.0)[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def distance_to_simplex(q, vertices, tol: float = PROJECTION_TOL,
                        max_iter: int = PROJECTION_MAX_ITER) -> float:
    """Euclidean distance from point q to the convex hull of the vertex rows.

    Minimizes ||lam @ V - q|| over the probability simplex by accelerated
    projected gradient descent with a fixed 1/L step, L being the largest
    eigenvalue of the vertex Gram matrix.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim == 1:
        verts = verts.reshape(-1, 1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if verts.ndim != 2 or q.shape[0] != verts.shape[1]:
        raise GeometryParameterError(
            f"point/vertex shape mismatch: q {q.shape} vs vertices {verts.shape}"
        )
    n_verts = verts.shape[0]
    if n_verts == 1:
        return float(np.linalg.norm(verts[0] - q))
    gram = verts @ verts.T
    lipschitz = float(np.linalg.eigvalsh(gram)[-1])
    if lipschitz <= 0.0:
        # All vertices at the origin; the hull is a single point.
        return float(np.linalg.norm(q))
    step = 1.0 / lipschitz
    lam = np.full(n_verts, 1.0 / n_verts)
    momentum = lam.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = (momentum @ verts - q) @ verts.T
        nxt = project_to_probability_simplex(momentum - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = nxt + ((t - 1.0) / t_next) * (nxt - lam)
        shift = float(np.max(np.abs(nxt - lam)))
        lam = nxt
        t = t_next
        if shift <= tol:
            break
    return float(np.linalg.norm(lam @ verts - q))


def mean_model_distance(majority_pts, minority_pts, k: int, p: int | None = MAXIMAL,
                        symmetrize: str = UNION) -> float:
    """Mean distance from each majority point to the nearest minority simplex.

    The geometric model is the p-skeleton of the minority kNN clique complex;
    each majority point contributes its minimum projection distance over the
    model's maximal simplices. A single minority point degenerates to the mean
    point-to-point distance.
    """
    maj = as_points(majority_pts)
    mino = as_points(minority_pts)
    if maj.shape[1] != mino.shape[1]:
        raise GeometryParameterError(
            f"dimension mismatch: majority d={maj.shape[1]}, minority d={mino.shape[1]}"
        )
    if mino.shape[0] == 1:
        sk = Skeleton(MAXIMAL, frozenset({(0,)}))
    else:
        sk = p_skeleton(knn_graph(mino, k, symmetrize), p)
    simplices = sk.sorted_simplices()
    total = 0.0
    for q in maj:
        total += min(distance_to_simplex(q, mino[list(s)]) for s in simplices)
    return total / maj.shape[0]
