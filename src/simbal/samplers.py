"""Minority oversamplers: random, global, Gaussian, edge-based and simplex-based.

The simplex-based sampler builds a kNN graph over the minority points, takes
the maximal simplices of the p-skeleton of its clique complex, and synthesizes
each new point as a Dirichlet-weighted combination of one simplex's vertices.
The edge-based sampler is the same pipeline with p forced to 1. Random
duplication draws the same way from 0-simplices, and global pair sampling
from the edges of the complete minority graph.

Every sampler is a pure function of (dataset, parameters, seed). Synthetic
points carry provenance: the dataset-level vertex ids of the source simplex
and the barycentric weight vector, so each output row can be reconstructed
and audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .complexes import MAXIMAL, Skeleton, p_skeleton
from .datasets import Dataset, DatasetError, MINORITY
# sample_dirichlet is not called here any more, but stays importable from this
# module: perfbench traces the per-point Dirichlet path at this lookup site.
from .geometry import dirichlet_weights, gamma_shapes, sample_dirichlet  # noqa: F401
from .graphs import MUTUAL, UNION, knn_graph

# The step of PCG64.jumped: stream i is the seed state advanced by (i+1) of these.
PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835

# Ridge added to the fitted covariance diagonal before factorization.
GAUSSIAN_RIDGE_REL = 1e-6
GAUSSIAN_RIDGE_ABS = 1e-12


class SamplerParameterError(ValueError):
    """Raised for invalid sampler configuration."""


class Method(Enum):
    RANDOM = "random"
    GLOBAL = "global"
    GAUSSIAN = "gaussian"
    SMOTE = "smote"
    SIMPLICIAL = "simplicial"
    BORDERLINE = "borderline"
    S_BORDERLINE = "s_borderline"
    SAFELEVEL = "safelevel"
    S_SAFELEVEL = "s_safelevel"
    ADASYN = "adasyn"
    S_ADASYN = "s_adasyn"


INVERSE_SAFETY = "inverse"
PLUS_ONE_SAFETY = "plus-one"

# Safety variants of the simplex pipeline; each turns one knob (see variants.py).
BORDERLINE = "borderline"
SAFELEVEL = "safelevel"
ADASYN = "adasyn"

# Every method whose pipeline starts from a neighborhood graph:
# Method -> (safety variant or None, p forced to 1).
GRAPH_VARIANTS = {
    Method.SMOTE: (None, True),
    Method.SIMPLICIAL: (None, False),
    Method.BORDERLINE: (BORDERLINE, True),
    Method.S_BORDERLINE: (BORDERLINE, False),
    Method.SAFELEVEL: (SAFELEVEL, True),
    Method.S_SAFELEVEL: (SAFELEVEL, False),
    Method.ADASYN: (ADASYN, True),
    Method.S_ADASYN: (ADASYN, False),
}
GRAPH_METHODS = frozenset(GRAPH_VARIANTS)


@dataclass(frozen=True)
class SamplerConfig:
    method: Method
    k: int | None = None
    p: int | None = MAXIMAL
    seed: int = 0
    target_count: int | None = None
    symmetrize: str = UNION
    safelevel_formula: str = INVERSE_SAFETY

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise SamplerParameterError(f"method must be a Method, got {self.method!r}")
        if self.method in GRAPH_METHODS:
            if self.k is None or int(self.k) < 1:
                raise SamplerParameterError(
                    f"method {self.method.value} needs a neighborhood size k >= 1, got {self.k!r}"
                )
            if self.p is not MAXIMAL:
                if int(self.p) < 1:
                    raise SamplerParameterError(f"p must be >= 1 or MAXIMAL, got {self.p}")
                # edge-only methods force p to 1, so the p given cannot exceed k
                if not GRAPH_VARIANTS[self.method][1] and int(self.p) > int(self.k):
                    raise SamplerParameterError(
                        f"p={self.p} exceeds k={self.k}; a k-neighborhood cannot ask for "
                        f"higher-order simplices than it has neighbors"
                    )
        if not 0 <= int(self.seed) < 2 ** 64:
            raise SamplerParameterError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.target_count is not None and int(self.target_count) < 0:
            raise SamplerParameterError(f"target_count must be >= 0, got {self.target_count}")
        if self.safelevel_formula not in (INVERSE_SAFETY, PLUS_ONE_SAFETY):
            raise SamplerParameterError(
                f"safelevel_formula must be '{INVERSE_SAFETY}' or '{PLUS_ONE_SAFETY}'"
            )
        if self.symmetrize not in (UNION, MUTUAL):
            raise SamplerParameterError(
                f"symmetrize must be '{UNION}' or '{MUTUAL}', got {self.symmetrize!r}"
            )


@dataclass(frozen=True)
class Provenance:
    """Source record for one synthetic point."""

    simplex: tuple[int, ...]  # dataset-level vertex ids, ascending; () for gaussian
    lam: tuple[float, ...]    # barycentric weights, aligned with simplex
    kind: str = "barycentric"


@dataclass(frozen=True)
class SyntheticBatch:
    points: np.ndarray
    provenance: tuple[Provenance, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise SamplerParameterError(f"points must be 2-d, got shape {pts.shape}")
        if len(self.provenance) != pts.shape[0]:
            raise SamplerParameterError("one provenance record per synthetic point required")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def labels(self) -> np.ndarray:
        return np.full(self.m, MINORITY)

    def augmented(self, ds: Dataset) -> Dataset:
        """Original dataset with the synthetic minority rows appended."""
        return Dataset(
            np.vstack([ds.features, self.points]),
            np.concatenate([ds.labels, self.labels()]),
        )


class SampleStreams:
    """Deterministic RNG streams for one sampler invocation.

    The base stream drives simplex selection, one pick per point in point
    order, so a larger batch extends a smaller one; synthetic point i gets its own
    stream, ``PCG64(seed).jumped(i+1)``, so per-point draws do not depend on
    generation order and parallel generation matches sequential generation.
    Samplers reach those streams by PCG64 jump-ahead on one reused generator
    (``point_streams``) instead of building a generator per point.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.selection = np.random.Generator(np.random.PCG64(self.seed))

    def point_stream(self, i: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed).jumped(i + 1))

    def point_streams(self, points):
        """Point i's stream for each i in ``points``, in that order.

        One generator is yielded again and again: before each yield its bit
        generator is reset to the seed state and advanced by (i+1) jumps, the
        exact state of ``point_stream(i)``. Draw from it before taking the next.
        """
        bits = np.random.PCG64(self.seed)
        start = bits.state
        rng = np.random.Generator(bits)
        for i in points:
            bits.state = start
            bits.advance((int(i) + 1) * PCG64_JUMP % 2 ** 128)
            yield rng


def _resolve_m(ds: Dataset, target_count: int | None) -> int:
    if target_count is not None:
        return int(target_count)
    gap = ds.n_majority - ds.n_minority
    if gap < 0:
        raise DatasetError(
            f"minority class (+1, n={ds.n_minority}) is larger than the majority class "
            f"(n={ds.n_majority}); nothing to oversample"
        )
    return gap


def _empty_batch(d: int, meta: dict) -> SyntheticBatch:
    return SyntheticBatch(np.empty((0, d)), (), meta)


def oversample_random(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Duplicate minority rows uniformly with replacement: simplices of one vertex."""
    if ds.n_minority < 1:
        raise SamplerParameterError("need at least one minority point")
    meta = {"method": Method.RANDOM.value, "seed": int(seed)}
    return _sample_from_simplices(ds.features, [(v,) for v in ds.minority_indices().tolist()],
                                  _resolve_m(ds, m), SampleStreams(seed), meta)


def _duplicated_instead(ds: Dataset, m: int | None, seed: int, method: Method,
                       warning: str) -> SyntheticBatch:
    """Random duplication standing in for a sampler short of minority points."""
    batch = oversample_random(ds, m, seed)
    meta = dict(batch.meta, method=method.value, warnings=(warning,))
    return SyntheticBatch(batch.points, batch.provenance, meta)


def oversample_global(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Convex combinations of uniformly chosen distinct minority pairs."""
    if ds.n_minority < 2:
        return _duplicated_instead(ds, m, seed, Method.GLOBAL,
                                   "fewer than 2 minority points; duplicated instead of combining")
    m = _resolve_m(ds, m)
    meta = {"method": Method.GLOBAL.value, "seed": int(seed)}
    streams = SampleStreams(seed)
    idx_min = ds.minority_indices()
    # row i is point i's (first, partner) draw; the partner skips the first, so
    # the pair is uniform over distinct pairs, then listed ascending
    pairs = streams.selection.integers(0, [idx_min.size, idx_min.size - 1], size=(m, 2))
    pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
    pairs.sort(axis=1)
    return _draw_simplices(ds.features, list(map(tuple, idx_min[pairs].tolist())), streams, meta)


def oversample_gaussian(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Draw from a Gaussian fitted to the minority class (mean + full covariance)."""
    if ds.n_minority < 2:
        return _duplicated_instead(ds, m, seed, Method.GAUSSIAN,
                                   "fewer than 2 minority points; duplicated instead of fitting")
    m = _resolve_m(ds, m)
    meta = {"method": Method.GAUSSIAN.value, "seed": int(seed)}
    if m == 0:
        return _empty_batch(ds.d, meta)
    minority = ds.minority_features()
    with np.errstate(over="ignore", invalid="ignore"):
        mu = minority.mean(axis=0)
        cov = np.cov(minority, rowvar=False).reshape(ds.d, ds.d)
        ridge = GAUSSIAN_RIDGE_REL * np.trace(cov) / ds.d + GAUSSIAN_RIDGE_ABS
        cov = cov + ridge * np.eye(ds.d)
    if not np.isfinite(cov).all():
        raise SamplerParameterError("the minority covariance overflows; rescale the features")
    chol = np.linalg.cholesky(cov)
    z = np.array([rng.standard_normal(ds.d)
                  for rng in SampleStreams(seed).point_streams(range(m))])
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per point, as chol @ z_i rounds
        points = mu + np.matmul(chol, z[:, :, None])[:, :, 0]
    if not np.isfinite(points).all():
        raise SamplerParameterError("Gaussian draws overflow; rescale the features")
    prov = tuple(Provenance((), (), kind="gaussian") for _ in range(m))
    return SyntheticBatch(points, prov, meta)


def _knn_skeleton(ds: Dataset, ids: np.ndarray, k: int, p: int | None,
                  symmetrize: str) -> tuple[Skeleton, dict]:
    """Skeleton of the kNN clique complex over the dataset rows ``ids``, k clamped to ids.size - 1.

    Returns (skeleton over positions in ``ids``, clamp info).
    """
    if ids.size < 2:
        raise SamplerParameterError("need at least 2 minority points to build a graph")
    k_used = min(int(k), ids.size - 1)
    sk = p_skeleton(knn_graph(ds.features[ids], k_used, symmetrize), p)
    return sk, {"k_requested": int(k), "k_used": k_used, "k_clamped": k_used != int(k)}


def minority_skeleton(ds: Dataset, k: int, p: int | None = MAXIMAL,
                      symmetrize: str = UNION) -> tuple[Skeleton, np.ndarray, dict]:
    """Skeleton of the minority kNN clique complex, with k clamped to n_plus - 1.

    Returns (skeleton over minority-local vertex ids, minority dataset indices,
    clamp info).
    """
    idx_min = ds.minority_indices()
    sk, info = _knn_skeleton(ds, idx_min, k, p, symmetrize)
    return sk, idx_min, info


def _sample_from_simplices(features: np.ndarray, simplices: list[tuple[int, ...]],
                           m: int, streams: SampleStreams, meta: dict,
                           weights: np.ndarray | None = None,
                           alpha_fn=None) -> SyntheticBatch:
    """Pick one of ``simplices`` per point on the selection stream, then draw them.

    ``simplices`` hold dataset-level vertex ids in canonical order;
    ``weights`` switches selection from uniform to the given distribution;
    ``alpha_fn`` maps a simplex to its Dirichlet parameters (default all-ones).
    The m picks are one call, so a larger m extends a batch.
    """
    if weights is None:
        sel = streams.selection.integers(0, len(simplices), size=m)
    else:
        sel = streams.selection.choice(len(simplices), size=m, p=weights)
    return _draw_simplices(features, [simplices[c] for c in sel.tolist()], streams, meta,
                           alpha_fn)


def _draw_simplices(features: np.ndarray, chosen: list[tuple[int, ...]],
                    streams: SampleStreams, meta: dict, alpha_fn=None) -> SyntheticBatch:
    """Shared back half of every barycentric sampler: point i from simplex ``chosen[i]``.

    ``chosen`` holds one simplex per point, as ascending dataset-level ids.
    Point i is ``lam @ features[chosen[i]]`` with ``lam`` drawn from point i's
    own stream, Dirichlet(``alpha_fn`` or all-ones), and its provenance
    records both. A lone vertex has the constant weight 1 and is copied
    without a draw.
    """
    sizes = np.fromiter(map(len, chosen), dtype=int, count=len(chosen))
    points = np.empty((len(chosen), features.shape[1]))
    prov = [None] * len(chosen)
    # Rows of one simplex size at a time: padding rows to a common width would
    # change how numpy's pairwise sum rounds the normalizing totals.
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        verts = np.array([chosen[i] for i in rows.tolist()], dtype=int)
        if size == 1:
            lam = np.ones((rows.size, 1))
            points[rows] = features[verts[:, 0]]
        else:
            lam = _dirichlet_rows(None if alpha_fn is None else alpha_fn(verts),
                                  size, streams.point_streams(rows))
            points[rows] = _combine(features, verts, lam)
        for i, weights in zip(rows.tolist(), lam.tolist()):
            prov[i] = Provenance(chosen[i], tuple(weights))
    return SyntheticBatch(points, tuple(prov), meta)


def _dirichlet_rows(alpha: np.ndarray | None, size: int, rngs) -> np.ndarray:
    """One row of Dirichlet weights per generator in ``rngs``.

    ``alpha`` holds a row of parameters per generator, or None for all-ones.
    Each generator gives the raw draws ``sample_dirichlet`` would take from it,
    except that all-ones rows skip the trailing uniforms, which they never read:
    Gamma(1) is the standard exponential, and a per-point stream is not reused.
    """
    if alpha is None:
        return dirichlet_weights(1.0, np.array([rng.standard_exponential(size) for rng in rngs]))
    draws = [(rng.standard_gamma(s), rng.uniform(size=size))
             for rng, s in zip(rngs, gamma_shapes(alpha))]
    return dirichlet_weights(alpha, np.array([g for g, _ in draws]),
                             np.array([u for _, u in draws]))


def _combine(features: np.ndarray, verts: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Row i is lam[i] @ features[verts[i]], one vector-matrix product per row."""
    return np.matmul(lam[:, None, :], features[verts])[:, 0, :]


def dataset_level_simplices(sk: Skeleton, ids: np.ndarray) -> list[tuple[int, ...]]:
    """Map a local skeleton to sorted dataset-level vertex tuples.

    ``ids`` ascend, so the map is monotone and keeps the skeleton's order.
    """
    return [tuple(int(ids[v]) for v in s) for s in sk.sorted_simplices()]


def oversample_simplicial(ds: Dataset, k: int, p: int | None = MAXIMAL,
                          m: int | None = None, seed: int = 0,
                          symmetrize: str = UNION) -> SyntheticBatch:
    """Synthesize from maximal simplices of the minority clique complex p-skeleton."""
    return oversample(ds, SamplerConfig(Method.SIMPLICIAL, k, p, seed, m, symmetrize))


def oversample_smote(ds: Dataset, k: int, m: int | None = None, seed: int = 0,
                     symmetrize: str = UNION) -> SyntheticBatch:
    """Edge-based special case: the simplex pipeline with p forced to 1."""
    return oversample(ds, SamplerConfig(Method.SMOTE, k, 1, seed, m, symmetrize))


POINT_SAMPLERS = {
    Method.RANDOM: oversample_random,
    Method.GLOBAL: oversample_global,
    Method.GAUSSIAN: oversample_gaussian,
}


def oversample(ds: Dataset, config: SamplerConfig) -> SyntheticBatch:
    """Dispatch a configured oversampling run."""
    if config.method in GRAPH_VARIANTS:
        from .variants import oversample_graph  # the graph pipeline layers on this module
        return oversample_graph(ds, config)
    return POINT_SAMPLERS[config.method](ds, config.target_count, config.seed)
