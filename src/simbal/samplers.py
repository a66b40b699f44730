"""Minority oversamplers: random, global, Gaussian, edge-based and simplex-based.

The simplex-based sampler turns the kNN pairs of the minority points into a
table of the maximal simplices of the p-skeleton of their clique complex
(``complexes._skeleton_table``) and synthesizes each new point as a
Dirichlet-weighted combination of one simplex's vertices. The edge-based
sampler is the same pipeline with p forced to 1. In the grid search, both get
their CV split's tables (``_knn_tables``), and neither search nor clique step
runs. Random duplication draws the same way from 0-simplices, and global pair
sampling from the edges of the complete minority graph.

A barycentric draw has two halves: ``_variates`` draws a sampler's raw
Dirichlet variates on its own streams, and ``_combine`` turns any stack of
rows into points. The sampling driver ``variants._draw`` draws the variates of every
method but Gaussian; the grid search combines a method's configurations in one call.

Every sampler is a pure function of (dataset, parameters, seed). Synthetic
points carry provenance: the dataset-level vertex ids of the source simplex
and the barycentric weight vector, so each output row can be reconstructed
and audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

# p_skeleton, knn_graph and sample_dirichlet are not called here any more, but
# stay importable from this module: perfbench traces them at these lookup sites.
from .complexes import (MAXIMAL, Skeleton, _skeleton_table, _subdivide,  # noqa: F401
                        _table_skeleton, p_skeleton)
from .datasets import Dataset, DatasetError, MINORITY
from .geometry import dirichlet_weights, sample_dirichlet  # noqa: F401
from .graphs import MUTUAL, UNION, _integer, _knn_pairs, _listed_pairs
from .graphs import knn_graph  # noqa: F401

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
            if self.k is None or _integer(self.k, "k", SamplerParameterError) < 1:
                raise SamplerParameterError(
                    f"method {self.method.value} needs a neighborhood size k >= 1, got {self.k!r}"
                )
            if self.p is not MAXIMAL:
                if _integer(self.p, "p", SamplerParameterError) < 1:
                    raise SamplerParameterError(f"p must be >= 1 or MAXIMAL, got {self.p}")
                # edge-only methods force p to 1, so the p given cannot exceed k
                if not GRAPH_VARIANTS[self.method][1] and int(self.p) > int(self.k):
                    raise SamplerParameterError(
                        f"p={self.p} exceeds k={self.k}; a k-neighborhood cannot ask for "
                        f"higher-order simplices than it has neighbors"
                    )
        if not 0 <= _integer(self.seed, "seed", SamplerParameterError) < 2 ** 64:
            raise SamplerParameterError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if (self.target_count is not None
                and _integer(self.target_count, "target_count", SamplerParameterError) < 0):
            raise SamplerParameterError(f"target_count must be >= 0, got {self.target_count}")
        if self.safelevel_formula not in (INVERSE_SAFETY, PLUS_ONE_SAFETY):
            raise SamplerParameterError(
                f"safelevel_formula must be '{INVERSE_SAFETY}' or '{PLUS_ONE_SAFETY}'"
            )
        if self.symmetrize not in (UNION, MUTUAL):
            raise SamplerParameterError(
                f"symmetrize must be '{UNION}' or '{MUTUAL}', got {self.symmetrize!r}"
            )


@dataclass(frozen=True, slots=True)
class Provenance:
    """Source record for one synthetic point."""

    simplex: tuple[int, ...]  # dataset-level vertex ids, ascending; () for gaussian
    lam: tuple[float, ...]    # barycentric weights, aligned with simplex
    kind: str = "barycentric"


# The record of every Gaussian point; frozen, so one instance serves a batch.
_GAUSSIAN_PROVENANCE = Provenance((), (), kind="gaussian")


@dataclass(frozen=True, eq=False)
class SyntheticBatch:
    """Synthetic points and sources; == is identity, so compare ``.points`` and ``.provenance``."""

    points: np.ndarray
    simplices: np.ndarray  # (m, w) dataset-level vertex ids per point, ascending, -1-padded
    lam: np.ndarray        # (m, w) barycentric weights aligned with simplices, 0 in the pads
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        simplices, lam = np.asarray(self.simplices, np.intp), np.asarray(self.lam, float)
        if (pts.ndim != 2 or simplices.ndim != 2 or lam.shape != simplices.shape
                or len(simplices) != len(pts)):
            raise SamplerParameterError(f"points {pts.shape}, simplices {simplices.shape} and lam "
                                        f"{lam.shape} must be (m, d), (m, w) and (m, w)")
        for name, value in (("points", pts), ("simplices", simplices), ("lam", lam)):
            object.__setattr__(self, name, value)

    @cached_property
    def provenance(self) -> tuple[Provenance, ...]:
        """One record per point, built on first access; a row with no ids is Gaussian."""
        records, shared = [_GAUSSIAN_PROVENANCE] * self.m, {}  # one tuple per distinct simplex
        width = np.count_nonzero(self.simplices >= 0, axis=1)
        for w in (np.flatnonzero(np.bincount(width)[1:]) + 1).tolist():
            rows = np.flatnonzero(width == w)
            simplices, lams = (map(tuple, a[rows, :w].tolist()) for a in (self.simplices, self.lam))
            for i, simplex, lam in zip(rows.tolist(), simplices, lams):
                records[i] = Provenance(shared.setdefault(simplex, simplex), lam)
        return tuple(records)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    def augmented(self, ds: Dataset) -> Dataset:
        """Original dataset with the synthetic minority rows appended."""
        if self.points.shape[1] != ds.d:
            raise SamplerParameterError(f"the batch has width {self.points.shape[1]}, "
                                        f"the dataset d={ds.d}")
        return Dataset(np.vstack([ds.features, self.points]),
                       np.concatenate([ds.labels, np.full(self.m, MINORITY)]))


# The step of one ``PCG64.jumped``: (sqrt(5) - 1) / 2 * 2**128, made odd.
_PCG64_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


class SampleStreams:
    """Deterministic RNG streams for one sampler invocation.

    ``selection`` (``PCG64(seed)``) picks the simplices, one pick per point in
    point order. ``weights`` (``PCG64(seed).jumped(1)``) holds the raw
    Dirichlet variates of every point in point order: point i's simplex has
    w_i vertices, lone ones included, and its draws are the w_i values after
    the w_0 + ... + w_{i-1} of the points before it. That is the row-major
    order of the unpadded slots of the batch's (m, w) simplex array, the order
    in which a boolean-mask assignment fills them. Each variate is Gamma of
    its alpha, drawn directly: only ``sample_dirichlet`` boosts alpha < 1
    with uniforms, so no third stream is needed. Each stream is read by one
    vectorised call per batch, and numpy fills arrays in order, so a larger
    batch extends a smaller one bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = _integer(seed, "seed", SamplerParameterError)  # SamplerConfig checks its range
        seeds = np.random.SeedSequence(self.seed)  # the seed hashed once for both streams
        self.selection = np.random.Generator(np.random.PCG64(seeds))
        # PCG64(seed).jumped(1), without the entropy-seeded PCG64 that jumped builds first
        self.weights = np.random.Generator(np.random.PCG64(seeds).advance(_PCG64_JUMP))

    def point_stream(self, i: int) -> np.random.Generator:
        """The generator of ``PCG64(seed).jumped(i + 1)``.

        No sampler draws from it: it stays because perfbench traces this
        lookup site.
        """
        return np.random.Generator(np.random.PCG64(self.seed).jumped(i + 1))


def _resolve_m(ds: Dataset, target_count: int | None) -> int:
    if target_count is not None:
        return int(target_count)  # SamplerConfig checks it
    gap = ds.n_majority - ds.n_minority
    if gap < 0:
        raise DatasetError(
            f"minority class (+1, n={ds.n_minority}) is larger than the majority class "
            f"(n={ds.n_majority}); nothing to oversample"
        )
    return gap


def oversample_random(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Duplicate minority rows uniformly with replacement: simplices of one vertex."""
    return oversample(ds, SamplerConfig(Method.RANDOM, seed=seed, target_count=m))


def _duplicated_instead(ds: Dataset, cfg: SamplerConfig, *warnings: str) -> tuple:
    """(verts, gammas, meta) of random duplication under ``cfg``'s method; ``warnings`` say why."""
    if ds.n_minority < 1:
        raise SamplerParameterError("need at least one minority point")
    meta = {"method": cfg.method.value, "seed": int(cfg.seed)} | (
        {"warnings": warnings} if warnings else {})
    m = _resolve_m(ds, cfg.target_count)
    return (*_sample_from_simplices(ds.minority_indices()[:, None], m, SampleStreams(cfg.seed)),
            meta)


def oversample_global(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Convex combinations of uniformly chosen distinct minority pairs."""
    return oversample(ds, SamplerConfig(Method.GLOBAL, seed=seed, target_count=m))


def _global_variates(ds: Dataset, cfg: SamplerConfig) -> tuple:
    """(verts, gammas, meta) of global pair sampling: the edges of the complete minority graph."""
    if ds.n_minority < 2:
        return _duplicated_instead(
            ds, cfg, "fewer than 2 minority points; duplicated instead of combining")
    m = _resolve_m(ds, cfg.target_count)
    meta = {"method": Method.GLOBAL.value, "seed": int(cfg.seed)}
    streams = SampleStreams(cfg.seed)
    idx_min = ds.minority_indices()
    # row i is point i's (first, partner) draw; the partner skips the first, so
    # the pair is uniform over distinct pairs, then listed ascending
    pairs = streams.selection.integers(0, [idx_min.size, idx_min.size - 1], size=(m, 2))
    pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
    pairs.sort(axis=1)
    return (*_variates(idx_min[pairs], streams), meta)


def oversample_gaussian(ds: Dataset, m: int | None = None, seed: int = 0) -> SyntheticBatch:
    """Draw from a Gaussian fitted to the minority class (mean + full covariance)."""
    return oversample(ds, SamplerConfig(Method.GAUSSIAN, seed=seed, target_count=m))


def _gaussian_batch(ds: Dataset, cfg: SamplerConfig) -> SyntheticBatch:
    """``oversample_gaussian``'s draw: the one sampler whose points are not barycentric."""
    if ds.n_minority < 2:
        return _batch(ds.features, *_duplicated_instead(
            ds, cfg, "fewer than 2 minority points; duplicated instead of fitting"))
    m = _resolve_m(ds, cfg.target_count)
    meta = {"method": Method.GAUSSIAN.value, "seed": int(cfg.seed)}
    minority = ds.minority_features()
    with np.errstate(over="ignore", invalid="ignore"):
        mu = minority.mean(axis=0)
        cov = np.cov(minority, rowvar=False).reshape(ds.d, ds.d)
        ridge = GAUSSIAN_RIDGE_REL * np.trace(cov) / ds.d + GAUSSIAN_RIDGE_ABS
        cov = cov + ridge * np.eye(ds.d)
    if not np.isfinite(cov).all():
        raise SamplerParameterError("the minority covariance overflows; rescale the features")
    chol = np.linalg.cholesky(cov)
    z = SampleStreams(cfg.seed).weights.standard_normal((m, ds.d))
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix-vector product per point, as chol @ z_i rounds
        points = mu + np.matmul(chol, z[:, :, None])[:, :, 0]
    if not np.isfinite(points).all():
        raise SamplerParameterError("Gaussian draws overflow; rescale the features")
    return SyntheticBatch(points, np.empty((m, 0), np.intp), np.empty((m, 0)), meta)


def _knn_skeleton(ds: Dataset, ids: np.ndarray, k: int, p: int | None, symmetrize: str,
                  tables: dict | None = None) -> tuple[np.ndarray, dict]:
    """(table, clamp info): ``complexes._skeleton_table`` of the kNN pairs of the dataset
    rows ``ids``, over positions in ``ids``, with k clamped to ids.size - 1.

    ``tables``, when given, is {1: edge tables, MAXIMAL: clique tables}, each
    ``_knn_tables`` of the neighbour lists of those rows with ``symmetrize``,
    holding at least the kind that p needs at the clamped k; the table comes
    from it, with no search and no clique step.
    """
    if ids.size < 2:
        raise SamplerParameterError("need at least 2 minority points to build a graph")
    k = _integer(k, "k", SamplerParameterError)
    k_used = min(k, ids.size - 1)
    if tables is None:
        table = _skeleton_table(*_knn_pairs(ds.features.take(ids, axis=0), k_used, symmetrize), p)
    elif p == 1:
        table = tables[1][k_used]
    else:
        table = _subdivide(tables[MAXIMAL][k_used], p)
    return table, {"k_requested": k, "k_used": k_used, "k_clamped": k_used != k}


def _knn_tables(neighbors: np.ndarray, ks, symmetrize: str, p: int | None) -> dict:
    """{k: ``_skeleton_table`` of the k-neighbour graph at p, 1 or MAXIMAL} for each k in
    ``ks``, where row i of ``neighbors`` lists point i's neighbours as ``nearest`` ranks them.

    One call builds them all, on the disjoint union of the graphs, graph g's ids
    offset by g * n. The union's rows sort by their first id, so graph g's rows
    are the block whose first id lies in [g * n, (g + 1) * n); each block,
    shifted back and cut to its widest row, is the table of its graph alone (at
    p = 1 both columns: a kNN graph on n >= 2 points has an edge).
    """
    (n, width), ks = neighbors.shape, np.asarray(list(ks))
    # (graph, vertex, column): graph g's vertex v lists its first ks[g] neighbours
    offset = n * np.arange(ks.size)[:, None, None]
    listed = np.broadcast_to(np.arange(width) < ks[:, None, None], (ks.size, n, width))
    src = np.broadcast_to(offset + np.arange(n)[:, None], listed.shape)[listed]
    table = _skeleton_table(*_listed_pairs(ks.size * n, src, (offset + neighbors)[listed],
                                           symmetrize), p)
    graph = table[:, 0] // n
    filled = table >= 0
    table = np.where(filled, table - n * graph[:, None], -1)
    size = filled.sum(axis=1)
    bounds = np.searchsorted(graph, np.arange(ks.size + 1))
    return {int(k): table[bounds[g]:bounds[g + 1], :size[bounds[g]:bounds[g + 1]].max()]
            for g, k in enumerate(ks)}


def minority_skeleton(ds: Dataset, k: int, p: int | None = MAXIMAL,
                      symmetrize: str = UNION) -> tuple[Skeleton, np.ndarray, dict]:
    """Skeleton of the minority kNN clique complex, with k clamped to n_plus - 1.

    Returns (skeleton over minority-local vertex ids, minority dataset indices,
    clamp info).
    """
    idx_min = ds.minority_indices()
    table, info = _knn_skeleton(ds, idx_min, k, p, symmetrize)
    return _table_skeleton(table), idx_min, info


def _sample_from_simplices(table: np.ndarray, m: int, streams: SampleStreams,
                           weights: np.ndarray | None = None, alpha_fn=None) -> tuple:
    """``_variates`` of m rows of the simplex ``table`` (one simplex per row, ascending
    dataset-level ids padded with -1, rows in lexicographic order), picked on the
    selection stream, uniformly or by ``weights``, in one call: a larger m extends a batch."""
    if weights is None:
        sel = streams.selection.integers(0, table.shape[0], size=m)
    else:
        sel = streams.selection.choice(table.shape[0], size=m, p=weights)
    return _variates(table.take(sel, axis=0), streams, alpha_fn)


def _variates(verts: np.ndarray, streams: SampleStreams, alpha_fn=None) -> tuple:
    """(``verts``, gammas): one call on the weights stream draws the raw Dirichlet variates
    of each row's simplex, lone vertices included, 0 in the -1 pads, in the layout
    ``SampleStreams`` describes: ``standard_gamma`` of ``alpha_fn`` of the ids, with no
    small-shape boost, or standard exponentials, which ``standard_gamma(1.0)`` draws."""
    slots = np.flatnonzero(verts >= 0)  # the row-major order of a boolean-mask fill
    gammas = np.zeros(verts.shape)
    if alpha_fn is None:
        gammas.put(slots, streams.weights.standard_exponential(slots.size))
    else:
        gammas.put(slots, streams.weights.standard_gamma(alpha_fn(verts.take(slots))))
    return verts, gammas


def _combine(features: np.ndarray, verts: np.ndarray, gammas: np.ndarray) -> tuple:
    """(points, lam) of any stack of ``_variates`` rows (ids padded with -1, variates with 0):
    row i is ``lam_i @ features[simplex_i]``, ``lam_i`` its variates normalized, padded like
    ``verts``; a lone vertex is copied. Widths combine one at a time, as padding would
    change how numpy's pairwise sum rounds; a row's sum and ``matmul`` read that row
    alone, so a stack of several samplers' rows combines as each would alone, and so do
    rows sorted by width: each width combines on a slice of them, gathered with ``take``
    (numpy's fancy indexing costs several times as much), and the sort is undone."""
    m, n_cols = verts.shape
    width = np.zeros(m, np.min_scalar_type(n_cols))
    for column in verts.T:  # the pads trail
        width += column >= 0
    order = width.argsort(kind="stable")  # a radix sort on narrow widths
    # the variates in sorted order; each row's weights overwrite its own
    lam, points = gammas.take(order, axis=0), np.empty((m, features.shape[1]))
    ends = np.cumsum(np.bincount(width)).tolist()
    for w, (lo, hi) in enumerate(zip([0, *ends], ends)):
        if lo == hi:
            continue
        simplices = verts.take(order[lo:hi], axis=0)[:, :w]
        if w == 1:
            lam[lo:hi, 0] = 1.0
            features.take(simplices[:, 0], axis=0, out=points[lo:hi])
        else:
            weights = dirichlet_weights(lam[lo:hi, :w])
            lam[lo:hi, :w] = weights
            # one vector-matrix product per row: weights[i] @ features[simplices[i]]
            np.matmul(weights[:, None, :], features.take(simplices, axis=0),
                      out=points[lo:hi, None, :])
    inverse = np.empty_like(order)
    inverse.put(order, np.arange(m))
    return points.take(inverse, axis=0), lam.take(inverse, axis=0)


def _batch(features: np.ndarray, verts, gammas, meta: dict) -> SyntheticBatch:
    """The batch of one sampler's variates, combined."""
    points, lam = _combine(features, verts, gammas)
    return SyntheticBatch(points, verts, lam, meta)


def oversample_simplicial(ds: Dataset, k: int, p: int | None = MAXIMAL,
                          m: int | None = None, seed: int = 0,
                          symmetrize: str = UNION) -> SyntheticBatch:
    """Synthesize from maximal simplices of the minority clique complex p-skeleton."""
    return oversample(ds, SamplerConfig(Method.SIMPLICIAL, k, p, seed, m, symmetrize))


def oversample_smote(ds: Dataset, k: int, m: int | None = None, seed: int = 0,
                     symmetrize: str = UNION) -> SyntheticBatch:
    """Edge-based special case: the simplex pipeline with p forced to 1."""
    return oversample(ds, SamplerConfig(Method.SMOTE, k, 1, seed, m, symmetrize))


def oversample(ds: Dataset, config: SamplerConfig) -> SyntheticBatch:
    """Dispatch a configured run: Gaussian fits its points, the rest combine ``_draw``'s."""
    if config.method is Method.GAUSSIAN:
        return _gaussian_batch(ds, config)
    from .variants import _draw  # the sampling driver layers on this module
    return _batch(ds.features, *_draw(ds, config))
