"""The sampling driver, the shared graph-sampler pipeline and its safety-aware variants.

Every method but Gaussian draws through one driver, ``_draw``: random and global
from 0-simplices and from the complete minority graph's edges, every graph method
through one pipeline: minority kNN graph, clique complex p-skeleton, simplex
selection, Dirichlet weights.
``samplers.GRAPH_VARIANTS`` maps each method to its safety variant and to
whether p is forced to 1 (SMOTE and the graph forms of the variants). Each
variant changes exactly one knob:

* borderline restricts which simplices may be sampled,
* safe-level reshapes the Dirichlet parameters per simplex,
* the density-adaptive variant (ADASYN) reweights simplex selection.

One ``_draw`` call draws each configuration given on one dataset as it would
alone, working out the minority's ids, m and each clamped k's safety counts
once. Safety is measured on the full dataset: for each minority point, the
class mix of its k nearest neighbors (self excluded), from one
``compute_safety`` call at k clamped to n_plus - 1; borderline's support reads
the neighbor ids that call keeps. A CV split ranks its training minority once,
at its largest such k, and hands the lists to ``_draw`` in ``tables``; each
draw counts over their first k columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

# p_skeleton, knn_graph and pairwise_distances are unused here; the benchmark's
# span tracer wraps them at this site
from .complexes import MAXIMAL, p_skeleton  # noqa: F401
from .datasets import Dataset, MINORITY
from .graphs import UNION, _integer, knn_graph, nearest, pairwise_distances  # noqa: F401
from .samplers import (
    ADASYN,
    BORDERLINE,
    GRAPH_VARIANTS,
    INVERSE_SAFETY,
    Method,
    PLUS_ONE_SAFETY,
    SAFELEVEL,
    SampleStreams,
    SamplerConfig,
    SamplerParameterError,
    SyntheticBatch,
    _duplicated_instead,
    _global_variates,
    _knn_skeleton,
    _resolve_m,
    _sample_from_simplices,
    oversample,
)

# The key of ``_draw``'s ``tables`` that holds the minority's ranked neighbor ids
_RANKED = "ranked"


class EmptyBorderlineError(ValueError):
    """No minority point is majority-dominated; borderline sampling is undefined."""


@dataclass(frozen=True)
class NeighborhoodSafety:
    """Per-minority-point neighbor class counts on the full-dataset kNN relation.

    Counts are exact integers with k_plus + k_minus = k; the ratio properties
    derive from them. ``neighbors``, which ``compute_safety`` fills and a
    hand-built instance may leave None, holds the (n_plus, k) dataset ids they
    were counted over: row r lists the k nearest neighbors of the r-th minority
    point in (distance, index) order, self excluded.
    """

    minority_indices: np.ndarray  # dataset-level ids, ascending
    k: int
    k_plus: np.ndarray
    k_minus: np.ndarray
    neighbors: np.ndarray | None = None

    def __post_init__(self):
        kp = np.asarray(self.k_plus, dtype=int)
        km = np.asarray(self.k_minus, dtype=int)
        idx = np.asarray(self.minority_indices, dtype=int)
        if not (kp.shape == km.shape == idx.shape):
            raise SamplerParameterError("safety arrays must be aligned")
        if self.k < 1 or np.any(kp < 0) or np.any(km < 0) or np.any(kp + km != self.k):
            raise SamplerParameterError(
                f"need k >= 1 (got {self.k}) and nonnegative neighbor counts that sum to k")
        object.__setattr__(self, "minority_indices", idx)
        object.__setattr__(self, "k_plus", kp)
        object.__setattr__(self, "k_minus", km)


def compute_safety(ds: Dataset, k: int) -> NeighborhoodSafety:
    """Class mix of each minority point's k nearest neighbors in the whole dataset,
    with the neighbor ids it was counted over."""
    k = _integer(k, "safety neighborhood size", SamplerParameterError)
    if k < 1:
        raise SamplerParameterError(f"safety neighborhood size must be >= 1, got {k}")
    if k >= ds.n:
        raise SamplerParameterError(
            f"safety neighborhood k={k} needs at least k+1={k + 1} points, dataset has {ds.n}")
    idx_min = ds.minority_indices()
    return _counted(ds, nearest(ds.features.take(idx_min, axis=0), ds.features, k, idx_min)
                    if idx_min.size else np.empty((0, k), dtype=int))


def _counted(ds: Dataset, neighbors: np.ndarray) -> NeighborhoodSafety:
    """The safety counts of ``neighbors``, the minority's (n_plus, k) neighbor ids."""
    k, k_plus = neighbors.shape[1], np.sum(ds.labels.take(neighbors) == MINORITY, axis=1)
    return NeighborhoodSafety(ds.minority_indices(), k, k_plus, k - k_plus, neighbors)


def borderline_subset(ds: Dataset, k: int,
                      safety: NeighborhoodSafety | None = None) -> set[int]:
    """Minority points that are majority-dominated but not pure noise.

    Membership: strictly fewer than half the neighbors are minority, and at
    least one is. Returned as dataset-level indices. Integer comparisons keep
    the half-threshold exact.
    """
    safety = compute_safety(ds, k) if safety is None else safety
    border = (2 * safety.k_plus < safety.k) & (safety.k_plus > 0)
    return {int(v) for v in safety.minority_indices[border]}


def _rows(safety: NeighborhoodSafety, ids, what: str) -> np.ndarray:
    """Rows of the safety arrays for dataset-level minority ids, in their shape."""
    ids = np.asarray(ids, dtype=int)
    rows = np.searchsorted(safety.minority_indices, ids)
    if np.any(safety.minority_indices.take(rows, mode="clip") != ids):
        raise SamplerParameterError(f"{what} need minority vertex ids")
    return rows


def safelevel_alphas(safety: NeighborhoodSafety, simplices,
                     formula: str = INVERSE_SAFETY) -> np.ndarray:
    """Dirichlet parameters from the safety levels of simplex vertices.

    ``simplices`` is one simplex or an array of them, as dataset-level minority
    ids; the result has its shape, one parameter per vertex.
    ``inverse``: alpha_i = 1 / max(delta_plus_i, 1/k) = k / max(k_plus_i, 1),
    so zero minority-neighbor counts clamp instead of dividing by zero.
    ``plus-one``: alpha_i = 1 + delta_plus_i.
    """
    kp = safety.k_plus[_rows(safety, simplices, "safe-level alphas")].astype(float)
    if formula == INVERSE_SAFETY:
        return safety.k / np.maximum(kp, 1.0)
    if formula == PLUS_ONE_SAFETY:
        return 1.0 + kp / safety.k
    raise SamplerParameterError(
        f"formula must be '{INVERSE_SAFETY}' or '{PLUS_ONE_SAFETY}', got {formula!r}"
    )


def adasyn_weights(safety: NeighborhoodSafety, simplices) -> np.ndarray:
    """Selection probabilities proportional to mean vertex un-safety per simplex.

    A simplex whose vertices sit deep in majority territory (high majority
    ratio) is sampled more often. All-safe input degenerates to uniform.
    """
    simplices = list(simplices)
    if not simplices:
        raise SamplerParameterError("need at least one simplex to weight")
    return _adasyn_weights(safety, [v for s in simplices for v in s],
                           np.array([len(s) for s in simplices]))


def _adasyn_weights(safety: NeighborhoodSafety, vertices, sizes: np.ndarray) -> np.ndarray:
    """``adasyn_weights`` of simplices of ``sizes`` vertices, listed in turn in ``vertices``."""
    k_minus = safety.k_minus[_rows(safety, vertices, "ADASYN weights")]
    # exact integer sums per simplex, then mean and ratio as floats
    raw = np.add.reduceat(k_minus, np.cumsum(sizes) - sizes) / sizes / safety.k
    total = raw.sum()
    if total <= 0.0:
        return np.full(sizes.size, 1.0 / sizes.size)
    return raw / total


def oversample_safelevel(ds: Dataset, k: int, p: int | None = MAXIMAL,
                         m: int | None = None, seed: int = 0, *,
                         symmetrize: str = UNION,
                         formula: str = INVERSE_SAFETY) -> SyntheticBatch:
    """Simplex pipeline with safety-shaped Dirichlet parameters."""
    return oversample(ds, SamplerConfig(Method.S_SAFELEVEL, k, p, seed, m, symmetrize, formula))


def _draw(ds: Dataset, cfgs: list[SamplerConfig], tables: dict | None = None) -> list:
    """The sampling driver: per ``SamplerConfig`` of ``cfgs``, its (verts, gammas, meta)
    on ``ds``, or the exception its draw raised, for the caller to raise. A graph method
    runs the simplex pipeline with its variant's knob; borderline builds its complex over
    the borderline points and the minority members of their safety neighborhoods.
    ``tables``, when given, holds the minority's {1: edge tables, MAXIMAL: clique tables}
    as ``samplers._knn_skeleton`` takes them, read by all but borderline, and may hold at
    ``_RANKED`` the ``compute_safety`` neighbor ids, read up to each draw's k."""
    ids, ranked, ms, safeties = ds.minority_indices(), (tables or {}).get(_RANKED), {}, {}
    id_map = np.concatenate((ids, [-1]))  # table positions to dataset ids, -1 pads kept

    def one(cfg: SamplerConfig, ids=ids, tables=tables) -> tuple:  # borderline rebinds both
        if cfg.method is Method.RANDOM:
            return _duplicated_instead(ds, ids, cfg)
        if cfg.method is Method.GLOBAL:
            return _global_variates(ds, ids, cfg)
        variant, edge_only = GRAPH_VARIANTS[cfg.method]
        p = 1 if edge_only else cfg.p
        if variant == BORDERLINE and ids.size < 2:
            raise EmptyBorderlineError(
                "no borderline minority points exist; use the plain edge or simplex sampler")
        if ids.size == 1:
            return _duplicated_instead(
                ds, ids, cfg, "single minority point; duplicated instead of interpolating")
        if variant is not None and ids.size > 1:  # with none, the table step raises
            k = min(int(cfg.k), ids.size - 1)
            safety = safeties.get(k) or safeties.setdefault(
                k, compute_safety(ds, k) if ranked is None else _counted(ds, ranked[:, :k]))
        if variant == BORDERLINE:
            border = borderline_subset(ds, k, safety)
            if not border:
                raise EmptyBorderlineError(
                    "every minority point is either safe or pure noise at this k; borderline "
                    "oversampling has nothing to target, use the plain edge or simplex "
                    "sampler instead")
            reached = safety.neighbors[np.isin(ids, list(border))]
            ids, tables = np.union1d(list(border), reached[ds.labels[reached] == MINORITY]), None
        if cfg.target_count not in ms:  # a failure is not kept: each draw needing it raises it
            ms[cfg.target_count] = _resolve_m(ds, cfg.target_count)
        local, info = _knn_skeleton(ds, ids, cfg.k, p, cfg.symmetrize, tables)
        # ids ascend, so mapping positions to dataset ids keeps the rows' order
        table = (np.append(ids, -1) if variant == BORDERLINE else id_map).take(local)
        if variant == BORDERLINE:
            # the support has at most n_plus points, so clamping k to it clamps the safety k too
            table = table[np.isin(table, list(border)).any(axis=1)]
            info.update(safety_k=k, borderline=tuple(sorted(border)))
        meta = {"method": cfg.method.value, "seed": int(cfg.seed), "symmetrize": cfg.symmetrize,
                "p": "max" if p is MAXIMAL else int(p)}
        weights = alpha_fn = None
        if variant == SAFELEVEL:
            meta["formula"] = cfg.safelevel_formula
            alpha_fn = partial(safelevel_alphas, safety, formula=cfg.safelevel_formula)
        elif variant == ADASYN:
            weights = _adasyn_weights(safety, table[table >= 0], (table >= 0).sum(axis=1))
        meta.update(info, n_candidate_simplices=table.shape[0])
        return (*_sample_from_simplices(table, ms[cfg.target_count], SampleStreams(cfg.seed),
                                        weights, alpha_fn), meta)

    return list(_outcomes(one, cfgs))


def _outcomes(draw, cfgs, *args):
    """Per config, ``draw(*args, config)`` or the exception it raised. A generator drops its
    caller's frame at each yield, so a caller may keep the exceptions with no reference cycle."""
    for cfg in cfgs:
        try:
            yield draw(*args, cfg)
        except Exception as exc:  # handed back: each configuration fails alone
            yield exc
