"""The shared graph-sampler pipeline and its safety-aware variants.

Every graph method runs one pipeline, ``oversample_graph``: minority kNN
graph, clique complex p-skeleton, simplex selection, Dirichlet weights.
``samplers.GRAPH_VARIANTS`` maps each method to its safety variant and to
whether p is forced to 1 (SMOTE and the graph forms of the variants). Each
variant changes exactly one knob:

* borderline restricts which simplices may be sampled,
* safe-level reshapes the Dirichlet parameters per simplex,
* the density-adaptive variant (ADASYN) reweights simplex selection.

Safety is measured on the full dataset: for each minority point, the class
mix of its k nearest neighbors (self excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

# p_skeleton, knn_graph and pairwise_distances are unused here; the benchmark's
# span tracer wraps them at this site
from .complexes import MAXIMAL, p_skeleton  # noqa: F401
from .datasets import Dataset, MINORITY
from .graphs import UNION, knn_graph, nearest, pairwise_distances  # noqa: F401
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
    _knn_skeleton,
    _resolve_m,
    _sample_from_simplices,
    dataset_level_simplices,
    oversample,
)


class EmptyBorderlineError(ValueError):
    """No minority point is majority-dominated; borderline sampling is undefined."""


@dataclass(frozen=True)
class NeighborhoodSafety:
    """Per-minority-point neighbor class counts on the full-dataset kNN relation.

    Counts are exact integers with k_plus + k_minus = k; the ratio properties
    derive from them.
    """

    minority_indices: np.ndarray  # dataset-level ids, ascending
    k: int
    k_plus: np.ndarray
    k_minus: np.ndarray

    def __post_init__(self):
        kp = np.asarray(self.k_plus, dtype=int)
        km = np.asarray(self.k_minus, dtype=int)
        idx = np.asarray(self.minority_indices, dtype=int)
        if not (kp.shape == km.shape == idx.shape):
            raise SamplerParameterError("safety arrays must be aligned")
        if np.any(kp < 0) or np.any(km < 0) or np.any(kp + km != self.k):
            raise SamplerParameterError("neighbor counts must be nonnegative and sum to k")
        object.__setattr__(self, "minority_indices", idx)
        object.__setattr__(self, "k_plus", kp)
        object.__setattr__(self, "k_minus", km)


def _safety_with_neighbors(ds: Dataset, k: int) -> tuple[NeighborhoodSafety, np.ndarray]:
    """Safety counts plus the (n_plus, k) dataset ids they were counted over.

    Row r lists the k nearest neighbors of the r-th minority point in
    (distance, index) order, self excluded.
    """
    k = int(k)
    if k < 1:
        raise SamplerParameterError(f"safety neighborhood size must be >= 1, got {k}")
    if k >= ds.n:
        raise SamplerParameterError(
            f"safety neighborhood k={k} needs at least k+1={k + 1} points, dataset has {ds.n}"
        )
    idx_min = ds.minority_indices()
    neighbors = (nearest(ds.features[idx_min], ds.features, k, idx_min) if idx_min.size
                 else np.empty((0, k), dtype=int))
    k_plus = np.sum(ds.labels[neighbors] == MINORITY, axis=1)
    return NeighborhoodSafety(idx_min, k, k_plus, k - k_plus), neighbors


def compute_safety(ds: Dataset, k: int) -> NeighborhoodSafety:
    """Class mix of each minority point's k nearest neighbors in the whole dataset."""
    return _safety_with_neighbors(ds, k)[0]


def borderline_subset(ds: Dataset, k: int,
                      safety: NeighborhoodSafety | None = None) -> set[int]:
    """Minority points that are majority-dominated but not pure noise.

    Membership: strictly fewer than half the neighbors are minority, and at
    least one is. Returned as dataset-level indices. Integer comparisons keep
    the half-threshold exact.
    """
    if safety is None:
        safety = compute_safety(ds, k)
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
    sizes = np.array([len(s) for s in simplices])
    k_minus = safety.k_minus[_rows(safety, [v for s in simplices for v in s], "ADASYN weights")]
    # exact integer sums per simplex, then mean and ratio as floats
    raw = np.add.reduceat(k_minus, np.cumsum(sizes) - sizes) / sizes / safety.k
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(simplices), 1.0 / len(simplices))
    return raw / total


def oversample_safelevel(ds: Dataset, k: int, p: int | None = MAXIMAL,
                         m: int | None = None, seed: int = 0, *,
                         symmetrize: str = UNION,
                         formula: str = INVERSE_SAFETY) -> SyntheticBatch:
    """Simplex pipeline with safety-shaped Dirichlet parameters."""
    return oversample(ds, SamplerConfig(Method.S_SAFELEVEL, k, p, seed, m, symmetrize, formula))


def _borderline_support(ds: Dataset, k: int) -> tuple[set[int], np.ndarray]:
    """Borderline points at safety size k and the support their complex is built over.

    The support is the borderline points together with the minority members
    of their safety neighborhoods, as ascending dataset-level ids.
    """
    if ds.n_minority < 2:
        raise EmptyBorderlineError(
            "no borderline minority points exist; use the plain edge or simplex sampler"
        )
    safety, neighbors = _safety_with_neighbors(ds, k)
    border = borderline_subset(ds, k, safety)
    if not border:
        raise EmptyBorderlineError(
            "every minority point is either safe or pure noise at this k; "
            "borderline oversampling has nothing to target, use the plain "
            "edge or simplex sampler instead"
        )
    reached = neighbors[np.isin(safety.minority_indices, list(border))]
    support = np.union1d(list(border), reached[ds.labels[reached] == MINORITY])
    return border, support


def oversample_graph(ds: Dataset, cfg: SamplerConfig) -> SyntheticBatch:
    """The simplex pipeline for every graph method, with its variant's knob applied.

    Borderline builds the complex over the borderline support and samples only
    simplices touching a borderline point; safe-level sets the Dirichlet
    parameters per simplex; ADASYN weights simplex selection.
    """
    variant, edge_only = GRAPH_VARIANTS[cfg.method]
    p = 1 if edge_only else cfg.p
    if variant == BORDERLINE:
        safety_k = min(int(cfg.k), ds.n_minority - 1)
        border, ids = _borderline_support(ds, safety_k)
    elif ds.n_minority == 1:
        return _duplicated_instead(ds, cfg.target_count, cfg.seed, cfg.method,
                                   "single minority point; duplicated instead of interpolating")
    else:
        ids = ds.minority_indices()
    m = _resolve_m(ds, cfg.target_count)
    sk, info = _knn_skeleton(ds, ids, cfg.k, p, cfg.symmetrize)
    simplices = dataset_level_simplices(sk, ids)
    if variant == BORDERLINE:
        # the support has at most n_plus points, so clamping k to it clamps safety_k too
        simplices = [s for s in simplices if any(v in border for v in s)]
        info.update(safety_k=safety_k, borderline=tuple(sorted(border)))
    meta = {"method": cfg.method.value, "seed": int(cfg.seed), "symmetrize": cfg.symmetrize,
            "p": "max" if p is MAXIMAL else int(p)}
    weights = alpha_fn = None
    if variant in (SAFELEVEL, ADASYN):
        safety = compute_safety(ds, info["k_used"])
        if variant == SAFELEVEL:
            meta["formula"] = cfg.safelevel_formula
            alpha_fn = partial(safelevel_alphas, safety, formula=cfg.safelevel_formula)
        else:
            weights = adasyn_weights(safety, simplices)
    meta.update(info, n_candidate_simplices=len(simplices))
    return _sample_from_simplices(ds.features, simplices, m, SampleStreams(cfg.seed), meta,
                                  weights=weights, alpha_fn=alpha_fn)
