"""Shared test fixtures and independent oracles."""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations, product
from unittest import mock

import numpy as np

from simbal import Dataset, Method, NeighborhoodGraph, oversample, sample_dirichlet
from simbal import evaluation, samplers, variants
from simbal.complexes import MAXIMAL
from simbal.graphs import nearest
from simbal.samplers import Provenance, SampleStreams, SyntheticBatch


def random_imbalanced_dataset(seed: int) -> Dataset:
    """Two overlapping Gaussian clouds with n_plus in [5, 50] and d in [2, 10].

    The class means sit well under one standard deviation apart, so minority
    points routinely land in majority-dominated neighborhoods: the mixed
    regime every safety-aware sampler needs.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n_plus = int(rng.integers(5, 51))
    d = int(rng.integers(2, 11))
    ratio = float(rng.uniform(2.0, 6.0))
    n_minus = max(n_plus + 1, int(round(n_plus * ratio)))
    shift = rng.normal(0.0, 0.25, size=d)
    mino = rng.normal(0.0, 1.0, size=(n_plus, d))
    maj = shift + rng.normal(0.0, 1.1, size=(n_minus, d))
    feats = np.vstack([mino, maj])
    labels = np.concatenate([np.ones(n_plus, dtype=int), -np.ones(n_minus, dtype=int)])
    perm = rng.permutation(feats.shape[0])
    return Dataset(feats[perm], labels[perm])


def random_graph(seed: int, max_n: int = 12, edge_prob: float = 0.5) -> NeighborhoodGraph:
    """Erdos-Renyi graph with 1..max_n vertices."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(1, max_n + 1))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.uniform() < edge_prob}
    return NeighborhoodGraph(n, frozenset(edges))


def brute_force_cliques(g: NeighborhoodGraph) -> set[tuple[int, ...]]:
    """All cliques by subset enumeration (n <= ~15 only)."""
    adj = g.adjacency()
    cliques = set()
    verts = range(g.n_vertices)
    for size in range(1, g.n_vertices + 1):
        for sub in combinations(verts, size):
            if all(v in adj[u] for u, v in combinations(sub, 2)):
                cliques.add(sub)
    return cliques


def brute_force_maximal_cliques(g: NeighborhoodGraph) -> set[tuple[int, ...]]:
    cliques = brute_force_cliques(g)
    return {c for c in cliques
            if not any(set(c) < set(other) for other in cliques)}


def brute_force_skeleton(g: NeighborhoodGraph, p) -> set[tuple[int, ...]]:
    """Maximal simplices of the p-skeleton by direct definition.

    A clique of size <= p+1 is maximal in the skeleton iff no strictly larger
    clique within the size cap contains it.
    """
    cliques = brute_force_cliques(g)
    if p is None:
        capped = cliques
    else:
        capped = {c for c in cliques if len(c) <= p + 1}
    return {c for c in capped
            if not any(set(c) < set(other) for other in capped)}


def in_convex_hull(point, vertices, tol: float = 1e-7) -> bool:
    """Feasibility of barycentric weights via linear programming."""
    from scipy.optimize import linprog

    verts = np.asarray(vertices, dtype=float)
    q = np.asarray(point, dtype=float)
    k = verts.shape[0]
    a_eq = np.vstack([verts.T, np.ones(k)])
    b_eq = np.concatenate([q, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                  method="highs")
    if res.status == 0:
        return True
    # HiGHS declares infeasibility exactly; re-check with a slack objective so
    # borderline points within tol still count as inside.
    n = verts.shape[1]
    a_ub = None
    c = np.concatenate([np.zeros(k), np.ones(2 * n)])
    a_eq2 = np.vstack([
        np.hstack([verts.T, np.eye(n), -np.eye(n)]),
        np.concatenate([np.ones(k), np.zeros(2 * n)]),
    ])
    res2 = linprog(c, A_eq=a_eq2, b_eq=b_eq, A_ub=a_ub,
                   bounds=[(0, None)] * (k + 2 * n), method="highs")
    return res2.status == 0 and res2.fun <= tol


def reconstruction_error(batch, features) -> float:
    """Worst-case |lam @ X - point| over barycentric provenance records."""
    worst = 0.0
    for pt, pr in zip(batch.points, batch.provenance):
        if pr.kind != "barycentric":
            continue
        rec = np.asarray(pr.lam) @ features[list(pr.simplex)]
        worst = max(worst, float(np.max(np.abs(rec - pt))))
    return worst


def per_point_simplices(features, simplices, m, streams, meta, weights=None,
                        alpha_fn=None) -> SyntheticBatch:
    """The simplex sampler's back half, one generator and one Dirichlet draw per point.

    This is the definition the batched sampler must match bit for bit: point i
    draws ``sample_dirichlet(alpha, point_stream(i))`` and is ``lam @ X[simplex]``.
    """
    if m == 0:
        return SyntheticBatch(np.empty((0, features.shape[1])), (), meta)
    if weights is None:
        sel = streams.selection.integers(0, len(simplices), size=m)
    else:
        sel = streams.selection.choice(len(simplices), size=m, p=weights)
    points = np.empty((m, features.shape[1]))
    prov = []
    for i in range(m):
        simplex = simplices[int(sel[i])]
        alpha = np.ones(len(simplex)) if alpha_fn is None else alpha_fn(simplex)
        lam = sample_dirichlet(alpha, streams.point_stream(i))
        points[i] = lam @ features[list(simplex)]
        prov.append(Provenance(simplex, tuple(lam.tolist())))
    return SyntheticBatch(points, tuple(prov), meta)


def per_point_global(ds: Dataset, m: int, seed: int) -> SyntheticBatch:
    """The global sampler, one selection draw, generator and Dirichlet draw per point.

    Point i's pair is one ``integers(0, [n_plus, n_plus - 1])`` draw, the
    partner shifted past the first index and the pair sorted; its weights are
    ``sample_dirichlet((1, 1), point_stream(i))`` over that ascending pair.
    """
    streams = SampleStreams(seed)
    idx_min = ds.minority_indices()
    n_plus = idx_min.size
    points = np.empty((m, ds.d))
    prov = []
    for i in range(m):
        first, second = streams.selection.integers(0, [n_plus, n_plus - 1]).tolist()
        second += second >= first
        pair = tuple(sorted((int(idx_min[first]), int(idx_min[second]))))
        lam = sample_dirichlet((1.0, 1.0), streams.point_stream(i))
        points[i] = lam @ ds.features[list(pair)]
        prov.append(Provenance(pair, tuple(lam.tolist())))
    return SyntheticBatch(points, tuple(prov), {"method": "global", "seed": seed})


def per_point_gaussian(ds: Dataset, m: int, seed: int) -> SyntheticBatch:
    """The Gaussian sampler, one generator per point (n_plus >= 2)."""
    minority = ds.minority_features()
    mu = minority.mean(axis=0)
    cov = np.cov(minority, rowvar=False).reshape(ds.d, ds.d)
    ridge = samplers.GAUSSIAN_RIDGE_REL * np.trace(cov) / ds.d + samplers.GAUSSIAN_RIDGE_ABS
    chol = np.linalg.cholesky(cov + ridge * np.eye(ds.d))
    streams = SampleStreams(seed)
    points = np.empty((m, ds.d))
    for i in range(m):
        z = streams.point_stream(i).standard_normal(ds.d)
        points[i] = mu + chol @ z
    prov = tuple(Provenance((), (), kind="gaussian") for _ in range(m))
    return SyntheticBatch(points, prov, {"method": "gaussian", "seed": seed})


def per_point_oversample(ds: Dataset, cfg) -> SyntheticBatch:
    """``oversample(ds, cfg)`` with every per-point draw made the per-point way."""
    m = ds.n_majority - ds.n_minority if cfg.target_count is None else cfg.target_count
    if cfg.method is Method.GLOBAL:
        return per_point_global(ds, m, cfg.seed)
    if cfg.method is Method.GAUSSIAN:
        return per_point_gaussian(ds, m, cfg.seed)
    with mock.patch.object(variants, "_sample_from_simplices", per_point_simplices):
        return oversample(ds, cfg)


def _per_config_fold(train, test, method, k, p, sampler_seed, k_clf, symmetrize,
                     safelevel_formula):
    """One pipeline run that standardizes its own split."""
    std_train, std_test_pts = evaluation._standardize(train, test.features)
    diagnostic = None
    fit_train = std_train
    if method != evaluation.IMBALANCED:
        cfg = samplers.SamplerConfig(method=method, k=k, p=p, seed=sampler_seed,
                                     symmetrize=symmetrize,
                                     safelevel_formula=safelevel_formula)
        try:
            fit_train = evaluation.oversample(std_train, cfg).augmented(std_train)
        except evaluation.SAMPLER_DOMAIN_ERRORS as exc:
            diagnostic = f"{evaluation.method_name(method)}(k={k}, p={p}): {exc}"
    preds = evaluation.knn_classify(fit_train, std_test_pts, k_clf)
    return evaluation.confusion_counts(test.labels, preds), diagnostic


def _per_config_best(ds, splits, method, combos, seed_coords, opts):
    """(scores, k, p) of the first combo with the best mean F1, one combo at a time."""
    best = None
    for c_idx, (k, p) in enumerate(combos):
        counts, diags = [], []
        for f, (train_idx, test_idx) in enumerate(splits):
            fold_counts, diag = _per_config_fold(
                ds.subset(train_idx), ds.subset(test_idx), method, k, p,
                evaluation._derived_seed(*seed_coords(c_idx), f), *opts)
            counts.append(fold_counts)
            if diag is not None:
                diags.append(f"fold {f}: {diag}")
        scored = (*evaluation._summarize(counts), diags)
        if best is None or scored[0] > best[0][0]:
            best = (scored, k, p)
    return best


def per_config_grid_search(datasets, methods, k_grid, p_grid, cv, seed, k_clf=5,
                           symmetrize="union", safelevel_formula="inverse"):
    """``grid_search_eval`` the config-major way: every (method, k, p) runs over
    all splits, and every fold subsets and standardizes its split again.

    This is the definition the fold-major harness must match byte for byte.
    """
    ev = evaluation
    opts = (k_clf, symmetrize, safelevel_formula)
    cells = []
    for d, (name, ds) in enumerate(datasets.items()):
        splits = ev.stratified_cv(ds, cv.folds, cv.repeats, ev._derived_seed(seed, d))
        for m, method in enumerate(methods):
            combos = ev.method_grid(method, k_grid, p_grid)
            if cv.mode == "outer":
                (*scores, diags), k, p = _per_config_best(
                    ds, splits, method, combos, lambda c: (seed, d, m, c), opts)
            else:
                counts, diags, chosen = [], [], []
                for f, (train_idx, test_idx) in enumerate(splits):
                    train = ds.subset(train_idx)
                    inner = ev.stratified_cv(train, cv.inner_folds, cv.inner_repeats,
                                             ev._derived_seed(seed, d, m, f))
                    _, k, p = _per_config_best(train, inner, method, combos,
                                               lambda c: (seed, d, m, c, f), opts)
                    chosen.append((k, p))
                    fold_counts, diag = _per_config_fold(
                        train, ds.subset(test_idx), method, k, p,
                        ev._derived_seed(seed, d, m, f, 0), *opts)
                    counts.append(fold_counts)
                    if diag is not None:
                        diags.append(f"outer fold {f}: {diag}")
                scores = ev._summarize(counts)
                k, p = Counter(chosen).most_common(1)[0][0]
            display_p = None if k is None else ("max" if p is MAXIMAL else int(p))
            cells.append(ev.CellResult(name, ev.method_name(method), *scores, k, display_p,
                                       tuple(diags)))
    meta = {"seed": int(seed), "k_clf": int(k_clf), "cv": cv,
            "k_grid": tuple(int(k) for k in k_grid),
            "p_grid": tuple("max" if p is MAXIMAL else int(p) for p in p_grid),
            "vote_ties": "minority"}
    return ev.EvalReport(tuple(cells), meta)


def nearest_id_digests() -> list[str]:
    """sha256 of the ``nearest`` ids (k = 5, self skipped) of the first 250 of
    1750 Gaussian rows in d = 16, the safety counts' query, and of 400 rows
    with unit noise on a 1e8 offset, where every pair is a candidate."""
    rng = np.random.Generator(np.random.PCG64(0))
    gauss = np.vstack([rng.normal(size=(250, 16)), rng.normal(1.0, 1.0, size=(1500, 16))])
    offset = 1e8 + rng.normal(size=(400, 16))
    digests = []
    for ref, n_query in ((gauss, 250), (offset, 400)):
        ids = nearest(ref[:n_query], ref, 5, np.arange(n_query))
        digests.append(hashlib.sha256(ids.astype(np.int64).tobytes()).hexdigest())
    return digests


def _two_class(rng, minority, n_minus: int, shift: float = 0.5, spread: float = 1.0) -> Dataset:
    """``minority`` rows plus ``n_minus`` Gaussian majority rows around ``shift``."""
    minority = np.asarray(minority, dtype=float)
    majority = rng.normal(shift, spread, size=(n_minus, minority.shape[1]))
    return Dataset(np.vstack([minority, majority]),
                   [1] * minority.shape[0] + [-1] * n_minus)


def sweep_datasets() -> dict[str, Dataset]:
    """``random_imbalanced_dataset(0..39)`` plus named edge sets: tiny and
    oversized minorities, tight clusters, d = 1, distance ties, duplicates and
    coordinates near the float range's ends."""
    sets = {f"random-{s}": random_imbalanced_dataset(s) for s in range(40)}
    rng = np.random.Generator(np.random.PCG64(8))
    for n_plus in range(4):
        sets[f"n_plus-{n_plus}"] = _two_class(rng, rng.normal(size=(n_plus, 3)), 20)
    sets["minority-larger"] = _two_class(rng, rng.normal(size=(12, 3)), 5)
    for size in (8, 9, 12):
        sets[f"cluster-{size}"] = _two_class(rng, rng.normal(0.0, 0.01, size=(size, 3)), 60,
                                             shift=2.0)
    sets["d-1"] = _two_class(rng, rng.normal(size=(10, 1)), 30)
    grid = [[float(x), float(y)] for x in range(4) for y in range(4)]
    sets["grid-4x4"] = _two_class(rng, grid, 40, shift=1.5, spread=1.5)
    sets["duplicated-6x"] = _two_class(rng, np.repeat(rng.normal(size=(4, 3)), 6, axis=0), 50)
    base = random_imbalanced_dataset(0)
    for scale in (1e150, 1e-150, 1e155):
        sets[f"scaled-{scale:g}"] = Dataset(base.features * scale, base.labels)
    return sets


def sampler_sweep_digests() -> dict[str, str]:
    """One sha256 per method over every cell of the sampler sweep.

    Cells run ``oversample`` on each of ``sweep_datasets()`` for every k in
    {1, 3, 5, 11}, p in {max, 1, 2}, symmetrization, safe-level formula and
    seed in {0, 2**64 - 1}. A cell adds its points' bytes, ``repr`` of its
    provenance and ``repr`` of its meta, or the type and message of the error
    it raised. Two commits sample alike where their digests match; the points
    depend on how the BLAS rounds, so compare runs on one machine.
    """
    hashes = {method.value: hashlib.sha256() for method in Method}
    for ds in sweep_datasets().values():
        for method in Method:
            for k, p, symmetrize, formula, seed in product(
                    (1, 3, 5, 11), (MAXIMAL, 1, 2), ("union", "mutual"),
                    ("inverse", "plus-one"), (0, 2 ** 64 - 1)):
                try:
                    batch = oversample(ds, samplers.SamplerConfig(
                        method, k, p, seed, None, symmetrize, formula))
                except (ValueError, RuntimeError) as exc:
                    cell = repr((type(exc).__name__, str(exc))).encode()
                else:
                    cell = (batch.points.tobytes() + repr(batch.provenance).encode()
                            + repr(batch.meta).encode())
                hashes[method.value].update(cell)
    return {name: h.hexdigest() for name, h in hashes.items()}
