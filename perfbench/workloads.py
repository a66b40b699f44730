"""The benchmark workloads: seeded inputs, one op, output checks, quality.

Each workload is a closed loop with one caller. All inputs are generated from
the workload seed in ``setup``, so the timed ops only call the public
``simbal`` API (looked up on the package at call time, where the traced run
wraps it). Ops run in a fixed rotation; a run always ends on a whole cycle so
every run holds the same mix of methods.

* ``balance``: one ``oversample()`` call balancing a fresh Gaussian-cloud
  dataset to parity, alternating simplicial (p=MAXIMAL) and SMOTE. Thousands
  of synthetic points per call, so the per-point draw path dominates.
* ``safety``: one ``oversample()`` call of a safety-aware simplicial variant
  (borderline, safe-level, ADASYN) adding 100 points. Few draws; the
  full-dataset neighbour search and its n x n distance matrices dominate.
* ``cv-grid``: one (shape, method) cell of the synthetic benchmark protocol,
  evaluated by ``grid_search_eval`` over the whole k grid with stratified CV.
  Many small sampler and classifier calls, so per-call fixed cost counts, and
  the only workload that exercises the evaluation harness.
"""

from __future__ import annotations

import hashlib

import numpy as np

import simbal
from simbal import (
    BENCHMARK_K_GRID,
    BENCHMARK_METHODS,
    DEFAULT_P_GRID,
    MAJORITY,
    MAXIMAL,
    MINORITY,
    CVConfig,
    Dataset,
    EvalReport,
    Method,
    SamplerConfig,
    Shape,
    SyntheticSpec,
    confusion_counts,
    f1_score,
    generate_synthetic,
    knn_classify,
    mcc_score,
    method_grid,
    rank_methods,
)

# Barycentric reconstruction tolerance, relative to the vertex magnitudes.
RECON_RTOL = 1e-9
# Weights must sum to one within this.
LAM_SUM_TOL = 1e-9
# Neighbourhood size of every balance and safety op: one fixed k, so only the data varies.
K = 5


def _rng(*coords: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(coords)))


def _seed(*coords: int) -> int:
    return int(np.random.SeedSequence(coords).generate_state(1, np.uint64)[0])


def _means(f1s: list[float], mccs: list[float]) -> tuple[float, float, int]:
    """(mean F1, mean MCC, count); NaN when no op passed its checks."""
    if not f1s:
        return float("nan"), float("nan"), 0
    return float(np.mean(f1s)), float(np.mean(mccs)), len(f1s)


def gaussian_clouds(rng: np.random.Generator, n_pos: int, n_neg: int, d: int) -> Dataset:
    """Two unit-variance isotropic Gaussians whose means differ by 1.0 in every coordinate."""
    features = np.vstack([rng.normal(1.0, 1.0, (n_pos, d)), rng.normal(0.0, 1.0, (n_neg, d))])
    labels = np.concatenate([np.full(n_pos, MINORITY), np.full(n_neg, MAJORITY)])
    return Dataset(features, labels)


def check_batch(ds: Dataset, batch, m: int) -> str | None:
    """First violated output contract of one oversampling batch, or None.

    Reads the batch only through ``batch.points`` and ``batch.provenance``.
    """
    points = batch.points
    if points.shape != (m, ds.d):
        return f"points shape {points.shape}, expected {(m, ds.d)}"
    if not np.all(np.isfinite(points)):
        return "non-finite synthetic value"
    provenance = batch.provenance
    if len(provenance) != m:
        return f"{len(provenance)} provenance records for {m} points"
    rows_by_size: dict[int, list[int]] = {}
    for row, record in enumerate(provenance):
        rows_by_size.setdefault(len(record.simplex), []).append(row)
    for size, rows in rows_by_size.items():
        simplex = np.array([provenance[r].simplex for r in rows], dtype=int).reshape(len(rows), size)
        lam = np.array([provenance[r].lam for r in rows], dtype=float)
        if size == 0 or lam.shape != simplex.shape:
            return f"simplex/weight shapes {simplex.shape} vs {lam.shape}"
        if simplex.min() < 0 or simplex.max() >= ds.n:
            return "simplex vertex outside the dataset"
        if np.any(ds.labels[simplex] != MINORITY):
            return "simplex vertex is not a minority row"
        if np.any(lam < 0.0):
            return "negative barycentric weight"
        if np.any(np.abs(lam.sum(axis=1) - 1.0) > LAM_SUM_TOL):
            return "barycentric weights do not sum to 1"
        vertices = ds.features[simplex]
        recon = np.einsum("rs,rsd->rd", lam, vertices)
        scale = np.maximum(np.abs(vertices).max(axis=1), np.finfo(float).tiny)
        if np.any(np.abs(points[rows] - recon) > RECON_RTOL * scale):
            return "synthetic row differs from lam @ X[simplex]"
    return None


class OversampleWorkload:
    """Shared loop body of ``balance`` and ``safety``: one ``oversample()`` per op."""

    name = ""
    # (method, p) in rotation order.
    rotation: tuple[tuple[Method, int | None], ...] = ()

    def __init__(self, seed: int, n_pos: int, n_neg: int, d: int, target_count: int | None,
                 pool: int, quality_ops: int, test_size: int):
        self.seed = int(seed)
        self.n_pos, self.n_neg, self.d = n_pos, n_neg, d
        self.target_count = target_count
        self.m = n_neg - n_pos if target_count is None else target_count
        self.pool_size = pool
        self.quality_ops = quality_ops
        self.test_size = test_size
        self.cycle = len(self.rotation)
        self._kept: dict[int, object] = {}

    def first_input(self) -> Dataset:
        return gaussian_clouds(_rng(self.seed, 1, 0), self.n_pos, self.n_neg, self.d)

    def setup(self) -> None:
        self.pool = [gaussian_clouds(_rng(self.seed, 1, j), self.n_pos, self.n_neg, self.d)
                     for j in range(self.pool_size)]
        self.warm = gaussian_clouds(_rng(self.seed, 0), self.n_pos, self.n_neg, self.d)
        half = self.test_size // 2
        self.tests = [gaussian_clouds(_rng(self.seed, 2, j), half, half, self.d)
                      for j in range(self.quality_ops)]

    def _config(self, i: int, seed: int) -> SamplerConfig:
        method, p = self.rotation[i % self.cycle]
        return SamplerConfig(method=method, k=K, p=p, seed=seed,
                             target_count=self.target_count)

    def warmup(self):
        return simbal.oversample(self.warm, self._config(0, _seed(self.seed, 0)))

    def dataset(self, i: int) -> Dataset:
        # Past the pool, datasets repeat with fresh sampler seeds; simbal
        # caches nothing between calls, so a repeat costs the same.
        return self.pool[i % self.pool_size]

    def op(self, i: int):
        return simbal.oversample(self.dataset(i), self._config(i, _seed(self.seed, 1, i)))

    def check(self, i: int, batch) -> str | None:
        problem = check_batch(self.dataset(i), batch, self.m)
        if problem is None and i < self.quality_ops:
            self._kept[i] = batch
        return problem

    @staticmethod
    def digest(batch) -> str:
        return hashlib.sha256(np.ascontiguousarray(batch.points).tobytes()).hexdigest()

    @staticmethod
    def rows(i: int, batch) -> int:
        return batch.points.shape[0]

    def quality(self) -> tuple[float, float, int]:
        """Mean F1 and MCC of the kNN classifier trained on the first balanced sets.

        Each of the first ``quality_ops`` ops is scored on its own held-out
        test set drawn from the same two clouds, half minority.
        """
        f1s, mccs = [], []
        for j, (i, batch) in enumerate(sorted(self._kept.items())):
            test = self.tests[j]
            preds = knn_classify(batch.augmented(self.dataset(i)), test.features)
            counts = confusion_counts(test.labels, preds)
            f1s.append(f1_score(counts))
            mccs.append(mcc_score(counts))
        return _means(f1s, mccs)

    def run_checks(self) -> list[str]:
        return []


class Balance(OversampleWorkload):
    name = "balance"
    rotation = ((Method.SIMPLICIAL, MAXIMAL), (Method.SMOTE, 1))

    def __init__(self, seed: int, n_pos: int = 500, n_neg: int = 3000, d: int = 8,
                 pool: int = 64, quality_ops: int = 8, test_size: int = 600):
        super().__init__(seed, n_pos, n_neg, d, None, pool, quality_ops, test_size)


class Safety(OversampleWorkload):
    name = "safety"
    rotation = ((Method.S_BORDERLINE, MAXIMAL), (Method.S_SAFELEVEL, MAXIMAL),
                (Method.S_ADASYN, MAXIMAL))

    def __init__(self, seed: int, n_pos: int = 250, n_neg: int = 1500, d: int = 16,
                 target_count: int = 100, pool: int = 64, quality_ops: int = 12,
                 test_size: int = 600):
        super().__init__(seed, n_pos, n_neg, d, target_count, pool, quality_ops, test_size)


class CvGrid:
    """One (shape, method) cell of the synthetic benchmark per op.

    A pass is every shape x every method; pass p uses its own seeded draw of
    the four shapes.
    """

    name = "cv-grid"

    def __init__(self, seed: int, n_pos: int = 50, n_neg: int = 300, folds: int = 4,
                 k_grid: tuple[int, ...] = BENCHMARK_K_GRID, passes: int = 16):
        self.seed = int(seed)
        self.n_pos, self.n_neg = n_pos, n_neg
        # One CV repeat: every pass already draws the shapes afresh, so more
        # ops per run give the repetition, not more repeats per op.
        self.cv = CVConfig(folds=folds, repeats=1)
        self.k_grid = tuple(k_grid)
        self.pass_count = passes
        self.shapes = tuple(Shape)
        self.methods = tuple(BENCHMARK_METHODS)
        self.cycle = len(self.shapes) * len(self.methods)
        self._cells: dict[int, object] = {}

    def _draw(self, *coords: int, shape: Shape) -> Dataset:
        return generate_synthetic(SyntheticSpec(shape, self.n_pos, self.n_neg,
                                                seed=_seed(self.seed, *coords)))

    def first_input(self) -> Dataset:
        return self._draw(1, 0, 0, shape=self.shapes[0])

    def setup(self) -> None:
        self.passes = [[self._draw(1, p, s, shape=shape) for s, shape in enumerate(self.shapes)]
                       for p in range(self.pass_count)]
        self.warm = self._draw(0, shape=Shape.MOONS)

    def warmup(self):
        return simbal.grid_search_eval({"warm-up": self.warm}, [Method.SIMPLICIAL], self.k_grid,
                                       cv=self.cv, seed=_seed(self.seed, 0))

    def _coords(self, i: int) -> tuple[int, Shape, Method]:
        p, c = divmod(i, self.cycle)
        s, m = divmod(c, len(self.methods))
        return p, self.shapes[s], self.methods[m]

    def op(self, i: int):
        p, shape, method = self._coords(i)
        ds = self.passes[p % self.pass_count][self.shapes.index(shape)]
        return simbal.grid_search_eval({f"{shape.value}#{p}": ds}, [method], self.k_grid,
                                       cv=self.cv, seed=_seed(self.seed, 1, i))

    def check(self, i: int, report) -> str | None:
        if len(report.cells) != 1:
            return f"{len(report.cells)} cells for one (shape, method)"
        cell = report.cells[0]
        if not (np.isfinite(cell.mean_f1) and 0.0 <= cell.mean_f1 <= 1.0):
            return f"F1 {cell.mean_f1!r} outside [0, 1]"
        if not (np.isfinite(cell.mean_mcc) and -1.0 <= cell.mean_mcc <= 1.0):
            return f"MCC {cell.mean_mcc!r} outside [-1, 1]"
        if cell.diagnostics:
            return f"sampler error scored unsampled: {cell.diagnostics[0]}"
        self._cells[i] = cell
        return None

    @staticmethod
    def digest(report) -> str:
        scores = [(c.dataset, c.method, c.mean_f1, c.std_f1, c.mean_mcc, c.std_mcc,
                   c.best_k, c.best_p) for c in report.cells]
        return hashlib.sha256(repr(scores).encode()).hexdigest()

    def rows(self, i: int, report) -> int:
        """Synthetic rows the cell's folds generated, computed from the class counts.

        Every fold balances its training part to parity, and over the folds of
        one repeat each row is held out exactly once, so one repeat generates
        (folds - 1) * (n_majority - n_minority) rows per grid configuration.
        """
        p, shape, method = self._coords(i)
        ds = self.passes[p % self.pass_count][self.shapes.index(shape)]
        configs = len(method_grid(method, self.k_grid, DEFAULT_P_GRID))
        return configs * self.cv.repeats * (self.cv.folds - 1) * (ds.n_majority - ds.n_minority)

    def quality(self) -> tuple[float, float, int]:
        cells = list(self._cells.values())
        return _means([c.mean_f1 for c in cells], [c.mean_mcc for c in cells])

    def run_checks(self) -> list[str]:
        """Simplicial must rank no worse than global and Gaussian over all whole passes."""
        by_pass: dict[int, list] = {}
        for i, cell in self._cells.items():
            by_pass.setdefault(i // self.cycle, []).append(cell)
        cells = [c for group in by_pass.values() if len(group) == self.cycle for c in group]
        if not cells:
            return ["no complete pass to rank"]
        ranks = rank_methods(EvalReport(tuple(cells)))
        worse = [m for m in ("global", "gaussian") if ranks["simplicial"] > ranks[m]]
        if worse:
            return [f"simplicial mean rank {ranks['simplicial']:.3f} is worse than "
                    + ", ".join(f"{m} {ranks[m]:.3f}" for m in worse)]
        return []


WORKLOADS = {w.name: w for w in (Balance, Safety, CvGrid)}
