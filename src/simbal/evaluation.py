"""Evaluation harness: kNN classifier, stratified CV, grid search, rank tables.

The pipeline for one fold is fixed: standardize on the training fold,
oversample the standardized training fold, classify the standardized test
fold. Everything is seed-deterministic; per-cell sampler seeds derive from
the master seed and the (dataset, method, config, fold) coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .complexes import MAXIMAL, SubdivisionCapExceeded
from .datasets import (Dataset, DatasetError, MAJORITY, MINORITY, Shape, SyntheticSpec,
                       generate_synthetic)
# cross_distances is unused here; the benchmark's span tracer wraps it at this site
from .graphs import UNION, cross_distances, nearest  # noqa: F401
from .metrics import confusion_counts, f1_score, mcc_score
from .samplers import (GRAPH_VARIANTS, INVERSE_SAFETY, Method, SamplerConfig,
                       SamplerParameterError, oversample)
from .variants import EmptyBorderlineError

# Pseudo-method: evaluate the classifier on the raw imbalanced training fold.
IMBALANCED = "imbalanced"

DEFAULT_K_CLF = 5
BENCHMARK_K_GRID = tuple(range(3, 9))
BENCHMARK_METHODS = (Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN,
                     Method.SMOTE, Method.SIMPLICIAL)
# Simplex dimension grid: the full clique complex by default.
DEFAULT_P_GRID = (MAXIMAL,)
# Sampler failures a fold survives by scoring the unsampled training fold;
# anything else is a bug and propagates.
SAMPLER_DOMAIN_ERRORS = (EmptyBorderlineError, SamplerParameterError,
                         SubdivisionCapExceeded, DatasetError)


class EvaluationError(ValueError):
    """Raised for invalid evaluation configuration or incomplete reports."""


def knn_classify(train: Dataset, test_points, k_clf: int = DEFAULT_K_CLF) -> np.ndarray:
    """Majority vote among the k_clf nearest training points.

    Distance ties resolve toward the lower training-row index; vote ties
    resolve toward the minority class, the deterministic choice that favors
    recall on the rare class.
    """
    if train.n < 1:
        raise EvaluationError("training set is empty")
    if k_clf < 1:
        raise EvaluationError(f"k_clf must be >= 1, got {k_clf}")
    k_eff = min(int(k_clf), train.n)
    votes = np.sum(train.labels[nearest(test_points, train.features, k_eff)] == MINORITY, axis=1)
    return np.where(2 * votes >= k_eff, MINORITY, MAJORITY)


@dataclass(frozen=True)
class CVConfig:
    """Cross-validation protocol.

    ``outer`` selects hyperparameters by mean score over the same folds that
    are reported. ``nested`` re-selects per outer fold on an inner CV of the
    training part.
    """

    folds: int = 4
    repeats: int = 5
    mode: str = "outer"  # "outer" | "nested"
    inner_folds: int = 4
    inner_repeats: int = 25

    def __post_init__(self):
        if self.folds < 2 or self.repeats < 1:
            raise EvaluationError("need folds >= 2 and repeats >= 1")
        if self.mode not in ("outer", "nested"):
            raise EvaluationError(f"mode must be 'outer' or 'nested', got {self.mode!r}")
        if self.mode == "nested" and (self.inner_folds < 2 or self.inner_repeats < 1):
            raise EvaluationError("nested mode needs inner_folds >= 2 and inner_repeats >= 1")


def stratified_cv(ds: Dataset, folds: int, repeats: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Repeated stratified fold splits as (train_idx, test_idx) pairs.

    Each repeat shuffles every class independently and deals its members
    round-robin across folds, so per-fold class counts differ by at most one.
    """
    if folds < 2:
        raise EvaluationError(f"folds must be >= 2, got {folds}")
    for label, count in ((MINORITY, ds.n_minority), (MAJORITY, ds.n_majority)):
        if count < folds:
            raise EvaluationError(
                f"class {label:+d} has {count} members, fewer than {folds} folds"
            )
    splits = []
    for rep in range(repeats):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))
        fold_members: list[list[int]] = [[] for _ in range(folds)]
        for label in (MINORITY, MAJORITY):
            members = np.flatnonzero(ds.labels == label)
            perm = members[rng.permutation(members.size)]
            for f in range(folds):
                fold_members[f].extend(perm[f::folds].tolist())
        all_idx = np.arange(ds.n)
        for f in range(folds):
            test = np.sort(np.array(fold_members[f], dtype=int))
            train = np.setdiff1d(all_idx, test, assume_unique=True)
            splits.append((train, test))
    return splits


@dataclass(frozen=True)
class CellResult:
    """Scores for one (dataset, method) pair at its selected hyperparameters."""

    dataset: str
    method: str
    mean_f1: float
    std_f1: float
    mean_mcc: float
    std_mcc: float
    best_k: int | None
    best_p: int | str | None
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    cells: tuple[CellResult, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def cell(self, dataset: str, method: str) -> CellResult:
        for c in self.cells:
            if c.dataset == dataset and c.method == method:
                return c
        raise EvaluationError(f"no cell for ({dataset!r}, {method!r})")

    def datasets(self) -> list[str]:
        seen = dict.fromkeys(c.dataset for c in self.cells)
        return list(seen)

    def methods(self) -> list[str]:
        seen = dict.fromkeys(c.method for c in self.cells)
        return list(seen)


def method_name(method) -> str:
    return method if isinstance(method, str) else method.value


def parse_method(name: str):
    """CLI-facing method lookup; accepts the imbalanced pseudo-method."""
    if name == IMBALANCED:
        return IMBALANCED
    try:
        return Method(name)
    except ValueError:
        valid = ", ".join([m.value for m in Method] + [IMBALANCED])
        raise EvaluationError(f"unknown method {name!r}; choose from: {valid}") from None


def method_grid(method, k_grid, p_grid) -> list[tuple[int | None, int | str | None]]:
    """Hyperparameter combinations a method actually exposes.

    Methods without a neighborhood ignore the grids entirely; edge-based
    methods ignore p; simplex-based methods take the full product, dropping
    p > k combinations.
    """
    if method not in GRAPH_VARIANTS:
        return [(None, None)]
    if GRAPH_VARIANTS[method][1]:  # p forced to 1
        return [(int(k), 1) for k in k_grid]
    combos = []
    for k in k_grid:
        for p in p_grid:
            if p is MAXIMAL or int(p) <= int(k):
                combos.append((int(k), MAXIMAL if p is MAXIMAL else int(p)))
    if not combos:
        raise EvaluationError(f"no valid (k, p) combination for {method_name(method)}")
    return combos


def default_k_grid(n_minority: int, d: int) -> tuple[int, ...]:
    """Neighborhood sizes 3, 5, ... up to ceil(cbrt(n_plus) + ln d)."""
    upper = math.ceil(n_minority ** (1.0 / 3.0) + math.log(max(d, 1)))
    return tuple(range(3, upper + 1, 2)) or (3,)


def _derived_seed(*coords: int) -> int:
    return int(np.random.SeedSequence(coords).generate_state(1, np.uint64)[0])


def _standardize(train: Dataset, test_points: np.ndarray) -> tuple[Dataset, np.ndarray]:
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return Dataset((train.features - mu) / sd, train.labels), (test_points - mu) / sd


def _eval_fold(train: Dataset, test: Dataset, method, k, p, sampler_seed: int,
               k_clf: int, symmetrize: str, safelevel_formula: str):
    """One pipeline run; returns (ConfusionCounts, diagnostic or None)."""
    std_train, std_test_pts = _standardize(train, test.features)
    diagnostic = None
    fit_train = std_train
    if method != IMBALANCED:
        cfg = SamplerConfig(method=method, k=k, p=p, seed=sampler_seed,
                            symmetrize=symmetrize, safelevel_formula=safelevel_formula)
        try:
            fit_train = oversample(std_train, cfg).augmented(std_train)
        except SAMPLER_DOMAIN_ERRORS as exc:  # scored unsampled; the run must go on
            diagnostic = f"{method_name(method)}(k={k}, p={p}): {exc}"
    preds = knn_classify(fit_train, std_test_pts, k_clf)
    return confusion_counts(test.labels, preds), diagnostic


def _summarize(counts) -> tuple[float, float, float, float]:
    """Mean and std (ddof 1 when there are several) of F1 and MCC over folds."""
    f1s = np.array([f1_score(c) for c in counts])
    mccs = np.array([mcc_score(c) for c in counts])
    ddof = 1 if f1s.size > 1 else 0
    return (float(f1s.mean()), float(f1s.std(ddof=ddof)),
            float(mccs.mean()), float(mccs.std(ddof=ddof)))


def _score_config(ds, splits, method, k, p, seeds, opts):
    """Mean/std F1 and MCC over the given splits for one configuration, plus diagnostics."""
    counts, diags = [], []
    for fold_idx, (train_idx, test_idx) in enumerate(splits):
        fold_counts, diag = _eval_fold(ds.subset(train_idx), ds.subset(test_idx), method,
                                       k, p, seeds[fold_idx], *opts)
        counts.append(fold_counts)
        if diag is not None:
            diags.append(f"fold {fold_idx}: {diag}")
    return (*_summarize(counts), diags)


def _best_config(ds, splits, method, combos, seed_coords, opts):
    """(scores, k, p) of the combo with the best mean F1; the first wins ties.

    Fold f of combo c gets the sampler seed derived from
    ``seed_coords(c) + (f,)``.
    """
    best = None
    for c_idx, (k, p) in enumerate(combos):
        seeds = [_derived_seed(*seed_coords(c_idx), f) for f in range(len(splits))]
        scored = _score_config(ds, splits, method, k, p, seeds, opts)
        if best is None or scored[0] > best[0][0]:
            best = (scored, k, p)
    return best


def grid_search_eval(datasets: dict[str, Dataset], methods, k_grid, p_grid=DEFAULT_P_GRID,
                     cv: CVConfig = CVConfig(), seed: int = 0, k_clf: int = DEFAULT_K_CLF,
                     symmetrize: str = UNION,
                     safelevel_formula: str = INVERSE_SAFETY) -> EvalReport:
    """Evaluate every method on every dataset over its hyperparameter grid.

    In ``outer`` mode the configuration with the best mean F1 across the
    outer folds is reported. In ``nested`` mode each outer fold picks its own
    configuration on an inner CV of its training part and the reported best
    (k, p) is the modal choice.
    """
    methods = list(methods)
    opts = (k_clf, symmetrize, safelevel_formula)
    cells = []
    for d_idx, (ds_name, ds) in enumerate(datasets.items()):
        splits = stratified_cv(ds, cv.folds, cv.repeats, _derived_seed(seed, d_idx))
        for m_idx, method in enumerate(methods):
            combos = method_grid(method, k_grid, p_grid)
            if cv.mode == "outer":
                (mf1, sf1, mmcc, smcc, diags), k, p = _best_config(
                    ds, splits, method, combos, lambda c: (seed, d_idx, m_idx, c), opts)
            else:
                mf1, sf1, mmcc, smcc, diags, k, p = _nested_cell(
                    ds, splits, method, combos, cv, seed, d_idx, m_idx, opts)
            # k is None only for grid-free methods, where p is meaningless;
            # for the rest the MAXIMAL sentinel prints as "max"
            display_p = None if k is None else ("max" if p is MAXIMAL else int(p))
            cells.append(CellResult(
                dataset=ds_name, method=method_name(method),
                mean_f1=mf1, std_f1=sf1, mean_mcc=mmcc, std_mcc=smcc,
                best_k=k, best_p=display_p,
                diagnostics=tuple(diags)))
    meta = {"seed": int(seed), "k_clf": int(k_clf), "cv": cv,
            "k_grid": tuple(int(k) for k in k_grid),
            "p_grid": tuple("max" if p is MAXIMAL else int(p) for p in p_grid),
            "vote_ties": "minority"}
    return EvalReport(tuple(cells), meta)


def _nested_cell(ds, splits, method, combos, cv, seed, d_idx, m_idx, opts):
    counts, diags, chosen = [], [], []
    for fold_idx, (train_idx, test_idx) in enumerate(splits):
        train = ds.subset(train_idx)
        inner = stratified_cv(train, cv.inner_folds, cv.inner_repeats,
                              _derived_seed(seed, d_idx, m_idx, fold_idx))
        _, k, p = _best_config(train, inner, method, combos,
                               lambda c: (seed, d_idx, m_idx, c, fold_idx), opts)
        chosen.append((k, p))
        # arity-5 coordinates cannot collide with the arity-6 inner seeds
        fold_counts, diag = _eval_fold(train, ds.subset(test_idx), method, k, p,
                                       _derived_seed(seed, d_idx, m_idx, fold_idx, 0), *opts)
        counts.append(fold_counts)
        if diag is not None:
            diags.append(f"outer fold {fold_idx}: {diag}")
    k, p = Counter(chosen).most_common(1)[0][0]
    return (*_summarize(counts), diags, k, p)


def rank_methods(report: EvalReport, metric: str = "f1") -> dict[str, float]:
    """Mean rank of each method across datasets, 1 = best.

    Within a dataset, methods are ranked by descending score; tied scores
    share the average of the ranks they span.
    """
    if metric not in ("f1", "mcc"):
        raise EvaluationError(f"metric must be 'f1' or 'mcc', got {metric!r}")
    ds_names = report.datasets()
    methods = report.methods()
    missing = [(d, m) for d in ds_names for m in methods
               if not any(c.dataset == d and c.method == m for c in report.cells)]
    if missing:
        raise EvaluationError(f"missing report cells: {missing}")
    totals = dict.fromkeys(methods, 0.0)
    for d in ds_names:
        scores = [(report.cell(d, m).mean_f1 if metric == "f1"
                   else report.cell(d, m).mean_mcc) for m in methods]
        for m, s in zip(methods, scores):
            # the ranks of s and its ties run from (#higher + 1) to (#higher + #equal)
            higher = sum(1 for t in scores if t > s)
            totals[m] += higher + (sum(1 for t in scores if t == s) + 1) / 2
    return {m: totals[m] / len(ds_names) for m in methods}


def report_to_csv(report: EvalReport) -> str:
    """Long-format CSV: one row per (dataset, method, metric) plus rank rows."""
    lines = ["dataset,method,metric,mean,std,best_k,best_p"]
    for c in report.cells:
        for metric, mean, std in (("f1", c.mean_f1, c.std_f1),
                                  ("mcc", c.mean_mcc, c.std_mcc)):
            bk = "" if c.best_k is None else str(c.best_k)
            bp = "" if c.best_p is None else str(c.best_p)
            lines.append(f"{c.dataset},{c.method},{metric},{mean!r},{std!r},{bk},{bp}")
    for m, rank in rank_methods(report).items():
        lines.append(f"all,{m},rank,{rank!r},,,")
    return "\n".join(lines) + "\n"


def report_to_text(report: EvalReport) -> str:
    """Aligned table per dataset plus the mean-rank summary row."""
    ds_names = report.datasets()
    methods = report.methods()
    width = max(10, *(len(m) for m in methods))
    header = "dataset".ljust(16) + "".join(m.rjust(width + 2) for m in methods)
    lines = [header, "-" * len(header)]
    for d in ds_names:
        row = d.ljust(16)
        for m in methods:
            c = report.cell(d, m)
            row += f"{c.mean_f1:.4f}".rjust(width + 2)
        lines.append(row)
    ranks = rank_methods(report)
    row = "rank".ljust(16)
    for m in methods:
        row += f"{ranks[m]:.4f}".rjust(width + 2)
    lines.append(row)
    diag_lines = [f"  [{c.dataset}/{c.method}] {d}" for c in report.cells for d in c.diagnostics]
    if diag_lines:
        lines.append("diagnostics:")
        lines.extend(diag_lines)
    return "\n".join(lines) + "\n"


def synthetic_benchmark(seed: int = 0, shapes=tuple(Shape),
                        methods=BENCHMARK_METHODS, k_grid=BENCHMARK_K_GRID,
                        p_grid=DEFAULT_P_GRID, cv: CVConfig = CVConfig(),
                        k_clf: int = DEFAULT_K_CLF,
                        symmetrize: str = UNION,
                        safelevel_formula: str = INVERSE_SAFETY) -> EvalReport:
    """Grid-search evaluation over seeded draws of the synthetic shape suite."""
    datasets = {
        shape.value: generate_synthetic(SyntheticSpec(shape, seed=_derived_seed(seed, i)))
        for i, shape in enumerate(shapes)
    }
    return grid_search_eval(datasets, methods, k_grid, p_grid, cv, seed,
                            k_clf, symmetrize, safelevel_formula)
