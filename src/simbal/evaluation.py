"""Evaluation harness: kNN classifier, stratified CV, grid search, rank tables.

The pipeline for one fold is fixed: standardize on the training fold,
oversample the standardized training fold, classify the standardized test
fold. The grid search scores a split in one pass over its draws: every
(method, k, p) of the grid in outer mode, each method's chosen one in nested
mode. Before a pass scores its splits, it ranks each split's training
minority once, at the largest k drawn there, and builds the samplers' edge
and clique tables of every split and k drawn together, one call per kind;
consecutive splits share that call while their neighbour lists stay within
``graphs._BLOCK_ELEMS`` entries. Each split then standardizes the fold's
checked rows without a second check; for the safety-aware draws it ranks the
minority against the whole fold once, at their largest k. One driver call
(``variants._draw``) draws every draw's variates but Gaussian's, one combine
(``samplers._combine``) makes them points, and one grouped neighbour search
(``graphs._search``), one vote and one ``bincount`` score them all. Sampler
seeds derive from the master seed and the (dataset, method, config, fold)
coordinates.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .complexes import MAXIMAL, SubdivisionCapExceeded
from .datasets import (Dataset, DatasetError, MAJORITY, MINORITY, Shape, SyntheticSpec,
                       _checked, generate_synthetic)
# cross_distances and confusion_counts are unused here; the benchmark's span
# tracer wraps them at these sites
from .graphs import (UNION, _BLOCK_ELEMS, _integer, _search, cross_distances,  # noqa: F401
                     nearest)
from .metrics import ConfusionCounts, confusion_counts, f1_score, mcc_score  # noqa: F401
from .samplers import (BORDERLINE, GRAPH_VARIANTS, INVERSE_SAFETY, Method, SamplerConfig,
                       SamplerParameterError, _combine, _knn_tables, oversample)
from .variants import _RANKED, EmptyBorderlineError, _draw, _outcomes, compute_safety

# Pseudo-method: evaluate the classifier on the raw imbalanced training fold.
IMBALANCED = "imbalanced"

DEFAULT_K_CLF = 5
BENCHMARK_K_GRID = tuple(range(3, 9))
BENCHMARK_METHODS = (Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN,
                     Method.SMOTE, Method.SIMPLICIAL)
# Simplex dimension grid: the full clique complex by default.
DEFAULT_P_GRID = (MAXIMAL,)
# Sampler failures a fold survives by scoring the unsampled training fold;
# anything else is a bug and propagates. The DatasetError is the sampler's
# "minority is larger" error: no guarded draw builds a Dataset.
SAMPLER_DOMAIN_ERRORS = (EmptyBorderlineError, SamplerParameterError,
                         SubdivisionCapExceeded, DatasetError)
# Graph methods whose complex spans every minority point: they share a split's
# simplex tables. Borderline's support changes with k.
_WHOLE_MINORITY = frozenset(m for m, (variant, _) in GRAPH_VARIANTS.items()
                            if variant != BORDERLINE)
# Graph methods that read the class mix of the minority's neighbourhoods
_SAFETY_AWARE = frozenset(m for m, (variant, _) in GRAPH_VARIANTS.items() if variant)


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
    k_clf = _integer(k_clf, "k_clf", EvaluationError)
    if k_clf < 1:
        raise EvaluationError(f"k_clf must be >= 1, got {k_clf}")
    return _vote(train.labels[nearest(test_points, train.features, min(k_clf, train.n))])


def _vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Majority vote over the last axis, the k_eff = min(k_clf, training rows) neighbour
    labels of each query; a tie goes to the minority."""
    votes = np.sum(neighbor_labels == MINORITY, axis=-1)
    return np.where(2 * votes >= neighbor_labels.shape[-1], MINORITY, MAJORITY)


def _classify_each(train: Dataset, test_points: np.ndarray, synthetic) -> np.ndarray:
    """``knn_classify(train + S, test_points)`` for each S of ``synthetic``, a list of
    minority row sets, as the rows of one array: one neighbour search over [train; S_1;
    ...; S_C] (the training rows shared, each S a group; ``test_points`` are finite, as
    ``_standardize`` checks; a lone S is one reference, its filter threshold from all its
    rows), then one vote, or one per group where k_eff differs (under k_clf training rows)."""
    ref = np.concatenate([train.features, *synthetic])
    labels = np.concatenate([train.labels, np.full(len(ref) - train.n, MINORITY)])
    ids = _search(test_points, ref, DEFAULT_K_CLF, train.n, [len(rows) for rows in synthetic])
    return (_vote(labels.take(np.array(ids))) if train.n >= DEFAULT_K_CLF
            else np.array([_vote(labels.take(group)) for group in ids]))


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
        for name in ("folds", "repeats", "inner_folds", "inner_repeats"):
            _integer(getattr(self, name), name, EvaluationError)
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
    folds = _integer(folds, "folds", EvaluationError)
    repeats = _integer(repeats, "repeats", EvaluationError)
    seed = _seed(seed)
    if folds < 2 or repeats < 1:
        raise EvaluationError(f"need folds >= 2 and repeats >= 1, got {folds} and {repeats}")
    for label, count in ((MINORITY, ds.n_minority), (MAJORITY, ds.n_majority)):
        if count < folds:
            raise EvaluationError(
                f"class {label:+d} has {count} members, fewer than {folds} folds"
            )
    splits, fold = [], np.empty(ds.n, dtype=int)
    for rep in range(repeats):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))
        for label in (MINORITY, MAJORITY):
            members = np.flatnonzero(ds.labels == label)
            fold[members[rng.permutation(members.size)]] = np.arange(members.size) % folds
        splits.extend((np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(folds))
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
        return list(dict.fromkeys(c.dataset for c in self.cells))

    def methods(self) -> list[str]:
        return list(dict.fromkeys(c.method for c in self.cells))


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
    ks = _integer_grid(k_grid, "k")
    if GRAPH_VARIANTS[method][1]:  # p forced to 1
        combos = [(k, 1) for k in ks]
    else:
        ps = _integer_grid(p_grid, "p")
        combos = [(k, p) for k in ks for p in ps if p is MAXIMAL or p <= k]
    if not combos:
        raise EvaluationError(f"no valid (k, p) combination for {method_name(method)}")
    return combos


def _integer_grid(grid, what: str) -> list:
    """Grid values as ints >= 1, MAXIMAL kept in the p grid; a non-integral value
    raises, not truncates."""
    values = [v if v is MAXIMAL and what == "p" else _integer(v, what, EvaluationError)
              for v in grid]
    if any(v is not MAXIMAL and v < 1 for v in values):
        raise EvaluationError(f"{what} must be an integer >= 1, got the grid {values}")
    return values


def _seed(seed) -> int:
    """A master seed as a Python int, checked once at each public entry."""
    seed = _integer(seed, "seed", EvaluationError)
    if seed < 0:
        raise EvaluationError(f"seed must be >= 0, got {seed}")
    return seed


def _derived_seed(*coords: int) -> int:
    return int(np.random.SeedSequence(coords).generate_state(1, np.uint64)[0])


def _scaled(features: np.ndarray, moments=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, spread, scaled rows) of a training fold: np.std's steps on rows centred
    once, a zero spread read as 1; ``moments``, an earlier call's (mean, spread) for the
    same rows, skip both. Nothing is checked: an overflow leaves non-finite values."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = (features.mean(axis=0), None) if moments is None else moments
        centred = features - mu
        if sd is None:
            sd = np.sqrt(np.add.reduce(centred * centred, axis=0) / len(features))
            sd[sd == 0.0] = 1.0
        return mu, sd, centred / sd


def _standardize(train: Dataset, test_points: np.ndarray,
                 moments=None) -> tuple[Dataset, np.ndarray]:
    """The training fold and test points scaled by the training mean and spread, or
    ``_ranked``'s ``moments``; ``EvaluationError`` if any of them overflows. The scaled
    rows pass that check, so the fold is built without ``Dataset``'s."""
    mu, sd, features = _scaled(train.features, moments)
    with np.errstate(over="ignore", invalid="ignore"):
        test_points = (test_points - mu) / sd
    if not all(np.isfinite(x).all() for x in (mu, sd, features, test_points)):
        raise EvaluationError("the training fold's standardization overflows; "
                              "rescale the features")
    return _checked(features, train.labels), test_points


def _ranked(ds: Dataset, train_idx: np.ndarray, draws):
    """(neighbour lists, {1 or MAXIMAL: sorted ks}, moments) of the training fold
    ``train_idx``: the edge and clique tables its ``_WHOLE_MINORITY`` draws read, each
    k clamped to n_plus - 1 (none below 1), and its minority, scaled by ``_scaled``'s
    moments (mean, spread) without building the fold, ranked once at the largest of
    those k. (None, {}, None) with no such table; no lists if the scaled minority
    overflows, for which ``_standardize`` raises."""
    wanted = [(k, p) for method, k, p, _ in draws if method in _WHOLE_MINORITY]
    train = ds.subset(train_idx) if wanted else None
    if not wanted or train.n_minority < 2:
        return None, {}, None
    kinds = {}  # the edge-only methods' combos have p = 1
    for k, p in wanted:
        kinds.setdefault(1 if p == 1 else MAXIMAL, set()).add(min(k, train.n_minority - 1))
    mu, sd, scaled = _scaled(train.features)
    x = scaled[train.labels == MINORITY]
    if not np.isfinite(x).all():
        return None, {}, (mu, sd)
    neighbors = nearest(x, x, max(map(max, kinds.values())), np.arange(len(x)))
    return neighbors, {kind: sorted(ks) for kind, ks in kinds.items()}, (mu, sd)


def _tables(ds: Dataset, work, symmetrize: str):
    """Per split (train ids, test ids, draws) of ``work``, in order, the {1: edge tables,
    MAXIMAL: clique tables}, each {clamped k: table}, that its whole-minority draws read,
    and ``_ranked``'s moments. Consecutive splits go in groups whose neighbour entries,
    n_plus times each k listed for the tables, stay within ``_BLOCK_ELEMS``; a group
    holds at least one split. Each group ranks its splits (``_ranked``) and builds their
    tables in one ``_knn_tables`` call before its first split is yielded, so it holds
    no standardized fold."""
    group, listed = [], 0
    for train_idx, _, draws in work:
        ranked = _ranked(ds, train_idx, draws)
        entries = 0 if ranked[0] is None else len(ranked[0]) * sum(map(sum, ranked[1].values()))
        if group and listed + entries > _BLOCK_ELEMS:
            neighbors, kinds, moments = zip(*group)
            yield from zip(_knn_tables(neighbors, kinds, symmetrize), moments)
            group, listed = [], 0
        group.append(ranked)
        listed += entries
    neighbors, kinds, moments = zip(*group)
    yield from zip(_knn_tables(neighbors, kinds, symmetrize), moments)


def _prepare(train: Dataset, test: Dataset, draws, tables: dict, moments):
    """One split ready to score: standardized training fold, test points, test labels
    and ``_draw``'s tables, None if empty. ``tables`` and ``moments`` are the split's
    from ``_tables``; to the tables goes, at ``_RANKED``, the minority's neighbour ids
    in the fold, from one ``compute_safety`` call at the ``_SAFETY_AWARE`` draws'
    largest k, clamped to n_plus - 1 (none below 1)."""
    std_train, test_points = _standardize(train, test.features, moments)
    k_safe = min(max((k for method, k, _, _ in draws if method in _SAFETY_AWARE), default=0),
                 std_train.n_minority - 1)
    if k_safe >= 1:
        tables[_RANKED] = compute_safety(std_train, k_safe).neighbors
    return std_train, test_points, test.labels, tables or None


def _draw_split(split, draws, opts):
    """Per draw (method, k, p, seed coords) on a prepared split: its synthetic rows and a
    diagnostic or None. ``IMBALANCED`` and a sampler failure draw no rows, so the fold is
    scored unsampled; Gaussian draws its points; the rest draw their variates in one
    driver call, and they all combine in one call, padded to one width."""
    train, tables = split[0], split[3]
    rows, diags, drafts = [np.empty((0, train.d))] * len(draws), [None] * len(draws), []
    cfgs = [None if method == IMBALANCED else
            SamplerConfig(method=method, k=k, p=p, seed=_derived_seed(*coords),
                          symmetrize=opts[0], safelevel_formula=opts[1])
            for method, k, p, coords in draws]
    barycentric = [c for c in cfgs if c and c.method is not Method.GAUSSIAN]
    drawn = iter(_draw(train, barycentric, tables) if barycentric else ())
    fitted = iter(list(_outcomes(oversample, [c for c in cfgs if c and c.method is Method.GAUSSIAN],
                                 train)))
    for i, (cfg, (method, k, p, _)) in enumerate(zip(cfgs, draws)):
        out = cfg and next(fitted if method is Method.GAUSSIAN else drawn)
        if isinstance(out, SAMPLER_DOMAIN_ERRORS):  # scored unsampled; the run must go on
            diags[i] = f"{method_name(method)}(k={k}, p={p}): {out}"
        elif isinstance(out, Exception):
            raise out  # in draw order, as if drawn here
        elif method is Method.GAUSSIAN:
            rows[i] = out.points
        elif out is not None:
            drafts.append((i, *out[:2]))
    if drafts:
        bounds = np.cumsum([0, *(len(v) for _, v, _ in drafts)]).tolist()
        verts = np.full((bounds[-1], max(v.shape[1] for _, v, _ in drafts)), -1, np.intp)
        gammas = np.zeros(verts.shape)
        for (_, v, g), lo, hi in zip(drafts, bounds, bounds[1:]):
            verts[lo:hi, :v.shape[1]], gammas[lo:hi, :v.shape[1]] = v, g
        points = _combine(train.features, verts, gammas)[0]
        for (i, _, _), lo, hi in zip(drafts, bounds, bounds[1:]):
            rows[i] = points[lo:hi]
    return rows, diags


def _score(split, synthetic) -> list:
    """ConfusionCounts of the classifier fit on the split's training fold plus
    each of ``synthetic``'s row sets, all classified in one neighbour pass and
    tallied in one ``bincount`` over the cells 2 * (truly minority) + (predicted
    minority) + 4 * (row set); no row sets, no search. Unlike ``confusion_counts``
    it checks no labels: the votes and a checked ``Dataset``'s labels are +1 or -1."""
    if not synthetic:
        return []
    preds = _classify_each(split[0], split[1], synthetic) == MINORITY
    cells = 2 * (split[2] == MINORITY) + preds + 4 * np.arange(len(synthetic))[:, None]
    tallies = np.bincount(cells.ravel(), minlength=4 * len(synthetic)).reshape(-1, 4)
    return [ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn) for tn, fp, fn, tp in tallies.tolist()]


def _summarize(counts) -> tuple[float, float, float, float]:
    """Mean and std (ddof 1 when there are several) of F1 and MCC over folds."""
    f1s = np.array([f1_score(c) for c in counts])
    mccs = np.array([mcc_score(c) for c in counts])
    ddof = 1 if f1s.size > 1 else 0
    return (float(f1s.mean()), float(f1s.std(ddof=ddof)),
            float(mccs.mean()), float(mccs.std(ddof=ddof)))


def _tally(ds: Dataset, work, label: str, opts) -> list:
    """Per draw slot of ``work``'s splits (train ids, test ids, draws; slot j holds the
    same job on every split), its ConfusionCounts over the splits and its diagnostics,
    each labelled ``label`` and the split's index. A split is prepared with its tables
    from ``_tables``, has all its draws drawn, in one combine, and scored in one
    neighbour pass, and is freed before the next split is prepared."""
    tallies = [([], []) for _ in work[0][2]]
    for f, ((train_idx, test_idx, draws), (tables, moments)) in enumerate(
            zip(work, _tables(ds, work, opts[0]))):
        split = _prepare(ds.subset(train_idx), ds.subset(test_idx), draws, tables, moments)
        rows, diags = _draw_split(split, draws, opts)
        for (counts, notes), fold_counts, diag in zip(tallies, _score(split, rows), diags):
            counts.append(fold_counts)
            if diag is not None:
                notes.append(f"{label} {f}: {diag}")
        del split  # freed before the next split is prepared
    return tallies


def _select(ds, splits, jobs, tail, opts):
    """Per job (method, combos, head), the scores, diagnostics, k and p of its best combo.

    Every combo of every job is drawn and scored on each split (``_tally``). Combo c
    on fold f is seeded from ``head + (c,) + tail + (f,)``. The highest mean F1 wins;
    max() keeps the first.
    """
    plan = [(method, k, p, (*head, c, *tail)) for method, combos, head in jobs
            for c, (k, p) in enumerate(combos)]
    work = [(train_idx, test_idx, [(method, k, p, (*coords, f)) for method, k, p, coords in plan])
            for f, (train_idx, test_idx) in enumerate(splits)]
    scores = iter([(*_summarize(counts), notes, k, p) for (counts, notes), (_, k, p, _)
                   in zip(_tally(ds, work, "fold", opts), plan)])
    return [max((next(scores) for _ in combos), key=lambda r: r[0]) for _, combos, _ in jobs]


def _nested(ds, splits, jobs, cv: CVConfig, opts):
    """``_select`` with (k, p) chosen per outer split on an inner CV; reports the mode.
    The outer splits are scored after every selection (``_tally``), each job's chosen
    combo on split f seeded from ``(*head, f, 0)``."""
    work = []
    for f, (train_idx, test_idx) in enumerate(splits):
        train, draws = ds.subset(train_idx), []
        for method, combos, head in jobs:
            inner = stratified_cv(train, cv.inner_folds, cv.inner_repeats,
                                  _derived_seed(*head, f))
            # a lone combo is chosen without its inner CV; the split above
            # still rejects a training part too small for it
            k, p = (combos[0] if len(combos) == 1 else
                    _select(train, inner, [(method, combos, head)], (f,), opts)[0][-2:])
            # arity-5 coordinates cannot collide with the arity-6 inner seeds
            draws.append((method, k, p, (*head, f, 0)))
        work.append((train_idx, test_idx, draws))
    return [(*_summarize(counts), notes,
             *Counter(draws[j][1:3] for _, _, draws in work).most_common(1)[0][0])
            for j, (counts, notes) in enumerate(_tally(ds, work, "outer fold", opts))]


def _listed_once(what: str, names: list[str]) -> None:
    """``EvaluationError`` if a name repeats: the reports would read one of its cells only."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise EvaluationError(f"{what} listed more than once: {', '.join(repeated)}")


def grid_search_eval(datasets: dict[str, Dataset], methods, k_grid, p_grid=DEFAULT_P_GRID,
                     cv: CVConfig = CVConfig(), seed: int = 0, symmetrize: str = UNION,
                     safelevel_formula: str = INVERSE_SAFETY) -> EvalReport:
    """Evaluate every method on every dataset over its hyperparameter grid.

    In ``outer`` mode the configuration with the best mean F1 across the
    outer folds is reported. In ``nested`` mode each outer fold picks its own
    configuration on an inner CV of its training part and the reported best
    (k, p) is the modal choice. An entry that is neither a ``Method`` nor
    ``IMBALANCED``, or a method listed twice, raises ``EvaluationError`` before
    any split.
    """
    seed = _seed(seed)
    methods = list(methods)
    for method in methods:
        if not (isinstance(method, Method) or isinstance(method, str) and method == IMBALANCED):
            raise EvaluationError(f"method must be a Method or {IMBALANCED!r}, got {method!r}")
    _listed_once("methods", [method_name(m) for m in methods])
    opts = (symmetrize, safelevel_formula)
    k_grid, p_grid = _integer_grid(k_grid, "k"), _integer_grid(p_grid, "p")
    cells = []
    for d_idx, (ds_name, ds) in enumerate(datasets.items()):
        splits = stratified_cv(ds, cv.folds, cv.repeats, _derived_seed(seed, d_idx))
        jobs = [(method, method_grid(method, k_grid, p_grid), (seed, d_idx, m_idx))
                for m_idx, method in enumerate(methods)]
        best = (_select(ds, splits, jobs, (), opts) if cv.mode == "outer"
                else _nested(ds, splits, jobs, cv, opts))
        for method, (mf1, sf1, mmcc, smcc, diags, k, p) in zip(methods, best):
            # k is None only for grid-free methods, where p is meaningless;
            # for the rest the MAXIMAL sentinel prints as "max"
            display_p = None if k is None else ("max" if p is MAXIMAL else int(p))
            cells.append(CellResult(
                dataset=ds_name, method=method_name(method),
                mean_f1=mf1, std_f1=sf1, mean_mcc=mmcc, std_mcc=smcc,
                best_k=k, best_p=display_p,
                diagnostics=tuple(diags)))
    meta = {"seed": seed, "k_clf": DEFAULT_K_CLF, "cv": cv, "k_grid": tuple(k_grid),
            "p_grid": tuple("max" if p is MAXIMAL else p for p in p_grid),
            "vote_ties": "minority"}
    return EvalReport(tuple(cells), meta)


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
    """Long-format CSV: one row per (dataset, method, metric) plus rank rows.

    Names holding a comma or a quote are quoted, so every row has 7 fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dataset", "method", "metric", "mean", "std", "best_k", "best_p"])
    for c in report.cells:
        for metric, mean, std in (("f1", c.mean_f1, c.std_f1),
                                  ("mcc", c.mean_mcc, c.std_mcc)):
            bk = "" if c.best_k is None else str(c.best_k)
            bp = "" if c.best_p is None else str(c.best_p)
            writer.writerow([c.dataset, c.method, metric, repr(mean), repr(std), bk, bp])
    for m, rank in rank_methods(report).items():
        writer.writerow(["all", m, "rank", repr(rank), "", "", ""])
    return buf.getvalue()


def report_to_text(report: EvalReport) -> str:
    """Aligned table per dataset plus the mean-rank summary row."""
    ds_names = report.datasets()
    methods = report.methods()
    width = max([10, *map(len, methods)])
    first = max([15, *map(len, ds_names)]) + 1  # the longest name and a space, at least 16
    header = "dataset".ljust(first) + "".join(m.rjust(width + 2) for m in methods)
    lines = [header, "-" * len(header)]
    for d in ds_names:
        lines.append(d.ljust(first) + "".join(f"{report.cell(d, m).mean_f1:.4f}".rjust(width + 2)
                                              for m in methods))
    ranks = rank_methods(report)
    lines.append("rank".ljust(first) + "".join(f"{ranks[m]:.4f}".rjust(width + 2) for m in methods))
    diag_lines = [f"  [{c.dataset}/{c.method}] {d}" for c in report.cells for d in c.diagnostics]
    if diag_lines:
        lines.append("diagnostics:")
        lines.extend(diag_lines)
    return "\n".join(lines) + "\n"


def synthetic_benchmark(seed: int = 0, shapes=tuple(Shape),
                        methods=BENCHMARK_METHODS, k_grid=BENCHMARK_K_GRID,
                        p_grid=DEFAULT_P_GRID, cv: CVConfig = CVConfig(),
                        symmetrize: str = UNION,
                        safelevel_formula: str = INVERSE_SAFETY) -> EvalReport:
    """Grid-search evaluation over seeded draws of the synthetic shape suite."""
    seed = _seed(seed)
    # every shape is checked before the first one is named or drawn
    specs = [SyntheticSpec(shape, seed=_derived_seed(seed, i)) for i, shape in enumerate(shapes)]
    _listed_once("shapes", [spec.shape.value for spec in specs])
    datasets = {spec.shape.value: generate_synthetic(spec) for spec in specs}
    return grid_search_eval(datasets, methods, k_grid, p_grid, cv, seed,
                            symmetrize, safelevel_formula)
