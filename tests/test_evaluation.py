import csv
import io
import weakref
from unittest import mock

import numpy as np
import pytest

from simbal import (
    CVConfig,
    CellResult,
    Dataset,
    EvalReport,
    EvaluationError,
    IMBALANCED,
    Method,
    Shape,
    SyntheticSpec,
    generate_synthetic,
    grid_search_eval,
    knn_classify,
    method_grid,
    oversample,
    parse_method,
    rank_methods,
    report_to_csv,
    report_to_text,
    stratified_cv,
    synthetic_benchmark,
)
from simbal import complexes, evaluation, graphs, metrics, samplers, variants
from simbal.complexes import MAXIMAL
from simbal.datasets import MAJORITY, MINORITY
from simbal.evaluation import _standardize
from simbal.samplers import GRAPH_VARIANTS, SamplerConfig, SamplerParameterError, SyntheticBatch

from helpers import per_config_grid_search


def brute_knn_predict(train, test_points, k_clf):
    """Reference classifier: explicit sort, minority wins vote ties."""
    preds = []
    k_eff = min(k_clf, train.n)
    for q in np.atleast_2d(test_points):
        ranked = sorted(
            (float(np.linalg.norm(q - train.features[j])), j)
            for j in range(train.n))
        labels = [train.labels[j] for _, j in ranked[:k_eff]]
        votes = sum(1 for v in labels if v == MINORITY)
        preds.append(MINORITY if votes >= k_eff - votes else MAJORITY)
    return np.array(preds)


def cluster_dataset(n_minority=10, n_majority=20, gap=10.0, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    mino = rng.normal(0.0, 0.1, size=(n_minority, 2))
    maj = rng.normal(gap, 0.1, size=(n_majority, 2))
    feats = np.vstack([mino, maj])
    return Dataset(feats, [1] * n_minority + [-1] * n_majority)


class TestKnnClassify:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        train = Dataset(rng.normal(size=(25, 3)),
                        np.where(rng.uniform(size=25) < 0.3, 1, -1))
        if train.n_minority == 0 or train.n_majority == 0:
            pytest.skip("degenerate draw")
        test_points = rng.normal(size=(12, 3))
        for k_clf in (1, 3, 5, 30):
            got = knn_classify(train, test_points, k_clf)
            assert np.array_equal(got, brute_knn_predict(train, test_points, k_clf))

    def test_vote_tie_goes_to_minority(self):
        train = Dataset([[0.0], [1.0]], [1, -1])
        preds = knn_classify(train, [[0.5]], k_clf=2)
        assert preds.tolist() == [MINORITY]

    def test_distance_tie_uses_lower_index(self):
        train = Dataset([[0.0], [0.0], [5.0]], [1, -1, -1])
        assert knn_classify(train, [[0.0]], k_clf=1).tolist() == [MINORITY]
        train2 = Dataset([[0.0], [0.0], [5.0]], [-1, 1, -1])
        assert knn_classify(train2, [[0.0]], k_clf=1).tolist() == [MAJORITY]

    def test_k_larger_than_train_clamps(self):
        train = Dataset([[0.0], [1.0], [2.0]], [1, -1, -1])
        # k_eff = 3: one minority vote of three loses
        assert knn_classify(train, [[0.0]], k_clf=50).tolist() == [MAJORITY]

    def test_separated_clusters_perfect(self):
        ds = cluster_dataset()
        preds = knn_classify(ds, ds.features, 5)
        assert np.array_equal(preds, ds.labels)

    def test_invalid_k(self):
        ds = cluster_dataset()
        with pytest.raises(EvaluationError):
            knn_classify(ds, ds.features, 0)


def augmented(train, rows):
    """``train`` plus ``rows`` as minority rows, the way a sampler batch adds them."""
    rows = np.asarray(rows, dtype=float).reshape(-1, train.d)
    batch = SyntheticBatch(rows, np.empty((len(rows), 0), dtype=int), np.empty((len(rows), 0)))
    return batch.augmented(train)


def assert_classifies_each(train, test_points, synthetic, got=None):
    """The grid search's grouped classifier gives ``knn_classify`` on each augmented fold."""
    test_points = np.asarray(test_points, dtype=float)
    if got is None:
        got = evaluation._classify_each(train, test_points, synthetic)
    want = [knn_classify(augmented(train, rows), test_points) for rows in synthetic]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]
    return got


class TestGroupedClassifier:
    def test_random_copies_tie_with_their_rows(self):
        # the queries are the training rows, so a minority row and each of its
        # copies tie at distance 0; one draw adds nothing
        moons = harness_datasets()["moons"]
        train, test_points = _standardize(moons, moons.features)
        batches = [oversample(train, SamplerConfig(Method.RANDOM, seed=s)) for s in range(4)]
        synthetic = [b.points for b in batches] + [np.empty((0, train.d))]
        assert any((train.features == row).all(axis=1).any() for row in batches[0].points)
        got = assert_classifies_each(train, test_points, synthetic)
        for batch, preds in zip(batches, got):
            assert np.array_equal(preds, knn_classify(batch.augmented(train), test_points))

    def test_training_row_wins_a_tie_at_the_kth_distance(self):
        # the query's first four are two minority and two majority training
        # rows; the fifth, at distance 5, is a majority training row, which a
        # synthetic row at distance 5 ties and one at 4.5 displaces
        train = Dataset([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 4.0], [5.0, 0.0], [9.0, 9.0]],
                        [1, 1, -1, -1, -1, -1])
        synthetic = [[[0.0, 5.0]], [[0.0, 4.5]], [[0.0, -5.0], [-5.0, 0.0]], np.empty((0, 2))]
        got = assert_classifies_each(train, [[0.0, 0.0]], synthetic)
        assert [p.tolist() for p in got] == [[MAJORITY], [MINORITY], [MAJORITY], [MAJORITY]]

    def test_training_fold_smaller_than_k_clf(self):
        # three training rows hold no 5th nearest, so every pair stays a
        # candidate, and k_eff = min(5, 3 + m) is 3, 4 or 5 by draw
        rng = np.random.Generator(np.random.PCG64(6))
        train = Dataset([[0.0], [1.0], [2.0]], [1, -1, -1])
        synthetic = [np.empty((0, 1)), [[0.4]], rng.normal(size=(4, 1)), [[3.0], [3.0], [-1.0]]]
        test_points = rng.normal(0.0, 2.0, size=(30, 1))
        with mock.patch.object(graphs, "_every_pair", wraps=graphs._every_pair) as every:
            got = evaluation._classify_each(train, test_points, synthetic)
        assert every.call_count == 1
        assert_classifies_each(train, test_points, synthetic, got)

    def test_far_offset(self):
        # unit noise on a 1e8 offset; the draws copy some training rows
        rng = np.random.Generator(np.random.PCG64(7))
        train = Dataset(1e8 + rng.normal(size=(40, 3)), [1] * 10 + [-1] * 30)
        synthetic = [np.vstack([1e8 + rng.normal(size=(m, 3)), train.features[:m // 3]])
                     for m in (30, 0, 12)]
        assert_classifies_each(train, 1e8 + rng.normal(size=(25, 3)), synthetic)

    def test_norms_past_the_overflow_limit(self):
        # squared norms overflow past 1e154, so every block ranks every pair;
        # distances overflow too and tie at inf, ranked by index
        rng = np.random.Generator(np.random.PCG64(8))
        train = Dataset(rng.normal(size=(12, 2)) * 1e155, [1] * 4 + [-1] * 8)
        synthetic = [rng.normal(size=(8, 2)) * 1e155, np.empty((0, 2)), train.features[:4]]
        test_points = rng.normal(size=(10, 2)) * 1e155
        with mock.patch.object(graphs, "_every_pair", wraps=graphs._every_pair) as every:
            got = evaluation._classify_each(train, test_points, synthetic)
        assert every.call_count == 1
        assert_classifies_each(train, test_points, synthetic, got)


class TestStratifiedCV:
    def test_each_repeat_partitions_dataset(self):
        ds = cluster_dataset(n_minority=11, n_majority=23)
        folds, repeats = 4, 3
        splits = stratified_cv(ds, folds, repeats, seed=7)
        assert len(splits) == folds * repeats
        for rep in range(repeats):
            block = splits[rep * folds:(rep + 1) * folds]
            covered = np.concatenate([test for _, test in block])
            assert sorted(covered.tolist()) == list(range(ds.n))
            for train, test in block:
                assert np.intersect1d(train, test).size == 0
                assert np.array_equal(np.sort(np.concatenate([train, test])),
                                      np.arange(ds.n))

    def test_class_counts_balanced_within_one(self):
        ds = cluster_dataset(n_minority=10, n_majority=26)
        for _, test in stratified_cv(ds, 4, 2, seed=0):
            n_min = int(np.sum(ds.labels[test] == MINORITY))
            n_maj = int(np.sum(ds.labels[test] == MAJORITY))
            assert n_min in (2, 3)  # 10 dealt over 4 folds
            assert n_maj in (6, 7)  # 26 dealt over 4 folds

    def test_deterministic_and_repeat_varying(self):
        ds = cluster_dataset()
        a = stratified_cv(ds, 3, 2, seed=5)
        b = stratified_cv(ds, 3, 2, seed=5)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
        first, second = a[:3], a[3:]
        assert any(not np.array_equal(x[1], y[1]) for x, y in zip(first, second))

    def test_too_few_members_raises(self):
        ds = cluster_dataset(n_minority=3, n_majority=20)
        with pytest.raises(EvaluationError, match="fewer than"):
            stratified_cv(ds, 4, 1, seed=0)

    def test_bad_fold_count(self):
        with pytest.raises(EvaluationError):
            stratified_cv(cluster_dataset(), 1, 1, seed=0)

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_bad_repeat_count(self, repeats):
        # checked as CVConfig checks it, not an empty list of splits
        with pytest.raises(EvaluationError, match="repeats >= 1"):
            stratified_cv(cluster_dataset(), 3, repeats, seed=0)


class TestStandardize:
    def test_train_stats_only(self):
        rng = np.random.Generator(np.random.PCG64(3))
        train = Dataset(rng.normal(5.0, 2.0, size=(40, 3)),
                        [1] * 10 + [-1] * 30)
        test_points = rng.normal(0.0, 1.0, size=(15, 3))
        std_train, std_test = _standardize(train, test_points)
        assert np.allclose(std_train.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(std_train.features.std(axis=0), 1.0, atol=1e-12)
        mu = train.features.mean(axis=0)
        sd = train.features.std(axis=0)
        assert np.allclose(std_test, (test_points - mu) / sd)
        # test fold keeps its offset: no leakage of test statistics
        assert not np.allclose(std_test.mean(axis=0), 0.0, atol=0.1)

    def test_constant_column_left_finite(self):
        train = Dataset([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]], [1, -1, -1])
        std_train, std_test = _standardize(train, np.array([[1.0, 2.5]]))
        assert np.all(np.isfinite(std_train.features))
        assert np.all(np.isfinite(std_test))
        assert np.allclose(std_train.features[:, 0], 0.0)


class TestMethodGrid:
    def test_baselines_ignore_grids(self):
        for m in (IMBALANCED, Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN):
            assert method_grid(m, (3, 5), (1, 2)) == [(None, None)]

    def test_edge_methods_fix_p(self):
        for m in (Method.SMOTE, Method.BORDERLINE, Method.SAFELEVEL, Method.ADASYN):
            assert method_grid(m, (3, 5, 7), (1, 2, MAXIMAL)) == [(3, 1), (5, 1), (7, 1)]

    def test_simplicial_product_drops_large_p(self):
        combos = method_grid(Method.SIMPLICIAL, (3, 5), (1, 2, 4, MAXIMAL))
        assert combos == [(3, 1), (3, 2), (3, MAXIMAL),
                          (5, 1), (5, 2), (5, 4), (5, MAXIMAL)]

    def test_everything_filtered_raises(self):
        with pytest.raises(EvaluationError, match="no valid"):
            method_grid(Method.S_SAFELEVEL, (3,), (9,))

    @pytest.mark.parametrize("method", list(GRAPH_VARIANTS))
    def test_empty_k_grid_raises(self, method):
        with pytest.raises(EvaluationError, match="no valid"):
            method_grid(method, (), (1, MAXIMAL))

    @pytest.mark.parametrize("k_grid,p_grid,what", [((2.5,), (MAXIMAL,), "k"),
                                                    ((3, 5.0), (1,), "k"),
                                                    ((3,), (2.7,), "p"),
                                                    ((3,), (0, MAXIMAL), "p"),
                                                    ((MAXIMAL, 3), (1,), "k")])
    def test_non_integral_values_raise(self, k_grid, p_grid, what):
        with pytest.raises(EvaluationError, match=f"{what} must be an integer"):
            method_grid(Method.SIMPLICIAL, k_grid, p_grid)

    def test_numpy_integers_become_ints(self):
        combos = method_grid(Method.SIMPLICIAL, np.array([3, 4]), (np.int64(2), MAXIMAL))
        assert combos == [(3, 2), (3, MAXIMAL), (4, 2), (4, MAXIMAL)]
        assert all(type(k) is int and type(p) in (int, type(None)) for k, p in combos)


class TestParseMethod:
    def test_known_names(self):
        assert parse_method("simplicial") is Method.SIMPLICIAL
        assert parse_method("smote") is Method.SMOTE
        assert parse_method("imbalanced") == IMBALANCED

    def test_unknown_name(self):
        with pytest.raises(EvaluationError, match="choose from"):
            parse_method("oracle")


class TestCVConfig:
    def test_validation(self):
        with pytest.raises(EvaluationError):
            CVConfig(folds=1)
        with pytest.raises(EvaluationError):
            CVConfig(repeats=0)
        with pytest.raises(EvaluationError):
            CVConfig(mode="bootstrap")
        with pytest.raises(EvaluationError):
            CVConfig(mode="nested", inner_folds=1)


class TestGridSearchEval:
    def _datasets(self):
        return {"clusters": cluster_dataset(seed=0)}

    def test_report_shape_and_selected_hyperparameters(self):
        report = grid_search_eval(
            self._datasets(), [IMBALANCED, Method.RANDOM, Method.SMOTE],
            k_grid=(3,), cv=CVConfig(folds=2, repeats=2), seed=1)
        assert len(report.cells) == 3
        assert report.datasets() == ["clusters"]
        assert report.methods() == ["imbalanced", "random", "smote"]
        assert report.cell("clusters", "random").best_k is None
        assert report.cell("clusters", "random").best_p is None
        smote = report.cell("clusters", "smote")
        assert smote.best_k == 3 and smote.best_p == 1

    def test_separated_clusters_score_perfectly(self):
        report = grid_search_eval(
            self._datasets(), [IMBALANCED, Method.SIMPLICIAL],
            k_grid=(3,), cv=CVConfig(folds=2, repeats=1), seed=0)
        for method in ("imbalanced", "simplicial"):
            cell = report.cell("clusters", method)
            assert cell.mean_f1 == 1.0 and cell.mean_mcc == 1.0

    def test_deterministic(self):
        kwargs = dict(methods=[Method.RANDOM, Method.SMOTE], k_grid=(3, 5),
                      cv=CVConfig(folds=2, repeats=2), seed=9)
        a = grid_search_eval(self._datasets(), **kwargs)
        b = grid_search_eval(self._datasets(), **kwargs)
        assert a.cells == b.cells

    def test_best_p_reported_as_max(self):
        report = grid_search_eval(
            self._datasets(), [Method.SIMPLICIAL], k_grid=(3,),
            p_grid=(MAXIMAL,), cv=CVConfig(folds=2, repeats=1), seed=0)
        assert report.cell("clusters", "simplicial").best_p == "max"
        assert report.meta["p_grid"] == ("max",)

    def test_sampler_failure_scores_unsampled_with_diagnostics(self):
        # every minority point in the cluster data is safe, so the borderline
        # sampler raises on every fold and the cell must fall back to the raw
        # training fold, matching the imbalanced pseudo-method exactly
        report = grid_search_eval(
            self._datasets(), [IMBALANCED, Method.BORDERLINE],
            k_grid=(3,), cv=CVConfig(folds=2, repeats=2), seed=4)
        base = report.cell("clusters", "imbalanced")
        cell = report.cell("clusters", "borderline")
        assert len(cell.diagnostics) == 4
        assert all("borderline" in d for d in cell.diagnostics)
        assert cell.mean_f1 == base.mean_f1
        assert cell.mean_mcc == base.mean_mcc
        assert base.diagnostics == ()

    @pytest.mark.parametrize("method", list(GRAPH_VARIANTS))
    def test_empty_k_grid_raises_typed(self, method):
        with pytest.raises(EvaluationError, match="no valid"):
            grid_search_eval(self._datasets(), [method], [], cv=CVConfig(folds=2, repeats=1))

    def test_overflowing_standardization_raises_typed(self):
        # finite coordinates near the float limit: the training mean overflows,
        # and no RuntimeWarning escapes
        rng = np.random.Generator(np.random.PCG64(0))
        features = rng.normal(size=(40, 2)) * 1e307 + 1.5e308
        assert np.isfinite(features).all()
        big = Dataset(features, [1] * 10 + [-1] * 30)
        with pytest.raises(EvaluationError, match="overflows; rescale the features"):
            grid_search_eval({"big": big}, [Method.SMOTE], (3,), cv=CVConfig(folds=2, repeats=1))

    @pytest.mark.parametrize("train, test_points", [
        ([[-1e308], [1e308]], [[0.0]]),  # the spread overflows; the scaled rows would be 0
        ([[0.0], [1e-150]], [[1e160]]),  # a test point overflows
    ])
    def test_standardize_checks_every_output(self, train, test_points):
        with pytest.raises(EvaluationError, match="overflows; rescale the features"):
            _standardize(Dataset(train, [1, -1]), np.array(test_points))

    @pytest.mark.parametrize("method,k_grid,p_grid,what", [
        (Method.SMOTE, [2.5], (MAXIMAL,), "k"),
        (Method.RANDOM, [2.5], (MAXIMAL,), "k"),  # grid-free, but the report lists the grid
        (Method.SIMPLICIAL, [3], [2.7], "p"),
        (Method.SMOTE, [3], [2.7], "p"),          # p forced to 1, but the report lists the grid
        (Method.SIMPLICIAL, [0, 3], (MAXIMAL,), "k"),  # below 1: raised before any split
    ])
    def test_non_integral_grid_raises(self, method, k_grid, p_grid, what):
        with pytest.raises(EvaluationError, match=f"{what} must be an integer"):
            grid_search_eval(self._datasets(), [method], k_grid, p_grid,
                             cv=CVConfig(folds=2, repeats=1))

    @pytest.mark.parametrize("entry", ["grid_search_eval", "synthetic_benchmark",
                                       "stratified_cv"])
    def test_negative_seed_raises_typed(self, entry):
        run = {"grid_search_eval": lambda: grid_search_eval(
                   self._datasets(), [Method.RANDOM], (3,), cv=CVConfig(folds=2, repeats=1),
                   seed=-1),
               "synthetic_benchmark": lambda: synthetic_benchmark(seed=-1),
               "stratified_cv": lambda: stratified_cv(cluster_dataset(), 2, 1, -1)}[entry]
        with pytest.raises(EvaluationError, match="seed must be >= 0, got -1"):
            run()

    @pytest.mark.parametrize("methods", [[Method.SMOTE, Method.SMOTE],
                                         [IMBALANCED, Method.RANDOM, "imbalanced"]])
    def test_method_listed_twice_raises_before_any_split(self, monkeypatch, methods):
        # a second cell of one (dataset, method) is drawn with other seeds, and
        # the rank table and text report read only the first
        calls = count_standardize(monkeypatch)
        with pytest.raises(EvaluationError, match="listed more than once"):
            grid_search_eval(self._datasets(), methods, k_grid=(3,),
                             cv=CVConfig(folds=2, repeats=1))
        assert calls == []

    @pytest.mark.parametrize("methods", [[5], [Method.SMOTE, None], ["random"],
                                         [IMBALANCED, Method.SMOTE.value]])
    def test_entry_that_is_not_a_method_raises_before_any_split(self, monkeypatch, methods):
        # a name is the CLI's to parse: the grid takes Method members and IMBALANCED only
        calls = []
        monkeypatch.setattr(evaluation, "stratified_cv", lambda *args: calls.append(args))
        with pytest.raises(EvaluationError, match=f"got {methods[-1]!r}$"):
            grid_search_eval(self._datasets(), methods, k_grid=(3,),
                             cv=CVConfig(folds=2, repeats=1))
        assert calls == []

    def test_config_typo_raises(self):
        # a misspelled option is a caller error, not a sampler failure to
        # score as the unsampled classifier
        with pytest.raises(SamplerParameterError, match="symmetrize"):
            grid_search_eval(self._datasets(), [Method.SIMPLICIAL], k_grid=(3,),
                             cv=CVConfig(folds=2, repeats=1), symmetrize="unoin")

    def test_non_domain_sampler_error_propagates(self, monkeypatch):
        def broken(ds, cfg, *tables):
            raise ZeroDivisionError("sampler bug")

        # every method but Gaussian goes straight to the sampling driver, which
        # takes the split's simplex tables; Gaussian through oversample
        for site, method in (("_draw", Method.RANDOM), ("_draw", Method.SMOTE),
                             ("_draw", Method.BORDERLINE), ("oversample", Method.GAUSSIAN)):
            monkeypatch.setattr(evaluation, site, broken)
            with pytest.raises(ZeroDivisionError, match="sampler bug"):
                grid_search_eval(self._datasets(), [method], k_grid=(3,),
                                 cv=CVConfig(folds=2, repeats=1))

    def test_nested_mode_runs(self):
        cv = CVConfig(folds=2, repeats=1, mode="nested",
                      inner_folds=2, inner_repeats=1)
        report = grid_search_eval(self._datasets(), [Method.SMOTE],
                                  k_grid=(3, 5), cv=cv, seed=2)
        cell = report.cell("clusters", "smote")
        assert cell.best_k in (3, 5) and cell.best_p == 1

    def test_missing_cell_lookup(self):
        report = grid_search_eval(self._datasets(), [Method.RANDOM],
                                  k_grid=(3,), cv=CVConfig(folds=2, repeats=1))
        with pytest.raises(EvaluationError, match="no cell"):
            report.cell("clusters", "smote")


HARNESS_METHODS = [IMBALANCED, Method.RANDOM, Method.SMOTE, Method.SIMPLICIAL,
                   Method.BORDERLINE]
# The methods that take a split's minority simplex tables.
WHOLE_MINORITY = [Method.SMOTE, Method.SIMPLICIAL, Method.SAFELEVEL, Method.S_SAFELEVEL,
                  Method.ADASYN, Method.S_ADASYN]
SIMPLEX_WHOLE_MINORITY = [Method.SIMPLICIAL, Method.S_SAFELEVEL, Method.S_ADASYN]
SAFETY_AWARE = [Method.BORDERLINE, Method.S_BORDERLINE, Method.SAFELEVEL, Method.S_SAFELEVEL,
                Method.ADASYN, Method.S_ADASYN]


def harness_datasets():
    """Separated clusters, where borderline raises on every fold, plus noisy moons."""
    moons = generate_synthetic(SyntheticSpec(Shape.MOONS, n_minority=16, n_majority=48,
                                             seed=5))
    return {"clusters": cluster_dataset(seed=0), "moons": moons}


def count_standardize(monkeypatch):
    """Count ``_standardize`` calls; check at each that at most one earlier
    prepared training fold is still alive."""
    calls, live = [], []

    def counted(train, test_points):
        live[:] = [r for r in live if r() is not None]
        assert len(live) <= 1, "prepared splits are being held"
        std_train, std_test = _standardize(train, test_points)
        calls.append(train.n)
        live.append(weakref.ref(std_train))
        return std_train, std_test

    monkeypatch.setattr(evaluation, "_standardize", counted)
    return calls


class TestFoldMajorHarness:
    @pytest.mark.parametrize("methods,k_grid", [
        ([IMBALANCED], (3,)),
        ([Method.SMOTE], (3, 5)),
        (HARNESS_METHODS, (3, 4, 5)),
    ])
    def test_outer_standardizes_each_split_once(self, monkeypatch, methods, k_grid):
        calls = count_standardize(monkeypatch)
        grid_search_eval(harness_datasets(), methods, k_grid, p_grid=(1, MAXIMAL),
                         cv=CVConfig(folds=3, repeats=2), seed=1)
        assert len(calls) == 2 * 3 * 2

    @pytest.mark.parametrize("methods", [[Method.SMOTE], HARNESS_METHODS,
                                         [IMBALANCED, Method.RANDOM]])
    def test_nested_standardizes_outer_once_inner_per_method(self, monkeypatch, methods):
        # only a method with several combos runs its inner CV: grid-free
        # methods have nothing to select
        calls = count_standardize(monkeypatch)
        cv = CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2)
        grid_search_eval(harness_datasets(), methods, (3, 5), p_grid=(1, MAXIMAL), cv=cv,
                         seed=2)
        selecting = sum(len(method_grid(m, (3, 5), (1, MAXIMAL))) > 1 for m in methods)
        assert len(calls) == 2 * 2 * (1 + selecting * 2 * 2)

    def test_nested_one_combo_grid_skips_inner_cv(self, monkeypatch):
        calls = count_standardize(monkeypatch)
        cv = CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2)
        report = grid_search_eval(harness_datasets(), [Method.SMOTE], (3,), cv=cv, seed=2)
        assert len(calls) == 2 * 2
        assert {(c.best_k, c.best_p) for c in report.cells} == {(3, 1)}

    def test_nested_inner_split_errors_still_raise(self):
        # the skipped selection keeps its stratified_cv call
        cv = CVConfig(folds=2, repeats=1, mode="nested", inner_folds=8, inner_repeats=1)
        with pytest.raises(EvaluationError, match="fewer than 8 folds"):
            grid_search_eval(harness_datasets(), [IMBALANCED], (3,), cv=cv, seed=2)

    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=2, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_matches_per_config_oracle(self, monkeypatch, cv):
        # the oracle calls oversample, which ranks every neighbourhood itself.
        # k = 8 exceeds n_plus - 1 of the 10-minority clusters' training parts,
        # so the split's lists are clamped there
        methods = [IMBALANCED, Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN, *GRAPH_VARIANTS]
        for symmetrize in ("union", "mutual"):
            args = (harness_datasets(), methods, (3, 8), (1, MAXIMAL), cv, 7, symmetrize)
            got = grid_search_eval(*args)
            want = per_config_grid_search(*args)
            assert repr(got.cells) == repr(want.cells)
            assert got.meta == want.meta
            # the borderline cell fell back on every fold, so the oracle saw diagnostics
            assert len(got.cell("clusters", "borderline").diagnostics) == cv.folds * cv.repeats
        # no point is borderline at k = 2 (2 * k_plus < 2 leaves k_plus = 0), so
        # on the moons a split has borderline draws that raise next to k = 8
        # draws that draw, all in one combine
        mixed, draw_split = [], evaluation._draw_split

        def recorded_draw_split(*args):
            rows, diags = draw_split(*args)
            mixed.append(None in diags and any(diags))
            return rows, diags

        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        for symmetrize in ("union", "mutual"):
            args = ({"moons": harness_datasets()["moons"]}, [Method.BORDERLINE,
                    Method.S_BORDERLINE], (2, 8), (1, MAXIMAL), cv, 7, symmetrize)
            assert repr(grid_search_eval(*args).cells) == \
                repr(per_config_grid_search(*args).cells)
        assert any(mixed)

    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_classifier_pass_per_split_and_job(self, monkeypatch, cv):
        # a split classifies every draw of every job in one neighbour pass: one
        # call of the one search whose query is the split's test points, with a
        # group per draw; the minority self-query goes through nearest, which
        # the grid search never calls without self ids
        prepared, passes = [], {}
        prepare, search = evaluation._prepare, evaluation._search
        query_nearest = evaluation.nearest

        def recorded_prepare(train, test, draws, *args):
            split = prepare(train, test, draws, *args)
            prepared.append((split[1], len(draws)))
            return split

        def counted_search(query, ref, k, n_shared, sizes, *args):
            passes.setdefault(id(query), []).append(len(sizes))
            return search(query, ref, k, n_shared, sizes, *args)

        def checked_nearest(query, ref, k, self_ids=None):
            assert self_ids is not None
            return query_nearest(query, ref, k, self_ids)

        monkeypatch.setattr(evaluation, "_prepare", recorded_prepare)
        monkeypatch.setattr(evaluation, "_search", counted_search)
        monkeypatch.setattr(evaluation, "nearest", checked_nearest)
        grid_search_eval(harness_datasets(), HARNESS_METHODS, (3, 8), (1, MAXIMAL), cv=cv,
                         seed=4)
        assert [passes[id(test_points)] for test_points, _ in prepared] == \
            [[n_draws] for _, n_draws in prepared]
        assert len(passes) == len(prepared) and max(n for _, n in prepared) > 1

    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_combine_per_split_and_job(self, monkeypatch, cv):
        # a split draws the variates of every draw of random, global or a graph
        # method, then turns them all into points in one combine over its
        # training rows; IMBALANCED, Gaussian (its points are not barycentric)
        # and a failed draw add no rows to it, and a split without such rows
        # combines nothing
        drawn, combines = [], {}
        draw_split, combine = evaluation._draw_split, evaluation._combine

        def recorded_draw_split(split, draws, opts):
            rows, diags = draw_split(split, draws, opts)
            drawn.append((split[0].features, sum(
                len(r) for (m, *_), r in zip(draws, rows)
                if m not in (IMBALANCED, Method.GAUSSIAN))))
            return rows, diags

        def counted_combine(features, verts, gammas):
            combines.setdefault(id(features), []).append(len(verts))
            return combine(features, verts, gammas)

        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        monkeypatch.setattr(evaluation, "_combine", counted_combine)
        grid_search_eval(harness_datasets(), [*HARNESS_METHODS, Method.GLOBAL, Method.GAUSSIAN],
                         (3, 8), (1, MAXIMAL), cv=cv, seed=4)
        assert [combines.get(id(features), []) for features, _ in drawn] == \
            [[n_rows] if n_rows else [] for _, n_rows in drawn]
        assert len(combines) == sum(n > 0 for _, n in drawn) > 0
        drawn.clear()
        combines.clear()
        grid_search_eval(harness_datasets(), [IMBALANCED, Method.GAUSSIAN], (3,), cv=cv, seed=4)
        assert drawn and combines == {}

    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_tally_matches_confusion_counts_per_config(self, monkeypatch, cv):
        # a job's counts come from one bincount over all its combos; on every
        # split and job each must equal the checked per-combo tally
        scored, score = [], evaluation._score

        def checked_score(split, synthetic):
            got = score(split, synthetic)
            want = [metrics.confusion_counts(split[2], preds)
                    for preds in evaluation._classify_each(split[0], split[1], synthetic)]
            assert repr(got) == repr(want)
            scored.append(len(synthetic))
            return got

        monkeypatch.setattr(evaluation, "_score", checked_score)
        grid_search_eval(harness_datasets(), [*HARNESS_METHODS, Method.GLOBAL, Method.GAUSSIAN],
                         (3, 8), (1, MAXIMAL), cv=cv, seed=4)
        assert scored and max(scored) > 1

    def test_score_of_no_row_sets(self):
        # a split with no draws scores nothing, and searches nothing: the
        # grouped search has no reference to search without a group
        moons = harness_datasets()["moons"]
        train_idx, test_idx = stratified_cv(moons, 2, 1, 0)[0]
        split = evaluation._prepare(moons.subset(train_idx), moons.subset(test_idx), [], "union")
        with mock.patch.object(evaluation, "_search") as search:
            assert evaluation._score(split, []) == []
        assert search.call_count == 0

    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_folds_reuse_checked_rows_and_tally_without_confusion_counts(self, monkeypatch, cv):
        # the fold datasets (subsets and standardized training folds) are built
        # from checked rows without Dataset's checks, and the scores are tallied
        # without the checked confusion_counts
        datasets, checks, subsets = harness_datasets(), [], []
        post_init, subset = Dataset.__post_init__, Dataset.subset

        def counted_post_init(self):
            checks.append(self.features.shape)
            post_init(self)

        def counted_subset(self, idx):
            subsets.append(len(idx))
            return subset(self, idx)

        def refused(*args):
            raise AssertionError("the grid search called confusion_counts")

        monkeypatch.setattr(Dataset, "__post_init__", counted_post_init)
        monkeypatch.setattr(Dataset, "subset", counted_subset)
        monkeypatch.setattr(evaluation, "confusion_counts", refused)
        report = grid_search_eval(datasets, HARNESS_METHODS, (3, 8), (1, MAXIMAL), cv=cv, seed=4)
        assert checks == [] and len(subsets) >= 2 * cv.folds * cv.repeats
        assert all(c.mean_f1 > 0 for c in report.cells if c.method != "borderline")

    @pytest.mark.parametrize("methods", [
        [IMBALANCED, Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN],
        [Method.BORDERLINE],
        [Method.S_BORDERLINE, Method.SMOTE, Method.RANDOM],
        WHOLE_MINORITY,
        *([m] for m in WHOLE_MINORITY),
    ])
    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_minority_self_query_per_split(self, monkeypatch, methods, cv):
        # a prepared split ranks its training minority once, at the largest k
        # drawn on it by a method spanning the whole minority, clamped to
        # n_plus - 1, and not at all if there is no such draw; in nested mode the
        # outer split's draws are the chosen combos. Those methods then search
        # nothing themselves (graphs.nearest is the samplers' search, via _knn_pairs)
        splits, harness, sampler = {}, [], []
        prepare, draw_split, search = evaluation._prepare, evaluation._draw_split, graphs.nearest

        def recorded_prepare(train, test, *args):
            before = len(harness)
            split = prepare(train, test, *args)
            splits[id(split)] = (split, train.n_minority, harness[before:], [])
            return split

        def recorded_draw_split(split, draws, opts):
            splits[id(split)][3].extend(draws)
            return draw_split(split, draws, opts)

        def counting(calls):
            def counted(query, ref, k, self_ids=None):
                if self_ids is not None:
                    calls.append((len(query), k))
                return search(query, ref, k, self_ids)
            return counted

        monkeypatch.setattr(evaluation, "_prepare", recorded_prepare)
        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        monkeypatch.setattr(evaluation, "nearest", counting(harness))
        monkeypatch.setattr(graphs, "nearest", counting(sampler))
        grid_search_eval(harness_datasets(), methods, (3, 8), (1, MAXIMAL), cv=cv, seed=3)
        for _, n_plus, queries, draws in splits.values():
            ks = [k for m, k, _, _ in draws if m in WHOLE_MINORITY]
            assert queries == ([(n_plus, min(max(ks), n_plus - 1))] if ks else [])
        assert len(harness) == sum(len(q) for _, _, q, _ in splits.values())
        assert (len(harness) > 0) == any(m in WHOLE_MINORITY for m in methods)
        if all(m in WHOLE_MINORITY for m in methods):
            assert sampler == []

    @pytest.mark.parametrize("methods", [
        [IMBALANCED, Method.RANDOM, Method.GAUSSIAN, Method.SMOTE, Method.SIMPLICIAL],
        [Method.BORDERLINE],
        [Method.S_BORDERLINE, Method.SMOTE, Method.RANDOM],
        SAFETY_AWARE,
        *([m] for m in SAFETY_AWARE),
    ])
    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_safety_ranking_per_split(self, monkeypatch, methods, cv):
        # a prepared split ranks its training minority against its training
        # fold once, at the largest k of its safety-aware draws clamped to
        # n_plus - 1, and not at all without such a draw; the draws then make
        # no safety search of their own (variants.nearest is that search)
        splits = {}
        prepare, draw_split, search = evaluation._prepare, evaluation._draw_split, variants.nearest
        searches = []

        def recorded_prepare(train, test, *args):
            before = len(searches)
            split = prepare(train, test, *args)
            splits[id(split)] = (split, train.n_minority, train.n, searches[before:], [])
            return split

        def recorded_draw_split(split, draws, opts):
            splits[id(split)][4].extend(draws)
            before = len(searches)
            drawn = draw_split(split, draws, opts)
            assert searches[before:] == []
            return drawn

        def counted(query, ref, k, self_ids=None):
            searches.append((len(query), len(ref), k))
            return search(query, ref, k, self_ids)

        monkeypatch.setattr(evaluation, "_prepare", recorded_prepare)
        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        monkeypatch.setattr(variants, "nearest", counted)
        grid_search_eval(harness_datasets(), methods, (3, 8), (1, MAXIMAL), cv=cv, seed=3)
        for _, n_plus, n, ranked, draws in splits.values():
            ks = [k for m, k, _, _ in draws if m in SAFETY_AWARE]
            assert ranked == ([(n_plus, n, min(max(ks), n_plus - 1))] if ks else [])
        assert len(searches) == sum(len(r) for _, _, _, r, _ in splits.values())
        assert (len(searches) > 0) == any(m in SAFETY_AWARE for m in methods)


    @pytest.mark.parametrize("methods", [
        [IMBALANCED, Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN],
        [Method.BORDERLINE, Method.SMOTE, Method.SAFELEVEL, Method.ADASYN],
        WHOLE_MINORITY,
        *([m] for m in SIMPLEX_WHOLE_MINORITY),
    ])
    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_clique_step_per_split(self, monkeypatch, methods, cv):
        # a prepared split builds the clique tables of all its k in one clique
        # step if it draws a simplex method spanning the whole minority at p > 1
        # (in nested mode the outer split draws the chosen combos), and none
        # otherwise; the samplers then read them and build none themselves
        # (borderline builds its own support's complex, so it is left out)
        calls, splits, clique_table = [], {}, complexes._clique_table
        prepare, draw_split = evaluation._prepare, evaluation._draw_split

        def recorded_prepare(*args):
            before = len(calls)
            split = prepare(*args)
            # the split itself, the clique calls made for it, the draws on it
            splits[id(split)] = [split, len(calls) - before, []]
            return split

        def recorded_draw_split(split, draws, opts):
            before = len(calls)
            result = draw_split(split, draws, opts)
            splits[id(split)][1] += len(calls) - before
            splits[id(split)][2].extend(draws)
            return result

        def counting(*args):
            calls.append(args[0])
            return clique_table(*args)

        monkeypatch.setattr(evaluation, "_prepare", recorded_prepare)
        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        monkeypatch.setattr(complexes, "_clique_table", counting)
        grid_search_eval(harness_datasets(), methods, (3, 8), (1, MAXIMAL), cv=cv, seed=3)
        for _, n_calls, draws in splits.values():
            assert n_calls == any(m in SIMPLEX_WHOLE_MINORITY and p != 1 for m, _, p, _ in draws)
        assert len(calls) == sum(n for _, n, _ in splits.values())
        assert (len(calls) > 0) == bool(set(methods) & set(SIMPLEX_WHOLE_MINORITY))

    @pytest.mark.parametrize("methods, p_grid", [
        ([IMBALANCED, Method.RANDOM, Method.GLOBAL, Method.GAUSSIAN], (1, MAXIMAL)),
        ([Method.BORDERLINE, Method.S_BORDERLINE, Method.SMOTE], (1, MAXIMAL)),
        (WHOLE_MINORITY, (1, MAXIMAL)),
        (SIMPLEX_WHOLE_MINORITY, (1, 2)),
        (SIMPLEX_WHOLE_MINORITY, (MAXIMAL,)),
        ([Method.SMOTE], (MAXIMAL,)),
    ])
    @pytest.mark.parametrize("cv", [
        CVConfig(folds=3, repeats=2),
        CVConfig(folds=2, repeats=1, mode="nested", inner_folds=2, inner_repeats=2),
    ], ids=["outer", "nested"])
    def test_one_edge_step_per_split(self, monkeypatch, methods, p_grid, cv):
        # a prepared split builds the edge tables of all its k in one step if it
        # draws a method spanning the whole minority at p = 1 (every edge-only
        # method does; in nested mode the outer split draws the chosen combos),
        # and none otherwise; the draws of those methods then build no pairs and
        # no table themselves
        calls, splits = [], {}
        prepare, draw_split, draw = evaluation._prepare, evaluation._draw_split, evaluation._draw
        skeleton_table, knn_pairs = samplers._skeleton_table, samplers._knn_pairs

        def recorded_prepare(*args):
            before = len(calls)
            split = prepare(*args)
            # the split itself, its edge steps, the draws on it
            splits[id(split)] = [split, calls[before:].count(("table", 1)), []]
            return split

        def recorded_draw_split(split, draws, opts):
            splits[id(split)][2].extend(draws)
            return draw_split(split, draws, opts)

        def checked_draw(ds, cfg, tables=None):
            before = len(calls)
            result = draw(ds, cfg, tables)
            if cfg.method in WHOLE_MINORITY:
                assert calls[before:] == [], cfg
            return result

        def counted_table(n, lo, hi, p=MAXIMAL):
            calls.append(("table", p))
            return skeleton_table(n, lo, hi, p)

        def counted_pairs(*args):
            calls.append(("pairs",))
            return knn_pairs(*args)

        monkeypatch.setattr(evaluation, "_prepare", recorded_prepare)
        monkeypatch.setattr(evaluation, "_draw_split", recorded_draw_split)
        monkeypatch.setattr(evaluation, "_draw", checked_draw)
        monkeypatch.setattr(samplers, "_skeleton_table", counted_table)
        monkeypatch.setattr(samplers, "_knn_pairs", counted_pairs)
        grid_search_eval(harness_datasets(), methods, (3, 8), p_grid, cv=cv, seed=3)
        with_edges = {m for m in WHOLE_MINORITY if GRAPH_VARIANTS[m][1] or 1 in p_grid}
        for _, n_steps, draws in splits.values():
            assert n_steps == any(m in WHOLE_MINORITY and p == 1 for m, _, p, _ in draws)
        assert any(n for _, n, _ in splits.values()) == bool(set(methods) & with_edges)


def make_report(score_grid):
    """Report from {dataset: {method: f1}} with mcc = f1 - 0.5."""
    cells = []
    for ds_name, by_method in score_grid.items():
        for method, f1 in by_method.items():
            cells.append(CellResult(
                dataset=ds_name, method=method, mean_f1=f1, std_f1=0.01,
                mean_mcc=f1 - 0.5, std_mcc=0.01, best_k=3, best_p=1))
    return EvalReport(tuple(cells))


class TestRankMethods:
    def test_strict_domination(self):
        report = make_report({
            "a": {"x": 0.9, "y": 0.8, "z": 0.7},
            "b": {"x": 0.95, "y": 0.85, "z": 0.75},
        })
        assert rank_methods(report) == {"x": 1.0, "y": 2.0, "z": 3.0}

    def test_ties_share_average_rank(self):
        report = make_report({
            "a": {"x": 0.9, "y": 0.9, "z": 0.8},
            "b": {"x": 0.9, "y": 0.8, "z": 0.7},
        })
        ranks = rank_methods(report)
        assert ranks == {"x": 1.25, "y": 1.75, "z": 3.0}

    def test_three_way_tie(self):
        report = make_report({"a": {"x": 0.5, "y": 0.5, "z": 0.5}})
        assert rank_methods(report) == {"x": 2.0, "y": 2.0, "z": 2.0}

    def test_mcc_metric_ranks_shifted_scores(self):
        report = make_report({
            "a": {"x": 0.9, "y": 0.8},
            "b": {"x": 0.6, "y": 0.7},
        })
        assert rank_methods(report, metric="mcc") == rank_methods(report, metric="f1")

    def test_order_preserving_transform_keeps_ranks(self):
        grid = {
            "a": {"x": 0.9, "y": 0.8, "z": 0.7},
            "b": {"x": 0.6, "y": 0.7, "z": 0.5},
        }
        squeezed = {d: {m: v / 2 + 0.1 for m, v in row.items()}
                    for d, row in grid.items()}
        assert rank_methods(make_report(grid)) == rank_methods(make_report(squeezed))

    def test_reference_six_method_grid(self):
        # hand-ranked reference: four datasets, six methods, one exact tie on
        # the first dataset; expected mean ranks worked out by hand
        grid = {
            "w": {"none": 0.9511, "gauss": 0.8830, "rand": 0.9485,
                  "glob": 0.9348, "edge": 0.9694, "simplex": 0.9694},
            "x": {"none": 0.5317, "gauss": 0.6673, "rand": 0.7168,
                  "glob": 0.6774, "edge": 0.7208, "simplex": 0.6823},
            "y": {"none": 0.7129, "gauss": 0.6750, "rand": 0.7089,
                  "glob": 0.6542, "edge": 0.6937, "simplex": 0.7269},
            "z": {"none": 0.6541, "gauss": 0.7060, "rand": 0.6777,
                  "glob": 0.6356, "edge": 0.7005, "simplex": 0.7139},
        }
        ranks = rank_methods(make_report(grid))
        assert ranks == {"none": 4.0, "gauss": 4.5, "rand": 3.25,
                         "glob": 5.25, "edge": 2.375, "simplex": 1.625}

    def test_missing_cell_raises(self):
        cells = (
            CellResult("a", "x", 0.9, 0.0, 0.4, 0.0, None, None),
            CellResult("a", "y", 0.8, 0.0, 0.3, 0.0, None, None),
            CellResult("b", "x", 0.7, 0.0, 0.2, 0.0, None, None),
        )
        with pytest.raises(EvaluationError, match="missing"):
            rank_methods(EvalReport(cells))

    def test_invalid_metric(self):
        with pytest.raises(EvaluationError):
            rank_methods(make_report({"a": {"x": 0.5}}), metric="accuracy")


class TestReportFormats:
    def _report(self):
        return make_report({
            "a": {"x": 0.875, "y": 0.75},
            "b": {"x": 0.5, "y": 0.625},
        })

    def test_csv_header_and_row_schema(self):
        text = report_to_csv(self._report())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["dataset", "method", "metric", "mean", "std",
                           "best_k", "best_p"]
        # 4 cells x 2 metrics + 2 rank rows
        assert len(rows) == 1 + 8 + 2
        body = rows[1:9]
        assert [r[:3] for r in body[:2]] == [["a", "x", "f1"], ["a", "x", "mcc"]]
        for r in body:
            assert float(r[3]) is not None
            assert r[5] == "3" and r[6] == "1"

    def test_csv_floats_roundtrip_exactly(self):
        text = report_to_csv(self._report())
        rows = list(csv.reader(io.StringIO(text)))
        cell_rows = [r for r in rows[1:] if r[2] == "f1"]
        means = {(r[0], r[1]): float(r[3]) for r in cell_rows}
        assert means[("a", "x")] == 0.875 and means[("b", "y")] == 0.625

    def test_csv_rank_rows(self):
        rows = list(csv.reader(io.StringIO(report_to_csv(self._report()))))
        rank_rows = [r for r in rows if r[2] == "rank"]
        assert [r[0] for r in rank_rows] == ["all", "all"]
        assert {r[1]: float(r[3]) for r in rank_rows} == {"x": 1.5, "y": 1.5}

    @pytest.mark.parametrize("name", ["moons, noisy", 'q"x', '"q'])
    def test_csv_quotes_names_with_commas_and_quotes(self, name):
        report = make_report({name: {"x": 0.5, "y,z": 0.25}})
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert all(len(r) == 7 for r in rows)
        assert [r[:2] for r in rows[1:5:2]] == [[name, "x"], [name, "y,z"]]
        assert {r[1] for r in rows if r[2] == "rank"} == {"x", "y,z"}

    def test_csv_blank_hyperparameters_for_baselines(self):
        report = EvalReport((CellResult("a", "random", 0.5, 0.0, 0.0, 0.0,
                                        None, None),))
        rows = list(csv.reader(io.StringIO(report_to_csv(report))))
        assert rows[1][5] == "" and rows[1][6] == ""

    def test_text_table(self):
        text = report_to_text(self._report())
        lines = text.splitlines()
        assert lines[0].startswith("dataset")
        assert "0.8750" in text and "0.6250" in text
        assert any(line.startswith("rank") for line in lines)
        assert "diagnostics" not in text

    @pytest.mark.parametrize("name", ["a", "gaussian_in_circle", "n" * 40])
    def test_text_table_lines_align(self, name):
        # the first column fits the longest dataset name, never below 16
        report = make_report({name: {"random": 0.5, "smote": 0.625}, "b": {"random": 0.25,
                                                                            "smote": 0.75}})
        lines = report_to_text(report).splitlines()
        assert len(lines) == 5
        assert len({len(line) for line in lines}) == 1
        first = max(16, len(name) + 1)
        assert lines[0] == "dataset".ljust(first) + "random".rjust(12) + "smote".rjust(12)
        assert lines[2] == name.ljust(first) + "0.5000".rjust(12) + "0.6250".rjust(12)

    def test_text_table_of_no_methods(self):
        # an empty grid search reports no cells; its table is the bare frame
        report = grid_search_eval({"a": cluster_dataset()}, [], (3,))
        assert report.cells == ()
        assert report_to_text(report).splitlines() == ["dataset".ljust(16), "-" * 16,
                                                      "rank".ljust(16)]

    def test_text_diagnostics_section(self):
        report = EvalReport((
            CellResult("a", "x", 0.5, 0.0, 0.0, 0.0, 3, 1,
                       diagnostics=("fold 0: empty support",)),
        ))
        text = report_to_text(report)
        assert "diagnostics:" in text
        assert "[a/x] fold 0: empty support" in text


class TestSyntheticBenchmark:
    def test_restricted_run(self):
        report = synthetic_benchmark(
            seed=3, shapes=(Shape.MOONS,), methods=(Method.RANDOM,),
            k_grid=(3,), cv=CVConfig(folds=2, repeats=1))
        assert report.datasets() == ["moons"]
        assert report.methods() == ["random"]
        cell = report.cell("moons", "random")
        assert 0.0 <= cell.mean_f1 <= 1.0

    @pytest.mark.parametrize("shapes, repeated", [
        ([Shape.MOONS, Shape.MOONS], "moons"),
        ([Shape.CIRCLES, Shape.MOONS, Shape.CIRCLES, Shape.MOONS], "circles, moons"),
    ])
    def test_shape_listed_twice_raises_before_any_draw(self, monkeypatch, shapes, repeated):
        # the datasets are keyed by shape name, so a second draw of a shape
        # would replace the first, drawn with another seed
        drawn = []
        monkeypatch.setattr(evaluation, "generate_synthetic", drawn.append)
        with pytest.raises(EvaluationError, match=f"shapes listed more than once: {repeated}$"):
            synthetic_benchmark(seed=0, shapes=shapes, methods=(Method.RANDOM,),
                                cv=CVConfig(folds=2, repeats=1))
        assert drawn == []
