import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tensplit.classify as classify_mod
import tensplit.features as features_mod
from tensplit.classify import (
    EvalReport,
    ExperimentConfig,
    LabeledVectors,
    knn_classify,
    nearest_centroid,
    report_csv,
    run_experiment,
    run_grid,
    summary_json,
)
from tensplit.core import DenseTensor, unfold
from tensplit.dataset import (
    EnsembleDataset,
    group_tensor,
    make_group_splits,
    synthetic_face_fixture,
)
from tensplit.features import CommonFeatureBank, SubsetRule, estimate_mixing, split_features
from tensplit.kernels import ConvergenceError


def vecs(points, labels):
    return LabeledVectors(vectors=[np.asarray(p, float) for p in points],
                          labels=list(labels))


class TestLabeledVectors:
    def test_matrix_shape(self):
        lv = vecs([[1, 2], [3, 4], [5, 6]], [0, 1, 0])
        assert lv.vectors.shape == (3, 2)
        assert len(lv) == 3
        assert lv.dim == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            vecs([[1, 2]], [0, 1])
        with pytest.raises(ValueError):
            vecs([[1, 2], [1, 2, 3]], [0, 1])
        with pytest.raises(ValueError):
            LabeledVectors(vectors=[np.ones((2, 2))], labels=[0])
        with pytest.raises(ValueError):
            LabeledVectors(vectors=np.ones(3), labels=[0, 0, 0])


class TestKnn:
    def test_training_point_recovers_own_label(self):
        train = vecs([[0, 0], [5, 5], [9, 0]], [0, 1, 2])
        rep = knn_classify(train, train, k=1)
        assert rep.accuracy == 1.0
        np.testing.assert_array_equal(rep.confusion, np.eye(3, dtype=int))

    def test_separable_clusters(self):
        train = vecs([[0, 0], [0, 1], [10, 10], [10, 11]], [0, 0, 1, 1])
        test = vecs([[0.2, 0.4], [9.8, 10.6], [0.1, 0.9], [10.2, 10.1]],
                    [0, 1, 0, 1])
        rep = knn_classify(train, test, k=1)
        assert rep.accuracy == 1.0
        assert rep.confusion[0].sum() == 2  # row sums count true-class samples
        assert rep.confusion[1].sum() == 2

    def test_vote_tie_breaks_by_total_distance(self):
        train = vecs([[1, 0], [-0.5, 0]], [0, 1])
        test = vecs([[0, 0]], [1])
        rep = knn_classify(train, test, k=2)
        assert rep.accuracy == 1.0  # class 1 is nearer, wins the 1-1 vote

    def test_full_tie_breaks_by_lowest_id(self):
        train = vecs([[1, 0], [-1, 0]], [7, 3])
        rep = knn_classify(train, vecs([[0, 0]], [3]), k=2)
        assert rep.accuracy == 1.0  # both classes at distance 1, ID 3 < 7

    def test_k_clamped_to_training_size(self):
        train = vecs([[0, 0], [1, 0]], [0, 1])
        rep = knn_classify(train, vecs([[0.1, 0]], [0]), k=50)
        assert rep.accuracy == 1.0

    def test_validation(self):
        train = vecs([[0, 0]], [0])
        with pytest.raises(ValueError):
            knn_classify(train, train, k=0)
        with pytest.raises(ValueError):
            knn_classify(vecs([], []), train)
        with pytest.raises(ValueError):
            knn_classify(train, vecs([[0, 0, 0]], [0]))


def knn_oracle(train_pts, train_labs, test_pts, test_labs, k):
    """Confusion matrix of the per-vector search: every distance, a Python
    sort on (distance, training index), then the summed-distance vote."""
    tmat = np.asarray(train_pts, dtype=np.float64)
    class_ids = sorted(set(train_labs) | set(test_labs))
    index = {lab: i for i, lab in enumerate(class_ids)}
    confusion = np.zeros((len(class_ids), len(class_ids)), dtype=np.int64)
    for x, true in zip(test_pts, test_labs):
        dist = np.linalg.norm(tmat - np.asarray(x, dtype=np.float64), axis=1)
        order = sorted(range(len(train_labs)), key=lambda i: (dist[i], i))
        counts, totals = {}, {}
        for i in order[: min(k, len(order))]:
            lab = train_labs[i]
            counts[lab] = counts.get(lab, 0) + 1
            totals[lab] = totals.get(lab, 0.0) + float(dist[i])
        best = max(counts.values())
        tied = [lab for lab, n in counts.items() if n == best]
        confusion[index[true], index[min(tied, key=lambda lab: (totals[lab], lab))]] += 1
    return confusion


def duplicated_rows(rng):
    # every point twice under different labels; test points on and between them
    pts = rng.integers(-3, 4, size=(6, 5)).astype(float)
    train = np.repeat(pts, 2, axis=0)
    train_labs = [int(l) for l in rng.integers(0, 3, size=12)]
    test = np.vstack([pts, (pts[:3] + pts[3:]) / 2])
    return train, train_labs, test, [int(l) for l in rng.integers(0, 3, size=9)]


def large_offset(rng):
    # ||x||^2 ~ 1e16 against squared distances ~ 2: the expansion cancels
    train = 1e6 + 0.01 * rng.standard_normal((30, 10_000))
    test = 1e6 + 0.01 * rng.standard_normal((8, 10_000))
    return (train, [int(l) for l in rng.integers(0, 3, size=30)],
            test, [int(l) for l in rng.integers(0, 3, size=8)])


def vote_ties(rng):
    # on a line: test points midway between two classes, and one on a point
    train = np.array([[0.0], [2.0], [4.0], [6.0], [8.0], [10.0]])
    test = np.array([[1.0], [3.0], [5.0], [7.0], [9.0], [4.0]])
    return train, [5, 1, 5, 1, 3, 3], test, [1, 5, 1, 3, 3, 5]


def nan_test_vector(rng):
    train = rng.standard_normal((10, 6))
    test = rng.standard_normal((4, 6))
    test[2, 3] = np.nan
    return (train, [int(l) for l in rng.integers(0, 3, size=10)],
            test, [0, 1, 2, 1])


def clustered(rng):
    # well separated classes: the prefilter keeps few candidates per vector
    centers = 50.0 * rng.standard_normal((4, 300))
    train_labs = [i % 4 for i in range(40)]
    test_labs = [int(l) for l in rng.integers(0, 4, size=20)]
    train = centers[train_labs] + rng.standard_normal((40, 300))
    test = centers[test_labs] + rng.standard_normal((20, 300))
    return train, train_labs, test, test_labs


# distance blocks of one test vector each, and of the whole test set
BLOCK_BUDGETS = pytest.mark.parametrize("budget", [1, 1 << 62],
                                        ids=["one-row", "whole-set"])


class TestKnnOracle:
    @pytest.mark.parametrize("case", [duplicated_rows, large_offset, vote_ties,
                                      nan_test_vector, clustered])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 1000])
    def test_matches_full_search(self, case, k):
        train_pts, train_labs, test_pts, test_labs = case(np.random.default_rng(11))
        rep = knn_classify(vecs(train_pts, train_labs), vecs(test_pts, test_labs), k)
        expect = knn_oracle(train_pts, train_labs, test_pts, test_labs, k)
        np.testing.assert_array_equal(rep.confusion, expect)

    @BLOCK_BUDGETS
    @pytest.mark.parametrize("case", [duplicated_rows, large_offset, vote_ties,
                                      nan_test_vector, clustered])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 1000])
    def test_matches_full_search_in_any_blocking(self, monkeypatch, budget, case, k):
        monkeypatch.setattr(classify_mod, "_BLOCK_BYTES", budget)
        self.test_matches_full_search(case, k)


# powers of two whose squared distances overflow, or underflow to ties
EXTREME_SCALES = pytest.mark.parametrize("e", [600, 560, 520, -560, -600])


class TestKnnScale:
    def test_six_vectors_at_every_scale(self):
        pts = np.array([[0, 0], [5, 5], [9, 0], [1, 1], [6, 5], [8, 1]], dtype=float)
        for e in (0, 520, 560, 600, 1000, -560, -600, -1060):
            train = LabeledVectors(vectors=np.ldexp(pts[:3], e), labels=[0, 1, 2])
            test = LabeledVectors(vectors=np.ldexp(pts[3:], e), labels=[0, 1, 2])
            for rep in (knn_classify(train, test, 1), nearest_centroid(train, test)):
                assert rep.accuracy == 1.0, e

    @EXTREME_SCALES
    @pytest.mark.parametrize("case", [duplicated_rows, large_offset, vote_ties,
                                      nan_test_vector, clustered])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scaled_search_matches_the_unscaled_oracle(self, e, case, k):
        train_pts, train_labs, test_pts, test_labs = case(np.random.default_rng(11))
        rep = knn_classify(vecs(np.ldexp(train_pts, e), train_labs),
                           vecs(np.ldexp(test_pts, e), test_labs), k)
        expect = knn_oracle(train_pts, train_labs, test_pts, test_labs, k)
        np.testing.assert_array_equal(rep.confusion, expect)

    def test_vote_tie_breaks_by_total_distance_at_extreme_scales(self):
        for e in (600, -600):
            train = vecs(np.ldexp([[1, 0], [-0.5, 0]], e), [0, 1])
            assert knn_classify(train, vecs([[0, 0]], [1]), k=2).accuracy == 1.0

    @EXTREME_SCALES
    def test_raw_pixel_grid_matches_unit_scale(self, e):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        scaled = EnsembleDataset(tensor=DenseTensor(np.ldexp(ds.tensor.values, e)),
                                 labels=ds.labels, meta=ds.meta)
        cfg = ExperimentConfig(realizations=3)
        want = run_grid(ds, plan, ["raw"], ["knn", "centroid"], cfg)["raw"]
        got = run_grid(scaled, plan, ["raw"], ["knn", "centroid"], cfg)["raw"]
        for clf in ("knn", "centroid"):
            np.testing.assert_array_equal(got[clf].confusion, want[clf].confusion)
            assert got[clf].per_run == want[clf].per_run

    def test_in_range_rows_are_searched_as_they_are(self, monkeypatch):
        blocks = spy_on(monkeypatch, "_prefilter")
        monkeypatch.setattr(classify_mod, "_BLOCK_BYTES", 1)  # one test row per block
        rng = np.random.default_rng(0)
        train = LabeledVectors(vectors=rng.standard_normal((5, 3)), labels=[0, 1, 2, 0, 1])
        test = LabeledVectors(vectors=rng.standard_normal((4, 3)), labels=[0, 1, 2, 0])
        knn_classify(train, test, 1)
        assert [xb.base is test.vectors for xb in blocks] == [True] * 4


def spy_on(monkeypatch, name):
    """Record the first argument of every call of classify's `name`."""
    calls = []
    real = getattr(classify_mod, name)

    def spy(first, *args):
        calls.append(first)
        return real(first, *args)

    monkeypatch.setattr(classify_mod, name, spy)
    return calls


class TestSearchWork:
    def test_orl_sized_search_packs_the_training_matrix_at_most_twice(self, monkeypatch):
        # 200 x 200 vectors of 10,304 values: one GEMM per distance block
        rng = np.random.default_rng(3)
        labels = [i % 40 for i in range(200)]
        train = LabeledVectors(vectors=rng.standard_normal((200, 10_304)), labels=labels)
        test = LabeledVectors(vectors=train.vectors + 0.1, labels=labels)
        blocks = spy_on(monkeypatch, "_prefilter")
        assert knn_classify(train, test, 1).accuracy == 1.0
        assert len(blocks) <= 2
        assert sum(len(xb) for xb in blocks) == 200

    def test_no_exact_distance_when_the_k_nearest_vote_without_tie(self, monkeypatch):
        train = vecs([[0, 0], [0, 1], [10, 10], [10, 11], [30, 0], [31, 0]],
                     [0, 0, 1, 1, 2, 2])
        test = vecs([[0.2, 0.4], [9.8, 10.6], [29, 0]], [0, 1, 2])
        exact = spy_on(monkeypatch, "_nearest")
        for k in (1, 2):
            assert knn_classify(train, test, k).accuracy == 1.0
        assert nearest_centroid(train, test).accuracy == 1.0
        assert exact == []

    def test_equidistant_candidates_go_to_the_lowest_index(self, monkeypatch):
        # k = 1 keeps both candidates: the exact path ranks them, and the
        # lower training index wins although its class ID is higher
        train = vecs([[1, 0], [-1, 0], [9, 9]], [7, 3, 5])
        exact = spy_on(monkeypatch, "_nearest")
        rep = knn_classify(train, vecs([[0, 0]], [7]), k=1)
        assert rep.accuracy == 1.0
        assert len(exact) == 1

    def test_tied_vote_of_exactly_k_candidates_gets_its_distances(self, monkeypatch):
        train = vecs([[1, 0], [-0.5, 0], [100, 0]], [0, 1, 2])
        exact = spy_on(monkeypatch, "_nearest")
        rep = knn_classify(train, vecs([[0, 0]], [1]), k=2)
        assert rep.accuracy == 1.0  # class 1 is nearer, wins the 1-1 vote
        assert len(exact) == 1


class TestNearestCentroid:
    def test_axis_clusters(self):
        train = vecs([[2, 0], [4, 0], [0, 2], [0, 4]], [0, 0, 1, 1])
        test = vecs([[5, 1], [1, 5]], [0, 1])
        rep = nearest_centroid(train, test)
        assert rep.accuracy == 1.0

    def test_equidistant_goes_to_lowest_id(self):
        train = vecs([[-1, 0], [1, 0], [1, 0], [3, 0]], [4, 4, 2, 2])
        rep = nearest_centroid(train, vecs([[1, 0]], [2]))
        assert rep.accuracy == 1.0  # centroids at 0 and 2, tie goes to ID 2

    def test_matches_bruteforce_table(self):
        rng = np.random.default_rng(0)
        train_pts = rng.standard_normal((15, 4))
        train_labs = [int(l) for l in rng.integers(0, 3, size=15)]
        test_pts = rng.standard_normal((12, 4))
        test_labs = [int(l) for l in rng.integers(0, 3, size=12)]
        train = vecs(train_pts, train_labs)
        test = vecs(test_pts, test_labs)
        rep = nearest_centroid(train, test)

        cents = {
            lab: train_pts[[i for i, l in enumerate(train_labs) if l == lab]].mean(0)
            for lab in sorted(set(train_labs))
        }
        expect = np.zeros((3, 3), dtype=int)
        for x, true in zip(test_pts, test_labs):
            pred = min(sorted(cents),
                       key=lambda lab: (np.linalg.norm(x - cents[lab]), lab))
            expect[true, pred] += 1
        np.testing.assert_array_equal(rep.confusion, expect)
        assert rep.accuracy == np.trace(expect) / 12

    def test_large_offset_matches_bruteforce_table(self):
        # ||x||^2 ~ 1e16 against squared centroid distances ~ 1: the
        # expansion cancels
        rng = np.random.default_rng(1)
        train_pts = 1e6 + 0.01 * rng.standard_normal((15, 10_000))
        train_labs = [int(l) for l in rng.integers(0, 3, size=15)]
        test_pts = 1e6 + 0.01 * rng.standard_normal((12, 10_000))
        test_labs = [int(l) for l in rng.integers(0, 3, size=12)]
        rep = nearest_centroid(vecs(train_pts, train_labs), vecs(test_pts, test_labs))

        cents = {
            lab: train_pts[[i for i, l in enumerate(train_labs) if l == lab]].mean(0)
            for lab in sorted(set(train_labs))
        }
        expect = np.zeros((3, 3), dtype=int)
        for x, true in zip(test_pts, test_labs):
            pred = min(sorted(cents),
                       key=lambda lab: (np.linalg.norm(x - cents[lab]), lab))
            expect[true, pred] += 1
        np.testing.assert_array_equal(rep.confusion, expect)

    @BLOCK_BUDGETS
    def test_bruteforce_tables_in_any_blocking(self, monkeypatch, budget):
        monkeypatch.setattr(classify_mod, "_BLOCK_BYTES", budget)
        self.test_matches_bruteforce_table()
        self.test_large_offset_matches_bruteforce_table()

    def test_means_are_the_per_class_means(self, monkeypatch):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((14, 6))
        labs = [int(l) for l in rng.integers(0, 4, size=14)]
        seen = []
        monkeypatch.setattr(classify_mod, "knn_classify",
                            lambda train, test, k: seen.append(train))
        nearest_centroid(vecs(pts, labs), vecs(pts[:2], labs[:2]))
        (means,) = seen
        assert means.labels == sorted(set(labs))
        for lab, row in zip(means.labels, means.vectors):
            expect = pts[[i for i, l in enumerate(labs) if l == lab]].mean(axis=0)
            assert row.tobytes() == expect.tobytes()


class TestEvalReport:
    def test_accuracy_is_trace_over_total(self):
        conf = np.array([[3, 1], [0, 4]])
        rep = EvalReport(accuracy=7 / 8, confusion=conf, per_run=[7 / 8],
                         mean=7 / 8, stddev=0.0, class_ids=[0, 1])
        assert rep.accuracy == np.trace(conf) / conf.sum()

    def test_square_confusion_required(self):
        with pytest.raises(ValueError):
            EvalReport(accuracy=1.0, confusion=np.zeros((2, 3)), per_run=[],
                       mean=0.0, stddev=0.0, class_ids=[0, 1])


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.realizations == 100
        assert cfg.classifier == "knn"
        assert cfg.ranks == [1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"realizations": 0},
            {"classifier": "svm"},
            {"k": 0},
            {"ranks": []},
            {"ranks": [1, 0]},
            {"tau": -0.5},
            {"max_sweeps": 0},
            {"rel_tol": -1},
            {"rel_tol": 0.0},
            {"rel_tol": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


def single_class_dataset(seed=0):
    rng = np.random.default_rng(seed)
    arr = rng.uniform(0.1, 1.0, size=(4, 3, 6))
    return EnsembleDataset(tensor=DenseTensor(arr), labels=[0] * 6)


class TestRunExperiment:
    def test_single_class_is_always_right(self):
        ds = single_class_dataset()
        plan = make_group_splits(ds, groups=3, train=1, seed=0)
        cfg = ExperimentConfig(realizations=2, max_sweeps=50)
        for method in ("raw", "ll1", "cpd"):
            rep = run_experiment(ds, plan, method, cfg)
            assert rep.accuracy == 1.0
            assert rep.per_run == [1.0, 1.0]

    def test_deterministic(self):
        ds = synthetic_face_fixture(height=8, width=6, seed=1,
                                    n_classes=2, per_class=4)
        plan = make_group_splits(ds, groups=4, train=2, seed=3)
        cfg = ExperimentConfig(realizations=2, ranks=[1, 1], max_sweeps=60)
        a = run_experiment(ds, plan, "ll1", cfg)
        b = run_experiment(ds, plan, "ll1", cfg)
        assert a.per_run == b.per_run
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.mean == b.mean

    def test_individual_features_beat_raw_on_fixture(self):
        ds = synthetic_face_fixture(height=8, width=6, seed=2,
                                    n_classes=2, per_class=4)
        plan = make_group_splits(ds, groups=4, train=2, seed=0)
        cfg = ExperimentConfig(realizations=3, ranks=[1, 1], max_sweeps=150)
        raw = run_experiment(ds, plan, "raw", cfg)
        ll1 = run_experiment(ds, plan, "ll1", cfg)
        assert ll1.mean >= raw.mean

    def test_realization_count_and_confusion_totals(self):
        ds = synthetic_face_fixture(height=8, width=6, seed=1,
                                    n_classes=2, per_class=4)
        plan = make_group_splits(ds, groups=4, train=1, seed=0)
        cfg = ExperimentConfig(realizations=3)
        rep = run_experiment(ds, plan, "raw", cfg)
        assert len(rep.per_run) == 3
        # 3 test groups x 2 samples x 3 realizations
        assert rep.confusion.sum() == 18
        assert rep.accuracy == np.trace(rep.confusion) / 18

    def test_cpd_uses_one_rank1_term_per_block(self, monkeypatch):
        seen = []
        original = classify_mod.fit_feature_bank

        def spy(t, ranks, cfg=None, n_restarts=1):
            seen.append(list(ranks))
            return original(t, ranks, cfg, n_restarts)

        monkeypatch.setattr(classify_mod, "fit_feature_bank", spy)
        ds = single_class_dataset()
        plan = make_group_splits(ds, groups=3, train=1, seed=0)
        cfg = ExperimentConfig(realizations=1, ranks=[2, 3], max_sweeps=30)
        run_experiment(ds, plan, "cpd", cfg)
        assert seen and all(r == [1, 1] for r in seen)

    def test_decomposition_failure_names_the_group(self, monkeypatch):
        # a stacked fit's ConvergenceError always names its ensemble
        def boom(t, ranks, cfg=None, n_restarts=1):
            raise ConvergenceError("solver stalled", index=0)

        monkeypatch.setattr(classify_mod, "fit_feature_bank", boom)
        ds = single_class_dataset()
        plan = make_group_splits(ds, groups=3, train=1, seed=0)
        cfg = ExperimentConfig(realizations=1)
        with pytest.raises(ConvergenceError, match=f"group {plan.train_groups[0]} "
                           "of realization 0: solver stalled"):
            run_experiment(ds, plan, "ll1", cfg)

    def test_unknown_method(self):
        ds = single_class_dataset()
        plan = make_group_splits(ds, groups=3, train=1, seed=0)
        with pytest.raises(ValueError, match="method"):
            run_experiment(ds, plan, "pca")


def spy_stack(monkeypatch):
    """(ranks, stacked ensembles) of every stacked LL1 fit, in call order."""
    calls = []
    ll1_stack = features_mod._ll1_stack

    def spy(t, ranks, cfgs):
        calls.append((list(ranks), t.shape[3]))
        return ll1_stack(t, ranks, cfgs)

    monkeypatch.setattr(features_mod, "_ll1_stack", spy)
    return calls


class TestRunGrid:
    @pytest.mark.parametrize("ranks, n_fits", [([1, 1], 1), ([2, 1], 2)])
    def test_matches_cells_and_shares_featurization(self, monkeypatch, ranks, n_fits):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        cfg = ExperimentConfig(realizations=3, ranks=ranks, max_sweeps=40)
        methods, classifiers = ["raw", "cpd", "ll1"], ["knn", "centroid"]
        calls = spy_stack(monkeypatch)
        grid = run_grid(ds, plan, methods, classifiers, cfg)
        # one stacked fit of the 3 training groups of all 3 realizations per
        # distinct ranks; cpd at all-ones ranks reuses ll1's decomposition
        assert calls == [([1, 1], 9), (ranks, 9)][-n_fits:]
        assert list(grid) == methods
        for method in methods:
            assert list(grid[method]) == classifiers
            for clf in classifiers:
                got = grid[method][clf]
                want = run_experiment(ds, plan, method,
                                      replace(cfg, classifier=clf))
                np.testing.assert_array_equal(got.confusion, want.confusion)
                assert got.class_ids == want.class_ids
                assert got.per_run == want.per_run
                assert (got.accuracy, got.mean, got.stddev) == \
                    (want.accuracy, want.mean, want.stddev)

    @pytest.mark.parametrize("ranks", [[1, 1], [2, 1]])
    def test_batching_changes_nothing(self, monkeypatch, ranks):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        cfg = ExperimentConfig(realizations=3, ranks=ranks, max_sweeps=40)
        methods, classifiers = ["raw", "cpd", "ll1"], ["knn", "centroid"]
        together = run_grid(ds, plan, methods, classifiers, cfg)
        calls = spy_stack(monkeypatch)
        monkeypatch.setattr(classify_mod, "_BATCH_BYTES", 1)  # every realization alone
        alone = run_grid(ds, plan, methods, classifiers, cfg)
        assert [n for _, n in calls] == [3] * 3 * len({(1, 1), tuple(ranks)})
        for method in methods:
            for clf in classifiers:
                got, want = alone[method][clf], together[method][clf]
                np.testing.assert_array_equal(got.confusion, want.confusion)
                assert got.per_run == want.per_run
                assert (got.accuracy, got.mean, got.stddev) == \
                    (want.accuracy, want.mean, want.stddev)

    def test_batches_close_at_the_byte_bound(self, monkeypatch):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        O, P, _ = ds.tensor.shape
        train_bytes = 8 * O * P * sum(len(plan.members[g]) for g in plan.train_groups)
        monkeypatch.setattr(classify_mod, "_BATCH_BYTES", 2 * train_bytes)
        calls = spy_stack(monkeypatch)
        run_experiment(ds, plan, "ll1", ExperimentConfig(realizations=5, max_sweeps=5))
        assert [n for _, n in calls] == [6, 6, 3]

    def test_failure_names_realization_and_group(self, monkeypatch):
        def stall(ts, ranks, cfgs):
            raise ConvergenceError("stalled", index=4)

        monkeypatch.setattr(features_mod, "_ll1_stack", stall)
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        second = make_group_splits(ds, groups=6, train=3, seed=1)
        # index 4 of the stack is the second training group of realization 1
        with pytest.raises(ConvergenceError, match=f"failed on group "
                           f"{second.train_groups[1]} of realization 1: stalled"):
            run_experiment(ds, plan, "ll1", ExperimentConfig(realizations=2))

    def test_every_featurization_gives_one_float_matrix(self, monkeypatch):
        seen = []
        original = classify_mod.knn_classify

        def spy(train, test, k=1):
            seen.append((train.vectors, test.vectors))
            return original(train, test, k)

        monkeypatch.setattr(classify_mod, "knn_classify", spy)
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        run_grid(ds, plan, ["raw", "cpd", "ll1"], ["knn", "centroid"],
                 ExperimentConfig(realizations=1, ranks=[2, 1], max_sweeps=5))
        # raw, cpd and ll1 features, each searched by both classifiers
        assert len(seen) == 6
        O, P, _ = ds.tensor.shape
        for train, test in seen:
            for m in (train, test):
                assert isinstance(m, np.ndarray) and m.dtype == np.float64
                assert m.ndim == 2 and m.shape[1] == O * P

    def test_fit_holds_the_training_images_once(self):
        # five training groups of 40 images each, gathered into one buffer
        # that the stacked fit reads in place
        ds = synthetic_face_fixture(height=48, width=40, n_classes=40, per_class=10)
        plan = make_group_splits(ds, groups=10, train=5, seed=0)
        train_bytes = 8 * 48 * 40 * 5 * 40
        cfg = ExperimentConfig(realizations=1, ranks=[1, 1], max_sweeps=3)
        tracemalloc.start()
        try:
            banks = classify_mod._fit_banks(ds, [plan], [0], [1, 1], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(banks[0]) == 5
        assert peak <= 1.5 * train_bytes

    def test_group_tensors_are_held_for_the_fit_alone(self):
        # five training groups of 40 images each: the fit holds their images
        # once, and frees them before one copy each of the training and
        # held-out image rows is split in place
        ds = synthetic_face_fixture(height=48, width=40, n_classes=40, per_class=10)
        plan = make_group_splits(ds, groups=10, train=5, seed=0)
        train_bytes = 8 * 48 * 40 * 5 * 40
        tracemalloc.start()
        try:
            run_grid(ds, plan, ["ll1"], ["knn"],
                     ExperimentConfig(realizations=1, max_sweeps=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * train_bytes

    def test_unequal_training_groups_fail_before_any_fit(self, monkeypatch):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        members = [list(m) for m in plan.members]
        a, b = plan.train_groups[:2]
        members[b].append(members[a].pop())
        uneven = replace(plan, members=members)
        calls = spy_stack(monkeypatch)
        sizes = [len(members[g]) for g in plan.train_groups]
        with pytest.raises(ValueError, match=re.escape(f"sizes {sizes}")):
            run_grid(ds, uneven, ["raw", "ll1"], ["knn"], ExperimentConfig(realizations=2))
        assert calls == []
        # raw pixels fit nothing, so they take any plan
        run_grid(ds, uneven, ["raw"], ["knn"], ExperimentConfig(realizations=2))

    @pytest.mark.parametrize("tau", [0.0, 0.3])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_featurize_matches_the_per_group_split(self, tau, order):
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        cfg = ExperimentConfig(realizations=1, ranks=[2, 1], max_sweeps=30)
        banks = classify_mod._fit_banks(ds, [plan], [0], [2, 1], cfg)[0]
        if order == "C":  # slices set after construction keep their layout
            for bank in banks:
                bank.slices = [np.ascontiguousarray(s) for s in bank.slices]
        rule = SubsetRule(tau)
        train, test = classify_mod._featurize(ds, plan, banks, rule)
        # oracle: the split of each training group's tensor by its own bank,
        # and of the held-out tensor through the pooled bank
        want = [unfold(split_features(group_tensor(ds, plan.members[g])[0], bank,
                                      rule).individual, 2)
                for g, bank in zip(plan.train_groups, banks)]
        slices = [s for bank in banks for s in bank.slices]
        pooled = CommonFeatureBank(slices=slices, mixing=np.zeros((0, len(slices))))
        held_out, labels = group_tensor(
            ds, [q for g in plan.test_groups for q in plan.members[g]])
        weights = estimate_mixing(pooled, held_out.values)
        split = split_features(held_out, pooled, rule, weights=weights)
        assert np.array_equal(train.vectors, np.concatenate(want))
        assert np.array_equal(test.vectors, unfold(split.individual, 2))
        assert test.labels == labels
        assert train.labels == [ds.labels[q] for g in plan.train_groups
                                for q in plan.members[g]]
        if tau:  # the rule drops features, so the split is not the full mix
            assert any(len(s) < len(slices) for s in split.selected)

    @pytest.mark.parametrize("methods, classifiers", [
        (["raw", "pca"], ["knn"]),
        (["raw"], ["knn", "svm"]),
    ])
    def test_unknown_method_or_classifier(self, methods, classifiers):
        ds = single_class_dataset()
        plan = make_group_splits(ds, groups=3, train=1, seed=0)
        with pytest.raises(ValueError, match="unknown"):
            run_grid(ds, plan, methods, classifiers, ExperimentConfig(realizations=1))


class TestReports:
    def test_csv_layout(self):
        rep = EvalReport(accuracy=0.75, confusion=np.array([[3, 1], [1, 3]]),
                         per_run=[0.5, 1.0], mean=0.75, stddev=0.25,
                         class_ids=[0, 1])
        lines = report_csv(rep).splitlines()
        assert lines[0] == "realization,accuracy"
        assert lines[1] == "0,0.500000"
        assert lines[2] == "1,1.000000"
        assert lines[3] == "mean,0.750000"
        assert lines[4] == "stddev,0.250000"

    def test_summary_json(self):
        rep = EvalReport(accuracy=1.0, confusion=np.eye(2, dtype=int),
                         per_run=[1.0], mean=1.0, stddev=0.0, class_ids=[0, 1])
        text = summary_json({"raw": {"knn": rep}})
        assert text.endswith("\n")
        import json

        data = json.loads(text)
        assert data["raw"]["knn"] == {
            "accuracy": 1.0,
            "mean": 1.0,
            "stddev": 0.0,
            "realizations": 1,
        }
