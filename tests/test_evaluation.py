import multiprocessing
import os
import random
import signal
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import paylens.evaluation
from paylens.corpus import group_by_user
from paylens.errors import (NonFiniteError, SingleClass, TooFewSamples,
                            WorkerDied)
from paylens.evaluation import (FoldPlan, GridSpec, balance_classes,
                                cross_validate, grid_search,
                                stratified_kfold)
from paylens.labels import CLASS_A, CLASS_B, LabeledUser, build_labeled_dataset
from paylens.models import svm_predict, train_linear_svm
from paylens.pipeline import (PipelineConfig, build_dataset, fit_features,
                              pipeline_transform)
from paylens.tokenizer import tokenize_post

from conftest import make_txn, synth_dataset
from oracles import cross_validate_oracle


def labeled(n_a, n_b):
    out = [LabeledUser(f"a{i}", CLASS_A, "politics") for i in range(n_a)]
    out += [LabeledUser(f"b{i}", CLASS_B, "politics") for i in range(n_b)]
    return out


class TestBalanceClasses:
    def test_downsamples_majority(self):
        result = balance_classes(labeled(346, 218), seed=0)
        counts = {CLASS_A: 0, CLASS_B: 0}
        for lu in result:
            counts[lu.label] += 1
        assert counts == {CLASS_A: 218, CLASS_B: 218}

    def test_already_balanced_unchanged(self):
        users = labeled(5, 5)
        assert balance_classes(users, seed=1) == users

    def test_seeds_change_subset_not_sizes(self):
        users = labeled(50, 20)
        one = balance_classes(users, seed=1)
        two = balance_classes(users, seed=2)
        assert len(one) == len(two) == 40
        assert {lu.user_id for lu in one} != {lu.user_id for lu in two}

    def test_same_seed_same_subset(self):
        users = labeled(50, 20)
        assert balance_classes(users, seed=3) == balance_classes(users, seed=3)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            balance_classes(labeled(5, 0), seed=0)

    def test_sampling_without_replacement(self):
        result = balance_classes(labeled(100, 10), seed=4)
        ids = [lu.user_id for lu in result]
        assert len(ids) == len(set(ids))


class TestStratifiedKfold:
    def test_five_by_five(self):
        labels = [0] * 5 + [1] * 5
        plan = stratified_kfold(labels, k=5, seed=0)
        for fold in plan.folds:
            assert len(fold) == 2
            assert sorted(labels[i] for i in fold) == [0, 1]

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            stratified_kfold([0, 0, 0, 1, 1], k=3, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold([0, 1], k=1, seed=0)

    def test_same_seed_identical(self):
        labels = [0] * 13 + [1] * 9
        one = stratified_kfold(labels, k=3, seed=5)
        two = stratified_kfold(labels, k=3, seed=5)
        assert one == two

    def test_split_partitions_rows(self):
        labels = [0] * 12 + [1] * 8
        plan = stratified_kfold(labels, k=4, seed=1)
        train, test = plan.split(2)
        assert sorted(list(train) + list(test)) == list(range(20))
        assert set(train).isdisjoint(test)

    def test_properties_over_random_label_vectors(self):
        rng = random.Random(99)
        for trial in range(200):
            k = rng.choice([2, 3, 5])
            n_a = rng.randint(k, 30)
            n_b = rng.randint(k, 30)
            labels = [0] * n_a + [1] * n_b
            rng.shuffle(labels)
            plan = stratified_kfold(labels, k=k, seed=trial)
            all_rows = [i for fold in plan.folds for i in fold]
            assert sorted(all_rows) == list(range(len(labels)))  # disjoint+cover
            for cls, total in ((0, n_a), (1, n_b)):
                for fold in plan.folds:
                    count = sum(1 for i in fold if labels[i] == cls)
                    assert abs(count - total / k) <= 1


def tiny_dataset(notes_by_user, labels01):
    """Build a UserDataset from {user: [notes]} plus aligned 0/1 labels."""
    txns = []
    seq = 0
    for user, notes in notes_by_user.items():
        for note in notes:
            txns.append(make_txn(f"t{seq}", note=note, actor=user,
                                 target=f"x{seq}", minutes=seq))
            seq += 1
    corpus = group_by_user(txns)
    users = list(notes_by_user)
    labeled_users = [
        LabeledUser(u, CLASS_B if y else CLASS_A, "politics")
        for u, y in zip(users, labels01)]
    political = {lu.user_id: ("republican" if lu.label == CLASS_B else "democrat")
                 for lu in labeled_users}
    ordered = build_labeled_dataset(corpus, "politics", political_labels=political)
    return build_dataset(corpus, ordered)


def record_fits(monkeypatch) -> list:
    """The featurizations cross_validate fits (pipelines without a model), in
    call order, as it fits them."""
    fitted = []
    fit = paylens.evaluation.fit_features

    def recording(*args, **kwargs):
        features, X = fit(*args, **kwargs)
        fitted.append(features)
        return features, X

    monkeypatch.setattr(paylens.evaluation, "fit_features", recording)
    return fitted


class TestCrossValidate:
    def test_perfect_on_separable(self):
        notes = {}
        labels = []
        for i in range(10):
            notes[f"a{i}"] = ["alpha alpha", "alpha day"]
            labels.append(0)
        for i in range(10):
            notes[f"b{i}"] = ["bravo bravo", "bravo day"]
            labels.append(1)
        ds = tiny_dataset(notes, labels)
        plan = stratified_kfold(ds.labels01.tolist(), k=5, seed=0)
        cv = cross_validate(ds, plan, [PipelineConfig(min_df=1, seed=0)])[0]
        assert cv.fold_accuracies == [1.0] * 5

    def test_vocabulary_never_sees_test_tokens(self, monkeypatch):
        # the token "leakme" appears only in the users of fold 0
        notes = {}
        labels = []
        for i in range(4):
            notes[f"a{i}"] = ["alpha common"]
            labels.append(0)
        for i in range(4):
            notes[f"b{i}"] = ["bravo common"]
            labels.append(1)
        ds = tiny_dataset(notes, labels)
        leak_rows = [i for i, uid in enumerate(ds.user_ids)
                     if uid in ("a0", "b0")]
        other = [i for i in range(len(ds)) if i not in leak_rows]
        for row in leak_rows:
            ds.posts[row] = ds.posts[row] + (tokenize_post("leakme leakme"),)
        plan = FoldPlan(folds=(tuple(leak_rows), tuple(other[:3]),
                               tuple(other[3:])), seed=0)
        fitted = record_fits(monkeypatch)
        cross_validate(ds, plan, [PipelineConfig(min_df=1, seed=0)])
        assert len(fitted) == plan.k
        fold0 = fitted[0]
        assert "leakme" not in fold0.vocab.index
        assert all("leakme" not in name for name in fold0.feature_names)
        # folds that train on the leak rows may contain it
        fold1 = fitted[1]
        assert "leakme" in fold1.vocab.index

    def test_scaler_fit_on_training_rows_only(self, monkeypatch):
        notes = {f"u{i}": ["x" * (i + 1)] for i in range(6)}
        ds = tiny_dataset(notes, [0, 1, 0, 1, 0, 1])
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=0)
        fitted = record_fits(monkeypatch)
        cross_validate(ds, plan, [PipelineConfig(min_df=1, seed=0)])
        assert len(fitted) == plan.k
        for i, fold in enumerate(fitted):
            train_idx, _ = plan.split(i)
            expected_mean = ds.engineered[train_idx].mean(axis=0)
            assert np.allclose(fold.scaler.mean, expected_mean)

    def test_random_labels_near_chance(self):
        rng = random.Random(17)
        pool = "red blue green gold silver onyx plum teal".split()
        notes = {}
        labels = []
        for i in range(120):
            notes[f"u{i:03d}"] = [" ".join(rng.choices(pool, k=3))
                                  for _ in range(4)]
            labels.append(i % 2)
        ds = tiny_dataset(notes, labels)
        plan = stratified_kfold(ds.labels01.tolist(), k=5, seed=0)
        cv = cross_validate(ds, plan, [PipelineConfig(min_df=2, seed=0)])[0]
        assert 0.4 <= cv.mean_accuracy <= 0.6

    def test_mean_is_arithmetic_mean(self):
        notes = {f"u{i}": ["alpha" if i % 2 else "bravo"] for i in range(10)}
        ds = tiny_dataset(notes, [i % 2 for i in range(10)])
        plan = stratified_kfold(ds.labels01.tolist(), k=5, seed=0)
        cv = cross_validate(ds, plan, [PipelineConfig(min_df=1, seed=0)])[0]
        assert cv.mean_accuracy == pytest.approx(
            sum(cv.fold_accuracies) / len(cv.fold_accuracies), abs=1e-12)

    def test_shared_featurizations_match_per_config_oracle(self, monkeypatch):
        ds = synth_dataset(seed=6, n=15)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=6)
        base = PipelineConfig(
            min_df=1, seed=6, mlp_overrides=(("epochs", 15), ("hidden", 4)),
            gbdt_overrides=(("max_depth", 2), ("rounds", 5)))
        count = replace(base, vectorizer="count")
        configs = [
            base, count, replace(base, classifier="mlp"),
            replace(base, n_range=(1, 1), classifier="gbdt"),
            replace(base, C=0.1), replace(count, normalize_counts=True),
            replace(base, min_df=2, classifier="gbdt"),
            replace(base, use_engineered=False, classifier="mlp"),
            replace(base, n_range=(1, 3)), base,
            replace(count, classifier="gbdt"),
        ]
        fitted = record_fits(monkeypatch)
        results = cross_validate(ds, plan, configs)
        # {0, 2, 4, 9}, {1, 10}, and one group for each other config
        assert len(fitted) == plan.k * 7
        assert [r.config for r in results] == configs
        for result, config in zip(results, configs):
            oracle = cross_validate_oracle(ds, plan, config)
            assert result.outcomes == oracle.outcomes, config
        # ds has no pct_as_actor column, so this config gets its own
        # featurization, and that fails the feature-layout check
        with pytest.raises(ValueError, match="feature names for"):
            cross_validate(ds, plan, [base, replace(base, include_actor_pct=True)])

    def test_no_configs(self):
        ds = synth_dataset(seed=6, n=5)
        plan = stratified_kfold(ds.labels01.tolist(), k=2)
        assert cross_validate(ds, plan, []) == []


class TestCrossValidateWorkers:
    """The (fold, featurization) tasks in a forked pool give the outcomes of
    the in-process run, and no worker outlives the call."""

    def _configs(self):
        base = PipelineConfig(min_df=1, seed=3, mlp_overrides=(("epochs", 10),),
                              gbdt_overrides=(("rounds", 4),))
        return [base, replace(base, classifier="mlp"),
                replace(base, vectorizer="count", classifier="gbdt"),
                replace(base, C=0.1)]

    def test_pool_matches_in_process(self):
        ds = synth_dataset(seed=3, n=12)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=3)
        serial = cross_validate(ds, plan, self._configs(), workers=1)
        pooled = cross_validate(ds, plan, self._configs(), workers=2)
        assert multiprocessing.active_children() == []
        assert [r.outcomes for r in pooled] == [r.outcomes for r in serial]
        assert [r.config for r in pooled] == self._configs()

    def test_worker_error_is_reraised_as_is(self):
        ds = synth_dataset(seed=3, n=12)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=3)
        config = PipelineConfig(min_df=1, classifier="mlp",
                                mlp_overrides=(("lr", 1e300),))
        for workers in (1, 2):
            with pytest.raises(NonFiniteError, match="^model: non-finite loss"):
                cross_validate(ds, plan, [config], workers=workers)
            assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_typed_error(self, monkeypatch):
        parent, fit = os.getpid(), paylens.evaluation.fit_model

        def fit_or_die(*args):
            if os.getpid() != parent:  # a worker, killed as the OOM killer would
                os.kill(os.getpid(), signal.SIGKILL)
            return fit(*args)

        monkeypatch.setattr(paylens.evaluation, "fit_model", fit_or_die)
        ds = synth_dataset(seed=3, n=6)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=3)
        with pytest.raises(WorkerDied, match="^eval: a cross-validation worker died"):
            cross_validate(ds, plan, self._configs(), workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers, start_methods, pool_size", [
        (10**6, ["fork", "spawn"], 6),  # capped at 3 folds x 2 featurizations
        (4, ["fork", "spawn"], 4),
        (1, ["fork", "spawn"], None),   # in-process
        (4, ["spawn"], None),           # no fork: in-process
    ])
    def test_pool_size_rule(self, monkeypatch, workers, start_methods, pool_size):
        sizes = []

        class Executor:
            def __init__(self, max_workers, mp_context):
                assert mp_context == "fork"
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(paylens.evaluation, "ProcessPoolExecutor", Executor)
        monkeypatch.setattr(paylens.evaluation, "multiprocessing", SimpleNamespace(
            get_all_start_methods=lambda: start_methods,
            get_context=lambda method: method))
        ds = synth_dataset(seed=3, n=6)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=3)
        configs = self._configs()[::2]  # two featurizations
        results = cross_validate(ds, plan, configs, workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert [len(r.outcomes) for r in results] == [3, 3]
        assert paylens.evaluation._pool_state == ()  # the dataset is let go


class TestTaskCosts:
    """SVMs warm-start along each task's ascending C, and the longest tasks
    start first; neither changes what cross-validation reports."""

    @pytest.mark.parametrize("seed", [3, 41])
    def test_warm_path_converges_and_predicts_as_cold(self, seed):
        # the inputs of the benchmark's `grid` workload for this seed
        ds = synth_dataset(seed, n=50, p_signal=0.6, p_noise=0.1, posts=(8, 8))
        plan = stratified_kfold(ds.labels01.tolist(), k=5, seed=0)
        for i in range(plan.k):
            train, test = plan.split(i)
            y = 2 * ds.labels01[train] - 1
            for vectorizer in ("count", "tfidf"):
                features, X = fit_features(ds, train,
                                           PipelineConfig(vectorizer=vectorizer))
                X_test = pipeline_transform(features, ds, test)
                warm = np.zeros(len(train))
                for C in GridSpec().svm_c:
                    hot = train_linear_svm(X, y, C=C, warm=warm)
                    cold = train_linear_svm(X, y, C=C)
                    bound = hot.tol * max(abs(hot.primal_objective), 1.0)
                    assert hot.duality_gap <= bound, (i, vectorizer, C)
                    assert np.array_equal(svm_predict(hot, X_test),
                                          svm_predict(cold, X_test)), (i, vectorizer, C)

    def test_longest_first_keeps_outcomes(self, monkeypatch):
        ds = synth_dataset(seed=3, n=12)
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=3)
        count = PipelineConfig(vectorizer="count", n_range=(1, 1), min_df=1,
                               seed=3, mlp_overrides=(("epochs", 10),))
        tfidf = replace(count, vectorizer="tfidf")
        configs = [replace(count, C=10.0), replace(tfidf, n_range=(1, 2)),
                   replace(count, classifier="mlp"), tfidf,
                   replace(count, C=0.1), replace(tfidf, n_range=(1, 2), C=0.01)]
        folds = [tuple(plan.split(i)[0]) for i in range(plan.k)]
        started = []
        fit = paylens.evaluation.fit_features

        def recording(dataset, train_idx, config):
            started.append((config.vectorizer, config.n_range,
                            folds.index(tuple(train_idx))))
            return fit(dataset, train_idx, config)

        monkeypatch.setattr(paylens.evaluation, "fit_features", recording)
        serial = cross_validate(ds, plan, configs, workers=1)
        assert started == [(v, nr, i) for v, nr in (("tfidf", (1, 2)),
                                                    ("tfidf", (1, 1)),
                                                    ("count", (1, 1)))
                           for i in range(plan.k)]
        pooled = cross_validate(ds, plan, configs, workers=2)
        assert multiprocessing.active_children() == []
        assert [r.config for r in serial] == configs
        assert [r.outcomes for r in pooled] == [r.outcomes for r in serial]


class TestGridSearch:
    def _dataset(self):
        notes = {}
        labels = []
        rng = random.Random(5)
        for i in range(12):
            filler = rng.choice(["and", "the", "pay"])
            notes[f"a{i}"] = [f"alpha {filler}", "alpha night"]
            labels.append(0)
            notes[f"b{i}"] = [f"bravo {filler}", "bravo night"]
            labels.append(1)
        return tiny_dataset(notes, labels)

    def test_single_config_grid_equals_cross_validate(self):
        ds = self._dataset()
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=0)
        base = PipelineConfig(min_df=1, seed=0)
        grid = GridSpec(vectorizers=("tfidf",), n_ranges=((1, 1),),
                        classifiers=("svm",), svm_c=(1.0,))
        report = grid_search(grid.expand(base), plan, ds)
        assert len(report.results) == 1
        direct = cross_validate(ds, plan, grid.expand(base))[0]
        assert report.results[0].fold_accuracies == direct.fold_accuracies
        assert report.best_index == 0

    def test_best_config_selected_and_refit(self, monkeypatch):
        ds = self._dataset()
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=0)
        grid = GridSpec(vectorizers=("count", "tfidf"), n_ranges=((1, 1),),
                        classifiers=("svm",), svm_c=(0.01, 1.0))
        fitted = record_fits(monkeypatch)
        report = grid_search(grid.expand(PipelineConfig(min_df=1)), plan, ds)
        assert len(fitted) == plan.k * 2  # one per fold and vectorizer
        means = [r.mean_accuracy for r in report.results]
        assert report.best.mean_accuracy == max(means)
        assert report.best_index == means.index(max(means))  # first tie wins
        assert report.best_model is not None
        assert report.best_model.config == report.best.config

    def test_deterministic_given_seed(self):
        ds = self._dataset()
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=4)
        grid = GridSpec(vectorizers=("tfidf",), n_ranges=((1, 1), (1, 2)),
                        classifiers=("svm",), svm_c=(0.1, 1.0))
        configs = grid.expand(PipelineConfig(min_df=1, seed=4))
        one = grid_search(configs, plan, ds)
        two = grid_search(configs, plan, ds)
        assert one.to_dict() == two.to_dict()

    def test_report_dict_shape(self):
        ds = self._dataset()
        plan = stratified_kfold(ds.labels01.tolist(), k=3, seed=0)
        grid = GridSpec(vectorizers=("tfidf",), n_ranges=((1, 1),),
                        classifiers=("svm",), svm_c=(1.0,))
        report = grid_search(grid.expand(PipelineConfig(min_df=1)), plan, ds)
        data = report.to_dict()
        assert data["folds"] == 3
        assert len(data["configs"]) == 1
        entry = data["configs"][0]
        assert set(entry) == {"config", "fold_accuracies", "mean_accuracy",
                              "confusion"}
        assert 0.0 <= entry["mean_accuracy"] <= 1.0
        assert data["best"]["index"] == 0

    def test_grid_expansion_collapses_c_for_non_svm(self):
        grid = GridSpec(vectorizers=("tfidf",), n_ranges=((1, 1),),
                        classifiers=("svm", "gbdt"), svm_c=(0.1, 1.0, 10.0))
        configs = grid.expand(PipelineConfig())
        svm_configs = [c for c in configs if c.classifier == "svm"]
        gbdt_configs = [c for c in configs if c.classifier == "gbdt"]
        assert len(svm_configs) == 3
        assert len(gbdt_configs) == 1
