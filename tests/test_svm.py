import json
import logging

import numpy as np
import pytest
import scipy.sparse as sp

from paylens.corpus import group_by_user
from paylens.errors import NonFiniteError, SingleClass
from paylens.labels import build_labeled_dataset
from paylens.models import (svm, svm_decision, svm_predict, top_coefficients,
                            train_linear_svm)
from paylens.models.serialize import encode
from paylens.pipeline import (PipelineConfig, build_dataset, fit_features,
                              fit_pipeline)
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.vectorizer import (assemble_feature_matrix, count_transform,
                                fit_vocabulary, tfidf_transform)

from conftest import synth_dataset
from oracles import svm_train


def primal_objective(model, X, y, C):
    margins = 1.0 - y * svm_decision(model, X)
    return 0.5 * float(model.weights @ model.weights) + \
        C * float(np.clip(margins, 0.0, None).sum())


class TestTrainLinearSvm:
    def test_separable_two_points(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        model = train_linear_svm(X, y, C=1.0)
        assert np.array_equal(svm_predict(model, X), y)
        assert model.weights[0] > 0

    def test_xor_not_separable(self):
        X = np.array([[-1.0], [-0.4], [0.4], [1.0]])
        y = np.array([1, -1, 1, -1])
        model = train_linear_svm(X, y, C=10.0)
        accuracy = float(np.mean(svm_predict(model, X) == y))
        assert accuracy <= 0.75

    def test_objective_not_worse_than_zero_vector(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 8))
        y = np.where(rng.random(60) < 0.5, -1, 1)
        y[:2] = [-1, 1]
        for C in (0.1, 1.0, 10.0):
            model = train_linear_svm(X, y, C=C)
            assert primal_objective(model, X, y, C) <= C * len(y) + 1e-9

    def test_duality_gap_meets_tolerance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 10))
        w_true = rng.standard_normal(10)
        y = np.sign(X @ w_true)
        y[y == 0] = 1
        model = train_linear_svm(X, y, C=1.0, tol=1e-4)
        assert model.duality_gap <= 1e-4 * max(abs(model.primal_objective), 1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_linear_svm(np.eye(3), np.array([1, 1, 1]))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train_linear_svm(np.eye(2), np.array([0, 1]))

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(NonFiniteError):
            train_linear_svm(X, np.array([-1, 1]))

    def test_overflowing_objective_rejected(self):
        X = np.array([[-1.0], [-0.4], [0.4], [1.0]])
        with pytest.raises(NonFiniteError, match="non-finite objective"):
            train_linear_svm(X, np.array([1, -1, 1, -1]), C=1e308)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = sp.csr_matrix(rng.random((50, 20)) * (rng.random((50, 20)) > 0.7))
        y = np.where(rng.random(50) < 0.5, -1, 1)
        y[:2] = [-1, 1]
        one = train_linear_svm(X, y, C=1.0, seed=9)
        two = train_linear_svm(X, y, C=1.0, seed=9)
        assert encode(one) == encode(two)

    def test_sparse_and_dense_agree(self):
        rng = np.random.default_rng(4)
        X = rng.random((30, 6))
        y = np.where(rng.random(30) < 0.5, -1, 1)
        y[:2] = [-1, 1]
        dense = train_linear_svm(X, y, seed=5)
        sparse = train_linear_svm(sp.csr_matrix(X), y, seed=5)
        assert np.array_equal(dense.weights, sparse.weights)


class TestDecisionAndPredict:
    def _unit_model(self):
        return train_linear_svm(np.array([[-1.0], [1.0]]),
                                np.array([-1, 1]), C=1.0)

    def test_decision_value(self):
        model = self._unit_model()
        model.weights = np.array([1.0])
        model.bias = 0.0
        assert svm_decision(model, np.array([[2.0]]))[0] == pytest.approx(2.0)
        assert svm_predict(model, np.array([[2.0]]))[0] == 1

    def test_zero_decision_maps_to_plus_one(self):
        model = self._unit_model()
        model.weights = np.array([0.0])
        model.bias = 0.0
        assert svm_predict(model, np.array([[3.0]]))[0] == 1

    def test_batch_order_preserved(self):
        model = self._unit_model()
        X = np.array([[v] for v in (-3.0, -1.0, 2.0, 5.0)])
        decisions = svm_decision(model, X)
        assert list(np.argsort(decisions)) == [0, 1, 2, 3]
        assert len(svm_predict(model, X)) == 4

    def test_prediction_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 5))
        y = np.sign(X @ rng.standard_normal(5))
        y[y == 0] = 1
        model = train_linear_svm(X, y)
        base = svm_predict(model, X)
        for scale in (0.5, 3.0, 100.0):
            model.weights = model.weights * scale
            model.bias = model.bias * scale
            assert np.array_equal(svm_predict(model, X), base)
            model.weights = model.weights / scale
            model.bias = model.bias / scale

    def test_dimension_mismatch(self):
        model = self._unit_model()
        with pytest.raises(ValueError):
            svm_decision(model, np.zeros((1, 7)))


class TestTopCoefficients:
    def _model(self, weights):
        model = train_linear_svm(np.array([[-1.0], [1.0]]),
                                 np.array([-1, 1]))
        model.weights = np.asarray(weights, dtype=float)
        return model

    def test_signs_and_order(self):
        model = self._model([3.0, -5.0, 1.0, -0.5])
        positive, negative = top_coefficients(model, ["a", "b", "c", "d"], 2)
        assert positive == [("a", 3.0), ("c", 1.0)]
        assert negative == [("b", -5.0), ("d", -0.5)]

    def test_k_zero(self):
        model = self._model([1.0])
        assert top_coefficients(model, ["a"], 0) == ([], [])

    def test_k_clipped_to_width(self):
        model = self._model([1.0, 2.0])
        positive, _ = top_coefficients(model, ["a", "b"], 10)
        assert len(positive) == 2

    def test_all_zero_weights_name_sorted(self):
        model = self._model([0.0, 0.0, 0.0])
        positive, negative = top_coefficients(model, ["gamma", "alpha", "beta"], 3)
        assert [n for n, _ in positive] == ["alpha", "beta", "gamma"]
        assert [n for n, _ in negative] == ["alpha", "beta", "gamma"]

    def test_tie_broken_by_name(self):
        model = self._model([2.0, 2.0])
        positive, _ = top_coefficients(model, ["zeta", "alpha"], 2)
        assert [n for n, _ in positive] == ["alpha", "zeta"]


def tfidf_engineered_data():
    """tf-idf (1,2) text columns plus z-scored engineered columns."""
    spec = SynthSpec(n_users_per_class=30, posts_per_user=(6, 6),
                     p_signal=0.5, p_noise=0.1, seed=4)
    result = generate_synthetic_corpus(spec)
    corpus = group_by_user(result.transactions)
    dataset = build_dataset(corpus, build_labeled_dataset(
        corpus, "politics", political_labels=dict(result.labels)))
    vocab = fit_vocabulary(dataset.posts, (1, 2), min_df=2)
    text = tfidf_transform(count_transform(dataset.posts, vocab), vocab)
    X, _ = assemble_feature_matrix(text, dataset.engineered)
    assert X.data.min() < 0.0  # the z-scored columns go negative
    return X, 2 * dataset.labels01 - 1


def dense_data():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 6))
    y = np.where(X[:, 0] - X[:, 1] + 0.7 * rng.standard_normal(50) > 0, 1, -1)
    return X, y


def zero_rows_data():
    rng = np.random.default_rng(8)
    X = rng.random((50, 12)) * (rng.random((50, 12)) > 0.6)
    X[::5] = 0.0  # every fifth row is all zero
    y = np.where(X[:, :6].sum(axis=1) > X[:, 6:].sum(axis=1), 1, -1)
    y[:2] = [-1, 1]
    return sp.csr_matrix(X), y


def duplicate_rows_data():
    X, y = dense_data()
    X, y = np.vstack([X[:20], X[:20], X[20:]]), np.concatenate([y[:20], y[:20], y[20:]])
    y[0] = -y[0]  # one duplicated row with both labels
    return X, y


ORACLE_INPUTS = {"tfidf": tfidf_engineered_data, "dense": dense_data,
                 "zero_rows": zero_rows_data, "duplicate_rows": duplicate_rows_data}


@pytest.mark.parametrize("C", [0.01, 1.0, 100.0], ids=["C0.01", "C1", "C100"])
@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_fit_matches_array_kernel_oracle(name, C):
    X, y = ORACLE_INPUTS[name]()
    got = train_linear_svm(X, y, C=C, seed=3)
    want = svm_train(X, y, C=C, seed=3)
    assert json.dumps(encode(got)) == json.dumps(encode(want))


def test_fit_cut_short_matches_array_kernel_oracle():
    X, y = tfidf_engineered_data()
    got = train_linear_svm(X, y, C=100.0, max_epochs=3)
    want = svm_train(X, y, C=100.0, max_epochs=3)
    assert got.epochs_run == 3
    assert json.dumps(encode(got)) == json.dumps(encode(want))


def test_fit_pipeline_stays_cold():
    """`train` and the grid's refit fit through fit_pipeline, whose SVM starts
    the dual at zero: a saved model is the cold oracle's, bit for bit."""
    ds = synth_dataset(seed=4, n=30)
    config = PipelineConfig(C=10.0, seed=3)
    rows = np.arange(len(ds))
    fitted = fit_pipeline(ds, rows, config)
    _, X = fit_features(ds, rows, config)
    want = svm_train(X, 2 * ds.labels01 - 1, C=10.0, seed=3)
    assert json.dumps(encode(fitted.model)) == json.dumps(encode(want))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_numba_kernel_matches_python_kernel(monkeypatch, name, warm):
    pytest.importorskip("numba")
    X, y = ORACLE_INPUTS[name]()
    start = None
    if warm:  # from the C=0.1 solution, as along the grid's C path
        start = np.zeros(len(y))
        train_linear_svm(X, y, C=0.1, seed=3, warm=start)
    jitted_end = None if start is None else start.copy()
    jitted = train_linear_svm(X, y, C=1.0, seed=3, warm=jitted_end)
    monkeypatch.setattr(svm, "_cd_epoch", svm._cd_epoch.py_func)
    lists_end = None if start is None else start.copy()
    lists = train_linear_svm(X, y, C=1.0, seed=3, warm=lists_end)
    assert jitted.epochs_run == lists.epochs_run
    assert np.allclose(jitted.weights, lists.weights, rtol=1e-12, atol=1e-12)
    assert np.isclose(jitted.bias, lists.bias, rtol=1e-12, atol=1e-12)
    if warm:
        assert np.allclose(jitted_end, lists_end, rtol=1e-12, atol=1e-12)


class TestConvergenceWarning:
    def test_unconverged_fit_warns_once(self, caplog):
        X, y = tfidf_engineered_data()
        with caplog.at_level(logging.WARNING, logger="paylens.models.svm"):
            model = train_linear_svm(X, y, C=100.0, max_epochs=1)
        bound = model.tol * max(abs(model.primal_objective), 1.0)
        assert model.duality_gap > bound
        records = [r for r in caplog.records if r.name == "paylens.models.svm"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        for part in ("C=100", "after 1 epochs", f"{model.duality_gap:.6g}",
                     f"{bound:.6g}"):
            assert part in message
        assert set(encode(model)) == {
            "weights", "bias", "C", "tol", "seed", "epochs_run", "primal_objective", "duality_gap"}

    def test_converged_fit_logs_nothing(self, caplog):
        X, y = dense_data()
        with caplog.at_level(logging.DEBUG, logger="paylens.models.svm"):
            model = train_linear_svm(X, y, C=1.0)
        assert model.duality_gap <= model.tol * max(abs(model.primal_objective), 1.0)
        assert model.epochs_run < 1000
        assert not [r for r in caplog.records if r.name == "paylens.models.svm"]
