import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from paylens.errors import NonFiniteError, SingleClass
from paylens.models import MlpConfig, mlp_predict, mlp_proba, train_mlp
from paylens.models.common import _as_csr, bce_with_logits, take_rows
from paylens.models.mlp import _forward, mlp_grads
from paylens.models.serialize import encode

from oracles import train_mlp_oracle


def csr_arrays(X):
    Xc = _as_csr(X)
    return Xc.indptr, Xc.indices, Xc.data


def finite_difference_check(W1, b1, W2, b2, X, y, eps=1e-6):
    """Max relative error between backprop and central differences, through
    the batch-gradient function train_mlp calls."""
    X = csr_arrays(X)
    (rows, touched), db1, dW2, db2 = mlp_grads(W1, b1, W2, b2, X, y)
    dW1 = np.zeros_like(W1)
    dW1[rows] = touched
    worst = 0.0
    for arr, grad in ((W1, dW1), (b1, db1), (W2, dW2), (b2, db2)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + eps
            plus = bce_with_logits(_forward(W1, b1, W2, b2, X)[2], y)
            arr[i] = orig - eps
            minus = bce_with_logits(_forward(W1, b1, W2, b2, X)[2], y)
            arr[i] = orig
            fd = (plus - minus) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
    return worst


def toy_params(seed=0, n=5, d=4, hidden=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = [0.0, 1.0]
    W1 = rng.standard_normal((d, hidden)) * 0.5
    b1 = rng.standard_normal(hidden) * 0.1
    W2 = rng.standard_normal((hidden, 1)) * 0.5
    b2 = rng.standard_normal(1) * 0.1
    return W1, b1, W2, b2, X, y


class TestGradients:
    def test_finite_difference_agreement(self):
        worst = finite_difference_check(*toy_params(seed=0))
        assert worst < 1e-4

    def test_finite_difference_second_seed(self):
        worst = finite_difference_check(*toy_params(seed=11))
        assert worst < 1e-4

    def test_sparse_input_same_gradients(self):
        W1, b1, W2, b2, X, y = toy_params(seed=2)
        dense = mlp_grads(W1, b1, W2, b2, csr_arrays(X), y)
        sparse = mlp_grads(W1, b1, W2, b2, csr_arrays(sp.csr_matrix(X)), y)
        for a, b in zip((*dense[0], *dense[1:]), (*sparse[0], *sparse[1:])):
            assert np.allclose(a, b)


class TestTrainMlp:
    def _separable(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        X = np.vstack([rng.standard_normal((n // 2, 2)) + 2.5,
                       rng.standard_normal((n // 2, 2)) - 2.5])
        y = np.array([1] * (n // 2) + [0] * (n // 2))
        return X, y

    def test_separable_reaches_perfect_accuracy(self):
        X, y = self._separable()
        model = train_mlp(X, y, MlpConfig(hidden=8, lr=0.05, epochs=500,
                                          batch=8, seed=1))
        assert np.mean(mlp_predict(model, X) == y) == 1.0

    def test_constant_labels_rejected(self):
        with pytest.raises(SingleClass):
            train_mlp(np.eye(3), np.array([1, 1, 1]), MlpConfig(epochs=1))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train_mlp(np.eye(2), np.array([-1, 1]), MlpConfig(epochs=1))

    @pytest.mark.parametrize("field", ["hidden", "lr", "epochs", "batch"])
    def test_config_not_positive_raises(self, field):
        with pytest.raises(ValueError, match=f"'{field}' must be positive, got 0"):
            MlpConfig(**{field: 0})

    def test_divergence_raises_without_numpy_warnings(self):
        X, y = self._separable(40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="non-finite loss"):
                train_mlp(X, y, MlpConfig(lr=1e300, epochs=3))

    def test_loss_curve_recorded(self):
        X, y = self._separable(20)
        cfg = MlpConfig(hidden=4, lr=0.05, epochs=30, batch=5, seed=0)
        model = train_mlp(X, y, cfg)
        assert len(model.loss_curve) == 30
        assert model.loss_curve[-1] < model.loss_curve[0]
        assert all(np.isfinite(v) for v in model.loss_curve)

    def test_deterministic_given_seed(self):
        X, y = self._separable(24)
        cfg = MlpConfig(hidden=4, lr=0.05, epochs=20, batch=6, seed=7)
        one = train_mlp(X, y, cfg)
        two = train_mlp(X, y, cfg)
        assert encode(one) == encode(two)

    def test_different_seeds_differ(self):
        X, y = self._separable(24)
        one = train_mlp(X, y, MlpConfig(hidden=4, epochs=5, seed=1))
        two = train_mlp(X, y, MlpConfig(hidden=4, epochs=5, seed=2))
        assert not np.array_equal(one.W1, two.W1)

    def test_probabilities_in_open_interval(self):
        X, y = self._separable(20)
        model = train_mlp(X, y, MlpConfig(hidden=4, epochs=10, seed=0))
        proba = mlp_proba(model, X)
        assert np.all(proba > 0.0) and np.all(proba < 1.0)

    def test_sparse_training(self):
        X, y = self._separable(30)
        model = train_mlp(sp.csr_matrix(X), y,
                          MlpConfig(hidden=6, lr=0.05, epochs=200, batch=8,
                                    seed=3))
        assert np.mean(mlp_predict(model, X) == y) >= 0.9


def _mlp_case(kind):
    rng = np.random.default_rng(17)
    if kind == "dense":
        X, batch = rng.standard_normal((40, 6)), 8
    elif kind == "batch_above_n":
        X, batch = rng.standard_normal((20, 5)), 64
    else:
        density = 0.1 if kind == "csr" else 0.8
        n = 61 if kind == "ragged" else 60  # ragged: a one-row last batch
        X = sp.random(n, 30, density=density, format="csr", random_state=rng)
        batch = 20 if kind == "ragged" else 16
        if kind == "empty_row":
            X = X.tolil()
            X[[0, 7, 33], :] = 0.0
            X = X.tocsr()
            assert np.diff(X.indptr).min() == 0
        if kind == "int64":
            X.indptr, X.indices = (X.indptr.astype(np.int64),
                                   X.indices.astype(np.int64))
    sums = np.asarray(X.sum(axis=1)).ravel()
    y = (sums > np.median(sums)).astype(np.int64)
    return X, y, MlpConfig(hidden=7, lr=0.05, epochs=12, batch=batch, seed=3)


# dense input is converted to CSR first, whose products sum in another order
# than dense ones, so the dense cases compare against the loop run on CSR
@pytest.mark.parametrize("kind", ["dense", "csr", "dense_csr", "batch_above_n",
                                  "empty_row", "int64", "ragged"])
def test_fit_matches_first_written_loop(kind):
    X, y, config = _mlp_case(kind)
    got = train_mlp(X, y, config)
    want = train_mlp_oracle(sp.csr_matrix(X), y, config)
    assert json.dumps(encode(got)) == json.dumps(encode(want))


@pytest.mark.parametrize("rows", [[4, 0, 8], [2, 2, 7], []],
                         ids=["subset", "repeat", "none"])
def test_take_rows_matches_fancy_indexing(rows):
    rng = np.random.default_rng(11)
    dense = rng.random((9, 12)) * (rng.random((9, 12)) < 0.4)
    dense[2] = 0.0
    X = sp.csr_matrix(dense)
    rows = np.array(rows, dtype=np.int64)
    sub = X[rows]
    got = take_rows(X.indptr, X.indices, X.data, rows)
    for part, want in zip(got, (sub.indptr, sub.indices, sub.data)):
        assert np.array_equal(part, want)


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("rows", [(0, 7), (3, 4), (5, 6)],
                         ids=["batch", "one_row", "zero_row"])
def test_raw_kernels_match_the_operators(index, rows):
    """csr_matvecs/csc_matvecs on a slice of gathered rows, called as
    mlp.py calls them, give the bits of X[rows] @ W and X[rows].T @ D."""
    rng = np.random.default_rng(5)
    X = sp.random(9, 12, density=0.4, format="csr", random_state=rng)
    X = X.tolil()
    X[2, :] = 0.0  # row 2 of the gathered order below is all zero
    X = X.tocsr()
    X.indptr, X.indices = X.indptr.astype(index), X.indices.astype(index)
    order = np.array([4, 0, 8, 1, 6, 2, 7, 3, 5])
    indptr, indices, data = take_rows(X.indptr, X.indices, X.data, order)
    assert indptr.dtype == indices.dtype == index
    d = X.shape[1]
    start, stop = rows
    lo, hi = indptr[start], indptr[stop]
    sl = (indptr[start:stop + 1] - lo, indices[lo:hi], data[lo:hi])
    sub = X[order[start:stop]]
    W = rng.standard_normal((d, 4))
    D = rng.standard_normal((stop - start, 4))
    forward = np.zeros((stop - start, 4))
    csr_matvecs(stop - start, d, 4, *sl, W.ravel(), forward.ravel())
    backward = np.zeros((d, 4))
    csc_matvecs(d, stop - start, 4, *sl, D.ravel(), backward.ravel())
    assert np.array_equal(forward, sub @ W)
    assert np.array_equal(backward, sub.T @ D)
    if rows == (5, 6):
        assert sub.nnz == 0 and not forward.any()
