"""Linear SVM trained by dual coordinate descent.

Minimizes 0.5*||w||^2 + C * sum(max(0, 1 - y_i * (w.x_i + b))) with the bias
folded in as a constant feature (so b is L2-regularized, the usual linear-SVM
convention). Training stops when the relative duality gap of that problem
drops below tol. Coordinate order is reshuffled each epoch from the seed, so
runs are reproducible. A fit can warm-start from another fit's dual solution
on the same rows, as along a path of ascending C (Chu, Yang & Lin, KDD 2015).

Without numba the epoch kernel runs as plain Python over lists: indexing a
list gives a Python float, whose arithmetic is several times faster than
numpy-scalar arithmetic and is the same IEEE-754 double arithmetic, so the
fits are bit-identical to the array kernel's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import NonFiniteError
from .common import _as_csr, check_binary_labels

logger = logging.getLogger(__name__)


def _cd_epoch(indptr, indices, data, y, qd, alpha, w, C, order):
    # one pass of dual coordinate descent over the given row order
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        g = 0.0
        for k in range(lo, hi):
            g += data[k] * w[indices[k]]
        g = y[i] * g - 1.0
        a = alpha[i]
        if a == 0.0:
            pg = min(g, 0.0)
        elif a == C:
            pg = max(g, 0.0)
        else:
            pg = g
        if pg != 0.0:
            na = min(max(a - g / qd[i], 0.0), C)
            d = (na - a) * y[i]
            alpha[i] = na
            for k in range(lo, hi):
                w[indices[k]] += d * data[k]


try:  # JIT when available; the plain-Python body is the fallback
    from numba import njit

    _cd_epoch = njit(cache=True)(_cd_epoch)
except ImportError:  # pragma: no cover
    pass


@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    C: float
    tol: float
    seed: int
    epochs_run: int = 0
    primal_objective: float = 0.0
    duality_gap: float = 0.0

    kind: str = field(default="svm", init=False)

    def __post_init__(self):
        if self.weights.ndim != 1:
            raise ValueError(f"SVM weights must be a vector, got shape "
                             f"{self.weights.shape}")


def train_linear_svm(X, y, C: float = 1.0, tol: float = 1e-3, seed: int = 0,
                     max_epochs: int = 1000,
                     warm: np.ndarray | None = None) -> LinearSvmModel:
    """Fit the hinge-loss linear model to the stated relative duality gap.

    The dual starts at zero, or from `warm`, one value per row, clipped to
    [0, C]; the fit then leaves its own dual solution in `warm`, to
    warm-start a fit at another C on the same rows."""
    Xc = _as_csr(X)
    yv = check_binary_labels(y, (-1, 1), Xc.shape[0])
    if not np.isfinite(Xc.data).all():
        raise NonFiniteError("training matrix contains non-finite values")

    n = Xc.shape[0]
    Xa = sp.hstack([Xc, np.ones((n, 1))], format="csr")  # bias feature
    qd = np.asarray(Xa.multiply(Xa).sum(axis=1)).ravel()  # >= 1: the bias column
    # numba takes the arrays; the plain-Python body runs over lists
    arg = (lambda a: a) if hasattr(_cd_epoch, "py_func") else np.ndarray.tolist
    rows = [arg(a) for a in (Xa.indptr, Xa.indices, Xa.data, yv, qd)]
    start = np.zeros(n) if warm is None else np.clip(warm, 0.0, C)
    alpha, w = arg(start), arg(Xa.T @ (start * yv))  # w = sum alpha_i y_i x_i
    rng = np.random.default_rng(seed)

    primal = gap = np.inf
    epochs = 0
    for epoch in range(max_epochs):
        _cd_epoch(*rows, alpha, w, C, arg(rng.permutation(n)))
        epochs = epoch + 1
        wv = np.asarray(w)
        margins = 1.0 - yv * (Xa @ wv)
        reg = 0.5 * float(wv @ wv)
        primal = reg + C * float(np.clip(margins, 0.0, None).sum())
        dual = float(np.asarray(alpha).sum()) - reg
        gap = primal - dual
        if not (np.isfinite(primal) and np.isfinite(dual)):
            raise NonFiniteError(f"linear SVM (C={C:g}): non-finite objective "
                                 f"after epoch {epochs}")
        if gap <= tol * max(abs(primal), 1.0):
            break
    else:
        logger.warning(
            "linear SVM (C=%g) stopped unconverged after %d epochs: "
            "duality gap %.6g > bound %.6g", C, epochs, gap,
            tol * max(abs(primal), 1.0))
    w = np.asarray(w)
    if warm is not None:
        warm[:] = alpha

    return LinearSvmModel(
        weights=w[:-1].copy(), bias=float(w[-1]), C=C, tol=tol, seed=seed,
        epochs_run=epochs, primal_objective=primal, duality_gap=gap,
    )


def svm_decision(model: LinearSvmModel, X) -> np.ndarray:
    Xc = _as_csr(X)
    if Xc.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"matrix has {Xc.shape[1]} columns, model expects {model.weights.shape[0]}")
    return np.asarray(Xc @ model.weights).ravel() + model.bias


def svm_predict(model: LinearSvmModel, X) -> np.ndarray:
    """Signs of the decision values; exact zeros map to +1."""
    decision = svm_decision(model, X)
    return np.where(decision >= 0.0, 1, -1)


def top_coefficients(model: LinearSvmModel, names: list[str], k: int
                     ) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """The k most positive and k most negative weights with their names,
    one name per weight.

    Each returned list is ordered by absolute weight descending with ties
    broken by feature name. k larger than the width is clipped.
    """
    if len(names) != model.weights.shape[0]:
        raise ValueError("feature names do not match model width")
    k = max(0, min(k, model.weights.shape[0]))
    if k == 0:
        return [], []
    pairs = list(zip(names, model.weights.tolist()))
    positive = sorted(pairs, key=lambda p: (-p[1], p[0]))[:k]
    negative = sorted(pairs, key=lambda p: (p[1], p[0]))[:k]
    positive.sort(key=lambda p: (-abs(p[1]), p[0]))
    negative.sort(key=lambda p: (-abs(p[1]), p[0]))
    return positive, negative
