"""Single-hidden-layer perceptron: ReLU hidden units, logistic output.

Trained with plain mini-batch gradient descent on binary cross-entropy from
logits. A batch step computes gradients only: train_mlp computes the loss once
per epoch, and tests/test_mlp.py computes it to check them by finite differences.
Dense input is converted to CSR. Each epoch gathers its permuted rows once,
so a mini-batch is a slice of the CSR arrays; products call the kernels that
`X @ W1` and `X.T @ D` dispatch to, skipping their checks, for the same bits.
A batch's W1 gradient and update cover only the rows of the columns it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# private, pinned by tests/test_mlp.py against the operators they implement
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from ..errors import NonFiniteError
from .common import (_as_csr, bce_with_logits, check_binary_labels,
                     check_positive, take_rows)


@dataclass
class MlpConfig:
    hidden: int = 64
    lr: float = 0.01
    epochs: int = 200
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        check_positive(self)


@dataclass
class MlpModel:
    W1: np.ndarray  # (n_features, hidden)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden, 1)
    b2: np.ndarray  # (1,)
    config: MlpConfig
    loss_curve: list[float] = field(default_factory=list)

    kind: str = field(default="mlp", init=False)

    def __post_init__(self):
        d, h = self.W1.shape if self.W1.ndim == 2 else (-1, -1)
        shapes = [a.shape for a in (self.W1, self.b1, self.W2, self.b2)]
        if shapes != [(d, h), (h,), (h, 1), (1,)]:
            raise ValueError(f"MLP W1, b1, W2, b2 have shapes {shapes}, not "
                             f"(d, h), (h,), (h, 1), (1,)")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward(W1, b1, W2, b2, X):
    """(pre-activations, hidden activations, logits) of CSR arrays X."""
    pre = np.zeros((len(X[0]) - 1, W1.shape[1]))
    csr_matvecs(pre.shape[0], W1.shape[0], W1.shape[1], *X, W1.ravel(), pre.ravel())
    pre += b1
    hidden = np.maximum(pre, 0.0)
    return pre, hidden, (hidden @ W2).ravel() + b2[0]


def mlp_grads(W1, b1, W2, b2, X, y):
    """Gradients of the mean binary cross-entropy for one batch of CSR arrays
    X (unchecked: float64 data, columns below W1's row count). Returns
    ((rows, dW1), db1, dW2, db2); W1's gradient is dW1 on `rows`, else zero."""
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    pre, hidden, z = _forward(W1, b1, W2, b2, X)
    dz = (_sigmoid(z) - y)[:, None] / n
    dW2 = hidden.T @ dz
    db2 = dz.sum(axis=0)
    dhidden = dz @ W2.T
    dhidden[pre <= 0.0] = 0.0
    indptr, indices, data = X
    rows = np.flatnonzero(np.bincount(indices, minlength=W1.shape[0]))
    at = np.empty(W1.shape[0], dtype=indices.dtype)  # W1 row -> dW1 row
    at[rows] = np.arange(len(rows), dtype=indices.dtype)
    dW1 = np.zeros((len(rows), W1.shape[1]))
    csc_matvecs(len(rows), n, W1.shape[1], indptr, at[indices], data,
                dhidden.ravel(), dW1.ravel())
    db1 = dhidden.sum(axis=0)
    return (rows, dW1), db1, dW2, db2


# a diverging fit overflows to inf/nan; the epoch's loss check raises on it
@np.errstate(over="ignore", invalid="ignore")
def train_mlp(X, y, config: MlpConfig | None = None) -> MlpModel:
    """Mini-batch gradient descent; the per-epoch full-data loss is recorded."""
    config = config or MlpConfig()
    Xc = _as_csr(X)
    n, d = Xc.shape
    Xa = (Xc.indptr, Xc.indices, Xc.data)
    yv = check_binary_labels(y, (0, 1), n)

    rng = np.random.default_rng(config.seed)
    limit1 = np.sqrt(6.0 / (d + config.hidden))
    limit2 = np.sqrt(6.0 / (config.hidden + 1))
    W1 = rng.uniform(-limit1, limit1, size=(d, config.hidden))
    b1 = np.zeros(config.hidden)
    W2 = rng.uniform(-limit2, limit2, size=(config.hidden, 1))
    b2 = np.zeros(1)

    batch = min(config.batch, n)
    loss_curve: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        indptr, indices, data = take_rows(*Xa, order)
        y_order = yv[order]
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            lo, hi = indptr[start], indptr[stop]
            Xb = (indptr[start:stop + 1] - lo, indices[lo:hi], data[lo:hi])
            (used, dW1), db1, dW2, db2 = mlp_grads(
                W1, b1, W2, b2, Xb, y_order[start:stop])
            W1[used] -= config.lr * dW1
            b1 -= config.lr * db1
            W2 -= config.lr * dW2
            b2 -= config.lr * db2
        full_loss = bce_with_logits(_forward(W1, b1, W2, b2, Xa)[2], yv)
        if not np.isfinite(full_loss):
            raise NonFiniteError(f"non-finite loss after epoch {epoch}")
        loss_curve.append(full_loss)

    return MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, config=config,
                    loss_curve=loss_curve)


def mlp_proba(model: MlpModel, X) -> np.ndarray:
    Xc = _as_csr(X)
    if Xc.shape[1] != model.W1.shape[0]:
        raise ValueError(
            f"matrix has {Xc.shape[1]} columns, model expects {model.W1.shape[0]}")
    return _sigmoid(_forward(model.W1, model.b1, model.W2, model.b2,
                             (Xc.indptr, Xc.indices, Xc.data))[2])


def mlp_predict(model: MlpModel, X) -> np.ndarray:
    return (mlp_proba(model, X) >= 0.5).astype(np.int64)
