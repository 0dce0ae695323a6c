"""Input conversion and checks, CSR row gathers, and the logistic loss."""

import numpy as np
import scipy.sparse as sp

from ..errors import SingleClass

_FLOAT_MAX = float(np.finfo(np.float64).max)


def fits_type(value, kind: type) -> bool:
    """Only a bool fits bool, and a bool fits no other number type; a finite
    int or float fits float; any other type is an isinstance check."""
    if isinstance(value, bool) and kind in (int, float):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
    return isinstance(value, kind)


def check_positive(config) -> None:
    """ValueError unless each field of a model config but `seed` is positive."""
    for name, value in vars(config).items():
        if name != "seed" and not value > 0:  # sizes, counts and rates
            raise ValueError(f"{name!r} must be positive, got {value!r}")


def take_rows(indptr, indices, data, rows):
    """The CSR arrays of `rows`: any rows, in any order."""
    counts = indptr[rows + 1] - indptr[rows]
    taken = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=taken[1:])
    pos = (np.repeat(indptr[rows] - taken[:-1], counts)
           + np.arange(taken[-1], dtype=indptr.dtype))
    return taken, indices[pos], data[pos]


def _as_csr(X) -> sp.csr_matrix:
    """X as CSR with fresh, contiguous float64 data; dense input is converted."""
    if sp.issparse(X):
        return X.tocsr().astype(np.float64)
    return sp.csr_matrix(np.asarray(X, dtype=np.float64))


def check_binary_labels(y, allowed: tuple[int, int], n_rows: int) -> np.ndarray:
    """Labels as a float vector, one per training row; both classes of
    `allowed` must occur."""
    y = np.asarray(y, dtype=np.float64).ravel()
    values = set(np.unique(y).tolist())
    if not values <= set(allowed):
        raise ValueError(f"labels must be in {{{allowed[0]}, {allowed[1]}}}, "
                         f"got {sorted(values)}")
    if len(values) < 2:
        raise SingleClass("training labels contain a single class")
    if n_rows != y.shape[0]:
        raise ValueError(f"{n_rows} rows vs {y.shape[0]} labels")
    return y


def bce_with_logits(z: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy: max(z,0) - z*y + log(1 + exp(-|z|))."""
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
