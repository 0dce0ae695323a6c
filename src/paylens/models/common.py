"""Label validation and the logistic loss shared by the classifiers."""

import numpy as np

from ..errors import SingleClass


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
