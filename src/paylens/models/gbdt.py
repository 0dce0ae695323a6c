"""Gradient boosted regression trees on the logistic loss.

Each round fits a depth-limited regression tree to the gradient/curvature
statistics of the logistic loss (g = p - y, h = p (1 - p)) and adds it with
learning rate eta. A halving line search on the tree's contribution
guarantees the recorded training loss never increases from one round to the
next; a tree that cannot help is kept with zero-scaled leaves so the ensemble
always holds the configured number of rounds. No subsampling is used, so
training is deterministic; the seed is recorded for config round-trips.

Split search skips zeros (sparsity-aware split finding, as in XGBoost).
Candidate (feature j, cut b) sends rows with x < cuts_j[b] left. A sparse 0/1
matrix M, built once per fit, has a row per candidate marking the rows with a
stored value on the side of the cut that zero is not on. Each depth level gets
every (candidate, node)'s left sums of g, h and row count from one product
M @ W; where zero goes left, they are the node total minus the product. So fit
and predict memory is O(nnz), not O(n * d). A node splits when its best gain
exceeds 1e-12; of the candidates within 1e-9 * max(|best|, 1) of the best, the
lowest (feature, bin) wins, so a tie between equal cuts does not hang on the
order in which their sums were added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .common import bce_with_logits, check_binary_labels, fits_type

_LAMBDA = 1e-3       # ridge on leaf Newton steps
_MAX_LEAF = 10.0     # cap on per-tree log-odds step


@dataclass
class GbdtConfig:
    rounds: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    seed: int = 0
    n_bins: int = 64


@dataclass
class GbdtModel:
    """Construction raises TypeError unless each tree node is {"value": number}
    or {"feature": int >= 0, "threshold": number, "left": node, "right": node};
    n_inputs, the columns the trees read, is 1 + the largest split feature, or 0."""

    trees: list[dict]
    init_log_odds: float
    config: GbdtConfig
    loss_curve: list[float] = field(default_factory=list)  # init + one per round

    kind: str = field(default="gbdt", init=False)
    n_inputs: int = field(init=False)

    def __post_init__(self):
        stack, width = list(self.trees), 0
        while stack:
            node = stack.pop()
            keys = node.keys() if isinstance(node, dict) else None
            if keys == {"value"}:
                ok = fits_type(node["value"], float)
            else:
                ok = (keys == {"feature", "threshold", "left", "right"}
                      and fits_type(node["feature"], int) and node["feature"] >= 0
                      and fits_type(node["threshold"], float))
                if ok:
                    width = max(width, node["feature"] + 1)
                    stack += [node["left"], node["right"]]
            if not ok:
                raise TypeError(f"'trees' holds a malformed node: {str(node)[:80]}")
        self.n_inputs = width


def _split_candidates(Xc: sp.csc_matrix, n_bins: int):
    """M, and each candidate's feature, threshold and whether zero goes left.

    A column's cuts are the midpoints of its distinct values (implicit zeros
    included), or its inner n_bins-quantiles when it has more.
    """
    n, d = Xc.shape
    cuts_list, codes, zero_bin = [], [], np.zeros(d, dtype=np.int64)
    for j in range(d):
        vals = Xc.data[Xc.indptr[j]:Xc.indptr[j + 1]]
        uniq = np.unique(vals if vals.size == n else np.append(vals, 0.0))
        if uniq.size <= 1:
            cuts = np.empty(0)
        elif uniq.size <= n_bins:
            cuts = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
            cuts = np.unique(np.quantile(Xc[:, j].toarray(), qs))
        cuts_list.append(cuts)
        codes.append(np.searchsorted(cuts, vals, side="right"))
        zero_bin[j] = np.searchsorted(cuts, 0.0, side="right")
    sizes = np.array([cuts.size for cuts in cuts_list], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    feature = np.repeat(np.arange(d), sizes)
    zero_left = np.arange(feature.size) - first[feature] >= zero_bin[feature]
    # A stored value in bin c is off zero's side of the cuts between c and
    # zero's bin z: candidates min(c, z) .. max(c, z) - 1 of its column.
    code = np.concatenate([np.empty(0, dtype=np.int64), *codes])
    z = np.repeat(zero_bin, np.diff(Xc.indptr))
    runs = np.abs(code - z)
    lo = np.repeat(first, np.diff(Xc.indptr)) + np.minimum(code, z)
    cand = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs - lo, runs)
    M = sp.csr_matrix((np.ones(cand.size), (cand, np.repeat(Xc.indices, runs))),
                      shape=(feature.size, n))
    return M, feature, np.concatenate([np.empty(0), *cuts_list]), zero_left


def _leaf_value(gsum: float, hsum: float) -> float:
    return float(np.clip(-gsum / (hsum + _LAMBDA), -_MAX_LEAF, _MAX_LEAF))


def _best_splits(M: sp.csr_matrix, zero_left: np.ndarray, stats: np.ndarray,
                 level: list, sums: list) -> list:
    """Best candidate for each (node, idx) of a level, or None for a leaf."""
    def score(stat):  # G^2 / (H + lambda) of stacked (G, H, count) sums
        return stat[0] ** 2 / (stat[1] + _LAMBDA)

    m = len(level)
    W = np.zeros((stats.shape[0], 3, m))
    for k, (_, idx) in enumerate(level):
        W[idx, :, k] = stats[idx]
    off = np.ascontiguousarray((M @ W.reshape(-1, 3 * m)).T).reshape(3, m, -1)
    total = np.array([(gs, hs, idx.size)
                      for (_, idx), (gs, hs) in zip(level, sums)]).T[:, :, None]
    left = np.where(zero_left, total - off, off)
    right = total - left
    gain = score(left) + score(right) - score(total)
    gain[(left[2] == 0) | (right[2] == 0)] = -np.inf
    best = gain.max(axis=1)
    near = gain >= (best - 1e-9 * np.maximum(np.abs(best), 1.0))[:, None]
    return [int(c) if top > 1e-12 else None for c, top in zip(near.argmax(axis=1), best)]


def _grow_tree(candidates, g: np.ndarray, h: np.ndarray,
               max_depth: int) -> tuple[dict, list[tuple[dict, np.ndarray]]]:
    """A regression tree grown one depth level at a time, and its leaves with their rows."""
    M, feature, threshold, zero_left = candidates
    stats = np.column_stack([g, h, np.ones(g.size)])
    root, leaves = {}, []
    level, depth = [(root, np.arange(g.size))], 0
    while level:
        sums = [(float(g[idx].sum()), float(h[idx].sum())) for _, idx in level]
        splits = (_best_splits(M, zero_left, stats, level, sums)
                  if depth < max_depth and feature.size else [None] * len(level))
        children = []
        for (node, idx), (gsum, hsum), c in zip(level, sums, splits):
            if c is None:
                node["value"] = _leaf_value(gsum, hsum)
                leaves.append((node, idx))
                continue
            off_zero = np.zeros(g.size, dtype=bool)
            off_zero[M.indices[M.indptr[c]:M.indptr[c + 1]]] = True
            mask = off_zero[idx] != zero_left[c]  # rows going left
            node.update(feature=int(feature[c]), threshold=float(threshold[c]),
                        left={}, right={})
            children += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
        level, depth = children, depth + 1
    return root, leaves


def _tree_apply(node: dict, column, idx: np.ndarray, out: np.ndarray) -> None:
    """Write the tree's output for rows idx into out[idx]; column(j) is X[:, j]."""
    if "value" in node:
        out[idx] = node["value"]
        return
    mask = column(node["feature"])[idx] < node["threshold"]
    _tree_apply(node["left"], column, idx[mask], out)
    _tree_apply(node["right"], column, idx[~mask], out)


def train_gbdt(X, y, config: GbdtConfig | None = None) -> GbdtModel:
    if config is None:
        config = GbdtConfig()
    Xc = sp.csc_matrix(X, dtype=np.float64)
    Xc.sum_duplicates()  # sorted, unique rows in every column
    n = Xc.shape[0]
    yv = check_binary_labels(y, (0, 1), n)

    p_bar = float(np.clip(yv.mean(), 1e-12, 1 - 1e-12))
    init = float(np.log(p_bar / (1.0 - p_bar)))
    F = np.full(n, init)
    eta = config.learning_rate

    candidates = _split_candidates(Xc, config.n_bins)
    trees: list[dict] = []
    loss = bce_with_logits(F, yv)
    loss_curve = [loss]

    for _ in range(config.rounds):
        p = 1.0 / (1.0 + np.exp(-np.clip(F, -500, 500)))
        g = p - yv
        h = p * (1.0 - p)
        tree, leaves = _grow_tree(candidates, g, h, config.max_depth)
        contrib = np.zeros(n)
        for leaf, idx in leaves:
            contrib[idx] = leaf["value"]

        scale = 1.0 if eta != 0.0 else 0.0
        while scale > 1e-8:
            new_loss = bce_with_logits(F + eta * scale * contrib, yv)
            if new_loss <= loss:
                break
            scale *= 0.5
        else:
            scale = 0.0
        for leaf, _ in leaves:
            leaf["value"] *= scale
        F = F + eta * scale * contrib
        if scale:
            loss = new_loss  # the loss of this same F
        trees.append(tree)
        loss_curve.append(loss)

    return GbdtModel(trees=trees, init_log_odds=init, config=config,
                     loss_curve=loss_curve)


def gbdt_raw(model: GbdtModel, X) -> np.ndarray:
    """Accumulated log-odds: init + eta * sum of tree outputs.

    A column is made dense the first time a split tests it and reused by
    every later tree, so memory is rows x the distinct split features, at
    most one column per split node rather than X's full width.
    """
    Xc = sp.csc_matrix(X, dtype=np.float64)
    Xc.sum_duplicates()
    n = Xc.shape[0]
    dense: dict[int, np.ndarray] = {}

    def column(j: int) -> np.ndarray:
        if j not in dense:
            lo, hi = Xc.indptr[j], Xc.indptr[j + 1]
            dense[j] = np.zeros(n)
            dense[j][Xc.indices[lo:hi]] = Xc.data[lo:hi]
        return dense[j]

    idx = np.arange(n)
    out = np.full(n, model.init_log_odds)
    buf = np.zeros(n)
    for tree in model.trees:
        _tree_apply(tree, column, idx, buf)
        out += model.config.learning_rate * buf
    return out


def gbdt_predict(model: GbdtModel, X) -> np.ndarray:
    return (gbdt_raw(model, X) >= 0.0).astype(np.int64)
