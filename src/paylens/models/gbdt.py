"""Gradient boosted regression trees on the logistic loss.

Each round fits a depth-limited regression tree to the gradient/curvature
statistics of the logistic loss (g = p - y, h = p (1 - p)), searching splits
over each feature's own histogram bins one depth level at a time, and adds it
with learning rate eta. A halving line search on the tree's contribution
guarantees the recorded training loss never increases from one round to the
next; a tree that cannot help is kept with zero-scaled leaves so the ensemble
always holds the configured number of rounds. No subsampling is used, so
training is deterministic; the seed is recorded for config round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .common import bce_with_logits, check_binary_labels

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
    trees: list[dict]        # nested {feature, threshold, left, right} / {value}
    init_log_odds: float
    config: GbdtConfig
    feature_names: list[str] | None = None
    loss_curve: list[float] = field(default_factory=list)  # init + one per round

    kind: str = field(default="gbdt", init=False)


def _dense(X) -> np.ndarray:
    if sp.issparse(X):
        return np.asarray(X.todense(), dtype=np.float64)
    return np.asarray(X, dtype=np.float64)


def _bin_columns(Xd: np.ndarray, n_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    n, d = Xd.shape
    codes = np.zeros((n, d), dtype=np.int32)
    cuts_list: list[np.ndarray] = []
    for j in range(d):
        col = Xd[:, j]
        uniq = np.unique(col)
        if uniq.size <= 1:
            cuts = np.empty(0)
        elif uniq.size <= n_bins:
            cuts = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.quantile(col, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
            cuts = np.unique(qs)
        codes[:, j] = np.searchsorted(cuts, col, side="right")
        cuts_list.append(cuts)
    return codes, cuts_list


def _leaf_value(gsum: float, hsum: float) -> float:
    return float(np.clip(-gsum / (hsum + _LAMBDA), -_MAX_LEAF, _MAX_LEAF))


def _bin_layout(codes: np.ndarray, cuts_list: list[np.ndarray]):
    """Flat index over each feature's own k = len(cuts) + 1 bins, once per fit.

    Features are grouped by k padded to a power of two, in feature order within
    a group. Returns the codes plus each column's offset, the groups as (start,
    features, width), and the flat bins in (feature, bin) order with theirs.
    """
    widths = np.array([1 << cuts.size.bit_length() for cuts in cuts_list])
    kept = np.argsort(widths, kind="stable")
    widths = widths[kept]
    starts = np.cumsum(widths) - widths
    groups = [(starts[widths == w][0], sum(widths == w), w) for w in np.unique(widths)]
    feature = np.repeat(kept, widths)
    order = np.argsort(feature, kind="stable")
    bins = np.arange(feature.size) - np.repeat(starts, widths)
    flat = codes[:, kept].astype(np.int64) + starts
    return flat, groups, order, feature[order], bins[order]


def _best_splits(layout, g: np.ndarray, h: np.ndarray, level: list,
                 sums: list) -> list:
    """Best (feature, bin) for each (node, idx) of a level, or None for a leaf.

    Each idx is ascending, so every histogram cell adds the same values in the
    same order as a search over that node alone. A feature's last bin has no
    rows on its right, so it is never a candidate. The largest gain wins, ties
    going to the lowest (feature, bin).
    """
    flat, groups, order, feature, bins = layout
    m, d, cells = len(level), flat.shape[1], len(level) * order.size
    rows = np.concatenate([idx for _, idx in level])
    count = np.array([idx.size for _, idx in level])
    keys = (flat[rows] * m + np.repeat(np.arange(m), count)[:, None]).ravel()
    hist = np.stack([np.bincount(keys, weights=np.repeat(g[rows], d), minlength=cells),
                     np.bincount(keys, weights=np.repeat(h[rows], d), minlength=cells),
                     np.bincount(keys, minlength=cells)]).reshape(3, -1, m)
    for start, n_feats, w in groups:  # left-of-bin sums, one feature at a time
        block = hist[:, start:start + n_feats * w].reshape(3, n_feats, w, m)
        np.cumsum(block, axis=2, out=block)
    GL, HL, CL = hist[:, order]
    gsum, hsum = (np.array(s) for s in zip(*sums))
    parent = np.array([gs ** 2 / (hs + _LAMBDA) for gs, hs in sums])
    GR, HR, CR = gsum - GL, hsum - HL, count - CL
    gain = GL ** 2 / (HL + _LAMBDA) + GR ** 2 / (HR + _LAMBDA) - parent
    gain = np.where((CL > 0) & (CR > 0), gain, -np.inf)
    at = gain.argmax(axis=0)  # first maximum in (feature, bin) order
    return [(int(feature[a]), int(bins[a])) if gain[a, k] > 1e-12 else None
            for k, a in enumerate(at)]


def _grow_tree(codes: np.ndarray, layout, cuts_list: list[np.ndarray], g: np.ndarray,
               h: np.ndarray, max_depth: int) -> tuple[dict, list[dict]]:
    """A regression tree grown one depth level at a time, and its leaves."""
    root, leaves = {}, []
    level, depth = [(root, np.arange(g.size))], 0
    while level:
        sums = [(float(g[idx].sum()), float(h[idx].sum())) for _, idx in level]
        splits = (_best_splits(layout, g, h, level, sums) if depth < max_depth
                  else [None] * len(level))
        children = []
        for (node, idx), (gsum, hsum), split in zip(level, sums, splits):
            if split is None:
                node["value"] = _leaf_value(gsum, hsum)
                leaves.append(node)
                continue
            feature, b = split
            mask = codes[idx, feature] <= b
            node.update(feature=feature, threshold=float(cuts_list[feature][b]),
                        left={}, right={})
            children += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
        level, depth = children, depth + 1
    return root, leaves


def _tree_apply(node: dict, Xd: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if "value" in node:
        out[idx] = node["value"]
        return
    mask = Xd[idx, node["feature"]] < node["threshold"]
    _tree_apply(node["left"], Xd, idx[mask], out)
    _tree_apply(node["right"], Xd, idx[~mask], out)


def train_gbdt(X, y, config: GbdtConfig | None = None,
               feature_names: list[str] | None = None) -> GbdtModel:
    if config is None:
        config = GbdtConfig()
    Xd = _dense(X)
    n = Xd.shape[0]
    yv = check_binary_labels(y, (0, 1), n)

    p_bar = float(np.clip(yv.mean(), 1e-12, 1 - 1e-12))
    init = float(np.log(p_bar / (1.0 - p_bar)))
    F = np.full(n, init)
    eta = config.learning_rate

    codes, cuts_list = _bin_columns(Xd, config.n_bins)
    layout = _bin_layout(codes, cuts_list)
    all_idx = np.arange(n)
    trees: list[dict] = []
    loss = bce_with_logits(F, yv)
    loss_curve = [loss]

    for _ in range(config.rounds):
        p = 1.0 / (1.0 + np.exp(-np.clip(F, -500, 500)))
        g = p - yv
        h = p * (1.0 - p)
        tree, leaves = _grow_tree(codes, layout, cuts_list, g, h, config.max_depth)
        contrib = np.zeros(n)
        _tree_apply(tree, Xd, all_idx, contrib)

        scale = 1.0 if eta != 0.0 else 0.0
        while scale > 1e-8:
            new_loss = bce_with_logits(F + eta * scale * contrib, yv)
            if new_loss <= loss:
                break
            scale *= 0.5
        else:
            scale = 0.0
        for leaf in leaves:
            leaf["value"] *= scale
        F = F + eta * scale * contrib
        if scale:
            loss = new_loss  # the loss of this same F
        trees.append(tree)
        loss_curve.append(loss)

    return GbdtModel(trees=trees, init_log_odds=init, config=config,
                     feature_names=list(feature_names) if feature_names else None,
                     loss_curve=loss_curve)


def gbdt_raw(model: GbdtModel, X) -> np.ndarray:
    """Accumulated log-odds: init + eta * sum of tree outputs."""
    Xd = _dense(X)
    n = Xd.shape[0]
    idx = np.arange(n)
    out = np.full(n, model.init_log_odds)
    buf = np.zeros(n)
    for tree in model.trees:
        _tree_apply(tree, Xd, idx, buf)
        out += model.config.learning_rate * buf
    return out


def gbdt_predict(model: GbdtModel, X) -> np.ndarray:
    return (gbdt_raw(model, X) >= 0.0).astype(np.int64)
