import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from paylens.corpus import group_by_user
from paylens.errors import SingleClass
from paylens.labels import build_labeled_dataset
from paylens.models import GbdtConfig, gbdt, gbdt_predict, gbdt_raw, train_gbdt
from paylens.models.serialize import encode
from paylens.pipeline import build_dataset
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.vectorizer import (assemble_feature_matrix, count_transform,
                                fit_vocabulary, tfidf_transform)

from oracles import gbdt_bin_columns, gbdt_build_tree, gbdt_raw_oracle


def noisy_data(n=120, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    logits = X[:, 0] * 2.0 - X[:, 1] + 0.5 * rng.standard_normal(n)
    y = (logits > 0).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return X, y


class TestTrainGbdt:
    def test_single_stump_separates(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = train_gbdt(X, y, GbdtConfig(rounds=1, max_depth=1))
        assert np.array_equal(gbdt_predict(model, X), y)

    def test_loss_monotone_nonincreasing(self):
        X, y = noisy_data()
        model = train_gbdt(X, y, GbdtConfig(rounds=50, max_depth=3))
        diffs = np.diff(model.loss_curve)
        assert np.all(diffs <= 0.0)
        assert len(model.loss_curve) == 51  # init plus one per round

    @pytest.mark.parametrize("kwargs, message", [
        ({"learning_rate": 0.0}, "'learning_rate' must be positive, got 0.0"),
        ({"rounds": -7}, "'rounds' must be positive, got -7"),
        ({"n_bins": 0}, "'n_bins' must be positive, got 0"),
    ], ids=["zero_learning_rate", "negative_rounds", "zero_bins"])
    def test_config_not_positive_raises(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GbdtConfig(**kwargs)
        GbdtConfig(seed=-1)  # the seed is the one field that may be negative

    def test_tree_count_equals_rounds(self):
        X, y = noisy_data(40)
        model = train_gbdt(X, y, GbdtConfig(rounds=17, max_depth=2))
        assert len(model.trees) == 17

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            train_gbdt(np.eye(3), np.array([0, 0, 0]), GbdtConfig(rounds=1))

    def test_n_inputs_is_one_past_the_largest_split_feature(self):
        X, y = noisy_data(60)
        model = train_gbdt(X, y, GbdtConfig(rounds=10, max_depth=3))
        stack, largest = list(model.trees), -1
        while stack:
            node = stack.pop()
            if "feature" in node:
                largest = max(largest, node["feature"])
                stack += [node["left"], node["right"]]
        assert largest >= 0 and model.n_inputs == largest + 1
        leaves_only = train_gbdt(np.ones((4, 3)), np.array([0, 1, 0, 1]),
                                 GbdtConfig(rounds=2))
        assert leaves_only.n_inputs == 0

    @pytest.mark.parametrize("tree", [
        {"value": "x"},
        {"feature": -1, "threshold": 0.5, "left": {"value": 1.0},
         "right": {"value": 0.0}},
        {"feature": 0, "threshold": 0.5, "left": {"value": 1.0},
         "right": {"value": float("nan")}},
    ], ids=["leaf-not-number", "negative-feature", "nan-leaf"])
    def test_malformed_node_raises_at_construction(self, tree):
        model = train_gbdt(*noisy_data(40), GbdtConfig(rounds=1))
        with pytest.raises(TypeError, match="'trees' holds a malformed node"):
            gbdt.GbdtModel(trees=[tree], init_log_odds=0.0, config=model.config)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            train_gbdt(np.eye(2), np.array([-1, 1]), GbdtConfig(rounds=1))

    def test_deterministic(self):
        X, y = noisy_data(60)
        cfg = GbdtConfig(rounds=10, max_depth=2, seed=5)
        one = train_gbdt(X, y, cfg)
        two = train_gbdt(X, y, cfg)
        assert encode(one) == encode(two)

    def test_sparse_input(self):
        X, y = noisy_data(60)
        dense = train_gbdt(X, y, GbdtConfig(rounds=8, max_depth=2))
        sparse = train_gbdt(sp.csr_matrix(X), y, GbdtConfig(rounds=8, max_depth=2))
        assert np.array_equal(gbdt_raw(dense, X), gbdt_raw(sparse, X))

    def test_improves_over_prior(self):
        X, y = noisy_data(200)
        model = train_gbdt(X, y, GbdtConfig(rounds=40, max_depth=3))
        assert model.loss_curve[-1] < model.loss_curve[0] * 0.7
        assert np.mean(gbdt_predict(model, X) == y) >= 0.9

    def test_depth_respected(self):
        X, y = noisy_data(80)
        model = train_gbdt(X, y, GbdtConfig(rounds=3, max_depth=2))

        def depth(node):
            if "value" in node:
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        assert all(depth(t) <= 2 for t in model.trees)

    def test_imbalanced_prior(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 3))
        y = np.array([1] * 10 + [0] * 40)
        model = train_gbdt(X, y, GbdtConfig(rounds=1))
        expected = np.log(0.2 / 0.8)
        assert model.init_log_odds == pytest.approx(expected)


def _leaf_rows(node, Xd, idx):
    if "value" in node:
        return [(node, idx)]
    mask = Xd[idx, node["feature"]] < node["threshold"]
    return (_leaf_rows(node["left"], Xd, idx[mask])
            + _leaf_rows(node["right"], Xd, idx[~mask]))


def reference_gbdt(monkeypatch, X, y, config):
    """train_gbdt with the split search swapped for the per-node oracle."""
    Xd = X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)
    codes, cuts_list = gbdt_bin_columns(Xd, config.n_bins)

    def grow(candidates, g, h, max_depth):
        rows = np.arange(g.size)
        tree = gbdt_build_tree(codes, cuts_list, g, h, rows, 0, max_depth,
                               config.n_bins)
        return tree, _leaf_rows(tree, Xd, rows)

    with monkeypatch.context() as m:
        m.setattr(gbdt, "_grow_tree", grow)
        return train_gbdt(X, y, config)


def _synth_tfidf():
    spec = SynthSpec(n_users_per_class=40, posts_per_user=(6, 6),
                     p_signal=0.5, p_noise=0.1, seed=4)
    result = generate_synthetic_corpus(spec)
    corpus = group_by_user(result.transactions)
    dataset = build_dataset(corpus, build_labeled_dataset(
        corpus, "politics", political_labels=dict(result.labels)))
    vocab = fit_vocabulary(dataset.posts, (1, 2), min_df=2)
    return tfidf_transform(count_transform(dataset.posts, vocab), vocab), dataset


def tfidf_data():
    X, dataset = _synth_tfidf()
    return X, dataset.labels01


def tfidf_engineered_data():
    """tf-idf CSR with the z-scored engineered columns, as the pipeline builds it."""
    X, dataset = _synth_tfidf()
    X, _ = assemble_feature_matrix(X, dataset.engineered)
    assert sp.issparse(X) and X.format == "csr" and X.min() < 0
    return X, dataset.labels01


def quantile_data():
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal(150), rng.integers(0, 3, 150)])
    assert np.unique(X[:, 0]).size > 64  # cut at quantiles, not midpoints
    return X, (X[:, 0] + 0.5 * X[:, 1] + rng.standard_normal(150) > 0.5).astype(int)


def constant_and_negative_data():
    rng = np.random.default_rng(3)
    raw = np.column_stack([np.full(60, 4.0), rng.poisson(2.0, 60),
                           np.zeros(60), rng.standard_normal(60)])
    std = raw.std(axis=0)
    X = (raw - raw.mean(axis=0)) / np.where(std > 0, std, 1.0)  # z-scored
    return X, (X[:, 1] - X[:, 3] + rng.standard_normal(60) > 0).astype(int)


def sparse_signed_data():
    """Mostly-zero CSR columns with stored values on both sides of zero."""
    rng = np.random.default_rng(6)
    X = rng.integers(-3, 4, (90, 4)) * (rng.random((90, 4)) < 0.3)
    X = X + 0.1 * rng.standard_normal((90, 4)) * (X != 0)
    return sp.csr_matrix(X), (X[:, 0] - X[:, 1] + rng.standard_normal(90) > 0).astype(int)


def duplicated_data():
    X, y = noisy_data(80, d=3, seed=5)
    return np.column_stack([X[:, 1], X[:, 0], X[:, 0], X[:, 2]]), y


@pytest.mark.parametrize("make", [noisy_data, tfidf_data, tfidf_engineered_data,
                                  quantile_data, constant_and_negative_data,
                                  sparse_signed_data, duplicated_data])
def test_trees_match_per_node_oracle(monkeypatch, make):
    X, y = make()
    Xd = X.toarray() if sp.issparse(X) else X
    for n_bins in (64, 10):  # the same cuts as dense binning, bit for bit
        threshold = gbdt._split_candidates(sp.csc_matrix(X), n_bins)[2]
        _, cuts_list = gbdt_bin_columns(Xd, n_bins)
        assert threshold.tobytes() == np.concatenate([np.empty(0), *cuts_list]).tobytes()
    for config in (GbdtConfig(rounds=25, max_depth=3),
                   GbdtConfig(rounds=8, max_depth=5, n_bins=10)):
        got = json.dumps(encode(train_gbdt(X, y, config)))
        want = json.dumps(encode(reference_gbdt(monkeypatch, X, y, config)))
        assert got == want
        assert '"feature"' in got  # the trees do split


@pytest.mark.parametrize("make", [noisy_data, tfidf_engineered_data,
                                  constant_and_negative_data, sparse_signed_data])
def test_raw_matches_dense_apply_oracle(make):
    X, y = make()
    model = train_gbdt(X, y, GbdtConfig(rounds=20, max_depth=4))
    rows = sp.csr_matrix(X)[::-1]  # rows the model did not see in this order
    for data in (X, rows, sp.csr_matrix((3, X.shape[1]))):
        assert gbdt_raw(model, data).tobytes() == gbdt_raw_oracle(model, data).tobytes()


def test_duplicate_columns_split_on_lower_index():
    X, y = duplicated_data()
    model = train_gbdt(X, y, GbdtConfig(rounds=10, max_depth=3))

    def features(node):
        if "value" in node:
            return set()
        return {node["feature"]} | features(node["left"]) | features(node["right"])

    used = set().union(*map(features, model.trees))
    assert 1 in used and 2 not in used


def test_all_constant_columns_give_single_leaves(monkeypatch):
    X, y = np.ones((10, 3)), np.array([0, 1] * 5)
    config = GbdtConfig(rounds=3)
    model = train_gbdt(X, y, config)
    assert all("value" in tree for tree in model.trees)
    want = reference_gbdt(monkeypatch, X, y, config)
    assert encode(model) == encode(want)


def test_equal_cuts_tie_to_the_lower_feature():
    # Both columns cut the rows into the same halves. Zero falls right of
    # column 0's cut and left of column 1's, so column 0's left sums add the
    # left rows while column 1's subtract the right rows from the node total:
    # equal gains in exact arithmetic, not always in floats.
    def added(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def gain(gl, hl, gs, hs):
        def score(a, b):
            return a ** 2 / (b + gbdt._LAMBDA)
        return score(gl, hl) + score(gs - gl, hs - hl) - score(gs, hs)

    n, left = 12, np.arange(12) < 5
    X = np.column_stack([-3.0 * left, 2.0 * ~left])
    candidates = gbdt._split_candidates(sp.csc_matrix(X), 64)
    codes, cuts_list = gbdt_bin_columns(X, 64)
    higher_wins_in_floats = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g, h = rng.standard_normal(n) + 2.0 * left, rng.random(n)
        gs, hs = float(g.sum()), float(h.sum())
        gain0 = gain(added(g[left]), added(h[left]), gs, hs)
        gain1 = gain(gs - added(g[~left]), hs - added(h[~left]), gs, hs)
        higher_wins_in_floats += gain1 > gain0
        tree, _ = gbdt._grow_tree(candidates, g, h, max_depth=1)
        assert (tree["feature"], tree["threshold"]) == (0, -1.5)
        oracle = gbdt_build_tree(codes, cuts_list, g, h, np.arange(n), 0, 1, 64)
        assert oracle["feature"] == 0
    assert higher_wins_in_floats > 0


def test_wide_sparse_fit_and_predict_never_densify():
    n, d, nnz = 2000, 20000, 40000
    rng = np.random.default_rng(0)
    X = sp.csr_matrix((rng.random(nnz), (rng.integers(0, n, nnz),
                                         rng.integers(0, d, nnz))), shape=(n, d))
    y = (np.asarray(X[:, :200].sum(axis=1)).ravel() > 0).astype(int)
    tracemalloc.start()
    try:
        model = train_gbdt(X, y, GbdtConfig(rounds=3, max_depth=3))
        pred = gbdt_predict(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.shape == (n,) and '"feature"' in json.dumps(model.trees)
    assert peak < n * d * 8 / 10  # a dense copy alone would take 320 MB
