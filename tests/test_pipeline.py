import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from paylens import pipeline
from paylens.cli import main
from paylens.corpus import group_by_user
from paylens.errors import CorruptError
from paylens.evaluation import cross_validate, stratified_kfold
from paylens.features import aggregate_user_features, detect_content_features
from paylens.labels import build_labeled_dataset
from paylens.models.serialize import decode, encode
from paylens.pipeline import (PipelineConfig, build_dataset, featurization_key,
                              fit_features, fit_model, fit_pipeline,
                              load_pipeline, pipeline_predict,
                              pipeline_transform, save_pipeline)
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import tokenize_post
from paylens.vectorizer import count_transform, fit_vocabulary

from conftest import synth_dataset


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset()


class TestFitPipeline:
    def test_train_rows_only(self, dataset):
        half = np.arange(0, len(dataset), 2)  # every other row, both classes
        fitted = fit_pipeline(dataset, half, PipelineConfig(min_df=1, seed=0))
        assert fitted.vocab.n_documents == len(half)

    def test_feature_names_cover_matrix(self, dataset):
        idx = np.arange(len(dataset))
        fitted = fit_pipeline(dataset, idx, PipelineConfig(min_df=1, seed=0))
        X = pipeline_transform(fitted, dataset, idx)
        assert X.shape[1] == len(fitted.feature_names)
        assert fitted.feature_names[-1] == "avg_len_tokens"

    def test_without_engineered_features(self, dataset):
        idx = np.arange(len(dataset))
        config = PipelineConfig(min_df=1, use_engineered=False, seed=0)
        fitted = fit_pipeline(dataset, idx, config)
        X = pipeline_transform(fitted, dataset, idx)
        assert X.shape[1] == len(fitted.vocab)

    def test_normalized_counts_have_unit_rows(self, dataset):
        idx = np.arange(len(dataset))
        config = PipelineConfig(vectorizer="count", normalize_counts=True,
                                use_engineered=False, min_df=1, seed=0)
        fitted = fit_pipeline(dataset, idx, config)
        X = pipeline_transform(fitted, dataset, idx)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0)

    def test_raw_counts_by_default(self, dataset):
        idx = np.arange(len(dataset))
        config = PipelineConfig(vectorizer="count", use_engineered=False,
                                min_df=1, seed=0)
        fitted = fit_pipeline(dataset, idx, config)
        X = pipeline_transform(fitted, dataset, idx)
        assert X.max() > 1.0  # raw occurrence counts, not normalized

    @pytest.mark.parametrize("classifier", ["svm", "mlp", "gbdt"])
    def test_every_classifier_learns_strong_signal(self, dataset, classifier):
        config = PipelineConfig(
            classifier=classifier, min_df=1, seed=0,
            mlp_overrides=(("epochs", 300), ("hidden", 16), ("lr", 0.1)),
            gbdt_overrides=(("rounds", 30), ("max_depth", 2)))
        idx = np.arange(len(dataset))
        fitted = fit_pipeline(dataset, idx, config)
        X = pipeline_transform(fitted, dataset, idx)
        accuracy = np.mean(pipeline_predict(fitted, X) == dataset.labels01)
        assert accuracy >= 0.9

    @pytest.mark.parametrize("classifier", ["svm", "mlp", "gbdt"])
    def test_fit_model_leaves_shared_matrix_unchanged(self, dataset, classifier):
        config = PipelineConfig(
            classifier=classifier, min_df=1, seed=0,
            mlp_overrides=(("epochs", 5), ("hidden", 4)),
            gbdt_overrides=(("max_depth", 2), ("rounds", 5)))
        idx = np.arange(len(dataset))
        features, X = fit_features(dataset, idx, config)
        assert features.model is None
        before = [a.copy() for a in (X.data, X.indices, X.indptr)]
        fit_model(X, dataset.labels01, config)
        after = (X.data, X.indices, X.indptr)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(before, after))

    # a changed value for each PipelineConfig field
    CHANGED = {"vectorizer": "tfidf", "n_range": (1, 1), "min_df": 3,
               "use_engineered": False, "include_actor_pct": True,
               "normalize_counts": True, "classifier": "gbdt", "C": 10.0,
               "svm_tol": 0.01, "mlp_overrides": (("hidden", 4),),
               "gbdt_overrides": (("rounds", 3),), "seed": 5}

    @pytest.mark.parametrize("field", [f.name for f in fields(PipelineConfig)])
    def test_equal_featurization_keys_share_matrices(self, dataset, field):
        # cross_validate fits features once per key: a field fit_features
        # reads but the key leaves out would share the wrong matrices
        assert field in self.CHANGED, f"no changed value for {field!r}"
        base = PipelineConfig(vectorizer="count", min_df=1)
        other = replace(base, **{field: self.CHANGED[field]})
        if featurization_key(other) != featurization_key(base):
            return
        idx = np.arange(len(dataset))
        (one, X1), (two, X2) = (fit_features(dataset, idx, c)
                                for c in (base, other))
        assert one.feature_names == two.feature_names
        assert all(np.array_equal(a, b) for a, b in zip(
            (X1.indptr, X1.indices, X1.data), (X2.indptr, X2.indices, X2.data)))

    def test_feature_layout_mismatch_rejected(self, dataset):
        # the dataset's engineered rows have no pct_as_actor column
        config = PipelineConfig(min_df=1, include_actor_pct=True)
        with pytest.raises(ValueError, match="feature names for"):
            fit_features(dataset, np.arange(len(dataset)), config)

    def test_trained_model_checked_against_the_config(self, dataset,
                                                       monkeypatch):
        config = PipelineConfig(min_df=1, C=1.0)
        # the classifier is trained under another C than the config's
        monkeypatch.setattr(pipeline, "fit_model", lambda X, y01, _:
                            fit_model(X, y01, replace(config, C=2.0)))
        with pytest.raises(ValueError, match="model C mismatch"):
            fit_pipeline(dataset, np.arange(len(dataset)), config)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown vectorizer 'hashing'"):
            PipelineConfig(vectorizer="hashing")
        with pytest.raises(ValueError, match="unknown classifier 'forest'"):
            PipelineConfig(classifier="forest")


class TestBuildDatasetSharing:
    @pytest.fixture(scope="class")
    def built(self):
        result = generate_synthetic_corpus(
            SynthSpec(n_users_per_class=40, posts_per_user=(6, 10), seed=0))
        corpus = group_by_user(result.transactions)
        labeled = build_labeled_dataset(corpus, "politics",
                                        political_labels=dict(result.labels))
        return corpus, labeled, build_dataset(corpus, labeled)

    def test_users_with_a_note_in_common_share_its_post(self, built):
        _, _, dataset = built
        by_note, users_by_note = {}, {}
        for i, posts in enumerate(dataset.posts):
            for post in posts:
                assert by_note.setdefault(post.raw, post) is post
                users_by_note.setdefault(post.raw, set()).add(i)
        assert max(map(len, users_by_note.values())) >= 2

    def test_same_values_as_a_fresh_post_for_every_post(self, built):
        corpus, labeled, dataset = built
        fresh, rows = [], []
        for lu in labeled:
            profile = corpus.users[lu.user_id]
            posts = [tokenize_post(t.note) for t, _ in profile.posts]
            counts = [detect_content_features(p) for p in posts]
            fresh.append(tuple(posts))
            rows.append(aggregate_user_features(profile, posts, counts))
        assert dataset.posts == fresh
        assert np.array_equal(dataset.engineered, np.stack(rows))
        for n_range in ((1, 1), (1, 2), (2, 3)):
            vocab = fit_vocabulary(dataset.posts, n_range=n_range)
            fresh_vocab = fit_vocabulary(fresh, n_range=n_range)
            assert (vocab.terms, vocab.df) == (fresh_vocab.terms, fresh_vocab.df)
            counts, fresh_counts = (count_transform(dataset.posts, vocab),
                                    count_transform(fresh, fresh_vocab))
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(counts, part),
                                      getattr(fresh_counts, part))


class TestConfigSerialization:
    def test_round_trip(self):
        config = PipelineConfig(vectorizer="count", n_range=(1, 3), min_df=3,
                                classifier="gbdt", C=0.5,
                                gbdt_overrides=(("rounds", 9),), seed=5)
        assert config.gbdt_overrides == {"rounds": 9}
        assert decode(encode(config), PipelineConfig, "config") == config

    def test_encoded_form(self):
        config = PipelineConfig(classifier="mlp", seed=3,
                                mlp_overrides={"lr": 0.5, "hidden": 8},
                                gbdt_overrides=(("rounds", 4), ("max_depth", 2)))
        assert encode(config) == {
            "vectorizer": "tfidf", "n_range": [1, 2], "min_df": 2,
            "use_engineered": True, "include_actor_pct": False,
            "normalize_counts": False, "classifier": "mlp", "C": 1.0,
            "svm_tol": 0.001, "mlp_overrides": {"hidden": 8, "lr": 0.5},
            "gbdt_overrides": {"max_depth": 2, "rounds": 4}, "seed": 3}
        assert list(encode(config)["mlp_overrides"]) == ["hidden", "lr"]

    def test_valid_override_values_kept_as_given(self):
        config = PipelineConfig(mlp_overrides={"lr": 1, "epochs": 5},
                                gbdt_overrides={"learning_rate": 0.5})
        assert config.mlp_overrides == {"epochs": 5, "lr": 1}
        assert type(config.mlp_overrides["lr"]) is int

    def test_int_for_float_field_stored_as_float(self):
        config = PipelineConfig(C=1, svm_tol=0, n_range=[1, 3])
        assert type(config.C) is float and type(config.svm_tol) is float
        assert config.n_range == (1, 3)
        assert json.dumps(encode(config)["C"]) == "1.0"

    def test_unsorted_overrides_round_trip(self):
        config = PipelineConfig(
            classifier="gbdt",
            mlp_overrides={"lr": 0.1, "epochs": 5},
            gbdt_overrides=(("rounds", 10), ("max_depth", 2)))
        assert list(config.mlp_overrides.items()) == [("epochs", 5), ("lr", 0.1)]
        assert list(config.gbdt_overrides.items()) == [("max_depth", 2),
                                                       ("rounds", 10)]
        assert decode(encode(config), PipelineConfig, "config") == config

    @pytest.mark.parametrize("kwargs, message", [
        ({"mlp_overrides": 5}, "mlp_overrides must map MlpConfig fields"),
        ({"gbdt_overrides": ["rounds"]}, "gbdt_overrides must map GbdtConfig"),
        ({"gbdt_overrides": {"bogus": 1}},
         r"bad gbdt_overrides: 'gbdt_overrides' has unknown keys \['bogus'\]"),
        ({"mlp_overrides": (("hidden", 4), ("rounds", 3))},
         r"bad mlp_overrides: 'mlp_overrides' has unknown keys \['rounds'\]"),
        ({"gbdt_overrides": {"rounds": "x"}}, "'rounds' must be int, got 'x'"),
        ({"gbdt_overrides": {"rounds": 3.0}}, "'rounds' must be int, got 3.0"),
        ({"mlp_overrides": {"lr": True}}, "'lr' must be float, got True"),
        ({"seed": None}, "seed must be int, got None"),
        ({"min_df": 1.7}, "min_df must be int, got 1.7"),
        ({"C": "1"}, "C must be float, got '1'"),
        ({"svm_tol": False}, "svm_tol must be float, got False"),
        ({"normalize_counts": 1}, "normalize_counts must be bool, got 1"),
        ({"n_range": (1, "2")}, r"n_range must be a pair of ints, got \(1, '2'\)"),
        ({"n_range": (1, 2, 3)}, "n_range must be a pair of ints"),
        ({"C": -5.0}, r"C must be positive, got -5\.0"),
        ({"C": 0}, r"C must be positive, got 0\.0"),
    ], ids=["mlp_int", "gbdt_list", "gbdt_unknown_key", "mlp_gbdt_key",
            "gbdt_str_value", "gbdt_float_for_int", "mlp_bool_for_float",
            "seed_null", "min_df_float", "C_str", "svm_tol_bool",
            "normalize_counts_int", "n_range_str", "n_range_triple",
            "C_negative", "C_zero"])
    def test_bad_overrides_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def saved_pipelines(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipelines")
    paths = {}
    for classifier in ("svm", "mlp", "gbdt"):
        config = PipelineConfig(
            classifier=classifier, min_df=1, seed=0,
            mlp_overrides=(("epochs", 5), ("hidden", 4)),
            gbdt_overrides=(("max_depth", 2), ("rounds", 5)))
        paths[classifier] = out / f"{classifier}.json"
        save_pipeline(fit_pipeline(dataset, np.arange(len(dataset)), config),
                      str(paths[classifier]))
    return paths


class TestPipelineArtifact:
    @pytest.mark.parametrize("classifier, path, change", [
        ("svm", ("vocab", "df"), lambda df: df[:-1]),
        ("svm", ("vocab", "terms"), lambda terms: [5] + terms[1:]),
        ("svm", ("vocab", "terms"), lambda terms: terms[1:2] + terms[1:]),
        ("svm", ("vocab", "df"), lambda df: [1.5] + df[1:]),
        ("svm", ("vocab", "n_documents"), str),
        ("svm", ("class_names",), lambda names: names[:1]),
        ("svm", ("scaler", "mean"), lambda mean: mean[:-1]),
        ("svm", ("config",), lambda config: {**config, "bogus": 1}),
        ("mlp", ("model", "payload", "config"), lambda c: {**c, "bogus": 1}),
        ("gbdt", ("model", "payload", "config"), lambda c: {**c, "bogus": 1}),
        ("mlp", ("config", "mlp_overrides"), lambda o: {**o, "epochs": -1}),
        ("svm", ("config", "classifier"), lambda kind: "mlp"),
        ("gbdt", ("config", "classifier"), lambda kind: "svm"),
        ("svm", ("config", "n_range"), lambda n_range: [1, 1]),
        ("svm", ("config", "min_df"), lambda min_df: min_df + 1),
        ("svm", ("config", "use_engineered"), lambda used: False),
        ("svm", ("config", "include_actor_pct"), lambda included: True),
        ("svm", ("config", "C"), lambda C: -1),
        ("gbdt", ("model", "payload", "config", "learning_rate"), lambda r: -0.1),
        ("gbdt", ("model", "payload", "config", "learning_rate"), lambda r: 0.0),
        ("gbdt", ("model", "payload", "config", "learning_rate"), lambda r: 0.5),
        ("gbdt", ("model", "payload", "config", "rounds"), lambda rounds: -7),
        ("svm", ("model", "payload", "C"), lambda C: C * 2),
        ("mlp", ("model", "payload", "config", "hidden"), lambda h: h + 1),
    ], ids=["df_short", "term_not_str", "term_repeated", "df_not_int",
            "n_documents_str", "one_class_name", "scaler_mean_short",
            "config_unknown_key", "mlp_config_unknown_key",
            "gbdt_config_unknown_key", "config_override_out_of_range",
            "svm_model_mlp_config", "gbdt_model_svm_config",
            "config_n_range_not_the_vocabulary_s",
            "config_min_df_not_the_vocabulary_s",
            "engineered_off_with_a_scaler", "actor_pct_on_without_its_column",
            "config_C_not_positive", "gbdt_learning_rate_negative",
            "gbdt_learning_rate_zero", "gbdt_learning_rate_not_the_config_s",
            "gbdt_rounds_negative", "svm_C_not_the_config_s",
            "mlp_hidden_not_the_config_s"])
    def test_corrupt_pipeline_rejected(self, saved_pipelines, tmp_path, capsys,
                                       classifier, path, change):
        container = json.loads(saved_pipelines[classifier].read_text())
        *parents, key = path
        node = container["payload"]
        for parent in parents:
            node = node[parent]
        node[key] = change(node[key])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(container))
        with pytest.raises(CorruptError, match="bad pipeline payload"):
            load_pipeline(str(bad))
        assert main(["report-coefficients", "--model", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: bad pipeline payload")
        assert "Traceback" not in err

    @pytest.mark.parametrize("classifier", ["svm", "mlp", "gbdt"])
    def test_each_term_stored_once(self, saved_pipelines, classifier):
        strings = Counter()
        stack = [json.loads(saved_pipelines[classifier].read_text())]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                strings[node] += 1
            elif isinstance(node, (list, dict)):
                stack.extend(node.values() if isinstance(node, dict) else node)
        terms = load_pipeline(str(saved_pipelines[classifier])).vocab.terms
        assert terms and {strings[t] for t in terms} == {1}

    @pytest.mark.parametrize("past_width, loads", [(-1, True), (0, False),
                                                    (10 ** 6, False)])
    def test_gbdt_split_beyond_feature_names(self, saved_pipelines, tmp_path,
                                             past_width, loads):
        container = json.loads(saved_pipelines["gbdt"].read_text())
        payload = container["payload"]
        root = payload["model"]["payload"]["trees"][0]
        assert "feature" in root  # a split, not a leaf
        width = len(payload["vocab"]["terms"]) + len(payload["scaler"]["mean"])
        root["feature"] = width + past_width
        path = tmp_path / "gbdt.json"
        path.write_text(json.dumps(container))
        if loads:
            fitted = load_pipeline(str(path))
            assert fitted.model.trees[0]["feature"] == len(fitted.feature_names) - 1
            return
        with pytest.raises(CorruptError, match="bad pipeline payload: a model "
                                               "reading .* inputs for"):
            load_pipeline(str(path))

    @pytest.mark.parametrize("classifier", ["svm", "mlp", "gbdt"])
    def test_round_trip_is_bit_identical(self, dataset, tmp_path, classifier):
        config = PipelineConfig(
            classifier=classifier, min_df=1, seed=0,
            mlp_overrides=(("epochs", 20), ("hidden", 4)),
            gbdt_overrides=(("max_depth", 2), ("rounds", 10)))
        idx = np.arange(len(dataset))
        fitted = fit_pipeline(dataset, idx, config)
        path = tmp_path / "pipeline.json"
        save_pipeline(fitted, str(path))
        loaded = load_pipeline(str(path))
        X = pipeline_transform(fitted, dataset, idx)
        X_loaded = pipeline_transform(loaded, dataset, idx)
        assert (X != X_loaded).nnz == 0
        assert np.array_equal(pipeline_predict(fitted, X),
                              pipeline_predict(loaded, X_loaded))
        again = tmp_path / "again.json"
        save_pipeline(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("gbdt_overrides", {"bogus": 1}), ("mlp_overrides", 5),
        ("gbdt_overrides", {"rounds": "x"}), ("seed", None),
        ("use_engineered", "no"), ("min_df", 1.7), ("n_range", [1]),
    ], ids=["unknown_key", "not_a_mapping", "bad_value_type", "seed_null",
            "bool_field_str", "int_field_float", "n_range_not_a_pair"])
    def test_bad_overrides_are_corrupt(self, dataset, tmp_path, key, value):
        fitted = fit_pipeline(dataset, np.arange(len(dataset)),
                              PipelineConfig(min_df=1, seed=0))
        path = tmp_path / "pipeline.json"
        save_pipeline(fitted, str(path))
        container = json.loads(path.read_text())
        container["payload"]["config"][key] = value
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError, match=key):
            load_pipeline(str(path))

    @pytest.mark.parametrize("n_range", [[0, 5], [2, 1], [1, 4]])
    def test_bad_vocabulary_n_range_is_corrupt(self, dataset, tmp_path, n_range):
        fitted = fit_pipeline(dataset, np.arange(len(dataset)),
                              PipelineConfig(min_df=1, seed=0))
        path = tmp_path / "pipeline.json"
        save_pipeline(fitted, str(path))
        container = json.loads(path.read_text())
        container["payload"]["vocab"]["n_range"] = n_range
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError, match="n_range must satisfy"):
            load_pipeline(str(path))


class TestGeneratorRecoverability:
    def test_accuracy_decays_toward_chance(self):
        # as p_signal approaches p_noise the classes become indistinguishable
        points = [(0.60, 0.10), (0.30, 0.20), (0.22, 0.20)]
        means = []
        for p_signal, p_noise in points:
            ds = synth_dataset(seed=31, n=150, p_signal=p_signal,
                               p_noise=p_noise, posts=(8, 8))
            plan = stratified_kfold(ds.labels01.tolist(), k=5, seed=31)
            cv = cross_validate(ds, plan, [PipelineConfig(seed=31)])[0]
            means.append(cv.mean_accuracy)
        assert means[0] > means[1] > means[2]
        assert abs(means[2] - 0.5) <= 0.12
