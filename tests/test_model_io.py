import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from paylens.errors import CorruptError, NonFiniteError
from paylens.models import (GbdtConfig, MlpConfig, gbdt_raw, mlp_proba,
                            svm_decision, train_gbdt, train_linear_svm,
                            train_mlp)
from paylens.models.serialize import (decode, encode, read_container,
                                      write_container)
from paylens.vectorizer import ScalerStats

from oracles import PAYLOAD_ORACLES

REQUIRED = {"svm": ("weights", "bias", "C", "tol", "seed"),
            "mlp": ("W1", "b1", "W2", "b2", "config"),
            "gbdt": ("trees", "init_log_odds", "config")}
OPTIONAL = {"svm": {"epochs_run": 0, "primal_objective": 0.0, "duality_gap": 0.0},
            "mlp": {"loss_curve": []},
            "gbdt": {"loss_curve": []}}


def model_to_container(model) -> dict:
    """A model as a pipeline file nests it: {"kind": ..., "payload": ...}."""
    return encode(model, object)


def model_from_container(container: dict):
    return decode(container, object, f"payload for kind {container.get('kind')!r}")


def save_model(model, path):
    write_container(model_to_container(model), path)


def load_model(path):
    return model_from_container(read_container(path, "model"))


@pytest.fixture
def trained_models():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 4))
    y01 = (X[:, 0] > 0).astype(int)
    ypm = 2 * y01 - 1
    svm = train_linear_svm(X, ypm, C=1.0)
    mlp = train_mlp(X, y01, MlpConfig(hidden=4, epochs=15, seed=1))
    gbdt = train_gbdt(X, y01, GbdtConfig(rounds=5, max_depth=2))
    return X, [(svm, svm_decision), (mlp, mlp_proba), (gbdt, gbdt_raw)]


@pytest.fixture(scope="module")
def oracle_cases():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    Xs = sp.csr_matrix(np.where(np.abs(X) > 0.7, X, 0.0))
    y01 = (X[:, 0] + X[:, 1] > 0).astype(int)
    mlp_config = MlpConfig(hidden=5, epochs=12, seed=2)
    return {
        "svm-dense": train_linear_svm(X, 2 * y01 - 1),
        "svm-csr": train_linear_svm(Xs, 2 * y01 - 1, C=10.0),
        "svm-no-names": train_linear_svm(X, 2 * y01 - 1, C=0.1),
        "mlp-dense": train_mlp(X, y01, mlp_config),
        "mlp-csr": train_mlp(Xs, y01, mlp_config),
        "gbdt": train_gbdt(X, y01, GbdtConfig(rounds=6, max_depth=2)),
    }


def assert_same_fields(loaded, expected):
    for f in fields(expected):
        a, b = getattr(loaded, f.name), getattr(expected, f.name)
        assert type(a) is type(b), f.name
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestPayloadOracle:
    CASES = ["svm-dense", "svm-csr", "svm-no-names", "mlp-dense", "mlp-csr", "gbdt"]

    @pytest.mark.parametrize("case", CASES)
    def test_payload_text_matches_oracle(self, oracle_cases, case):
        model = oracle_cases[case]
        payload = model_to_container(model)["payload"]
        oracle = PAYLOAD_ORACLES[model.kind].to_payload(model)
        assert json.dumps(payload) == json.dumps(oracle)

    @pytest.mark.parametrize("case", CASES)
    def test_loaded_fields_match_oracle(self, oracle_cases, case):
        model = oracle_cases[case]
        container = json.loads(json.dumps(model_to_container(model)))
        loaded = model_from_container(container)
        assert type(loaded) is type(model)
        expected = PAYLOAD_ORACLES[model.kind].from_payload(container["payload"])
        assert_same_fields(loaded, expected)
        assert_same_fields(loaded, model)


class TestRoundTrip:
    def test_bit_identical_predictions(self, trained_models, tmp_path):
        X, models = trained_models
        for model, predict in models:
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.kind == model.kind
            assert np.array_equal(predict(model, X), predict(loaded, X))

    def test_container_shape(self, trained_models):
        _, models = trained_models
        container = model_to_container(models[0][0])
        assert list(container) == ["kind", "payload"]  # no magic or version
        assert container["kind"] == "svm"


class TestFailureModes:
    def _good_file(self, trained_models, tmp_path):
        _, models = trained_models
        path = tmp_path / "m.json"
        save_model(models[0][0], path)
        return path

    # a nested model has no header: the pipeline file's header is its version
    def test_wrong_magic(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["magic"] = "paylens-model"
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError, match="must be a kind and payload object"):
            load_model(path)

    def test_version_mismatch(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["version"] = 1
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError, match="must be a kind and payload object"):
            load_model(path)

    @pytest.mark.parametrize("value", [[1, 2], "svm", None])
    def test_model_not_an_object(self, value):
        with pytest.raises(CorruptError, match="bad model: 'payload' must be a "
                                               "kind and payload object"):
            decode(value, object, "model")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_never_written(self, trained_models, tmp_path, value):
        _, models = trained_models
        model = models[0][0]
        model.primal_objective = value
        path = tmp_path / "m.json"
        with pytest.raises(NonFiniteError):
            save_model(model, path)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(CorruptError):
            load_model(path)

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(CorruptError, match="unreadable model file"):
            load_model(path)

    def test_unknown_kind(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["kind"] = "perceptronic"
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError):
            load_model(path)

    @staticmethod
    def _container(trained_models, kind):
        _, models = trained_models
        model = next(m for m, _ in models if m.kind == kind)
        return json.loads(json.dumps(model_to_container(model)))

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, keys in REQUIRED.items() for key in keys])
    def test_missing_payload_field(self, trained_models, kind, key):
        container = self._container(trained_models, kind)
        del container["payload"][key]
        message = f"bad payload for kind '{kind}': .*'{key}'"
        with pytest.raises(CorruptError, match=message):
            model_from_container(container)

    def test_mistyped_payload_value(self, trained_models):
        container = self._container(trained_models, "svm")
        container["payload"]["bias"] = "x"
        with pytest.raises(CorruptError, match="bad payload for kind 'svm': "):
            model_from_container(container)

    # a value that int() or float() would coerce is still the wrong type
    @pytest.mark.parametrize("kind, key, value", [
        ("svm", "seed", 1.7), ("svm", "bias", True), ("svm", "epochs_run", "3"),
        ("gbdt", "init_log_odds", True),
    ])
    def test_coercible_scalar_rejected(self, trained_models, kind, key, value):
        container = self._container(trained_models, kind)
        container["payload"][key] = value
        with pytest.raises(CorruptError, match=f"bad payload for kind '{kind}': "
                                               f"'{key}' must be "):
            model_from_container(container)

    @pytest.mark.parametrize("kind, key, value", [
        ("gbdt", "learning_rate", "x"), ("gbdt", "rounds", 2.5),
        ("gbdt", "max_depth", True), ("mlp", "lr", None), ("mlp", "hidden", "4"),
    ])
    def test_mistyped_config_value(self, trained_models, kind, key, value):
        container = self._container(trained_models, kind)
        container["payload"]["config"][key] = value
        with pytest.raises(CorruptError,
                           match=f"bad payload for kind '{kind}': .*'{key}'"):
            model_from_container(container)

    _SPLIT = {"feature": 0, "threshold": 0.5, "left": {"value": 1.0}}

    @pytest.mark.parametrize("kind, key, value", [
        ("gbdt", "trees", [{"feature": "a"}]),
        ("gbdt", "trees", [_SPLIT]),
        ("gbdt", "trees", [{**_SPLIT, "feature": -1, "right": {"value": 0.0}}]),
        ("gbdt", "trees", [{**_SPLIT, "right": {"value": None}}]),
        ("gbdt", "trees", [{**_SPLIT, "right": {"value": 0.0, "extra": 1}}]),
        ("gbdt", "trees", [{**_SPLIT, "threshold": True, "right": {"value": 0.0}}]),
        ("gbdt", "trees", [[]]),
        ("gbdt", "trees", {"value": 1.0}),
        ("gbdt", "loss_curve", ["x", None]),
        ("gbdt", "loss_curve", 0.5),
        ("mlp", "loss_curve", [0.5, True]),
        ("svm", "bogus", 1), ("mlp", "bogus", 1), ("gbdt", "bogus", 1),
        ("svm", "weights", None), ("mlp", "b2", 0.5),
    ], ids=["feature-not-int", "no-right", "negative-feature", "null-leaf",
            "extra-key", "bool-threshold", "tree-not-object", "trees-not-list",
            "curve-not-numbers", "curve-not-list", "mlp-curve-bool",
            "svm-unknown-key", "mlp-unknown-key", "gbdt-unknown-key",
            "weights-null", "array-not-list"])
    def test_malformed_trees_or_curve(self, trained_models, kind, key, value):
        container = self._container(trained_models, kind)
        container["payload"][key] = value
        with pytest.raises(CorruptError, match=f"bad payload for kind '{kind}': "):
            model_from_container(container)

    # an array entry must be a number the way a scalar field's value must
    @pytest.mark.parametrize("kind, key, change", [
        ("svm", "weights", lambda w: ["1.5"] + w[1:]),
        ("svm", "weights", lambda w: w[:-1] + [True]),
        ("mlp", "W1", lambda W: W[:-1] + [W[-1][:-1] + ["0.5"]]),
        ("mlp", "W2", lambda W: [[False]] + W[1:]),
        ("mlp", "W1", lambda W: [[None] + W[0][1:]] + W[1:]),
        ("mlp", "b1", lambda b: b[:-1] + [{}]),
    ], ids=["svm-str", "svm-bool", "mlp-W1-str", "mlp-W2-bool",
            "mlp-W1-null", "mlp-b1-object"])
    def test_array_entry_not_a_number(self, trained_models, kind, key, change):
        container = self._container(trained_models, kind)
        container["payload"][key] = change(container["payload"][key])
        with pytest.raises(CorruptError, match=f"bad payload for kind '{kind}': "
                                               f"'{key}' holds a non-number"):
            model_from_container(container)

    def test_scaler_entry_not_a_number(self):
        with pytest.raises(CorruptError, match="'mean' holds a non-number"):
            decode({"mean": ["1.5", True], "std": [0, 1]}, ScalerStats, "scaler")
        assert decode({"mean": [1.5, 2], "std": [0, 1]}, ScalerStats,
                      "scaler").mean.tolist() == [1.5, 2.0]

    @pytest.mark.parametrize("kind", ["mlp", "gbdt"])
    def test_container_config_is_a_copy(self, trained_models, kind):
        _, models = trained_models
        model = next(m for m, _ in models if m.kind == kind)
        before = vars(model.config).copy()
        model_to_container(model)["payload"]["config"]["seed"] = 99
        assert vars(model.config) == before

    @pytest.mark.parametrize("payload", [[1, 2], "x", None],
                             ids=["list", "string", "null"])
    def test_payload_not_an_object(self, trained_models, payload):
        container = self._container(trained_models, "mlp")
        container["payload"] = payload
        with pytest.raises(CorruptError, match="bad payload for kind 'mlp': "):
            model_from_container(container)

    @pytest.mark.parametrize("kind", sorted(OPTIONAL))
    def test_optional_fields_default(self, trained_models, kind):
        container = self._container(trained_models, kind)
        for key in OPTIONAL[kind]:
            del container["payload"][key]
        assert set(container["payload"]) == set(REQUIRED[kind])
        loaded = model_from_container(container)
        for key, default in OPTIONAL[kind].items():
            assert getattr(loaded, key) == default
        expected = PAYLOAD_ORACLES[kind].from_payload(container["payload"])
        assert_same_fields(loaded, expected)
