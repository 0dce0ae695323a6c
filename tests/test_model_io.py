import json

import numpy as np
import pytest

from paylens.errors import CorruptError, VersionError
from paylens.models import (GbdtConfig, MlpConfig, gbdt_raw, mlp_proba,
                            svm_decision, train_gbdt, train_linear_svm,
                            train_mlp)
from paylens.models.serialize import (MAGIC, model_from_container,
                                      model_to_container, read_container,
                                      write_container)


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
    svm = train_linear_svm(X, ypm, C=1.0, feature_names=list("abcd"))
    mlp = train_mlp(X, y01, MlpConfig(hidden=4, epochs=15, seed=1))
    gbdt = train_gbdt(X, y01, GbdtConfig(rounds=5, max_depth=2))
    return X, [(svm, svm_decision), (mlp, mlp_proba), (gbdt, gbdt_raw)]


class TestRoundTrip:
    def test_bit_identical_predictions(self, trained_models, tmp_path):
        X, models = trained_models
        for model, predict in models:
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.kind == model.kind
            assert np.array_equal(predict(model, X), predict(loaded, X))

    def test_feature_names_survive(self, trained_models, tmp_path):
        _, models = trained_models
        svm = models[0][0]
        save_model(svm, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json").feature_names == list("abcd")

    def test_container_shape(self, trained_models):
        _, models = trained_models
        container = model_to_container(models[0][0])
        assert container["magic"] == MAGIC
        assert container["version"] == 1
        assert container["kind"] == "svm"


class TestFailureModes:
    def _good_file(self, trained_models, tmp_path):
        _, models = trained_models
        path = tmp_path / "m.json"
        save_model(models[0][0], path)
        return path

    def test_wrong_magic(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["magic"] = "something-else"
        path.write_text(json.dumps(container))
        with pytest.raises(VersionError):
            load_model(path)

    def test_version_mismatch(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["version"] = 99
        path.write_text(json.dumps(container))
        with pytest.raises(VersionError):
            load_model(path)

    def test_truncated_file(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(CorruptError):
            load_model(path)

    def test_unknown_kind(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        container["kind"] = "perceptronic"
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError):
            load_model(path)

    def test_missing_payload_field(self, trained_models, tmp_path):
        path = self._good_file(trained_models, tmp_path)
        container = json.loads(path.read_text())
        del container["payload"]["weights"]
        path.write_text(json.dumps(container))
        with pytest.raises(CorruptError):
            load_model(path)
