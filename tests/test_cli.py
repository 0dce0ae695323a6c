import contextlib
import csv
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paylens import evaluation
from paylens.cli import load_pipeline, main
from paylens.corpus import dump_transactions, group_by_user, load_transactions
from paylens.harvest import MockServerConfig, load_checkpoint, run_mock_server
from paylens.synth import SynthSpec, generate_synthetic_corpus

from conftest import make_txn, txn_json

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def synth_files(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    labels = tmp_path / "labels.csv"
    code = main(["synth", "--users-per-class", "30", "--posts-min", "8",
                 "--posts-max", "8", "--p-signal", "0.9", "--p-noise", "0.05",
                 "--seed", "11", "--out", str(corpus),
                 "--labels-out", str(labels)])
    assert code == 0
    return corpus, labels


class TestSynthCommand:
    def test_outputs_parse(self, synth_files):
        corpus, labels = synth_files
        with open(corpus) as fp:
            result = load_transactions(fp)
        assert len(result.transactions) == 30 * 2 * 8
        rows = labels.read_text().strip().splitlines()
        assert rows[0] == "user_id,label"
        assert len(rows) == 61

    def test_byte_identical_reruns(self, synth_files, tmp_path):
        corpus, _ = synth_files
        again = tmp_path / "again.jsonl"
        main(["synth", "--users-per-class", "30", "--posts-min", "8",
              "--posts-max", "8", "--p-signal", "0.9", "--p-noise", "0.05",
              "--seed", "11", "--out", str(again)])
        assert corpus.read_bytes() == again.read_bytes()


class TestIngestAndStats:
    def test_ingest_dedups_and_reports(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("\n".join([txn_json("t1"), txn_json("t1"),
                                  "not json", txn_json("t2")]) + "\n")
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "2 transactions" in captured.out
        assert "1 skipped" in captured.out

    def test_ingest_strict_fails(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text("garbage\n")
        out = tmp_path / "clean.jsonl"
        code = main(["ingest", "--in", str(raw), "--out", str(out), "--strict"])
        assert code == 1
        assert "corpus:" in capsys.readouterr().err

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_line_not_utf8_fails_alone(self, tmp_path, capsys, monkeypatch,
                                       stdin):
        data = "\n".join([txn_json("t1"), '{"id": "t', txn_json("t3")]).encode()
        data = data.replace(b'"t\n', b'"t\xff"}\n')  # line 2: {"id": "t\xff"}
        raw, out = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
        raw.write_bytes(data + b"\n")
        source = str(raw)
        if stdin:
            source = "-"
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["ingest", "--in", source, "--out", str(out)]) == 0
        assert "ingested 2 transactions (1 skipped)" in capsys.readouterr().out
        with open(out, encoding="utf-8") as fp:
            assert [t.id for t in load_transactions(fp).transactions] == ["t1", "t3"]
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["stats", "--in", source, "--out", str(tmp_path / "h.csv")]) == 0
        assert "skipped 1 malformed line(s)" in capsys.readouterr().err
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["ingest", "--strict", "--in", source, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus: line 2: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    def test_lone_surrogate_is_one_malformed_line(self, tmp_path, capsys, strict):
        # "\ud800" parses but cannot be written back as UTF-8
        raw, out = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
        raw.write_text("\n".join([txn_json("t1"), txn_json("t2", note="\ud800"),
                                  txn_json("t3")]) + "\n")
        code = main(["ingest", "--in", str(raw), "--out", str(out),
                     *(["--strict"] if strict else [])])
        captured = capsys.readouterr()
        if strict:
            assert code == 1
            assert captured.err.startswith(
                "error: corpus: line 2: 'utf-8' codec can't encode")
        else:
            assert code == 0
            assert "ingested 2 transactions (1 skipped)" in captured.out
            with open(out, encoding="utf-8") as fp:
                assert [t.id for t in load_transactions(fp).transactions] == [
                    "t1", "t3"]

    def test_stats_histogram(self, synth_files, tmp_path):
        corpus, _ = synth_files
        out = tmp_path / "hist.csv"
        assert main(["stats", "--in", str(corpus), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["length", "count"]
        histogram = {int(r[0]): int(r[1]) for r in rows[1:]}
        assert sum(histogram.values()) == 480


class TestFeaturizeCommand:
    def test_header_and_rows(self, synth_files, tmp_path):
        corpus, _ = synth_files
        out = tmp_path / "features.csv"
        assert main(["featurize", "--in", str(corpus), "--out", str(out),
                     "--min-posts", "8"]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "user_id"
        assert "emoji_avg" in rows[0] and "avg_len_tokens" in rows[0]
        assert len(rows) == 61  # 60 labeled users pass the threshold

    def test_actor_pct_column_gated(self, synth_files, tmp_path):
        corpus, _ = synth_files
        out = tmp_path / "features.csv"
        main(["featurize", "--in", str(corpus), "--out", str(out),
              "--min-posts", "8", "--include-actor-pct"])
        header = out.read_text().splitlines()[0].split(",")
        assert header[-1] == "pct_as_actor"


@pytest.mark.parametrize("min_posts", ["0", "-3"])
@pytest.mark.parametrize("command", ["label", "featurize"])
def test_min_posts_below_one_exits_2(synth_files, tmp_path, capsys, command,
                                     min_posts):
    corpus, labels = synth_files
    out = tmp_path / "out.csv"
    task = ["--task", "politics", "--labels-file", str(labels)]
    assert main([command, "--in", str(corpus), "--out", str(out),
                 "--min-posts", min_posts,
                 *(task if command == "label" else [])]) == 2
    assert capsys.readouterr().err == "error: min_posts must be >= 1\n"
    assert not out.exists()


class TestLabelCommand:
    def test_gender_labels(self, synth_files, tmp_path):
        corpus, _ = synth_files
        out = tmp_path / "labeled.csv"
        assert main(["label", "--task", "gender", "--in", str(corpus),
                     "--out", str(out), "--min-posts", "8"]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["user_id", "label", "class_name"]
        names = {r[2] for r in rows[1:]}
        assert names == {"female", "male"}

    def test_politics_requires_labels_file(self, synth_files, tmp_path, capsys):
        corpus, _ = synth_files
        out = tmp_path / "labeled.csv"
        code = main(["label", "--task", "politics", "--in", str(corpus),
                     "--out", str(out)])
        assert code == 1
        assert "label:" in capsys.readouterr().err

    def test_rejects_mistyped_region_in_config(self, synth_files, tmp_path,
                                               capsys):
        corpus, _ = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"region": 5}))
        out = tmp_path / "labeled.csv"
        code = main(["label", "--task", "gender", "--in", str(corpus),
                     "--out", str(out), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: region must be str, got 5")
        assert "Traceback" not in err
        assert not out.exists()

    def test_politics_joins_file(self, synth_files, tmp_path):
        corpus, labels = synth_files
        out = tmp_path / "labeled.csv"
        assert main(["label", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--out", str(out),
                     "--min-posts", "8"]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert len(rows) == 61


class TestTrainAndReport:
    def test_train_then_coefficients(self, synth_files, tmp_path, capsys):
        corpus, labels = synth_files
        model = tmp_path / "model.json"
        code = main(["train", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--out", str(model),
                     "--min-posts", "8", "--min-df", "2", "--seed", "3"])
        assert code == 0
        fitted = load_pipeline(str(model))
        assert fitted.model.kind == "svm"

        coeffs = tmp_path / "coeffs.csv"
        code = main(["report-coefficients", "--model", str(model),
                     "-k", "15", "--out", str(coeffs)])
        assert code == 0
        rows = list(csv.reader(coeffs.read_text().splitlines()))
        assert rows[0] == ["feature", "weight", "class"]
        assert len(rows) == 1 + 15 + 15
        classes = {r[2] for r in rows[1:]}
        assert classes == {"democrat", "republican"}

    def test_report_rejects_non_svm(self, synth_files, tmp_path, capsys):
        corpus, labels = synth_files
        model = tmp_path / "model.json"
        main(["train", "--task", "politics", "--in", str(corpus),
              "--labels-file", str(labels), "--out", str(model),
              "--min-posts", "8", "--classifier", "gbdt", "--config",
              str(_gbdt_config(tmp_path))])
        code = main(["report-coefficients", "--model", str(model)])
        assert code == 1
        assert "linear SVM" in capsys.readouterr().err

    def test_relative_paths_resolve_under_data_dir(self, synth_files,
                                                   tmp_path, monkeypatch):
        corpus, labels = synth_files
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        monkeypatch.setenv("PAYLENS_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--out", "model.json",
                     "--min-posts", "8"]) == 0
        assert (data_dir / "model.json").exists()
        assert not (tmp_path / "model.json").exists()
        assert main(["report-coefficients", "--model", "model.json",
                     "-k", "3", "--out", "coeffs.csv"]) == 0
        assert len((data_dir / "coeffs.csv").read_text().splitlines()) == 7

    @pytest.mark.parametrize("container,message", [
        ({"magic": "paylens-pipeline", "version": 1}, "bad pipeline payload"),
        ({"magic": "paylens-pipeline", "version": 1, "payload": []},
         "bad pipeline payload"),
        ({"magic": "paylens-pipeline", "version": 1, "payload": {"config": {}}},
         "bad pipeline payload"),
        ({"magic": "paylens-pipeline", "version": 1, "payload": {"vocab": 3}},
         "bad pipeline payload"),
        ({"magic": "paylens-model", "version": 1, "payload": {}},
         "not a pipeline file (bad magic)"),
        ({"magic": "paylens-pipeline", "version": 99, "payload": {}},
         "unsupported pipeline version 99"),
        ('{"magic": "paylens-pipeline", "version": 1, "payl',
         "unreadable pipeline file"),
        (["paylens-pipeline", 1], "not a pipeline file (bad magic)"),
        ("[" * 200_000 + "]" * 200_000, "unreadable pipeline file"),
    ], ids=[f"container{i}" for i in range(8)] + ["deeply_nested"])
    def test_report_rejects_bad_payload(self, tmp_path, capsys, container,
                                        message):
        model = tmp_path / "model.json"
        model.write_text(container if isinstance(container, str)
                         else json.dumps(container))
        assert main(["report-coefficients", "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", [("model", "payload", "weights"),
                                      ("scaler", "std")],
                             ids=["svm_weights", "scaler_std"])
    def test_report_rejects_null_in_array(self, synth_files, tmp_path, capsys,
                                          path):
        corpus, labels = synth_files
        model = tmp_path / "model.json"
        assert main(["train", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--out", str(model),
                     "--min-posts", "8"]) == 0
        container = json.loads(model.read_text())
        node = container["payload"]
        for key in path:
            node = node[key]
        node[0] = None  # loads as NaN unless the codec checks finiteness
        model.write_text(json.dumps(container))
        assert main(["report-coefficients", "--model", str(model),
                     "-k", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: bad pipeline payload")
        assert "Traceback" not in err


def _gbdt_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gbdt_overrides": {"rounds": 5, "max_depth": 2}}))
    return path


class TestEvaluateCommand:
    def test_report_written(self, synth_files, tmp_path):
        corpus, labels = synth_files
        report = tmp_path / "report.json"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "vectorizers": ["count", "tfidf"],
            "n_ranges": [[1, 1]],
            "classifiers": ["svm"],
            "svm_c": [1.0],
        }))
        code = main(["evaluate", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--grid", str(grid),
                     "--folds", "3", "--seed", "0", "--report", str(report),
                     "--min-posts", "8", "--workers", "2"])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["folds"] == 3
        assert len(data["configs"]) == 2
        assert data["best"]["mean_accuracy"] >= 0.9  # strong planted signal

    def test_gender_task_via_name_corpus(self, synth_files, tmp_path):
        corpus, _ = synth_files
        report = tmp_path / "report.json"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"vectorizers": ["tfidf"],
                                    "n_ranges": [[1, 1]],
                                    "classifiers": ["svm"],
                                    "svm_c": [1.0]}))
        code = main(["evaluate", "--task", "gender", "--in", str(corpus),
                     "--grid", str(grid), "--folds", "3", "--seed", "1",
                     "--report", str(report), "--min-posts", "8"])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["task"] == "gender"
        assert data["class_names"] == ["female", "male"]
        assert data["best"]["mean_accuracy"] >= 0.9

    def _evaluate(self, synth_files, tmp_path, tag, grid_spec, *flags):
        corpus, labels = synth_files
        out = tmp_path / tag
        out.mkdir()
        grid = out / "grid.json"
        grid.write_text(json.dumps(grid_spec))
        code = main(["evaluate", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--grid", str(grid),
                     "--folds", "3", "--report", str(out / "report.json"),
                     "--model-out", str(out / "model.json"),
                     "--min-posts", "8", *flags])
        assert multiprocessing.active_children() == []
        return code, out

    def test_outputs_do_not_depend_on_workers(self, synth_files, tmp_path):
        spec = {"vectorizers": ["count", "tfidf"], "n_ranges": [[1, 2]],
                "classifiers": ["svm", "mlp", "gbdt"], "svm_c": [0.1, 1.0],
                "mlp_overrides": {"epochs": 10}, "gbdt_overrides": {"rounds": 5}}
        outputs = []
        for flags in (["--workers", "1"], ["--workers", "2"], []):
            code, out = self._evaluate(synth_files, tmp_path, str(len(outputs)),
                                       spec, *flags)
            assert code == 0
            outputs.append(((out / "report.json").read_bytes(),
                            (out / "model.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_loss_exits_cleanly(self, synth_files, tmp_path, capsys,
                                           workers):
        spec = {"vectorizers": ["count", "tfidf"], "n_ranges": [[1, 1]],
                "classifiers": ["mlp"], "mlp_overrides": {"lr": 1e300}}
        code, out = self._evaluate(synth_files, tmp_path, "run", spec,
                                   "--workers", workers)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: non-finite loss")
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_rejects_workers_below_one(self, synth_files, tmp_path, capsys,
                                       workers):
        code, out = self._evaluate(synth_files, tmp_path, "run", {},
                                   "--workers", workers)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --workers must be at least 1, got {workers}\n"
        assert not (out / "report.json").exists()

    def test_config_file_supplies_defaults(self, synth_files, tmp_path):
        corpus, labels = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vectorizer": "count", "min_df": 1}))
        model = tmp_path / "model.json"
        main(["train", "--task", "politics", "--in", str(corpus),
              "--labels-file", str(labels), "--out", str(model),
              "--min-posts", "8", "--config", str(config)])
        fitted = load_pipeline(str(model))
        assert fitted.config.vectorizer == "count"
        assert fitted.config.min_df == 1

    def test_config_overrides_reach_grid(self, synth_files, tmp_path):
        corpus, labels = synth_files
        report = tmp_path / "report.json"
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"vectorizers": ["count"],
                                    "n_ranges": [[1, 1]],
                                    "classifiers": ["gbdt"],
                                    "gbdt_overrides": {"rounds": 3}}))
        code = main(["evaluate", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--grid", str(grid),
                     "--folds", "3", "--report", str(report),
                     "--min-posts", "8", "--config",
                     str(_gbdt_config(tmp_path))])
        assert code == 0
        configs = json.loads(report.read_text())["configs"]
        # max_depth comes from --config; the grid's rounds wins over its 5
        assert [c["config"]["gbdt_overrides"] for c in configs] == [
            {"max_depth": 2, "rounds": 3}]

    @pytest.mark.parametrize("overrides, message", [
        ({"gbdt_overrides": {"bogus": 1}}, "'bogus' is not a GbdtConfig field"),
        ({"mlp_overrides": 5}, "mlp_overrides must map MlpConfig fields"),
        ({"gbdt_overrides": {"rounds": "x"}}, "'rounds' must be int, got 'x'"),
        ({"seed": None}, "seed must be int, got None"),
        ({"use_engineered": "no"}, "use_engineered must be bool, got 'no'"),
        ({"min_df": 1.7}, "min_df must be int, got 1.7"),
        ({"C": "1"}, "C must be float, got '1'"),
        ({"balance": "no"}, "balance must be bool, got 'no'"),
        ({"include_actor_pct": 1}, "include_actor_pct must be bool, got 1"),
        ({"ngram_max": "2"}, "n_range must be a pair of ints, got (1, '2')"),
        ([1, 2], "config must be a JSON object, got [1, 2]"),
        ("C", "config must be a JSON object, got C"),
        ({"clasifier": "mlp"}, "config: unknown key 'clasifier'"),
        ({"labels_file": 5}, "labels_file must be str, got 5"),
        ({"mlp_overrides": {"epochs": -1}}, "'epochs' must be positive, got -1"),
        ({"mlp_overrides": {"hidden": 0}}, "'hidden' must be positive, got 0"),
        ({"mlp_overrides": {"lr": -1}}, "'lr' must be positive, got -1"),
        ({"mlp_overrides": {"batch": 0}}, "'batch' must be positive, got 0"),
        ({"gbdt_overrides": {"max_depth": -1}},
         "'max_depth' must be positive, got -1"),
        ({"gbdt_overrides": {"n_bins": 0}}, "'n_bins' must be positive, got 0"),
        ({"gbdt_overrides": {"learning_rate": 0.0}},
         "'learning_rate' must be positive, got 0.0"),
    ], ids=["unknown_key", "not_a_mapping", "bad_value_type", "seed_null",
            "use_engineered_str", "min_df_float", "C_str", "balance_str",
            "include_actor_pct_int", "ngram_max_str", "document_list",
            "document_str", "typo_key", "labels_file_int", "epochs_negative",
            "hidden_zero", "lr_negative", "batch_zero", "max_depth_negative",
            "n_bins_zero", "learning_rate_zero"])
    def test_train_rejects_bad_config_overrides(self, synth_files, tmp_path,
                                                capsys, overrides, message):
        corpus, labels = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifier": "gbdt", **overrides}
                                     if isinstance(overrides, dict)
                                     else overrides))
        labels_flag = ([] if "labels_file" in overrides
                       else ["--labels-file", str(labels)])
        model = tmp_path / "model.json"
        code = main(["train", "--task", "politics", "--in", str(corpus),
                     *labels_flag, "--out", str(model),
                     "--min-posts", "8", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("grid_overrides, message", [
        ({"gbdt_overrides": {"bogus": 1}}, "'bogus' is not a GbdtConfig field"),
        ({"mlp_overrides": 5}, "grid mlp_overrides must be an object"),
        ({"gbdt_overrides": {"rounds": "x"}}, "'rounds' must be int, got 'x'"),
        ({"classifier": ["gbdt"], "svm_c": [1.0]}, "grid: unknown key 'classifier'"),
        ({"svm_c": 1.0}, "grid svm_c must be a list, got 1.0"),
        ({"n_ranges": [[1, 2, 3]]}, "grid n_ranges entries must be [low, high]"),
        ({"classifiers": ["svm", "forest"]}, "unknown classifier 'forest'"),
    ], ids=["unknown_key", "not_a_mapping", "bad_value_type", "typo_key",
            "axis_not_a_list", "n_range_not_a_pair", "unknown_classifier"])
    def test_evaluate_rejects_bad_grid_overrides(self, synth_files, tmp_path,
                                                 capsys, monkeypatch,
                                                 grid_overrides, message):
        corpus, labels = synth_files
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"classifiers": ["gbdt"], **grid_overrides}))
        fits = []
        fit = evaluation.fit_features

        def counted_fit(*args):
            fits.append(args)
            return fit(*args)

        monkeypatch.setattr(evaluation, "fit_features", counted_fit)
        report = tmp_path / "report.json"
        code = main(["evaluate", "--task", "politics", "--in", str(corpus),
                     "--labels-file", str(labels), "--grid", str(grid),
                     "--folds", "3", "--report", str(report),
                     "--min-posts", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not fits and not report.exists()  # rejected before any fit

    def test_cli_flag_beats_config_file(self, synth_files, tmp_path):
        corpus, labels = synth_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vectorizer": "count"}))
        model = tmp_path / "model.json"
        main(["train", "--task", "politics", "--in", str(corpus),
              "--labels-file", str(labels), "--out", str(model),
              "--min-posts", "8", "--config", str(config),
              "--vectorizer", "tfidf"])
        assert load_pipeline(str(model)).config.vectorizer == "tfidf"


def _paths(doc, prefix=()):
    """Every path into a JSON document, the root's () first."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_RETYPED = st.one_of(st.none(), st.text(max_size=3), st.floats(),
                     st.lists(st.integers(-1, 3), max_size=2),
                     st.dictionaries(st.text(max_size=3), st.integers(0, 3),
                                     max_size=1))


@st.composite
def _mutant(draw, doc):
    """The text of `doc` with a key dropped, a value retyped (the whole
    document included), an unknown key added, or the text truncated."""
    text = json.dumps(doc)
    doc = json.loads(text)  # a copy to mutate
    mutation = draw(st.sampled_from(["drop", "retype", "add_key", "truncate"]))
    if mutation == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    paths = list(_paths(doc))
    if mutation == "add_key":
        target = draw(st.sampled_from(
            [p for p in paths if isinstance(_at(doc, p), dict)]))
        _at(doc, target)["bogus"] = 1
        return json.dumps(doc)
    path = draw(st.sampled_from(paths if mutation == "retype" else paths[1:]))
    if not path:
        return json.dumps(draw(_RETYPED))
    parent = _at(doc, path[:-1])
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_RETYPED)
    return json.dumps(doc)


def _array(value) -> bool:
    """A non-empty JSON list of numbers, or of such lists."""
    return isinstance(value, list) and value != [] and (
        all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        or all(map(_array, value)))


@st.composite
def _reshaped(draw, doc):
    """The text of `doc` with one vector made a column, nested in a list or
    cut short by one entry, or one matrix flattened by a level."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from([p for p in _paths(doc)
                                 if p and _array(_at(doc, p))]))
    array = _at(doc, path)
    if isinstance(array[0], list):
        shapes = [[v for row in array for v in row]]
    else:
        shapes = [[[v] for v in array], [array], array[:-1]]
    _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from(shapes))
    return json.dumps(doc)


_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf8\x88\x80\x80\x80"]


@given(data=st.data())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_jsonl_ingests_cleanly(tmp_path, data):
    """A corpus line with a key dropped, a value retyped, an unknown key, the
    text truncated or bytes that are not UTF-8 spliced in: lenient ingest
    skips it and keeps the good lines, strict ingest exits 1 naming its line
    or accepts it; no exception escapes."""
    good = json.loads(txn_json("t0", note="pay day 🍕"))
    lines = [txn_json(f"t{i}").encode() for i in (1, 2)]
    if data.draw(st.booleans()):
        text = json.dumps(good, ensure_ascii=False).encode()
        at = data.draw(st.integers(0, len(text)))
        bad = text[:at] + data.draw(st.sampled_from(_NOT_UTF8)) + text[at:]
    else:
        bad = data.draw(_mutant(good)).encode()
    place = data.draw(st.integers(0, 2))
    lines.insert(place, bad)
    raw, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
    raw.write_bytes(b"\n".join(lines) + b"\n")
    for strict in (False, True):
        out.unlink(missing_ok=True)
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = main(["ingest", "--in", str(raw), "--out", str(out),
                         *(["--strict"] if strict else [])])
        assert "Traceback" not in err.getvalue()
        if code == 0:
            with open(out, encoding="utf-8") as fp:
                ids = [t.id for t in load_transactions(fp, strict=True).transactions]
            assert {"t1", "t2"} <= set(ids)
        else:
            assert strict and code == 1, (code, err.getvalue())
            assert err.getvalue().startswith(f"error: corpus: line {place + 1}: ")


class TestMutatedConfigFiles:
    """Hostile --config and --grid files: a run exits 0 and writes a model
    that loads, or exits 1 or 2 with an `error: ` line and no artifact; no
    exception escapes."""

    GRID = {"vectorizers": ["count"], "n_ranges": [[1, 1]],
            "classifiers": ["svm", "gbdt"], "svm_c": [1.0],
            "mlp_overrides": {"epochs": 3}, "gbdt_overrides": {"rounds": 2}}

    @pytest.fixture
    def tiny(self, tmp_path):
        corpus, labels = tmp_path / "corpus.jsonl", tmp_path / "labels.csv"
        assert main(["synth", "--users-per-class", "6", "--posts-min", "5",
                     "--posts-max", "5", "--seed", "5", "--out", str(corpus),
                     "--labels-out", str(labels)]) == 0
        config = {"balance": True, "labels_file": str(labels), "region": "us",
                  "seed": 0, "vectorizer": "count", "ngram_min": 1,
                  "ngram_max": 1, "min_df": 1, "use_engineered": True,
                  "include_actor_pct": False, "classifier": "svm", "C": 1.0,
                  "mlp_overrides": {"epochs": 3},
                  "gbdt_overrides": {"rounds": 2}}
        return tmp_path, corpus, config

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutant_exits_cleanly(self, tiny, data):
        work, corpus, config = tiny
        command = data.draw(st.sampled_from(["train", "evaluate", "grid"]))
        config_text, grid_text = json.dumps(config), json.dumps(self.GRID)
        if command == "grid":
            command, grid_text = "evaluate", data.draw(_mutant(self.GRID))
        else:
            config_text = data.draw(_mutant(config))
        (work / "config.json").write_text(config_text)
        (work / "grid.json").write_text(grid_text)
        artifacts = [work / "model.json", work / "report.json"]
        for path in artifacts:
            path.unlink(missing_ok=True)
        outputs = (["--out", str(artifacts[0])] if command == "train" else
                   ["--grid", str(work / "grid.json"), "--folds", "2",
                    "--report", str(artifacts[1]),
                    "--model-out", str(artifacts[0])])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--task", "politics", "--in", str(corpus),
                         "--min-posts", "5", "--config",
                         str(work / "config.json"), *outputs])
        if code == 0:
            load_pipeline(str(artifacts[0]))  # what a run writes reads back
        else:
            assert code in (1, 2)
            assert err.getvalue().startswith("error: ")
            assert not any(path.exists() for path in artifacts)


    def test_svm_objective_overflow_writes_nothing(self, tiny):
        # a C this large overflows the SVM objective; the run used to exit 0
        # and write a model whose "primal_objective" was Infinity
        work, corpus, config = tiny
        (work / "config.json").write_text(
            json.dumps({**config, "C": 7.048369066263648e+307}))
        out, err = work / "model.json", io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--task", "politics", "--in", str(corpus),
                         "--min-posts", "5", "--config",
                         str(work / "config.json"), "--out", str(out)])
        assert code == 1
        assert err.getvalue().startswith("error: model: linear SVM")
        assert "non-finite objective" in err.getvalue()
        assert not out.exists() and not (work / "model.json.tmp").exists()


class TestMutatedPipelineFiles:
    """Hostile svm, mlp and gbdt pipeline files through report-coefficients:
    a file that is still a valid SVM pipeline gives its table; any other
    exits 1 or 2 with an `error: ` line; no exception escapes."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("pipelines")
        corpus, labels = work / "corpus.jsonl", work / "labels.csv"
        config, model = work / "config.json", work / "model.json"
        assert main(["synth", "--users-per-class", "6", "--posts-min", "5",
                     "--posts-max", "5", "--seed", "5", "--out", str(corpus),
                     "--labels-out", str(labels)]) == 0
        config.write_text(json.dumps({
            "mlp_overrides": {"epochs": 2, "hidden": 2},
            "gbdt_overrides": {"rounds": 2, "max_depth": 2}}))
        docs = {}
        for classifier in ("svm", "mlp", "gbdt"):
            assert main(["train", "--task", "politics", "--in", str(corpus),
                         "--labels-file", str(labels), "--min-posts", "5",
                         "--ngram-max", "1", "--classifier", classifier,
                         "--config", str(config), "--out", str(model)]) == 0
            docs[classifier] = json.loads(model.read_text())
        return work, docs

    @pytest.mark.parametrize("path, reshape, message", [
        (("model", "payload", "weights"), lambda w: [[v] for v in w],
         "SVM weights must be a vector, got shape"),
        (("model", "payload", "weights"), lambda w: w[:-1],
         "inputs for"),
        (("scaler", "std"), lambda s: [[v] for v in s],
         "scaler mean and std must be vectors of one length"),
    ], ids=["svm_weights_column", "svm_weights_short", "scaler_std_column"])
    def test_reshaped_array_is_corrupt(self, saved, capsys, path, reshape,
                                       message):
        work, docs = saved
        doc = json.loads(json.dumps(docs["svm"]))
        parent = _at(doc["payload"], path[:-1])
        parent[path[-1]] = reshape(parent[path[-1]])
        (work / "mutant.json").write_text(json.dumps(doc))
        assert main(["report-coefficients", "--model",
                     str(work / "mutant.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model: bad pipeline payload: ")
        assert message in err

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutant_exits_cleanly(self, saved, data):
        work, docs = saved
        kind = data.draw(st.sampled_from(sorted(docs)))
        text = data.draw(st.one_of(_mutant(docs[kind]), _reshaped(docs[kind])))
        (work / "mutant.json").write_text(text)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["report-coefficients", "--model",
                         str(work / "mutant.json"), "-k", "3"])
        if code == 0:
            assert kind == "svm"
            assert out.getvalue().startswith("feature,weight,class")
        else:
            assert code in (1, 2), code
            assert err.getvalue().startswith("error: ")


DEEP = "[" * 200_000  # nested past any recursion limit


@pytest.mark.parametrize("case, expected", [
    ("corpus", 0), ("corpus_strict", 1), ("harvested_page", 1), ("config", 2),
    ("grid", 2), ("usernames", 2), ("checkpoint", 1)])
def test_deeply_nested_json_exits_cleanly(synth_files, stub_server, capsys,
                                          case, expected):
    corpus, labels = synth_files
    work = corpus.parent
    deep, deep_corpus = work / "deep.json", work / "deep.jsonl"
    deep.write_text(DEEP + "\n")
    deep_corpus.write_text(corpus.read_text() + DEEP + "\n")
    ids = work / "ids.txt"
    ids.write_text("u1\n")
    label = ["--task", "politics", "--in", str(corpus), "--labels-file",
             str(labels)]
    argv = {
        "corpus": ["ingest", "--in", str(deep_corpus),
                   "--out", str(work / "out")],
        "corpus_strict": ["ingest", "--strict", "--in", str(deep_corpus),
                          "--out", str(work / "out")],
        "harvested_page": ["harvest", "feed", "--endpoint",
                           stub_server(200, DEEP).url, "--pages", "1",
                           "--out", str(work / "out")],
        "config": ["label", *label, "--config", str(deep),
                   "--out", str(work / "out")],
        "grid": ["evaluate", *label, "--grid", str(deep),
                 "--report", str(work / "out")],
        "usernames": ["serve-mock", "--corpus", str(corpus), "--usernames",
                      str(deep), "--duration", "0.01"],
        # read before any request, so nothing listens at the endpoint
        "checkpoint": ["harvest", "users", "--endpoint", "http://127.0.0.1:9",
                       "--ids", str(ids), "--checkpoint", str(deep),
                       "--out", str(work / "out")],
    }[case]
    assert main(argv) == expected
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if case == "corpus":
        assert "(1 skipped)" in out
    else:
        assert err.startswith("error: ")


class TestHarvestCommands:
    def test_feed_and_users(self, tmp_path):
        spec = SynthSpec(n_users_per_class=4, posts_per_user=(6, 6), seed=2)
        result = generate_synthetic_corpus(spec)
        corpus = group_by_user(result.transactions)
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("\n".join(uid for uid, _ in result.labels) + "\n")
        with run_mock_server(corpus, MockServerConfig(page_size=10)) as srv:
            feed_out = tmp_path / "feed.jsonl"
            assert main(["harvest", "feed", "--endpoint", srv.url,
                         "--pages", "2", "--out", str(feed_out)]) == 0
            with open(feed_out) as fp:
                assert len(load_transactions(fp).transactions) == 20

            users_out = tmp_path / "users.jsonl"
            cp = tmp_path / "cp.json"
            assert main(["harvest", "users", "--endpoint", srv.url,
                         "--ids", str(ids_file), "--workers", "2",
                         "--checkpoint", str(cp), "--out", str(users_out)]) == 0
            with open(users_out) as fp:
                got = load_transactions(fp).transactions
            assert len(got) == len(result.transactions)

    def test_users_resume_appends(self, tmp_path):
        spec = SynthSpec(n_users_per_class=3, posts_per_user=(5, 5), seed=4)
        result = generate_synthetic_corpus(spec)
        corpus = group_by_user(result.transactions)
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("\n".join(uid for uid, _ in result.labels) + "\n")
        with run_mock_server(corpus, MockServerConfig(page_size=4)) as srv:
            out = tmp_path / "crawl.jsonl"
            cp = tmp_path / "cp.json"
            main(["harvest", "users", "--endpoint", srv.url, "--ids",
                  str(ids_file), "--checkpoint", str(cp), "--out", str(out),
                  "--max-users", "2"])
            main(["harvest", "users", "--endpoint", srv.url, "--ids",
                  str(ids_file), "--checkpoint", str(cp), "--out", str(out)])
            with open(out) as fp:
                got = load_transactions(fp).transactions
            assert {t.id for t in got} == {t.id for t in result.transactions}

    def test_feed_rejects_non_http_endpoint_without_retrying(self, tmp_path,
                                                             capsys):
        start = time.monotonic()
        code = main(["harvest", "feed", "--endpoint", "ftp://127.0.0.1:9",
                     "--pages", "1", "--out", str(tmp_path / "feed.jsonl")])
        assert code == 1
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert "not an http(s) URL" in err
        assert "retries" not in err

    @pytest.mark.parametrize("max_users", ["-1", "-3"])
    def test_users_rejects_negative_max_users(self, tmp_path, capsys,
                                              max_users):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("u1\n")
        # rejected before any request, so nothing listens here
        code = main(["harvest", "users", "--endpoint", "http://127.0.0.1:9",
                     "--ids", str(ids_file), "--max-users", max_users,
                     "--out", str(tmp_path / "crawl.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: max_users must be at least 0, got {max_users}\n")

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_users_rejects_workers_below_one(self, tmp_path, capsys, workers):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("u1\n")
        # rejected before any request, so nothing listens here
        code = main(["harvest", "users", "--endpoint", "http://127.0.0.1:9",
                     "--ids", str(ids_file), "--workers", workers,
                     "--out", str(tmp_path / "crawl.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: workers must be at least 1, got {workers}\n")

    def test_users_killed_then_resumed(self, tmp_path):
        txns = [make_txn(f"k{u}-t{i:02d}", actor=f"k{u}", target=f"c{u}{i}",
                         minutes=25 * u + i)
                for u in range(20) for i in range(25)]
        users = [f"k{u}" for u in range(20)]
        ids_file, cp = tmp_path / "ids.txt", tmp_path / "cp.json"
        out = tmp_path / "crawl.jsonl"
        ids_file.write_text("\n".join(users) + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with run_mock_server(group_by_user(txns),
                             MockServerConfig(page_size=10)) as srv:
            args = ["harvest", "users", "--endpoint", srv.url, "--ids",
                    str(ids_file), "--workers", "2", "--checkpoint", str(cp),
                    "--out", str(out)]
            # 3 pages per user at 40 requests/s: about 1.5 s for the crawl
            proc = subprocess.Popen(
                [sys.executable, "-m", "paylens.cli", *args, "--rate", "40"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 60
                while not (cp.exists()
                           and cp.read_bytes().count(b"\n") >= 3):
                    assert proc.poll() is None, "the crawl ended before the kill"
                    assert time.monotonic() < deadline, "no checkpoint lines"
                    time.sleep(0.005)
            finally:
                proc.kill()  # SIGKILL
                proc.wait()
            assert proc.returncode == -signal.SIGKILL
            assert main(args) == 0
        sink_ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns)
        state = load_checkpoint(cp)
        assert state.completed_user_ids == set(users)
        assert state.pending_user_ids == []

    def test_users_with_odd_ids_from_serve_mock(self, tmp_path):
        # ids a URL would split, cut or decode unless each is one
        # percent-encoded path segment; each user pays the next, so every
        # transaction is in two timelines, and "aA", "a" and "h" are the
        # users a misread id would reach
        odd = ["two words", "naïve-日本", "a/b", "q?x=1", "h#1", "50%", "a%41"]
        txns = [make_txn(f"{u}-t{i}", actor=u, target=odd[(k + 1) % len(odd)],
                         minutes=10 * k + i)
                for k, u in enumerate(odd) for i in range(7)]
        txns += [make_txn(f"{u}-t{i}", actor=u, target="x", minutes=100 + i)
                 for u in ("aA", "a", "h") for i in range(3)]
        corpus, ids_file = tmp_path / "corpus.jsonl", tmp_path / "ids.txt"
        with open(corpus, "w", encoding="utf-8") as fp:
            dump_transactions(txns, fp)
        ids_file.write_text("\n".join(odd) + "\n", encoding="utf-8")
        out = tmp_path / "crawl.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with subprocess.Popen(
                [sys.executable, "-m", "paylens.cli", "serve-mock",
                 "--corpus", str(corpus), "--page-size", "3",
                 "--refresh-interval", "0", "--duration", "60"],
                env=env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                url = proc.stdout.readline().split()[3]
                assert main(["harvest", "users", "--endpoint", url, "--ids",
                             str(ids_file), "--workers", "2", "--checkpoint",
                             str(tmp_path / "cp.json"), "--out", str(out)]) == 0
            finally:
                proc.kill()
        sink_ids = [json.loads(line)["id"]
                    for line in out.read_text(encoding="utf-8").splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns if t.actor_id in odd)

    @pytest.mark.parametrize("command, body", [
        (["feed", "--pages", "1"], '{"data": ['),
        (["users", "--ids", "ids.txt"], '{"data": ['),
        (["feed", "--pages", "2"], '{"data": [], "refresh_interval": Infinity}'),
        (["users", "--ids", "ids.txt"], '{"data": [], "next_before_id": "x"}'),
    ], ids=["feed", "users", "feed_inf_refresh_interval",
            "users_repeating_cursor"])
    def test_malformed_page_exits_1(self, tmp_path, capsys, stub_server,
                                    monkeypatch, command, body):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ids.txt").write_text("u1\n")
        srv = stub_server(200, body)
        code = main(["harvest", *command, "--endpoint", srv.url,
                     "--out", "out.jsonl"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: harvest: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("checkpoint", [
        {"seen": [], "completed": []},
        {"seen": [], "completed": [], "pending": None},
        {"seen": "t1", "completed": [], "pending": []},
        {"seen": [["t1"]], "completed": [], "pending": []},
        ["not", "an", "object"],
        pytest.param({"seen": [], "completed": [], "pending": [],
                      "checkpoint_at": 5}, id="checkpoint_at_int"),
        pytest.param({"seen": [], "completed": [], "pending": [],
                      "checkpoint_at": "garbage"}, id="checkpoint_at_garbage"),
        pytest.param('{"seen": [], "completed": [], "pend', id="truncated"),
        # a snapshot as written before the log, whose sink would cut --out
        pytest.param({"seen": ["t1"], "completed": ["u0"], "pending": ["u1"],
                      "checkpoint_at": "2024-03-01T12:00:00+00:00",
                      "sink": ["OUT", 13]}, id="snapshot"),
        pytest.param('{"user": "u0", "seen": [], "sink": null}\n'
                     '{"pending": ["u1"], "sink": null}\n',
                     id="log_without_start_line"),
        pytest.param('{"pending": ["u1"], "sink": null}\n{"user": 5}\n',
                     id="log_bad_user_line"),
    ])
    def test_users_rejects_bad_checkpoint(self, tmp_path, capsys, checkpoint):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("u1\n")
        cp, out = tmp_path / "cp.json", tmp_path / "crawl.jsonl"
        out.write_text('{"id": "t1"}\n{"id": "t2"}\n')
        stat = os.stat(out)
        text = (checkpoint if isinstance(checkpoint, str)
                else json.dumps(checkpoint))
        cp.write_text(text.replace("OUT", f"{stat.st_dev}:{stat.st_ino}"))
        # the checkpoint is read before any request, so nothing listens here
        code = main(["harvest", "users", "--endpoint", "http://127.0.0.1:9",
                     "--ids", str(ids_file), "--checkpoint", str(cp),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: harvest: checkpoint corrupt")
        assert out.read_text() == '{"id": "t1"}\n{"id": "t2"}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cp.json", "crawl.jsonl", "ids.txt"]


class TestServeMock:
    def test_serves_for_duration(self, synth_files, tmp_path):
        import socket

        import requests

        corpus, _ = synth_files
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()

        codes = []
        thread = threading.Thread(
            target=main,
            args=(["serve-mock", "--corpus", str(corpus), "--port", str(port),
                   "--page-size", "10", "--duration", "2.0"],))
        thread.start()
        try:
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                try:
                    resp = requests.get(
                        f"http://127.0.0.1:{port}/feed", timeout=0.5)
                    codes.append(resp.status_code)
                    break
                except requests.RequestException:
                    continue
        finally:
            thread.join(timeout=5)
        assert codes == [200]
        assert not thread.is_alive()

    def test_warns_on_malformed_lines(self, synth_files, tmp_path, capsys):
        corpus, _ = synth_files
        with open(corpus, "a") as fp:
            fp.write("not json\n")
        assert main(["serve-mock", "--corpus", str(corpus),
                     "--duration", "0.01"]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped 1 malformed line(s)" in captured.err
        assert "(480 transactions)" in captured.out

    @pytest.mark.parametrize("usernames", [[1, 2], {"alice": 7}, "alice"],
                             ids=["list", "int_value", "str"])
    def test_rejects_bad_usernames(self, synth_files, tmp_path, capsys,
                                   usernames):
        corpus, _ = synth_files
        path = tmp_path / "usernames.json"
        path.write_text(json.dumps(usernames))
        code = main(["serve-mock", "--corpus", str(corpus), "--usernames",
                     str(path), "--duration", "0.01"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usernames must map strings to strings")
        assert "Traceback" not in err


@pytest.mark.parametrize("command, message", [
    (["serve-mock", "--page-size", "0"], "page_size must be at least 1"),
    (["serve-mock", "--refresh-interval", "-5"], "refresh_interval -5.0 is not"),
    (["serve-mock", "--rate-limit", "-5"], "rate_limit -5.0 is not"),
    (["harvest", "feed", "--pages", "-3"], "pages must be at least 1"),
    (["harvest", "feed", "--rate", "-5"], "rate -5.0 is not"),
    (["harvest", "users", "--rate", "-5"], "rate -5.0 is not"),
], ids=["page_size", "refresh_interval", "rate_limit", "pages", "feed_rate",
        "users_rate"])
def test_numbers_the_harvester_refuses_exit_2(synth_files, tmp_path, capsys,
                                              command, message):
    corpus, _ = synth_files
    ids = tmp_path / "ids.txt"
    ids.write_text("u1\n")
    extra = {"serve-mock": ["--corpus", str(corpus), "--duration", "0.01"],
             "feed": ["--endpoint", "http://127.0.0.1:9", "--out",
                      str(tmp_path / "out.jsonl")],
             "users": ["--endpoint", "http://127.0.0.1:9", "--ids", str(ids),
                       "--out", str(tmp_path / "out.jsonl")]}
    assert main(command + extra[command[-3]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err
    assert "mock server on" not in captured.out


class TestTokenizeDebug:
    def test_prints_table(self, capsys):
        assert main(["tokenize-debug", "--note", ":uber: ride 🍕"]) == 0
        out = capsys.readouterr().out
        assert "shortcode" in out and ":uber:" in out
        assert "word" in out and "ride" in out
        assert "emoji" in out

    def test_unknown_command_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        import subprocess

        binary = shutil.which("paylens")
        if binary is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([binary, "tokenize-debug", "--note", "hi there"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "word" in proc.stdout
