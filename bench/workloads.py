"""The three benchmark workloads: set-up, one timed iteration, checks, layers.

Why these workloads:

* ingest: batch, one process. Raw emoji-heavy JSONL through load, grouping,
  labels, tokenize + detectors (`build_dataset`) and the vectorizer's
  per-fold refits. `corpus`, `tokenizer`, `features` and `vectorizer` do
  nearly all the work; no model runs.
* grid: batch. The real `paylens evaluate --grid` path through
  `paylens.cli.main`, so the classifiers and `evaluation` do nearly all the
  work and ingest is negligible.
* crawl: closed loop, two client workers, against the mock server in its own
  process. Only `harvest.*` and the corpus parse/write path run; it bypasses
  the tokenizer and the models, and stops half-way and resumes from the
  checkpoint as re-running `harvest users` does.

Each workload object is used as: `setup()` (timed as set-up), any number of
`iteration(tracer)` calls (timed), `check(...)` on the outputs, then
`close()`. `layers(summary, its)` turns the spans of the traced iterations
`its` into per-layer metrics; sums and counts are reported per iteration.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

import paylens.cli
import paylens.corpus
import paylens.evaluation
import paylens.features
import paylens.harvest.client
import paylens.labels
import paylens.pipeline
import paylens.tokenizer
import paylens.vectorizer
from paylens.harvest import ClientConfig

from spans import Summary, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CRAWL_WORKERS = 2
PAGE_SIZE = 20
N_FOLDS = 5
INGEST_N_RANGES = ((1, 1), (1, 2))


@dataclass
class Iteration:
    """One timed pass: its wall time and the work it did."""

    wall: float
    tx: int                 # unique transactions processed
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    outputs: object = None  # kept only for the checks


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write one workload's inputs in a separate interpreter; return the manifest."""
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--out", str(out)],
        check=True, timeout=120)
    with open(out / "manifest.json", encoding="utf-8") as fp:
        return json.load(fp)


def _ms(values: list[float], q: float) -> float:
    """Percentile q (0-100) of durations in seconds, in milliseconds."""
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def _counter(**keys):
    """count() for Tracer.wrap: each key maps to a function of the result."""
    return lambda result, args: {k: f(result) for k, f in keys.items()}


def _checks(*pairs) -> list[str]:
    """Messages of the checks whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


def _pipeline_patches(tracer: Tracer) -> list:
    """Wrappers on the names `paylens.pipeline.build_dataset` looks up."""
    pl = paylens.pipeline
    w = tracer.wrap
    return [
        (pl, "tokenize_post", w(pl.tokenize_post, "tokenizer.tokenize",
                                _counter(tokens=len))),
        (pl, "detect_content_features",
         w(pl.detect_content_features, "features.detect")),
        (pl, "aggregate_user_features",
         w(pl.aggregate_user_features, "features.aggregate")),
    ]


def _base_layers(s: Summary, n: int) -> dict:
    """Layer metrics every workload reports, 0 where a layer did not run."""
    return {
        "tokenizer.tokenize_s": s.busy.get("tokenizer.tokenize", 0.0) / n,
        "tokenizer.calls": s.calls.get("tokenizer.tokenize", 0) / n,
        "tokenizer.tokens": s.count("tokenizer.tokenize", "tokens") / n,
        "features.detect_s": s.busy.get("features.detect", 0.0) / n,
        "features.aggregate_s": s.busy.get("features.aggregate", 0.0) / n,
        "pipeline.build_dataset_self_s":
            s.self_s.get("pipeline.build_dataset", 0.0) / n,
        "corpus.load_s": s.busy.get("corpus.load", 0.0) / n,
        "corpus.group_s": s.busy.get("corpus.group", 0.0) / n,
        "corpus.users": s.count("corpus.group", "users") / n,
        "labels.label_s": (s.busy.get("labels.load", 0.0)
                           + s.busy.get("labels.label", 0.0)) / n,
        "labels.kept": s.count("labels.label", "kept") / n,
        "vectorizer.fit_s": s.busy.get("vectorizer.fit", 0.0) / n,
        "vectorizer.fit.calls": s.calls.get("vectorizer.fit", 0) / n,
        "vectorizer.vocab_terms": s.count("vectorizer.fit", "terms") / n,
        "vectorizer.count_s": s.busy.get("vectorizer.count", 0.0) / n,
        "vectorizer.nnz": s.count("vectorizer.count", "nnz") / n,
        "vectorizer.tfidf_s": s.busy.get("vectorizer.tfidf", 0.0) / n,
        "vectorizer.assemble_s": s.busy.get("vectorizer.assemble", 0.0) / n,
    }


class Workload:
    """Inputs written under `work` by `inputs.py`; nothing to stop."""

    name = ""
    share_layers: tuple[str, ...] = ()  # span prefixes of trace.layer_share

    def __init__(self, seed: int, scale: str, work: Path):
        self.seed, self.scale, self.work = seed, scale, work

    def setup(self) -> None:
        self.manifest = generate(self.name, self.seed, self.scale, self.work)

    def close(self) -> None:
        pass


class Ingest(Workload):
    """Corpus JSONL to per-fold feature matrices, in one process."""

    name = "ingest"
    share_layers = ("corpus.", "tokenizer.", "features.", "vectorizer.")

    def patches(self, tracer: Tracer) -> list:
        return _pipeline_patches(tracer)

    def iteration(self, tr) -> Iteration:
        c, lb, pl = paylens.corpus, paylens.labels, paylens.pipeline
        ev, vz = paylens.evaluation, paylens.vectorizer
        t0 = time.perf_counter()
        with tr.span("corpus.load"):
            with open(self.work / "corpus.jsonl", encoding="utf-8") as fp:
                loaded = c.load_transactions(fp)
        with tr.span("corpus.group") as n:
            corpus = c.group_by_user(loaded.transactions)
            n["users"] = len(corpus.users)
        with tr.span("labels.load"):
            with open(self.work / "labels.csv", encoding="utf-8") as fp:
                political = lb.load_political_labels(fp)
        with tr.span("labels.label") as n:
            labeled = lb.build_labeled_dataset(corpus, "politics",
                                               political_labels=political)
            n["kept"] = len(labeled)
        with tr.span("pipeline.build_dataset"):
            dataset = pl.build_dataset(corpus, labeled)
        with tr.span("evaluation.kfold"):
            plan = ev.stratified_kfold(dataset.labels01.tolist(), N_FOLDS)
        folds = []
        for i in range(plan.k):
            with tr.span("evaluation.split"):
                train, test = plan.split(i)
                train_posts = [dataset.posts[j] for j in train]
                test_posts = [dataset.posts[j] for j in test]
            for n_range in INGEST_N_RANGES:
                with tr.span("vectorizer.fit") as n:
                    vocab = vz.fit_vocabulary(train_posts, n_range=n_range)
                    n["terms"] = len(vocab)
                with tr.span("vectorizer.count") as n:
                    count_train = vz.count_transform(train_posts, vocab)
                    count_test = vz.count_transform(test_posts, vocab)
                    n["nnz"] = count_train.nnz + count_test.nnz
                with tr.span("vectorizer.tfidf"):
                    tfidf_train = vz.tfidf_transform(count_train, vocab)
                    tfidf_test = vz.tfidf_transform(count_test, vocab)
                with tr.span("vectorizer.assemble"):
                    x_train, scaler = vz.assemble_feature_matrix(
                        tfidf_train, dataset.engineered[train])
                    x_test, _ = vz.assemble_feature_matrix(
                        tfidf_test, dataset.engineered[test], scaler)
                folds.append((vocab, tfidf_train, tfidf_test, x_train, x_test))
        wall = time.perf_counter() - t0
        lines = self.manifest["lines"]
        return Iteration(
            wall=wall, tx=len(loaded.transactions), attempted=lines,
            failed=loaded.skipped,
            info={"users": len(corpus.users), "labeled": len(labeled),
                  "vocab": [len(f[0]) for f in folds],
                  "nnz": [f[3].nnz for f in folds]},
            outputs=(loaded, corpus, dataset, folds))

    def check(self, its: list[Iteration]) -> tuple[list[str], dict]:
        loaded, corpus, dataset, folds = its[-1].outputs
        m = self.manifest
        signal = [paylens.tokenizer.lemma_for_word(t) for t in m["signal_tokens"]]
        missing = [(i, t) for i, f in enumerate(folds) for t in signal
                   if t not in f[0].index]
        norms = np.concatenate([
            np.sqrt(np.asarray(x.multiply(x).sum(axis=1))).ravel()
            for f in folds for x in (f[1], f[2])])
        bad_norms = int(np.sum((np.abs(norms - 1.0) > 1e-9)
                               & (np.abs(norms) > 1e-9)))
        finite = (np.isfinite(dataset.engineered).all()
                  and all(np.isfinite(f[k].data).all()
                          for f in folds for k in (3, 4)))
        names = paylens.features.engineered_feature_names()
        notes = [p for posts in dataset.posts for p in posts]
        kind_share = {k: sum(1 for p in notes
                             if any(t.kind == k for t in p.tokens)) / len(notes)
                      for k in paylens.tokenizer.TOKEN_KINDS}
        n_posts = np.array([len(p) for p in dataset.posts], dtype=float)
        detector_share = {
            f: float(dataset.engineered[:, names.index(f"{f}_pct")] @ n_posts
                     / n_posts.sum())
            for f in paylens.features.CONTENT_FEATURES}
        silent = [f for f, share in detector_share.items() if share == 0]
        same = all(it.info == its[0].info for it in its)
        failed = _checks(
            (not missing, f"signal tokens missing from fold vocabularies: "
                          f"{missing[:5]}"),
            (bad_norms == 0, f"{bad_norms} tf-idf rows with L2 norm not 0 or 1"),
            (finite, "non-finite engineered or assembled feature values"),
            (len(loaded.transactions) == m["tx"],
             f"{len(loaded.transactions)} unique tx loaded, {m['tx']} generated"),
            (len(corpus.users) == m["users"],
             f"{len(corpus.users)} users grouped, {m['users']} generated"),
            (len(dataset) == m["labeled"],
             f"{len(dataset)} labeled users, {m['labeled']} generated"),
            (not silent, f"content detectors that never fired: {silent}"),
            (all(v > 0 for v in kind_share.values()),
             f"token kinds never matched: {kind_share}"),
            (same, "iterations disagree on users, vocabulary or nnz"),
        )
        info = {"note_share_by_token_kind": kind_share,
                "note_share_by_detector": detector_share,
                "duplicate_line_share": (m["lines"] - len(loaded.transactions))
                / m["lines"],
                "unique_tx": len(loaded.transactions), "lines": m["lines"],
                "labeled_users": len(dataset)}
        return failed, info

    def layers(self, s: Summary, its: list[Iteration]) -> dict:
        n = len(its)
        out = _base_layers(s, n)
        lines = self.manifest["lines"]
        out["corpus.lines"] = float(lines)
        out["corpus.dups"] = float(lines - self.manifest["tx"])
        return out


class Grid(Workload):
    """`paylens evaluate --grid` in process, via paylens.cli.main."""

    name = "grid"
    share_layers = ("models.",)

    def patches(self, tracer: Tracer) -> list:
        cli, c, lb = paylens.cli, paylens.corpus, paylens.labels
        ev, pl = paylens.evaluation, paylens.pipeline
        w = tracer.wrap

        def svm_counts(model, args):
            bound = model.tol * max(abs(model.primal_objective), 1.0)
            return {"epochs": model.epochs_run,
                    "converged": int(model.duality_gap <= bound)}

        def gbdt_counts(model, args):
            curve = model.loss_curve
            return {"rounds": len(curve) - 1,
                    "useful": sum(1 for a, b in zip(curve, curve[1:]) if b < a)}

        def saved_bytes(result, args):
            return {"bytes": os.path.getsize(args[1])}

        return _pipeline_patches(tracer) + [
            (c, "load_transactions", w(c.load_transactions, "corpus.load")),
            (c, "group_by_user", w(c.group_by_user, "corpus.group",
                                   _counter(users=lambda r: len(r.users)))),
            (lb, "load_political_labels",
             w(lb.load_political_labels, "labels.load")),
            (lb, "build_labeled_dataset",
             w(lb.build_labeled_dataset, "labels.label", _counter(kept=len))),
            (cli, "balance_classes",
             w(cli.balance_classes, "evaluation.balance")),
            (cli, "build_dataset",
             w(cli.build_dataset, "pipeline.build_dataset")),
            (cli, "stratified_kfold",
             w(cli.stratified_kfold, "evaluation.kfold")),
            (cli, "grid_search", w(cli.grid_search, "evaluation.grid_search")),
            (cli, "save_pipeline",
             w(cli.save_pipeline, "models.serialize.save", saved_bytes)),
            (ev, "cross_validate", w(ev.cross_validate, "evaluation.cv")),
            (ev, "fit_pipeline", w(ev.fit_pipeline, "pipeline.fit")),
            (ev, "pipeline_transform",
             w(ev.pipeline_transform, "pipeline.transform")),
            (ev, "pipeline_predict",
             w(ev.pipeline_predict, "pipeline.predict")),
            (pl, "fit_vocabulary", w(pl.fit_vocabulary, "vectorizer.fit",
                                     _counter(terms=len))),
            (pl, "count_transform", w(pl.count_transform, "vectorizer.count",
                                      _counter(nnz=lambda m: m.nnz))),
            (pl, "tfidf_transform", w(pl.tfidf_transform, "vectorizer.tfidf")),
            (pl, "assemble_feature_matrix",
             w(pl.assemble_feature_matrix, "vectorizer.assemble")),
            (pl, "train_linear_svm",
             w(pl.train_linear_svm, "models.svm.fit", svm_counts)),
            (pl, "train_mlp", w(pl.train_mlp, "models.mlp.fit",
                                _counter(epochs=lambda m: len(m.loss_curve)))),
            (pl, "train_gbdt", w(pl.train_gbdt, "models.gbdt.fit", gbdt_counts)),
            (pl, "svm_predict", w(pl.svm_predict, "models.svm.predict")),
            (pl, "mlp_predict", w(pl.mlp_predict, "models.mlp.predict")),
            (pl, "gbdt_predict", w(pl.gbdt_predict, "models.gbdt.predict")),
        ]

    def iteration(self, tr) -> Iteration:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = ["evaluate", "--in", str(self.work / "corpus.jsonl"),
                "--task", "politics",
                "--labels-file", str(self.work / "labels.csv"),
                "--grid", str(self.work / "grid.json"),
                "--folds", str(self.manifest["folds"]),
                "--report", str(out / "report.json"),
                "--model-out", str(out / "model.json")]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = paylens.cli.main(argv)
        wall = time.perf_counter() - t0
        report = None
        if code == 0:
            with open(out / "report.json", encoding="utf-8") as fp:
                report = json.load(fp)
        configs = self.manifest["configs"]
        done = len(report["configs"]) if report else 0
        return Iteration(
            wall=wall, tx=self.manifest["tx"], attempted=configs,
            failed=configs - done,
            info={"exit_code": code,
                  "best_cv_acc": report["best"]["mean_accuracy"] if report else 0.0,
                  "fits": done * self.manifest["folds"] + (1 if report else 0)},
            outputs=(report, (out / "model.json").exists()))

    def check(self, its: list[Iteration]) -> tuple[list[str], dict]:
        report, model_written = its[-1].outputs
        m = self.manifest
        configs = report["configs"] if report else []
        shapes_ok = (len(configs) == m["configs"]
                     and all(len(c["fold_accuracies"]) == m["folds"]
                             for c in configs))
        best = report["best"]["mean_accuracy"] if report else 0.0
        walls = [it.wall for it in its]
        fits = its[-1].info["fits"]
        failed = _checks(
            (report is not None, f"evaluate exited {its[-1].info['exit_code']}"),
            (shapes_ok, f"report has {len(configs)} configs, want "
                        f"{m['configs']} x {m['folds']} fold accuracies"),
            (best >= 0.90, f"best_cv_acc {best:.4f} < 0.90"),
            (model_written, "--model-out file was not written"),
            (all(it.info == its[0].info for it in its),
             "iterations disagree on the report"),
        )
        info = {"best_cv_acc": best, "fits_per_evaluate": fits,
                "fits_per_s": fits / statistics.median(walls),
                "configs": len(configs)}
        return failed, info

    def layers(self, s: Summary, its: list[Iteration]) -> dict:
        n = len(its)
        out = _base_layers(s, n)
        out["corpus.lines"] = float(self.manifest["tx"])
        svm_calls = s.calls.get("models.svm.fit", 0)
        gbdt_rounds = s.count("models.gbdt.fit", "rounds")
        out.update({
            "evaluation.cv_s": s.busy.get("evaluation.cv", 0.0) / n,
            "evaluation.cv.calls": s.calls.get("evaluation.cv", 0) / n,
            "pipeline.fit_s": s.busy.get("pipeline.fit", 0.0) / n,
            "pipeline.transform_s": s.busy.get("pipeline.transform", 0.0) / n,
            "pipeline.predict_s": s.busy.get("pipeline.predict", 0.0) / n,
            "models.svm.fit_s": s.busy.get("models.svm.fit", 0.0) / n,
            "models.svm.fit.calls": svm_calls / n,
            "models.svm.epochs": s.count("models.svm.fit", "epochs") / n,
            "models.svm.converged_frac":
                s.count("models.svm.fit", "converged") / svm_calls
                if svm_calls else 0.0,
            "models.gbdt.fit_s": s.busy.get("models.gbdt.fit", 0.0) / n,
            "models.gbdt.fit.calls": s.calls.get("models.gbdt.fit", 0) / n,
            "models.gbdt.useful_round_frac":
                s.count("models.gbdt.fit", "useful") / gbdt_rounds
                if gbdt_rounds else 0.0,
            "models.mlp.fit_s": s.busy.get("models.mlp.fit", 0.0) / n,
            "models.mlp.fit.calls": s.calls.get("models.mlp.fit", 0) / n,
            "models.mlp.epochs": s.count("models.mlp.fit", "epochs") / n,
            "models.serialize.save_s":
                s.busy.get("models.serialize.save", 0.0) / n,
            "models.serialize.bytes":
                s.count("models.serialize.save", "bytes") / n,
            "evaluation.fits": sum(it.info["fits"] for it in its) / n,
            "evaluation.best_cv_acc":
                sum(it.info["best_cv_acc"] for it in its) / n,
        })
        return out


class Crawl(Workload):
    """Two-worker crawl against the mock server, stopped half-way and resumed."""

    name = "crawl"
    share_layers = ("harvest.get",)
    server: subprocess.Popen | None = None

    def setup(self) -> None:
        super().setup()
        with open(self.work / "user_ids.txt", encoding="utf-8") as fp:
            self.user_ids = [line.strip() for line in fp if line.strip()]
        self.expected = {t for ids in self.manifest["user_tx"].values()
                         for t in ids}
        # a timeline of n transactions takes ceil(n / page) pages, at least one
        self.pages = sum(max(1, -(-len(ids) // PAGE_SIZE))
                         for ids in self.manifest["user_tx"].values())
        self.server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "crawl_server.py"),
             str(self.work / "corpus.jsonl"), str(PAGE_SIZE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        hello = self.server.stdout.readline()
        if not hello:
            raise RuntimeError("mock server process exited during start-up")
        self.url = json.loads(hello)["url"]

    def server_counts(self, command: str = "stats") -> dict:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return json.loads(self.server.stdout.readline())

    def close(self) -> None:
        if self.server is None:
            return
        try:
            self.server_counts("stop")
            self.server.wait(timeout=30)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait()
            self.server = None

    def patches(self, tracer: Tracer) -> list:
        hc = paylens.harvest.client
        w = tracer.wrap

        def http_counts(resp, args):
            return {"429": int(resp.status_code == 429),
                    "5xx": int(resp.status_code >= 500)}

        def checkpoint_bytes(result, args):
            return {"bytes": os.path.getsize(args[1])}

        return [
            (hc, "fetch_user_transactions",
             w(hc.fetch_user_transactions, "harvest.fetch_user")),
            (hc.HarvestClient, "get", w(hc.HarvestClient.get, "harvest.get")),
            (requests.Session, "get",
             w(requests.Session.get, "harvest.http", http_counts)),
            (hc, "save_checkpoint",
             w(hc.save_checkpoint, "harvest.checkpoint_save", checkpoint_bytes)),
            (hc, "load_checkpoint",
             w(hc.load_checkpoint, "harvest.checkpoint_load")),
        ]

    def iteration(self, tr) -> Iteration:
        crawl = paylens.harvest.client.crawl_users
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        checkpoint, sink = run / "checkpoint.json", run / "sink.jsonl"
        before = self.server_counts()
        t0 = time.perf_counter()
        with tr.span("harvest.crawl"):
            with open(sink, "w", encoding="utf-8") as out:
                first = crawl(self.url, self.user_ids, workers=CRAWL_WORKERS,
                              checkpoint_path=checkpoint, out=out,
                              client=ClientConfig(),
                              max_users=len(self.user_ids) // 2)
        with tr.span("harvest.crawl"):
            with open(sink, "a", encoding="utf-8") as out:
                second = crawl(self.url, self.user_ids, workers=CRAWL_WORKERS,
                               checkpoint_path=checkpoint, out=out,
                               client=ClientConfig())
        wall = time.perf_counter() - t0
        after = self.server_counts()
        requests_seen = after["requests"] - before["requests"]
        limited = after["rate_limited"] - before["rate_limited"]
        with open(sink, encoding="utf-8") as fp:
            sink_ids = [json.loads(line)["id"] for line in fp]
        returned = [t.id for t in first] + [t.id for t in second]
        # checked here, as each iteration's sink is replaced by the next
        problems = _checks(
            (len(sink_ids) == len(set(sink_ids)),
             "duplicate ids in the sink across stop and resume"),
            (set(sink_ids) == self.expected,
             f"sink holds {len(set(sink_ids))} ids, queued users have "
             f"{len(self.expected)}"),
            (sorted(returned) == sorted(sink_ids),
             "returned transactions differ from the sink"),
            (limited == 0, f"server rate-limited {limited} requests"),
        )
        return Iteration(
            wall=wall, tx=len(first) + len(second), attempted=requests_seen,
            # every request past the pages a crawl needs retried a failure
            failed=max(requests_seen - self.pages, limited),
            info={"server_requests": requests_seen, "rate_limited": limited,
                  "problems": problems})

    def check(self, its: list[Iteration]) -> tuple[list[str], dict]:
        problems = [f"iteration {k}: {msg}" for k, it in enumerate(its)
                    for msg in it.info["problems"]]
        info = {"queued_users": len(self.user_ids), "pages": self.pages,
                "unique_tx": len(self.expected)}
        return problems, info

    def layers(self, s: Summary, its: list[Iteration]) -> dict:
        n = len(its)
        out = _base_layers(s, n)
        get = s.durations.get("harvest.get", [])
        fetch = s.durations.get("harvest.fetch_user", [])
        out.update({
            "harvest.get_p50_ms": _ms(get, 50),
            "harvest.get_p99_ms": _ms(get, 99),
            "harvest.get.calls": len(get) / n,
            "harvest.http.attempts": s.calls.get("harvest.http", 0) / n,
            "harvest.http_429": s.count("harvest.http", "429") / n,
            "harvest.fetch_user_p50_ms": _ms(fetch, 50),
            "harvest.fetch_user_p99_ms": _ms(fetch, 99),
            "harvest.fetch_user_self_s":
                s.self_s.get("harvest.fetch_user", 0.0) / n,
            "harvest.checkpoint_save_s":
                s.busy.get("harvest.checkpoint_save", 0.0) / n,
            "harvest.checkpoint.calls":
                s.calls.get("harvest.checkpoint_save", 0) / n,
            "harvest.checkpoint.bytes":
                s.count("harvest.checkpoint_save", "bytes") / n,
            "harvest.checkpoint_load_s":
                s.busy.get("harvest.checkpoint_load", 0.0) / n,
            "harvest.server.requests":
                sum(it.info["server_requests"] for it in its) / n,
            "harvest.server.rate_limited":
                sum(it.info["rate_limited"] for it in its) / n,
        })
        return out


WORKLOADS = {w.name: w for w in (Ingest, Grid, Crawl)}

# Every per-layer metric with its unit. A traced run reports all of them on
# every workload; a layer the workload does not run reads 0.
LAYER_UNITS = {
    "corpus.load_s": "s", "corpus.lines": "count", "corpus.dups": "count",
    "corpus.group_s": "s", "corpus.users": "count",
    "labels.label_s": "s", "labels.kept": "count",
    "tokenizer.tokenize_s": "s", "tokenizer.calls": "count",
    "tokenizer.tokens": "count",
    "features.detect_s": "s", "features.aggregate_s": "s",
    "pipeline.build_dataset_self_s": "s",
    "vectorizer.fit_s": "s", "vectorizer.fit.calls": "count",
    "vectorizer.vocab_terms": "count", "vectorizer.count_s": "s",
    "vectorizer.nnz": "count", "vectorizer.tfidf_s": "s",
    "vectorizer.assemble_s": "s",
    "evaluation.cv_s": "s", "evaluation.cv.calls": "count",
    "evaluation.fits": "count", "evaluation.best_cv_acc": "frac",
    "pipeline.fit_s": "s", "pipeline.transform_s": "s",
    "pipeline.predict_s": "s",
    "models.svm.fit_s": "s", "models.svm.fit.calls": "count",
    "models.svm.epochs": "count", "models.svm.converged_frac": "frac",
    "models.gbdt.fit_s": "s", "models.gbdt.fit.calls": "count",
    "models.gbdt.useful_round_frac": "frac",
    "models.mlp.fit_s": "s", "models.mlp.fit.calls": "count",
    "models.mlp.epochs": "count",
    "models.serialize.save_s": "s", "models.serialize.bytes": "bytes",
    "harvest.get_p50_ms": "ms", "harvest.get_p99_ms": "ms",
    "harvest.get.calls": "count", "harvest.http.attempts": "count",
    "harvest.http_429": "count", "harvest.fetch_user_p50_ms": "ms",
    "harvest.fetch_user_p99_ms": "ms", "harvest.fetch_user_self_s": "s",
    "harvest.checkpoint_save_s": "s", "harvest.checkpoint.calls": "count",
    "harvest.checkpoint.bytes": "bytes", "harvest.checkpoint_load_s": "s",
    "harvest.server.requests": "count", "harvest.server.rate_limited": "count",
    "trace.top_coverage": "frac", "trace.layer_share": "frac",
    "trace.overhead_s": "s",
}
