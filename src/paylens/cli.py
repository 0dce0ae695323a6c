"""Command-line driver.

Subcommands: synth, ingest, stats, featurize, label, train, evaluate,
report-coefficients, harvest feed, harvest users, serve-mock,
tokenize-debug. Every command exits 0 on success and nonzero with a
module-prefixed diagnostic on failure. A JSON object passed with --config
supplies defaults for label and pipeline options; explicit flags win.
Relative input and output paths resolve against $PAYLENS_DATA_DIR when it
is set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import corpus as corpus_mod
from . import labels as labels_mod
from .errors import PaylensError
from .evaluation import (GridSpec, balance_classes, check_folds, grid_search,
                         stratified_kfold)
from .features import engineered_feature_names
from .harvest import (ClientConfig, MockServerConfig, crawl_users,
                      fetch_public_feed, run_mock_server)
from .models import top_coefficients
from .pipeline import (CLASSIFIERS, VECTORIZERS, PipelineConfig, build_dataset,
                       decode, fit_pipeline, fits_type, load_pipeline,
                       save_pipeline, user_features)
from .synth import SynthSpec, generate_synthetic_corpus
from .tokenizer import tokenize_post


def _resolve_path(path: str) -> str:
    if path == "-" or os.path.isabs(path):
        return path
    base = os.environ.get("PAYLENS_DATA_DIR")
    return os.path.join(base, path) if base else path


def _open_in(path: str, binary: bool = False):
    """Text, or bytes for a corpus, so that a line not UTF-8 fails alone."""
    if path == "-":  # don't close the stream
        return contextlib.nullcontext(sys.stdin.buffer if binary else sys.stdin)
    if binary:
        return open(_resolve_path(path), "rb")
    return open(_resolve_path(path), encoding="utf-8")


def _open_out(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(_resolve_path(path), "w", encoding="utf-8")


def _load_json(path: str):
    """A JSON input file; nesting too deep to decode is a ValueError too."""
    with _open_in(path) as fp:
        try:
            return json.load(fp)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply") from exc


def _load_corpus(path: str, min_posts: int = 1) -> corpus_mod.Corpus:
    """The grouped corpus; a bad min_posts fails before the file is opened."""
    corpus_mod.check_min_posts(min_posts)
    with _open_in(path, binary=True) as fp:
        result = corpus_mod.load_transactions(fp)
    if result.skipped:
        print(f"warning: skipped {result.skipped} malformed line(s)",
              file=sys.stderr)
    return corpus_mod.filter_min_posts(
        corpus_mod.group_by_user(result.transactions), min_posts)


# Every key --config may set, each the dest of a label or pipeline flag, with
# the type the CLI checks; `object` marks a key that PipelineConfig checks.
_OPTIONS = {"balance": bool, "labels_file": str, "region": str, "seed": int,
            **dict.fromkeys(("vectorizer", "ngram_min", "ngram_max", "min_df",
                             "use_engineered", "include_actor_pct", "classifier",
                             "C", "mlp_overrides", "gbdt_overrides"), object)}


def _options(args) -> dict:
    """The --config object with the given flags laid over it; a file that is
    not an object, an unknown key or a mistyped label key is a ValueError."""
    opts = {}
    if args.config:
        opts = _load_json(args.config)
        if not isinstance(opts, dict):
            raise ValueError(f"config must be a JSON object, got {str(opts)[:80]}")
    opts.update((k, v) for k, v in vars(args).items()
                if k in _OPTIONS and v is not None)
    for key, value in opts.items():
        if key not in _OPTIONS:
            raise ValueError(f"config: unknown key {key!r} (keys: {list(_OPTIONS)})")
        if not fits_type(value, _OPTIONS[key]):
            raise ValueError(f"{key} must be {_OPTIONS[key].__name__}, got {value!r}")
    return opts


def _pipeline_config(opts: dict) -> PipelineConfig:
    """The PipelineConfig of the options train and evaluate share."""
    n_lo, n_hi = PipelineConfig.n_range
    return PipelineConfig(
        n_range=(opts.get("ngram_min", n_lo), opts.get("ngram_max", n_hi)),
        **{f.name: opts[f.name] for f in fields(PipelineConfig) if f.name in opts})


def _labeled_users(args, opts: dict):
    """The corpus and its labeled users for label, train and evaluate; a bad
    label file or gender region fails before the corpus is read. Politics
    ignores the region, which a --config file may set for both tasks."""
    name_corpus = political = None
    region = opts.get("region", "us")
    if args.name_corpus:
        with _open_in(args.name_corpus) as fp:
            name_corpus = labels_mod.load_name_corpus(fp)
    if args.task == "gender":
        if name_corpus is None:
            name_corpus = labels_mod.default_name_corpus()
        name_corpus.check_region(region)
    if args.task == "politics":
        if "labels_file" not in opts:
            raise labels_mod.LabelFileError(
                "politics task requires --labels-file")
        with _open_in(opts["labels_file"]) as fp:
            political = labels_mod.load_political_labels(fp)
    grouped = _load_corpus(args.infile, min_posts=args.min_posts)
    labeled = labels_mod.build_labeled_dataset(
        grouped, args.task, name_corpus=name_corpus,
        region=region, political_labels=political)
    if opts.get("balance", True):
        labeled = balance_classes(labeled, seed=opts.get("seed", 0))
    return grouped, labeled


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_users_per_class=args.users_per_class,
        posts_per_user=(args.posts_min, args.posts_max),
        p_signal=args.p_signal,
        p_noise=args.p_noise,
        emoji_fraction=args.emoji_fraction,
        seed=args.seed,
    )
    result = generate_synthetic_corpus(spec)
    with _open_out(args.out) as fp:
        corpus_mod.dump_transactions(result.transactions, fp)
    if args.labels_out:
        with _open_out(args.labels_out) as fp:
            fp.write("user_id,label\n")
            for user_id, label in result.labels:
                fp.write(f"{user_id},{label}\n")
    print(f"wrote {len(result.transactions)} transactions, "
          f"{len(result.labels)} labeled users")
    return 0


def cmd_ingest(args) -> int:
    with _open_in(args.infile, binary=True) as fp:
        result = corpus_mod.load_transactions(fp, strict=args.strict)
    with _open_out(args.out) as fp:
        corpus_mod.dump_transactions(result.transactions, fp)
    print(f"ingested {len(result.transactions)} transactions "
          f"({result.skipped} skipped)")
    return 0


def cmd_stats(args) -> int:
    grouped = _load_corpus(args.infile)
    histogram = corpus_mod.note_length_histogram(grouped)
    with _open_out(args.out) as fp:
        fp.write("length,count\n")
        for length in sorted(histogram):
            fp.write(f"{length},{histogram[length]}\n")
    total = sum(histogram.values())
    mode = max(histogram, key=lambda k: (histogram[k], -k)) if histogram else None
    print(f"{total} transactions, {len(grouped.users)} users, "
          f"mode note length {mode}")
    return 0


def cmd_featurize(args) -> int:
    grouped = _load_corpus(args.infile, min_posts=args.min_posts)
    names = engineered_feature_names(args.include_actor_pct)
    with _open_out(args.out) as fp:
        writer = csv.writer(fp)
        writer.writerow(["user_id"] + names)
        for user_id in sorted(grouped.users):
            _, row = user_features(grouped.users[user_id], args.include_actor_pct, {})
            writer.writerow([user_id] + [repr(float(v)) for v in row])
    print(f"featurized {len(grouped.users)} users ({len(names)} columns)")
    return 0


def cmd_label(args) -> int:
    labeled = _labeled_users(args, _options(args))[1]
    class_names = labels_mod.CLASS_NAMES[args.task]
    with _open_out(args.out) as fp:
        fp.write("user_id,label,class_name\n")
        for lu in labeled:
            fp.write(f"{lu.user_id},{lu.label},{class_names[lu.label]}\n")
    print(f"labeled {len(labeled)} users for task {args.task}")
    return 0


def cmd_train(args) -> int:
    opts = _options(args)
    config = _pipeline_config(opts)
    dataset = build_dataset(*_labeled_users(args, opts),
                            include_actor_pct=config.include_actor_pct)
    fitted = fit_pipeline(dataset, np.arange(len(dataset)), config)
    save_pipeline(fitted, _resolve_path(args.out))
    print(f"trained {config.classifier} on {len(dataset)} users "
          f"({len(fitted.feature_names)} features) -> {args.out}")
    return 0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def cmd_evaluate(args) -> int:
    workers = _usable_cpus() if args.workers is None else args.workers
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")
    check_folds(args.folds)
    opts = _options(args)
    config = _pipeline_config(opts)
    grid = (decode(_load_json(args.grid), GridSpec, "grid", ValueError)
            if args.grid else GridSpec())
    configs = grid.expand(config)
    dataset = build_dataset(*_labeled_users(args, opts),
                            include_actor_pct=config.include_actor_pct)
    plan = stratified_kfold(dataset.labels01.tolist(), k=args.folds,
                            seed=config.seed)
    report = grid_search(configs, plan, dataset, workers=workers)
    with _open_out(args.report) as fp:
        json.dump(report.to_dict(), fp, indent=2)
        fp.write("\n")
    if args.model_out:
        save_pipeline(report.best_model, _resolve_path(args.model_out))
    best = report.best
    print(f"best config: {best.config.classifier}/{best.config.vectorizer} "
          f"ngrams={best.config.n_range} C={best.config.C} "
          f"mean accuracy {best.mean_accuracy:.4f}")
    return 0


def cmd_report_coefficients(args) -> int:
    fitted = load_pipeline(_resolve_path(args.model))
    model = fitted.model
    if model.kind != "svm":
        raise PaylensError(
            f"coefficient report requires a linear SVM, got {model.kind!r}")
    positive, negative = top_coefficients(model, fitted.feature_names, args.k)
    neg_name, pos_name = fitted.class_names
    with _open_out(args.out) as fp:
        writer = csv.writer(fp)
        writer.writerow(["feature", "weight", "class"])
        for name, weight in positive:
            writer.writerow([name, repr(weight), pos_name])
        for name, weight in negative:
            writer.writerow([name, repr(weight), neg_name])
    print(f"wrote {len(positive)}+{len(negative)} coefficients")
    return 0


def cmd_harvest_feed(args) -> int:
    client = ClientConfig(rate=args.rate, burst=args.burst)
    txns = fetch_public_feed(args.endpoint, pages=args.pages, client=client)
    with _open_out(args.out) as fp:
        corpus_mod.dump_transactions(txns, fp)
    print(f"collected {len(txns)} unique transactions over {args.pages} poll(s)")
    return 0


def cmd_harvest_users(args) -> int:
    with _open_in(args.ids) as fp:
        user_ids = [line.strip() for line in fp if line.strip()]
    client = ClientConfig(rate=args.rate, burst=args.burst)
    resume = args.checkpoint and os.path.exists(_resolve_path(args.checkpoint))
    mode = "a" if resume else "w"
    with open(_resolve_path(args.out), mode, encoding="utf-8") as out:
        collected = crawl_users(
            args.endpoint, user_ids, workers=args.workers,
            checkpoint_path=_resolve_path(args.checkpoint) if args.checkpoint else None,
            out=out, client=client, max_users=args.max_users)
    print(f"collected {len(collected)} new transactions "
          f"from {len(user_ids)} queued users")
    return 0


def cmd_serve_mock(args) -> int:
    config = MockServerConfig(page_size=args.page_size,
                              refresh_interval=args.refresh_interval,
                              rate_limit=args.rate_limit,
                              usernames=(_load_json(args.usernames)
                                         if args.usernames else {}))
    grouped = _load_corpus(args.corpus)
    server = run_mock_server(grouped, config, port=args.port)
    stop_note = (f"stopping after {args.duration}s" if args.duration
                 else "Ctrl-C to stop")
    print(f"mock server on {server.url} "
          f"({len(grouped)} transactions); {stop_note}",
          flush=True)
    try:
        if args.duration:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_tokenize_debug(args) -> int:
    post = tokenize_post(args.note)
    print(f"{'kind':<10} {'surface':<20} lemma")
    for tok in post.tokens:
        print(f"{tok.kind:<10} {tok.surface:<20} {tok.lemma}")
    return 0


# ---------------------------------------------------------------- parser

def _add_common_label_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--task", choices=("gender", "politics"), required=True)
    p.add_argument("--labels-file", help="politics: CSV user_id,label")
    p.add_argument("--name-corpus", help="TSV name corpus (default: bundled)")
    p.add_argument("--region", default=None)
    p.add_argument("--min-posts", type=int, default=5)
    p.add_argument("--balance", action="store_true", default=None,
                   help="downsample the majority class (default on)")
    p.add_argument("--no-balance", dest="balance", action="store_false")
    p.add_argument("--config", help="JSON file with option defaults")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vectorizer", choices=VECTORIZERS, default=None)
    p.add_argument("--ngram-min", type=int, default=None)
    p.add_argument("--ngram-max", type=int, default=None)
    p.add_argument("--min-df", type=int, default=None)
    p.add_argument("--classifier", choices=CLASSIFIERS, default=None)
    p.add_argument("-C", dest="C", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-engineered", dest="use_engineered",
                   action="store_false", default=None)
    p.add_argument("--include-actor-pct", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paylens",
        description="Latent attribute prediction from social-payment notes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--users-per-class", type=int, default=100)
    p.add_argument("--posts-min", type=int, default=5)
    p.add_argument("--posts-max", type=int, default=12)
    p.add_argument("--p-signal", type=float, default=0.6)
    p.add_argument("--p-noise", type=float, default=0.1)
    p.add_argument("--emoji-fraction", type=float, default=0.6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, validate and dedup a JSONL corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="note-length histogram CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("featurize", help="engineered feature rows per user")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-posts", type=int, default=1)
    p.add_argument("--include-actor-pct", action="store_true")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("label", help="derive task labels for users")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_common_label_args(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="fit one pipeline config on all users")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="pipeline artifact path")
    _add_common_label_args(p)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validated grid search")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--grid", help="grid spec JSON (default: built-in grid)")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--report", required=True)
    p.add_argument("--model-out", help="save the refit best pipeline here")
    p.add_argument("--workers", type=int, default=None,
                   help="processes that cross-validate (default: the usable "
                        "CPUs; 1 runs in this process); results do not "
                        "depend on it")
    _add_common_label_args(p)
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report-coefficients",
                       help="top SVM weights per class as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("-k", type=int, default=15)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_report_coefficients)

    p = sub.add_parser("harvest", help="collect transactions over HTTP")
    hsub = p.add_subparsers(dest="harvest_command", required=True)

    hp = hsub.add_parser("feed", help="poll the public feed")
    hp.add_argument("--endpoint", required=True)
    hp.add_argument("--pages", type=int, default=1)
    hp.add_argument("--out", required=True)
    hp.add_argument("--rate", type=float, default=0.0)
    hp.add_argument("--burst", type=float, default=1.0)
    hp.set_defaults(func=cmd_harvest_feed)

    hp = hsub.add_parser("users", help="crawl every queued user's history")
    hp.add_argument("--endpoint", required=True)
    hp.add_argument("--ids", required=True, help="file with one user id per line")
    hp.add_argument("--workers", type=int, default=8)
    hp.add_argument("--checkpoint")
    hp.add_argument("--out", required=True)
    hp.add_argument("--rate", type=float, default=0.0)
    hp.add_argument("--burst", type=float, default=1.0)
    hp.add_argument("--max-users", type=int, default=None)
    hp.set_defaults(func=cmd_harvest_users)

    p = sub.add_parser("serve-mock", help="run the mock feed server")
    p.add_argument("--corpus", required=True)
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--page-size", type=int, default=20)
    p.add_argument("--refresh-interval", type=float, default=900.0)
    p.add_argument("--rate-limit", type=float, default=0.0)
    p.add_argument("--usernames", help="JSON username -> user_id map")
    p.add_argument("--duration", type=float, default=0.0,
                   help="serve for N seconds then exit (0 = run until Ctrl-C)")
    p.set_defaults(func=cmd_serve_mock)

    p = sub.add_parser("tokenize-debug", help="print the token table of a note")
    p.add_argument("--note", required=True)
    p.set_defaults(func=cmd_tokenize_debug)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PaylensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
