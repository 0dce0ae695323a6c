"""Input generation for the benchmark workloads.

Every input is a pure function of (workload, seed, scale): the same seed
gives byte-identical files. Generation runs in its own interpreter
(`python3 bench/inputs.py ...`) so that building the inputs never sets the
benchmark process's peak memory. `paylens.synth` supplies the base corpora;
it is used here only to make inputs and is not measured.

Each generator writes a `manifest.json` beside its files with the counts the
output checks compare against.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from paylens.corpus import dump_transactions, transaction_to_obj  # noqa: E402
from paylens.synth import SynthSpec, generate_synthetic_corpus  # noqa: E402

# Input sizes per workload. "smoke" keeps the benchmark's own test fast.
SIZES = {
    "full": {
        "ingest": {"users_per_class": 1200, "posts": (2, 40)},
        "grid": {"users_per_class": 50, "posts": (8, 8)},
        "crawl": {"users_per_class": 75, "posts": (10, 50)},
    },
    "smoke": {
        "ingest": {"users_per_class": 20, "posts": (2, 10)},
        "grid": {"users_per_class": 15, "posts": (8, 8)},
        "crawl": {"users_per_class": 6, "posts": (10, 30)},
    },
}

# The paper's notes are short and emoji-heavy. These fixed pools make every
# tokenizer matcher (shortcode, emoticon, emoji incl. ZWJ / skin tone / flag /
# keycap, word, number, punct) and all eleven content detectors fire.
EMOJI_EXTRA = ("👩‍👩‍👧", "👨‍💻", "🏳️‍🌈", "👍🏽", "👋🏿", "🙌🏻",
               "🇺🇸", "🇲🇽", "🇯🇵", "❤️", "1️⃣", "🔥🔥")
SHORTCODES = (":pizza:", ":beers:", ":moneybag:", ":tada:", ":fire:", ":heart:")
EMOTICONS = (":)", ":-D", "<3", ";)", "xD", "^_^", ":P", ":(")
ELONGATED = ("heyyyy", "sooo", "yesss", "thanksss", "yayyy", "noooo")
LAUGHS = ("haha", "hahaha", "lol", "lmao", "hehe")
OMGS = ("omg", "omggg", "OMG")
CURSES = ("damn", "crap", "hell")
AMOUNTS = ("$20", "$12.50", "x2", "2,000", "3")

P_DECORATE = 0.55   # share of notes that get at least one decoration
P_SHOUT = 0.04      # share of notes rewritten in all caps
P_DUPLICATE = 0.05  # share of lines re-emitted later, as overlapping polls do


def _decorate(note: str, rng: np.random.Generator) -> str:
    if rng.random() >= P_DECORATE:
        return note
    words = note.split(" ") if note else []

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(9))
        if kind == 0:
            words.append(pick(EMOJI_EXTRA))
        elif kind == 1:
            words.append(pick(SHORTCODES))
        elif kind == 2:
            words.append(pick(EMOTICONS))
        elif kind == 3:
            words.insert(int(rng.integers(len(words) + 1)), pick(ELONGATED))
        elif kind == 4:
            words.append(pick(LAUGHS))
        elif kind == 5:
            words.insert(0, pick(OMGS))
        elif kind == 6:
            words.append(pick(CURSES))
        elif kind == 7:
            words.insert(int(rng.integers(len(words) + 1)), pick(AMOUNTS))
        else:
            words.append(pick(("!!", "!!!", "...", "…")))
    out = " ".join(words)
    if rng.random() < 0.15:
        out += "!"
    if rng.random() < P_SHOUT:
        out = out.upper()
    return out


def _synth(workload: str, seed: int, scale: str, **overrides):
    size = SIZES[scale][workload]
    spec = SynthSpec(n_users_per_class=size["users_per_class"],
                     posts_per_user=size["posts"], seed=seed, **overrides)
    return generate_synthetic_corpus(spec)


def _write_labels(path: Path, labels) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("user_id,label\n")
        for user_id, label in labels:
            fp.write(f"{user_id},{label}\n")


def _n_users(transactions) -> int:
    return len({u for t in transactions for u in (t.actor_id, t.target_id)})


def gen_ingest(out: Path, seed: int, scale: str) -> dict:
    synth = _synth("ingest", seed, scale)
    rng = np.random.default_rng([seed, 1])
    txns = [dataclasses.replace(t, note=_decorate(t.note, rng))
            for t in synth.transactions]
    recent: list[str] = []
    n_lines = 0
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fp:
        for t in txns:
            line = json.dumps(transaction_to_obj(t), ensure_ascii=False) + "\n"
            fp.write(line)
            recent = (recent + [line])[-20:]
            n_lines += 1
            if rng.random() < P_DUPLICATE:
                fp.write(recent[int(rng.integers(len(recent)))])
                n_lines += 1
    _write_labels(out / "labels.csv", synth.labels)
    return {"lines": n_lines, "tx": len(txns), "users": _n_users(txns),
            "labeled": len(synth.labels),
            "signal_tokens": list(SynthSpec().signal_tokens_a
                                  + SynthSpec().signal_tokens_b)}


def gen_grid(out: Path, seed: int, scale: str) -> dict:
    synth = _synth("grid", seed, scale, p_signal=0.6, p_noise=0.1)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fp:
        dump_transactions(synth.transactions, fp)
    _write_labels(out / "labels.csv", synth.labels)
    grid = {"vectorizers": ["count", "tfidf"], "n_ranges": [[1, 2]],
            "classifiers": ["svm", "mlp", "gbdt"]}
    with open(out / "grid.json", "w", encoding="utf-8") as fp:
        json.dump(grid, fp)
    return {"tx": len(synth.transactions), "labeled": len(synth.labels),
            "configs": 2 * (5 + 1 + 1), "folds": 5}


def gen_crawl(out: Path, seed: int, scale: str) -> dict:
    synth = _synth("crawl", seed, scale)
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fp:
        dump_transactions(synth.transactions, fp)
    queued = [u for u, _ in synth.labels]
    np.random.default_rng([seed, 2]).shuffle(queued)
    with open(out / "user_ids.txt", "w", encoding="utf-8") as fp:
        fp.write("".join(f"{u}\n" for u in queued))
    by_user: dict[str, list[str]] = {u: [] for u in queued}
    for t in synth.transactions:
        for u in (t.actor_id, t.target_id):
            if u in by_user:
                by_user[u].append(t.id)
    return {"tx": len(synth.transactions), "queued": len(queued),
            "user_tx": {u: sorted(ids) for u, ids in by_user.items()}}


GENERATORS = {"ingest": gen_ingest, "grid": gen_grid, "crawl": gen_crawl}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    os.makedirs(out, exist_ok=True)
    manifest = GENERATORS[args.workload](out, args.seed, args.scale)
    with open(out / "manifest.json", "w", encoding="utf-8") as fp:
        json.dump(manifest, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
