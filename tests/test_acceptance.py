"""Acceptance criteria, one test per criterion, at pinned tolerances.

Each test prints a single "ACCEPTANCE <n> PASS" line on success (run with
-s to see them inline). Run order follows criterion numbering.
"""

import csv
import hashlib
import io
import json
import random
import time

import numpy as np

from paylens.cli import main as cli_main
from paylens.corpus import group_by_user
from paylens.evaluation import cross_validate, stratified_kfold
from paylens.features import CONTENT_FEATURES, detect_content_features
from paylens.harvest import (ClientConfig, MockServerConfig, crawl_users,
                             load_checkpoint, run_mock_server)
from paylens.labels import (CLASS_A, CLASS_B, NameCorpus,
                            build_labeled_dataset, guess_gender)
from paylens.models import GbdtConfig, train_gbdt
from paylens.pipeline import PipelineConfig, build_dataset
from paylens.synth import (SIGNAL_TOKENS_A, SIGNAL_TOKENS_B, SynthSpec,
                           generate_synthetic_corpus)
from paylens.tokenizer import tokenize_post
from paylens.vectorizer import count_transform, fit_vocabulary, tfidf_transform

from conftest import make_txn
from golden_features import GOLDEN_NOTES
from oracles import term_counts_oracle, tfidf_oracle, within_post_ngrams


def _ok(number, message):
    print(f"\nACCEPTANCE {number:2d} PASS: {message}")


def _strong_dataset(seed, n_per_class=1000):
    spec = SynthSpec(n_users_per_class=n_per_class, posts_per_user=(8, 8),
                     p_signal=0.6, p_noise=0.1, seed=seed)
    result = generate_synthetic_corpus(spec)
    corpus = group_by_user(result.transactions)
    labeled = build_labeled_dataset(corpus, "politics",
                                    political_labels=dict(result.labels))
    return build_dataset(corpus, labeled)


def test_criterion_01_tfidf_oracle_equivalence():
    start = time.monotonic()
    user_notes = [
        ["apple banana", "cherry"],
        ["banana date elder"],
        ["fig grape apple"],
        ["honey iris", "jack"],
        ["kiwi lime apple banana"],
    ]
    users = [[tokenize_post(n) for n in notes] for notes in user_notes]
    vocab = fit_vocabulary(users, (1, 1), min_df=1)
    assert len(vocab) == 12
    matrix = tfidf_transform(count_transform(users, vocab), vocab).toarray()

    counts = [term_counts_oracle([[t.lemma for t in p.tokens] for p in u], (1, 1))
              for u in users]
    expected = tfidf_oracle(counts, dict(zip(vocab.terms, vocab.df)),
                            vocab.n_documents)
    worst = 0.0
    for row, exp in zip(matrix, expected):
        for term, col in vocab.index.items():
            worst = max(worst, abs(row[col] - exp.get(term, 0.0)))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    _ok(1, f"tfidf matches brute-force oracle on 5x12 fixture "
           f"(max abs err {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_02_post_wise_ngram_guarantee():
    # adversarial fixture: naive concatenation would create "me me"
    user = [tokenize_post("venmo me"), tokenize_post("me later")]
    vocab = fit_vocabulary([user], (1, 2), min_df=1)
    assert "me me" not in vocab.index
    assert {"venmo me", "me later"} <= set(vocab.index)

    rng = random.Random(20240901)
    alphabet = "abcdefg"
    checked_cross = 0
    for trial in range(1000):
        users = []
        lemma_lists = []
        for _ in range(rng.randint(1, 4)):
            posts = []
            lemmas = []
            for _ in range(rng.randint(2, 4)):
                toks = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
                posts.append(tokenize_post(" ".join(toks)))
                lemmas.append(toks)
            users.append(posts)
            lemma_lists.append(lemmas)
        vocab = fit_vocabulary(users, (1, 2), min_df=1)
        legit = set()
        for lemmas in lemma_lists:
            legit |= within_post_ngrams(lemmas, (1, 2))
        assert set(vocab.index) <= legit, f"trial {trial}"
        for lemmas in lemma_lists:  # cross-boundary bigrams must be absent
            for a, b in zip(lemmas, lemmas[1:]):
                if not a or not b:
                    continue
                cross = f"{a[-1]} {b[0]}"
                if cross not in legit:
                    checked_cross += 1
                    assert cross not in vocab.index
    _ok(2, f"no cross-post n-gram in 1000 random corpora "
           f"({checked_cross} adversarial bigrams checked)")


def test_criterion_03_detector_conformance():
    required = ["heyyyy", "!!!!", ":uber:", "lol", "hahaha", "omg", ":-)"]
    corpus_text = " || ".join(n for n, _ in GOLDEN_NOTES)
    for exemplar in required:
        assert exemplar in corpus_text
    assert len(GOLDEN_NOTES) >= 50
    covered = {f for _, exp in GOLDEN_NOTES for f in exp}
    assert covered == set(CONTENT_FEATURES)
    for note, expected in GOLDEN_NOTES:
        counts = detect_content_features(tokenize_post(note))
        for feature in CONTENT_FEATURES:
            assert getattr(counts, feature) == expected.get(feature, 0), \
                f"{note!r}.{feature}"
    _ok(3, f"golden table of {len(GOLDEN_NOTES)} notes matches exactly "
           f"across all {len(CONTENT_FEATURES)} content features")


def test_criterion_04_planted_signal_recovery(tmp_path):
    start = time.monotonic()
    spec = SynthSpec(n_users_per_class=1000, posts_per_user=(8, 8),
                     p_signal=0.6, p_noise=0.1, seed=4242)
    corpus_path = tmp_path / "corpus.jsonl"
    labels_path = tmp_path / "labels.csv"
    assert cli_main(["synth", "--users-per-class", "1000", "--posts-min", "8",
                     "--posts-max", "8", "--p-signal", "0.6", "--p-noise",
                     "0.1", "--seed", "4242", "--out", str(corpus_path),
                     "--labels-out", str(labels_path)]) == 0

    dataset = _strong_dataset(4242)
    plan = stratified_kfold(dataset.labels01.tolist(), k=5, seed=4242)
    cv = cross_validate(dataset, plan, [PipelineConfig(seed=4242)])[0]
    assert cv.mean_accuracy >= 0.90, cv.fold_accuracies

    model_path = tmp_path / "model.json"
    coeff_path = tmp_path / "coeffs.csv"
    assert cli_main(["train", "--task", "politics", "--in", str(corpus_path),
                     "--labels-file", str(labels_path), "--out",
                     str(model_path), "--min-posts", "8", "--seed", "4242"]) == 0
    assert cli_main(["report-coefficients", "--model", str(model_path),
                     "-k", "10", "--out", str(coeff_path)]) == 0

    rows = list(csv.reader(coeff_path.read_text().splitlines()))[1:]
    planted = {"republican": set(SIGNAL_TOKENS_B),
               "democrat": set(SIGNAL_TOKENS_A)}
    hits = {"republican": 0, "democrat": 0}
    for feature, _, class_name in rows:
        parts = set(feature.split(" "))
        if parts & planted[class_name]:
            hits[class_name] += 1
    elapsed = time.monotonic() - start
    assert hits["republican"] >= 6 and hits["democrat"] >= 6, hits
    assert elapsed < 60.0
    _ok(4, f"planted-signal recovery: mean accuracy "
           f"{cv.mean_accuracy:.3f} >= 0.90, top-10 hits {hits}, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_05_weak_signal_band():
    spec = SynthSpec(n_users_per_class=1000, posts_per_user=(8, 8),
                     p_signal=0.25, p_noise=0.15, seed=5150)
    result = generate_synthetic_corpus(spec)
    corpus = group_by_user(result.transactions)
    labeled = build_labeled_dataset(corpus, "politics",
                                    political_labels=dict(result.labels))
    dataset = build_dataset(corpus, labeled)
    plan = stratified_kfold(dataset.labels01.tolist(), k=5, seed=5150)
    cv = cross_validate(dataset, plan, [PipelineConfig(seed=5150)])[0]
    assert 0.55 <= cv.mean_accuracy <= 0.75, cv.fold_accuracies
    _ok(5, f"weak-signal accuracy {cv.mean_accuracy:.3f} inside [0.55, 0.75]")


def test_criterion_06_tfidf_vs_count_ordering():
    margins = []
    for seed in (101, 102, 103):
        dataset = _strong_dataset(seed)
        plan = stratified_kfold(dataset.labels01.tolist(), k=5, seed=seed)
        tfidf, count = cross_validate(dataset, plan, [
            PipelineConfig(vectorizer="tfidf", seed=seed),
            PipelineConfig(vectorizer="count", seed=seed)])
        margin = tfidf.mean_accuracy - count.mean_accuracy
        margins.append(margin)
        assert tfidf.mean_accuracy >= count.mean_accuracy - 0.02, \
            (seed, tfidf.mean_accuracy, count.mean_accuracy)
    _ok(6, "tfidf >= count - 0.02 on 3 seeds "
           f"(margins {['%+.4f' % m for m in margins]})")


def test_criterion_07_mlp_gradient_check():
    from test_mlp import finite_difference_check, toy_params
    worst = finite_difference_check(*toy_params(seed=0, n=5, d=4, hidden=3))
    assert worst < 1e-4
    _ok(7, f"mlp gradients vs central differences: max rel err {worst:.2e}")


def test_criterion_08_gbdt_monotone_loss():
    for seed in (1, 2, 3):
        spec = SynthSpec(n_users_per_class=50, posts_per_user=(6, 6),
                         p_signal=0.5, p_noise=0.1, seed=seed)
        result = generate_synthetic_corpus(spec)
        corpus = group_by_user(result.transactions)
        labeled = build_labeled_dataset(corpus, "politics",
                                        political_labels=dict(result.labels))
        dataset = build_dataset(corpus, labeled)
        vocab = fit_vocabulary(dataset.posts, (1, 1), min_df=2)
        X = tfidf_transform(count_transform(dataset.posts, vocab), vocab)
        model = train_gbdt(X, dataset.labels01,
                           GbdtConfig(rounds=50, max_depth=3, seed=seed))
        diffs = np.diff(model.loss_curve)
        assert len(model.loss_curve) == 51
        assert np.all(diffs <= 0.0), f"seed {seed}"
    _ok(8, "gbdt training loss non-increasing over 50 rounds on 3 seeds")


def test_criterion_09_stratified_kfold_properties():
    rng = random.Random(909)
    for trial in range(500):
        k = rng.choice([2, 3, 5])
        n_a = rng.randint(k, 40)
        n_b = rng.randint(k, 40)
        labels = [0] * n_a + [1] * n_b
        rng.shuffle(labels)
        plan = stratified_kfold(labels, k=k, seed=trial)
        rows = [i for fold in plan.folds for i in fold]
        assert sorted(rows) == list(range(len(labels)))
        for cls, total in ((0, n_a), (1, n_b)):
            for fold in plan.folds:
                got = sum(1 for i in fold if labels[i] == cls)
                assert abs(got - total / k) <= 1
    _ok(9, "fold disjointness, coverage and ±1 stratification over "
           "500 random label vectors")


def test_criterion_10_harvest_completeness(tmp_path):
    spec = SynthSpec(n_users_per_class=20, posts_per_user=(25, 25), seed=77)
    result = generate_synthetic_corpus(spec)
    assert len(result.transactions) == 1000
    corpus = group_by_user(result.transactions)
    user_ids = [uid for uid, _ in result.labels]
    assert len(user_ids) == 40
    expected = {t.id for t in result.transactions}
    server_config = MockServerConfig(page_size=20, rate_limit=400.0, burst=40)
    client = ClientConfig(rate=200.0, burst=10)

    with run_mock_server(corpus, server_config) as srv:
        collected = crawl_users(srv.url, user_ids, workers=4, client=client)
        assert {t.id for t in collected} == expected
        assert len(collected) == 1000
        full_audit = srv.rate_limited_count

    rng = random.Random(7777)
    kill_at = rng.randint(5, 35)
    with run_mock_server(corpus, server_config) as srv:
        cp = tmp_path / "cp.json"
        out = io.StringIO()
        first = crawl_users(srv.url, user_ids, workers=4, client=client,
                            checkpoint_path=cp, out=out, max_users=kill_at)
        assert len(load_checkpoint(cp).completed_user_ids) == kill_at
        second = crawl_users(srv.url, user_ids, workers=4, client=client,
                             checkpoint_path=cp, out=out)
        resumed = {t.id for t in first} | {t.id for t in second}
        assert resumed == expected
        resume_audit = srv.rate_limited_count

    assert full_audit == 0 and resume_audit == 0
    _ok(10, f"full crawl and kill-at-{kill_at}/resume both return exactly "
            f"1000 unique transactions; 429 audit 0")


def test_criterion_11_gender_labeling_rules():
    # category validation against paired survey self-reports needs private
    # data and is out of scope; the fixture checks are exact instead.
    fixture = NameCorpus(counts={
        "vera": {"us": (0, 400)},        # m = 0       -> female
        "nearf": {"us": (20, 380)},      # m = 0.05    -> female (boundary)
        "mglow": {"us": (60, 340)},      # m = 0.15    -> mostly_female
        "pat": {"us": (200, 200)},       # m = 0.5     -> andy
        "mghigh": {"us": (320, 80)},     # m = 0.8     -> mostly_male
        "nearm": {"us": (380, 20)},      # m = 0.95    -> male (boundary)
        "victor": {"us": (400, 0)},      # m = 1       -> male
    }, regions=("us",))
    expected = {"vera": "female", "nearf": "female", "mglow": "mostly_female",
                "pat": "andy", "mghigh": "mostly_male", "nearm": "male",
                "victor": "male", "absent": "unknown"}
    for name, category in expected.items():
        assert guess_gender(name, fixture, "us") == category, name
        assert guess_gender(name.upper(), fixture, "us") == category

    txns = []
    for i, name in enumerate(["Vera", "Nearf", "Mglow", "Pat", "Mghigh",
                              "Nearm", "Victor", "Absent"]):
        txns.append(make_txn(f"t{i}", actor=f"u{i}", target=f"x{i}",
                             minutes=i, actor_name=name))
    corpus = group_by_user(txns)
    labeled = build_labeled_dataset(corpus, "gender", name_corpus=fixture)
    assert {lu.user_id: lu.label for lu in labeled} == {
        "u0": CLASS_A, "u1": CLASS_A, "u5": CLASS_B, "u6": CLASS_B}
    assert {lu.label for lu in labeled} <= {CLASS_A, CLASS_B}
    again = build_labeled_dataset(corpus, "gender", name_corpus=fixture)
    assert again == labeled
    _ok(11, "gender categories exact on fixture corpus; dataset keeps only "
            "strict male/female; labeling deterministic")


def test_criterion_12_end_to_end_reproducibility(tmp_path):
    def run(tag):
        base = tmp_path / tag
        base.mkdir()
        corpus = base / "corpus.jsonl"
        labels = base / "labels.csv"
        report = base / "report.json"
        grid = base / "grid.json"
        grid.write_text(json.dumps({
            "vectorizers": ["count", "tfidf"],
            "n_ranges": [[1, 2]],
            "classifiers": ["svm"],
            "svm_c": [1.0],
        }))
        assert cli_main(["synth", "--users-per-class", "60", "--posts-min",
                         "8", "--posts-max", "8", "--p-signal", "0.6",
                         "--p-noise", "0.1", "--seed", "99", "--out",
                         str(corpus), "--labels-out", str(labels)]) == 0
        assert cli_main(["evaluate", "--task", "politics", "--in", str(corpus),
                         "--labels-file", str(labels), "--grid", str(grid),
                         "--folds", "5", "--seed", "99", "--report",
                         str(report), "--min-posts", "8"]) == 0
        return report.read_bytes()

    first = run("one")
    second = run("two")
    assert first == second
    # the report holds only counts, fractions and configs, so its bytes do
    # not depend on the host's last-ulp float rounding
    assert hashlib.sha256(first).hexdigest() == (
        "4e4dfc4d2b2fd650a4a2d87a8a73ba9ddd57ddee838b6d79e0a13da3dfecf864")
    _ok(12, f"two seeded pipeline runs produced byte-identical "
            f"{len(first)}-byte reports")
