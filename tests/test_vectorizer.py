import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import paylens
from paylens.corpus import group_by_user
from paylens.errors import DimensionMismatch, EmptyCorpus
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import ngram_orders, tokenize_post
from paylens.vectorizer import (ScalerStats, assemble_feature_matrix,
                                count_transform, fit_vocabulary,
                                tfidf_transform)

from conftest import synth_dataset
from oracles import (count_transform_oracle, fit_vocabulary_oracle,
                     term_counts_oracle, tfidf_oracle, within_post_ngrams)

N_RANGES = [(1, 1), (1, 2), (2, 3), (1, 3), (3, 3)]


def posts(*notes):
    return [tokenize_post(n) for n in notes]


class TestFitVocabulary:
    def test_df_counts_users(self):
        vocab = fit_vocabulary([posts("a b"), posts("a")], (1, 1), min_df=1)
        assert dict(zip(vocab.terms, vocab.df)) == {"a": 2, "b": 1}
        assert vocab.n_documents == 2

    def test_min_df_threshold(self):
        vocab = fit_vocabulary([posts("a b"), posts("a")], (1, 1), min_df=2)
        assert set(vocab.index) == {"a"}

    def test_post_wise_no_cross_bigram(self):
        vocab = fit_vocabulary([posts("a", "b")], (1, 2), min_df=1)
        assert "a b" not in vocab.index
        assert set(vocab.index) == {"a", "b"}

    def test_lexicographic_column_order(self):
        vocab = fit_vocabulary([posts("pear fig apple")], (1, 1), min_df=1)
        assert vocab.terms == sorted(vocab.terms)
        assert vocab.index[vocab.terms[0]] == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit_vocabulary([], (1, 1), 1)

    def test_df_within_document_counted_once(self):
        vocab = fit_vocabulary([posts("a a a")], (1, 1), min_df=1)
        assert vocab.df[vocab.index["a"]] == 1

    def test_random_corpora_post_wise_guarantee(self):
        rng = random.Random(7)
        alphabet = "abcdef"
        for _ in range(50):
            users = []
            lemma_lists = []
            for _ in range(rng.randint(1, 4)):
                user_posts = []
                user_lemmas = []
                for _ in range(rng.randint(1, 4)):
                    toks = [rng.choice(alphabet) for _ in range(rng.randint(0, 4))]
                    user_posts.append(tokenize_post(" ".join(toks)))
                    user_lemmas.append(toks)
                users.append(user_posts)
                lemma_lists.append(user_lemmas)
            vocab = fit_vocabulary(users, (1, 2), min_df=1)
            legit = set()
            for user_lemmas in lemma_lists:
                legit |= within_post_ngrams(user_lemmas, (1, 2))
            assert set(vocab.index) <= legit


class TestCountTransform:
    def test_counts(self):
        vocab = fit_vocabulary([posts("a a b")], (1, 1), min_df=1)
        mat = count_transform([posts("a a b")], vocab)
        assert mat.toarray().tolist() == [[2.0, 1.0]]

    def test_out_of_vocab_ignored(self):
        vocab = fit_vocabulary([posts("a")], (1, 1), min_df=1)
        mat = count_transform([posts("z z z")], vocab)
        assert mat.nnz == 0

    def test_post_order_invariance(self):
        vocab = fit_vocabulary([posts("a b", "c")], (1, 2), min_df=1)
        one = count_transform([posts("a b", "c")], vocab).toarray()
        two = count_transform([posts("c", "a b")], vocab).toarray()
        assert np.array_equal(one, two)

    def test_nonzero_rows_match_df(self):
        users = [posts("a b", "c"), posts("a"), posts("b c a"), posts("d")]
        vocab = fit_vocabulary(users, (1, 1), min_df=1)
        mat = count_transform(users, vocab)
        nonzero_rows = (mat.toarray() > 0).sum(axis=0)
        for term, col in vocab.index.items():
            assert nonzero_rows[col] == vocab.df[col]

    def test_matches_bruteforce_counts(self):
        users = [posts("a b a", "b c"), posts("c c", "a")]
        vocab = fit_vocabulary(users, (1, 2), min_df=1)
        mat = count_transform(users, vocab).toarray()
        for row, user in zip(mat, users):
            expected = term_counts_oracle(
                [[t.lemma for t in p.tokens] for p in user], (1, 2))
            for term, col in vocab.index.items():
                assert row[col] == expected.get(term, 0)


def oracle_users(seed=5, per_class=30, n_random=60):
    """Users' tokenized posts: a synth corpus (short notes), users whose
    posts draw from a few tokens (so bigrams and trigrams recur), and users
    with no posts, a post of 0 tokens and posts of 1 and 2 tokens."""
    result = generate_synthetic_corpus(SynthSpec(
        n_users_per_class=per_class, posts_per_user=(1, 6), seed=seed))
    corpus = group_by_user(result.transactions)
    users = [[tokenize_post(t.note) for t, _ in corpus.users[uid].posts]
             for uid, _ in result.labels]
    rng = random.Random(seed)
    pool = ["pizza", "Rent", "rents", "🍕", ":-)", "!!"]
    for _ in range(n_random):
        users.append(posts(*(" ".join(rng.choices(pool, k=rng.randint(0, 7)))
                             for _ in range(rng.randint(0, 5)))))
    return users + [[], posts(""), posts("solo", "two words"), posts("!!", "solo")]


def assert_same_vocab(got, want):
    assert list(got.index.items()) == list(want.index.items())
    assert list(zip(got.terms, got.df)) == list(zip(want.terms, want.df))
    assert (got.n_documents, got.n_range, got.min_df) == (
        want.n_documents, want.n_range, want.min_df)


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_sorted_indices and want.has_sorted_indices


class TestTextPathOracle:
    """fit_vocabulary and count_transform against the uncached per-occurrence
    copies, with every n-range run on the same post objects in both orders."""

    @pytest.mark.parametrize("ranges", [N_RANGES, N_RANGES[::-1]],
                             ids=["forward", "reverse"])
    @pytest.mark.parametrize("min_df", [1, 3])
    def test_same_vocabulary_and_counts(self, ranges, min_df):
        users = oracle_users()
        train = users[::2]
        for n_range in ranges:
            vocab = fit_vocabulary(train, n_range, min_df=min_df)
            want = fit_vocabulary_oracle(train, n_range, min_df=min_df)
            assert_same_vocab(vocab, want)
            assert len(vocab) > 0
            for rows in (train, users, users[-4:], []):
                assert_same_csr(count_transform(rows, vocab),
                                count_transform_oracle(rows, want))

    def test_empty_vocabulary(self):
        users = oracle_users(per_class=3, n_random=5)
        vocab = fit_vocabulary(users, (3, 3), min_df=10 ** 6)
        assert len(vocab) == 0
        assert_same_csr(count_transform(users, vocab),
                        count_transform_oracle(users, vocab))

    def test_invalid_range_rejected(self):
        users = [posts("a b")]
        vocab = fit_vocabulary(users, (1, 2), min_df=1)
        for bad in ((0, 1), (2, 1), (1, 4)):
            with pytest.raises(ValueError):
                fit_vocabulary(users, bad)
            with pytest.raises(ValueError):
                count_transform(users, dataclasses.replace(vocab, n_range=bad))


_shared_dataset = lru_cache(maxsize=None)(synth_dataset)

# notes drawn from a few tokens, so that bigrams and trigrams recur
_plain_user = st.lists(
    st.lists(st.sampled_from(["pizza", "Rent", "rents", "🍕", ":-)", "!!"]),
             max_size=6).map(" ".join), max_size=4).map(lambda notes: posts(*notes))


class TestInputKinds:
    """Users of one build_dataset call are read through their shared table;
    plain lists, and users of two datasets mixed with a plain list, are
    wrapped over a fresh table. All three match the oracles."""

    @given(kind=st.sampled_from(["dataset", "lists", "mix"]), data=st.data(),
           n_range=st.sampled_from(N_RANGES), min_df=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracles(self, kind, data, n_range, min_df):
        def drawn(dataset, most):
            return data.draw(st.lists(st.sampled_from(dataset.posts),
                                      min_size=1, max_size=most))

        one, two = _shared_dataset(3, 8), _shared_dataset(4, 8)
        if kind == "dataset":
            users = drawn(one, 12)
        elif kind == "lists":
            users = data.draw(st.lists(_plain_user, min_size=1, max_size=12))
        else:
            users = data.draw(st.permutations(
                drawn(one, 6) + drawn(two, 6)
                + data.draw(st.lists(_plain_user, min_size=1, max_size=4))))
        train = users[:max(1, len(users) // 2)]
        vocab = fit_vocabulary(train, n_range, min_df=min_df)
        want = fit_vocabulary_oracle(train, n_range, min_df=min_df)
        assert_same_vocab(vocab, want)
        assert_same_csr(count_transform(users, vocab),
                        count_transform_oracle(users, want))
        if kind == "dataset":  # read through their own table, not rewrapped
            assert set(ngram_orders(n_range)) <= set(one.posts[0].table.ngrams)


# sha256 of the vocabulary fitted on every other user of a synth corpus
# (min_df=2) and of the count matrix over all of its users; integers and
# counts only, so every platform hashes the same bytes
TEXT_PATH_SHA256 = {
    (13, (1, 1)): {
        "terms": "f014fd109d9e78deea896ea693a05a146942b3035782a4b49722c0b6dd3c9271",
        "df": "6cff8a439e07c683ad16d220890144cc9e00d1d42e85aa8687131f267a6382f8",
        "indptr": "14b02fe05f57d22bffb78067f7a9f319dbe759564435c0b504c5e07270866790",
        "indices": "bddbe14dc4863e24373e9e3bcfdfbcb5cd1865c0e78ec198d232b4ae71e19f7f",
        "data": "54964dd85a5df97d1482e8aa6e818776d71a53b1be18109d1b37d0d19eba82c0",
    },
    (13, (1, 2)): {
        "terms": "7bdbe727e7595bdaab3220b5eb2047c1e56388f10273d4acd8d7b4ce891985cf",
        "df": "f0bbea346f588565136f0373adbaf772dc25568618021f0bc1d974434be5d03d",
        "indptr": "3d968ee517e4828afb56f571ba3f3da9bb5b116cbdd424e4b8ae5ab88c1b7c62",
        "indices": "ab935b5fe2157cd56d9f781be303def08228f2ad5de586f9072d76602dbc3bff",
        "data": "c5af1c2b5bb64e63df67e5da66c771323d14155da1091a051fe9bf51cfa66568",
    },
    (13, (2, 3)): {
        "terms": "45d6717a6dad49bd994df344b66761827e72aaab441c0193670cd9272d232836",
        "df": "99a562770c766e61e0afc00670d243820590a8cf05594011a58d70e88f4fe6ad",
        "indptr": "3415d08fc74440b9c627c1596b6bbef09f6c98fe14b724fe563d9c4079626ddc",
        "indices": "06198b795cec38e78ec7fd84c7c06e7ee52293ea92f73e1971e33cbe276f76ba",
        "data": "b3ea219c10c7cc1c3e8036016e6b7e004515e01ae21131319817b29ac10b4235",
    },
    (29, (1, 1)): {
        "terms": "1fffc68a9a3090a38eca066be931c1cf194d8a84d9ff1ad8395aeb99a71edfd8",
        "df": "803a28c0ca77418950eddfe4b7a64123a74c9fd9cb57780ba10bbd0d84bcc283",
        "indptr": "dcc994cb20b3eababd8615d9fb0954277221ea4e32320d62fb71c86d9ec60b59",
        "indices": "b2bc689ab013bed5d8e39569dfc3352a185f0f7cdb03c8a98e4196109e51f58d",
        "data": "976386beec481fe1a21bc84789be774b65a5e56feec8f1f016075ce131b84bc6",
    },
    (29, (1, 2)): {
        "terms": "4da489e410ade2cf32cd5f2ed7cf8b729068770ec40180e216390af3a7a1222f",
        "df": "e845d756a64b3a597d1f326543dccf8152b9d8a4a269306181502f0fdc8f0174",
        "indptr": "bfcc1d6917959dc421a2ba2e9389ece31f1209390a73a592c3f0ba7bcdfa183d",
        "indices": "507f671621bd6ac8f026e4811ba74bc70d4e1506bd30a542b6473d83bcf4ccc4",
        "data": "8360b9b60ab0c8101b1398d009e65cf826c43f2f585903e2df491b1f1cf840a6",
    },
    (29, (2, 3)): {
        "terms": "69d7c5d555b1078f071d942d0f6b1846b850d8736eb38544010285f8abb612ff",
        "df": "53ddab444bb33a88c5e354bd5d5b8307a1b99601213866f9a40d2982e99cd08a",
        "indptr": "acfaa8d1b7a6e25b9a0fffc0b5bd379a5620f3a694f14421aff7cc1978048715",
        "indices": "236c31564249545a651479c1968d2302c8366c19f4bf5869b610377f4fc3d369",
        "data": "ddb5d3a546b3eab747a5438ba5f2801b72e3ea80454c822a2223d9e4b4883069",
    },
}


@pytest.mark.parametrize("seed, n_range", list(TEXT_PATH_SHA256))
def test_text_path_matches_stored_sha256(seed, n_range):
    dataset = synth_dataset(seed, n=60, posts=(4, 10))
    vocab = fit_vocabulary(dataset.posts[::2], n_range, min_df=2)
    counts = count_transform(dataset.posts, vocab)
    parts = {"terms": json.dumps(vocab.terms).encode(),
             "df": np.asarray(vocab.df, "<i8").tobytes(),
             "indptr": counts.indptr.astype("<i8").tobytes(),
             "indices": counts.indices.astype("<i8").tobytes(),
             "data": counts.data.astype("<f8").tobytes()}
    assert {k: hashlib.sha256(v).hexdigest() for k, v in parts.items()} == (
        TEXT_PATH_SHA256[seed, n_range])


# build_dataset plus 5 folds x 2 n-ranges of fit and count, as the ingest
# benchmark runs them; prints the traced peak in bytes.
_INGEST_PEAK_SCRIPT = """
import tracemalloc
from paylens.corpus import group_by_user
from paylens.evaluation import stratified_kfold
from paylens.labels import build_labeled_dataset
from paylens.pipeline import build_dataset
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import tokenize_post
from paylens.vectorizer import count_transform, fit_vocabulary

result = generate_synthetic_corpus(SynthSpec(
    n_users_per_class=200, posts_per_user=(5, 12), seed=11))
corpus = group_by_user(result.transactions)
labeled = build_labeled_dataset(corpus, "politics",
                                political_labels=dict(result.labels))
tokenize_post("warm :-) 🍕")  # compile the patterns outside the peak
tracemalloc.start()
dataset = build_dataset(corpus, labeled)
plan = stratified_kfold(dataset.labels01.tolist(), 5)
folds = []
for i in range(plan.k):
    train, test = plan.split(i)
    train_posts = [dataset.posts[j] for j in train]
    test_posts = [dataset.posts[j] for j in test]
    for n_range in ((1, 1), (1, 2)):
        vocab = fit_vocabulary(train_posts, n_range)
        folds.append((vocab, count_transform(train_posts, vocab),
                      count_transform(test_posts, vocab)))
assert len(folds) == 10 and all(len(f[0]) for f in folds)
print(tracemalloc.get_traced_memory()[1])
"""

# The script's peak on the code before posts cached their n-grams, 3,355,514
# bytes (CPython 3.11, numpy 2.4), plus 5%: the cache must not cost more
# memory than the token slots and shared strings save.
INGEST_PEAK_BOUND = int(3_355_514 * 1.05)


def test_ngram_cache_keeps_ingest_peak_memory():
    # a fresh interpreter: interning grows the process-wide table of interned
    # strings, so a peak taken after other tests would depend on them
    src = str(Path(paylens.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _INGEST_PEAK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= INGEST_PEAK_BOUND


class TestTfidfTransform:
    def test_single_entry_normalizes_to_one(self):
        vocab = fit_vocabulary([posts("a a a a a")], (1, 1), min_df=1)
        counts = count_transform([posts("a a a a a")], vocab)
        out = tfidf_transform(counts, vocab)
        assert out.toarray().tolist() == [[1.0]]

    def test_idf_value_when_term_everywhere(self):
        # df=2, N=2: idf = ln(3/3) + 1 = 1.0
        users = [posts("a"), posts("a")]
        vocab = fit_vocabulary(users, (1, 1), min_df=1)
        assert vocab.idf().tolist() == [1.0]

    def test_zero_row_stays_zero(self):
        vocab = fit_vocabulary([posts("a")], (1, 1), min_df=1)
        counts = count_transform([posts("z")], vocab)
        out = tfidf_transform(counts, vocab)
        assert out.nnz == 0

    def test_dimension_mismatch(self):
        vocab = fit_vocabulary([posts("a b")], (1, 1), min_df=1)
        with pytest.raises(DimensionMismatch):
            tfidf_transform(sp.csr_matrix((1, 5)), vocab)

    def test_rows_have_unit_norm(self):
        users = [posts("a b c", "d"), posts("a a"), posts("b d e f")]
        vocab = fit_vocabulary(users, (1, 2), min_df=1)
        out = tfidf_transform(count_transform(users, vocab), vocab)
        norms = np.sqrt(np.asarray(out.multiply(out).sum(axis=1))).ravel()
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        users = [posts("a b a", "c"), posts("b b d"), posts("a c d", "d e")]
        vocab = fit_vocabulary(users, (1, 1), min_df=1)
        out = tfidf_transform(count_transform(users, vocab), vocab).toarray()
        counts = [term_counts_oracle([[t.lemma for t in p.tokens] for p in u], (1, 1))
                  for u in users]
        expected = tfidf_oracle(counts, dict(zip(vocab.terms, vocab.df)),
                                vocab.n_documents)
        for row, exp in zip(out, expected):
            for term, col in vocab.index.items():
                assert row[col] == pytest.approx(exp.get(term, 0.0), abs=1e-9)

    def test_transform_invariant_to_transaction_order(self):
        vocab = fit_vocabulary([posts("a b", "c d")], (1, 2), min_df=1)
        one = tfidf_transform(count_transform([posts("a b", "c d")], vocab), vocab)
        two = tfidf_transform(count_transform([posts("c d", "a b")], vocab), vocab)
        assert np.array_equal(one.toarray(), two.toarray())


class TestAssembleFeatureMatrix:
    def test_z_score(self):
        text = sp.csr_matrix(np.zeros((2, 1)))
        engineered = np.array([[1.0], [3.0]])
        out, stats = assemble_feature_matrix(text, engineered)
        assert out.toarray()[:, 1].tolist() == [-1.0, 1.0]
        assert stats.mean.tolist() == [2.0]
        assert stats.std.tolist() == [1.0]

    def test_constant_column_passes_through(self):
        text = sp.csr_matrix(np.zeros((2, 1)))
        engineered = np.array([[7.0], [7.0]])
        out, _ = assemble_feature_matrix(text, engineered)
        assert out.toarray()[:, 1].tolist() == [7.0, 7.0]

    def test_empty_engineered_returns_text(self):
        text = sp.csr_matrix(np.eye(2))
        out, stats = assemble_feature_matrix(text, np.zeros((0, 0)))
        assert out is text
        assert stats is None

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble_feature_matrix(sp.csr_matrix((2, 1)), np.zeros((3, 2)))

    def test_reuses_supplied_scaler(self):
        train = np.array([[0.0], [2.0]])
        _, stats = assemble_feature_matrix(sp.csr_matrix((2, 0)), train)
        test = np.array([[4.0]])
        out, reused = assemble_feature_matrix(sp.csr_matrix((1, 0)), test, stats)
        assert reused is stats
        assert out.toarray().tolist() == [[3.0]]  # (4 - 1) / 1

    def test_columns_appended_after_text(self):
        text = sp.csr_matrix(np.array([[5.0, 6.0]]))
        out, _ = assemble_feature_matrix(text, np.array([[1.0]]))
        assert out.shape == (1, 3)
        assert out.toarray()[0, :2].tolist() == [5.0, 6.0]


class TestScalerStats:
    def test_population_std(self):
        stats = ScalerStats.fit(np.array([[1.0], [3.0]]))
        assert stats.std[0] == pytest.approx(1.0)  # ddof=0
