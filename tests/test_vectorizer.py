import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import paylens
from paylens.corpus import group_by_user
from paylens.errors import DimensionMismatch, EmptyCorpus
from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import tokenize_post
from paylens.vectorizer import (ScalerStats, assemble_feature_matrix,
                                count_transform, fit_vocabulary,
                                tfidf_transform)

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
