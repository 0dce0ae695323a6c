import random

import numpy as np
import pytest
import scipy.sparse as sp

from paylens.errors import DimensionMismatch, EmptyCorpus
from paylens.tokenizer import tokenize_post
from paylens.vectorizer import (ScalerStats, assemble_feature_matrix,
                                count_transform, fit_vocabulary,
                                tfidf_transform)

from oracles import term_counts_oracle, tfidf_oracle, within_post_ngrams


def posts(*notes):
    return [tokenize_post(n) for n in notes]


class TestFitVocabulary:
    def test_df_counts_users(self):
        vocab = fit_vocabulary([posts("a b"), posts("a")], (1, 1), min_df=1)
        assert vocab.document_frequency == {"a": 2, "b": 1}
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
        assert vocab.document_frequency["a"] == 1

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
            assert nonzero_rows[col] == vocab.document_frequency[term]

    def test_matches_bruteforce_counts(self):
        users = [posts("a b a", "b c"), posts("c c", "a")]
        vocab = fit_vocabulary(users, (1, 2), min_df=1)
        mat = count_transform(users, vocab).toarray()
        for row, user in zip(mat, users):
            expected = term_counts_oracle([p.lemmas() for p in user], (1, 2))
            for term, col in vocab.index.items():
                assert row[col] == expected.get(term, 0)


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
        counts = [term_counts_oracle([p.lemmas() for p in u], (1, 1))
                  for u in users]
        expected = tfidf_oracle(counts, vocab.document_frequency,
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
