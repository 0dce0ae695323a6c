"""Post-wise n-gram vocabulary and sparse user-document matrices.

Documents are users. Vocabulary terms are n-grams generated inside single
posts, so a term can never span two posts. Each post keeps the n-grams it
built (`TokenizedPost.ngrams`), so refitting per fold and per n-range only
counts them: document frequencies with one set per user and a Counter, row
counts with one vectorized pass over every occurrence.

A Vocabulary's fields (terms in column order, their document frequencies,
N, n_range, min_df) are what the pipeline file stores; `index` is derived.
TF-IDF uses the smoothed formula idf(t) = ln((1 + N) / (1 + df(t))) + 1
followed by L2 row normalization.
Engineered feature columns are z-scored with training-row statistics and
appended after the text columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyCorpus
from .tokenizer import TokenizedPost, ngram_orders, ngrams_by_post


@dataclass(frozen=True)
class Vocabulary:
    terms: list[str]                   # column order
    df: list[int]                      # document frequency of each term
    n_documents: int
    n_range: tuple[int, int]
    min_df: int
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ngram_orders(self.n_range)
        index = {t: i for i, t in enumerate(self.terms)}
        if not len(index) == len(self.terms) == len(self.df):
            raise ValueError(f"{len(self.terms)} terms ({len(index)} distinct) "
                             f"with {len(self.df)} df entries")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.terms)

    def idf(self) -> np.ndarray:
        df = np.asarray(self.df, dtype=np.float64)
        return np.log((1.0 + self.n_documents) / (1.0 + df)) + 1.0


@dataclass(frozen=True)
class ScalerStats:
    mean: np.ndarray
    std: np.ndarray  # population std; zero-std columns pass through unscaled

    def __post_init__(self):
        if self.mean.ndim != 1 or self.mean.shape != self.std.shape:
            raise ValueError(f"scaler mean and std must be vectors of one length, "
                             f"got shapes {self.mean.shape} and {self.std.shape}")

    def transform(self, rows: np.ndarray) -> np.ndarray:
        safe = np.where(self.std > 0, self.std, 1.0)
        centered = np.where(self.std > 0, rows - self.mean, rows)
        return centered / safe

    @classmethod
    def fit(cls, rows: np.ndarray) -> "ScalerStats":
        return cls(mean=rows.mean(axis=0), std=rows.std(axis=0))


def fit_vocabulary(user_posts: Sequence[Sequence[TokenizedPost]],
                   n_range: tuple[int, int] = (1, 2),
                   min_df: int = 2) -> Vocabulary:
    """Collect post-wise n-grams over all users and index the surviving terms.

    df counts users containing the term at least once. Terms below min_df are
    dropped; the column order is lexicographic for determinism.
    """
    if len(user_posts) == 0:
        raise EmptyCorpus("cannot fit a vocabulary on zero users")
    orders = ngram_orders(n_range)
    df: Counter[str] = Counter()
    for posts in user_posts:
        df.update(set(chain.from_iterable(ngrams_by_post(posts, orders))))
    kept = sorted(t for t, c in df.items() if c >= min_df)
    return Vocabulary(terms=kept, df=[df[t] for t in kept],
                      n_documents=len(user_posts), n_range=n_range, min_df=min_df)


def count_transform(user_posts: Sequence[Sequence[TokenizedPost]],
                    vocab: Vocabulary) -> sp.csr_matrix:
    """Rows of raw term counts; out-of-vocabulary terms are ignored.

    Every n-gram occurrence becomes a (row, column) cell code in one C-level
    pass; counting the distinct codes gives the CSR with sorted indices.
    """
    orders = ngram_orders(vocab.n_range)
    n_rows, n_cols = len(user_posts), len(vocab)
    grams = ngrams_by_post(chain.from_iterable(user_posts), orders)
    gram_rows = np.repeat(np.arange(n_rows), [len(posts) * len(orders) for posts in user_posts])
    rows = np.repeat(gram_rows, np.fromiter(map(len, grams), np.int64, len(grams)))
    cols = np.fromiter(map(vocab.index.get, chain.from_iterable(grams), repeat(-1)),
                       np.int64, len(rows))
    cells, counts = np.unique((rows * n_cols + cols)[cols >= 0], return_counts=True)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells // n_cols, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix((counts.astype(np.float64), cells % n_cols, indptr),
                         shape=(n_rows, n_cols))


def tfidf_transform(counts: sp.csr_matrix, vocab: Vocabulary) -> sp.csr_matrix:
    """Apply smoothed idf weights and L2-normalize each row.

    Zero rows stay zero. The idf uses the fitted document frequencies, not
    the rows being transformed.
    """
    if counts.shape[1] != len(vocab):
        raise DimensionMismatch(
            f"matrix has {counts.shape[1]} columns, vocabulary has {len(vocab)}")
    return l2_normalize_rows(counts.multiply(vocab.idf()[np.newaxis, :]).tocsr())


def l2_normalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row to unit L2 norm; zero rows stay zero."""
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    out = sp.csr_matrix(sp.diags(inv) @ matrix)
    out.eliminate_zeros()
    return out


def assemble_feature_matrix(
    text_matrix: sp.csr_matrix,
    rows: np.ndarray,
    scaler: ScalerStats | None = None,
) -> tuple[sp.csr_matrix, ScalerStats | None]:
    """Append z-scored engineered columns after the text columns.

    When scaler is None the statistics are fitted on these rows (training);
    pass a fitted ScalerStats to transform held-out rows without leakage.
    Returns the combined matrix and the stats used.
    """
    if rows.size == 0:
        return text_matrix, scaler
    if rows.shape[0] != text_matrix.shape[0]:
        raise DimensionMismatch(
            f"{text_matrix.shape[0]} text rows vs {rows.shape[0]} engineered rows")
    if scaler is None:
        scaler = ScalerStats.fit(rows)
    scaled = scaler.transform(rows)
    if not np.isfinite(scaled).all():
        raise DimensionMismatch("engineered features produced non-finite values")
    combined = sp.hstack([text_matrix, sp.csr_matrix(scaled)], format="csr")
    combined.eliminate_zeros()
    return combined, scaler
