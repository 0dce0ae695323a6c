"""Post-wise n-gram vocabulary and sparse user-document matrices.

Documents are users. Vocabulary terms are n-grams generated inside single
posts, so a term can never span two posts. `user_rows` builds one
`TermTable` (gram string -> id) per `build_dataset` call, over its fixed
users, whose posts become `UserPosts` tuples that know their table and row.
The first time an order n is used, the table stores, for every user, the
sorted distinct ids of the user's order-n n-grams and their counts as int
arrays; every CV fold and n-range reuses them, so a vocabulary fit is a
`bincount` of the users' ids and a count transform maps ids to columns.
Users that do not share one table (plain lists, say) get one of their own.
The lazy fill assumes featurization runs on one thread per process; the
worker pool forks processes.

A Vocabulary's fields (terms in column order, their document frequencies,
N, n_range, min_df) are what the pipeline file stores; `index` is derived.
TF-IDF uses the smoothed formula idf(t) = ln((1 + N) / (1 + df(t))) + 1
followed by L2 row normalization.
Engineered feature columns are z-scored with training-row statistics and
appended after the text columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyCorpus
from .models.common import take_rows
from .tokenizer import TokenizedPost, ngram_orders, ngrams


@dataclass(frozen=True)
class Vocabulary:
    terms: list[str]                   # column order
    df: list[int]                      # document frequency of each term
    n_documents: int
    n_range: tuple[int, int]
    min_df: int

    def __post_init__(self):
        ngram_orders(self.n_range)
        distinct = len(set(self.terms))
        if not distinct == len(self.terms) == len(self.df):
            raise ValueError(f"{len(self.terms)} terms ({distinct} distinct) "
                             f"with {len(self.df)} df entries")

    @cached_property
    def index(self) -> dict[str, int]:  # term -> column, built when first read
        return {t: i for i, t in enumerate(self.terms)}

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


_TOKENS, _LEMMA, _ROW = attrgetter("tokens"), attrgetter("lemma"), attrgetter("row")


class TermTable(dict):
    """Gram string -> id, and the n-gram ids of a fixed sequence of users.

    A gram not seen before gets the next id, so the keys are in id order.
    User r's posts are posts[ends[r]:ends[r + 1]]. `ngrams[n]`, built for
    every user the first time order n is used, is a CSR (indptr, ids,
    counts) whose row r holds user r's sorted distinct order-n ids and their
    counts. The table holds the users' posts, never their UserPosts.
    """

    def __init__(self, users: Sequence[Sequence[TokenizedPost]]):
        self.posts: list[TokenizedPost] = list(chain.from_iterable(users))
        self.ends = np.cumsum([0, *map(len, users)])
        self.ngrams: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __missing__(self, gram: str) -> int:
        self[gram] = len(self)
        return len(self) - 1


class UserPosts(tuple):
    """One user's posts, row `row` of the TermTable `table` (see user_rows)."""


def user_rows(users: Sequence[Sequence[TokenizedPost]]) -> list[UserPosts]:
    """The users' posts as the rows, in order, of one new TermTable."""
    table, rows = TermTable(users), list(map(UserPosts, users))
    for row, posts in enumerate(rows):
        posts.table, posts.row = table, row
    return rows


def _rows(user_posts: Sequence[Sequence[TokenizedPost]]
          ) -> tuple[TermTable, np.ndarray]:
    """The users' table and their rows in it. Users that do not all share one
    table get a table built over them alone."""
    table = getattr(user_posts[0], "table", None) if len(user_posts) else None
    if table is None or any(getattr(u, "table", None) is not table
                            for u in user_posts):
        return TermTable(user_posts), np.arange(len(user_posts))
    return table, np.fromiter(map(_ROW, user_posts), np.int64, len(user_posts))


def _order(table: TermTable, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The table's order-n CSR, built over all of its users on first use.

    All posts are laid end to end, so their n-grams are built in one pass;
    the windows that cross a post's end are dropped.
    """
    if n in table.ngrams:
        return table.ngrams[n]
    posts = table.posts
    sizes = np.fromiter(map(len, map(_TOKENS, posts)), np.int64, len(posts))
    lemmas = list(map(_LEMMA, chain.from_iterable(map(_TOKENS, posts))))
    if " " in "".join(lemmas):
        raise ValueError("a lemma holds a space, so n-grams of two orders "
                         "could be one term")
    # one byte per window: 1 if it ends inside its post
    fits = (np.repeat(np.cumsum(sizes), sizes) - np.arange(len(lemmas)) >= n).tobytes()
    ids = np.fromiter(map(table.__getitem__, compress(ngrams(lemmas, n), fits)), np.int64)
    del lemmas, fits  # the largest transients, freed before the sort
    width, n_users = max(len(table), 1), len(table.ends) - 1
    codes = np.repeat(np.repeat(np.arange(n_users), np.diff(table.ends)),
                      np.maximum(sizes - n + 1, 0))
    codes *= width
    codes += ids
    del ids
    codes, counts = np.unique(codes, return_counts=True)
    table.ngrams[n] = (np.searchsorted(codes, np.arange(n_users + 1) * width),
                       (codes % width).astype(np.int32), counts.astype(np.int32))
    return table.ngrams[n]


def _ngram_ids(table: TermTable, users: np.ndarray, orders: range
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The given users' ids and counts for each order, flat, with the index
    in `users` of the user each one belongs to."""
    parts = []
    for n in orders:
        indptr, ids, counts = take_rows(*_order(table, n), users)
        parts.append((np.repeat(np.arange(len(users)), np.diff(indptr)), ids, counts))
    return tuple(np.concatenate(p) for p in zip(*parts))


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
    table, users = _rows(user_posts)
    _, ids, _ = _ngram_ids(table, users, orders)
    terms = list(table)
    df = np.bincount(ids, minlength=len(terms))
    kept = sorted(np.flatnonzero(df >= max(min_df, 1)).tolist(), key=terms.__getitem__)
    return Vocabulary(terms=[terms[i] for i in kept], df=df[kept].tolist(),
                      n_documents=len(user_posts), n_range=n_range, min_df=min_df)


def count_transform(user_posts: Sequence[Sequence[TokenizedPost]],
                    vocab: Vocabulary) -> sp.csr_matrix:
    """Rows of raw term counts; out-of-vocabulary terms are ignored.

    Each vocabulary term maps through the users' table to its id; every
    (user, id) count becomes a (row, column) cell, and sorting the cells
    gives the CSR with sorted indices.
    """
    orders = ngram_orders(vocab.n_range)
    n_rows, n_cols = len(user_posts), len(vocab)
    table, users = _rows(user_posts)
    rows, ids, counts = _ngram_ids(table, users, orders)
    term_ids = np.fromiter(map(table.get, vocab.terms, repeat(-1)), np.int64, n_cols)
    column = np.full(len(table), -1, dtype=np.int64)
    column[term_ids[term_ids >= 0]] = np.flatnonzero(term_ids >= 0)
    cols = column[ids]
    keep = cols >= 0
    rows, cols, counts = rows[keep], cols[keep], counts[keep]
    order = np.argsort(rows * n_cols + cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return sp.csr_matrix((counts[order].astype(np.float64), cols[order], indptr),
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
