"""Post-wise n-gram vocabulary and sparse user-document matrices.

Documents are users. Vocabulary terms are n-grams generated inside single
posts, so a term can never span two posts. TF-IDF uses the smoothed formula
idf(t) = ln((1 + N) / (1 + df(t))) + 1 followed by L2 row normalization.
Engineered feature columns are z-scored with training-row statistics and
appended after the text columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyCorpus
from .tokenizer import TokenizedPost, user_ngrams


@dataclass(frozen=True)
class Vocabulary:
    index: dict[str, int]              # term -> contiguous column index
    document_frequency: dict[str, int]
    n_documents: int
    n_range: tuple[int, int]
    min_df: int

    def __len__(self) -> int:
        return len(self.index)

    @property
    def terms(self) -> list[str]:
        out = [""] * len(self.index)
        for term, i in self.index.items():
            out[i] = term
        return out

    def idf(self) -> np.ndarray:
        df = np.empty(len(self.index))
        for term, i in self.index.items():
            df[i] = self.document_frequency[term]
        return np.log((1.0 + self.n_documents) / (1.0 + df)) + 1.0


@dataclass(frozen=True)
class ScalerStats:
    mean: np.ndarray
    std: np.ndarray  # population std; zero-std columns pass through unscaled

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
    df: dict[str, int] = {}
    for posts in user_posts:
        for term in set(user_ngrams(list(posts), n_range)):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= min_df)
    return Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        document_frequency={t: df[t] for t in kept},
        n_documents=len(user_posts),
        n_range=n_range,
        min_df=min_df,
    )


def count_transform(user_posts: Sequence[Sequence[TokenizedPost]],
                    vocab: Vocabulary) -> sp.csr_matrix:
    """Rows of raw term counts; out-of-vocabulary terms are ignored."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for posts in user_posts:
        row: dict[int, float] = {}
        for term in user_ngrams(list(posts), vocab.n_range):
            col = vocab.index.get(term)
            if col is not None:
                row[col] = row.get(col, 0.0) + 1.0
        for col in sorted(row):
            indices.append(col)
            data.append(row[col])
        indptr.append(len(indices))
    mat = sp.csr_matrix((data, indices, indptr),
                        shape=(len(user_posts), len(vocab)), dtype=np.float64)
    mat.eliminate_zeros()
    return mat


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
