"""Independent brute-force oracles used by unit and acceptance tests.

The text oracles deliberately avoid the library's own matrix code paths:
plain dicts, math.log and explicit loops only.
"""

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from paylens import tokenizer
from paylens.errors import EmptyCorpus, EmptyProfile, NonFiniteError
from paylens.evaluation import CvResult
from paylens.features import CONTENT_FEATURES, detect_content_features
from paylens.models.common import bce_with_logits, check_binary_labels
from paylens.models.gbdt import _LAMBDA, GbdtConfig, GbdtModel, _leaf_value
from paylens.models.mlp import MlpConfig, MlpModel, _sigmoid
from paylens.models.svm import LinearSvmModel, _as_csr
from paylens.pipeline import fit_pipeline, pipeline_predict, pipeline_transform
from paylens.tokenizer import (EMOJI, EMOTICON, NUMBER, PUNCT, SHORTCODE, WORD,
                               Token, TokenizedPost, lemma_for_word)
from paylens.vectorizer import Vocabulary


def tfidf_oracle(user_term_counts, document_frequency, n_documents):
    """Rows of {term: weight} matching the smoothed idf + L2 norm scheme."""
    rows = []
    for counts in user_term_counts:
        weighted = {}
        for term, count in counts.items():
            df = document_frequency[term]
            idf = math.log((1.0 + n_documents) / (1.0 + df)) + 1.0
            weighted[term] = count * idf
        norm = math.sqrt(sum(v * v for v in weighted.values()))
        if norm > 0:
            weighted = {t: v / norm for t, v in weighted.items()}
        rows.append(weighted)
    return rows


def term_counts_oracle(posts_lemmas, n_range):
    """{term: count} for one user from per-post lemma lists, post-wise."""
    low, high = n_range
    counts = {}
    for lemmas in posts_lemmas:
        for n in range(low, high + 1):
            for i in range(len(lemmas) - n + 1):
                term = " ".join(lemmas[i:i + n])
                counts[term] = counts.get(term, 0) + 1
    return counts


def within_post_ngrams(posts_lemmas, n_range):
    """Set of n-grams that legitimately occur inside single posts."""
    return set(term_counts_oracle(posts_lemmas, n_range))


# The text path as it was before posts cached their n-grams: one
# pattern.match per token kind and position, n-grams rebuilt from the lemma
# list on every call, and a per-occurrence dict count. Copied verbatim, but
# for word lemmas, which call lemma_for_word in place of a helper; the
# per-kind patterns are the tokenizer's own, so the oracle checks the scanning
# and counting, not the pattern text.
_WS_RE = re.compile(r"\s+")


@lru_cache(maxsize=1)
def _matchers():
    return (
        (SHORTCODE, re.compile(r":[a-z0-9_]+:")),
        (EMOTICON, re.compile(tokenizer._emoticon_pattern(
            tokenizer._read_data_lines("emoticons.txt")))),
        (EMOJI, re.compile(tokenizer._EMOJI)),
        (WORD, re.compile(r"[^\W\d_]+(?:['’][^\W\d_]+)*")),
        (NUMBER, re.compile(r"\d+(?:[.,]\d+)*")),
        (PUNCT, re.compile(r"(\S)\1*")),
    )


def tokenize_post_oracle(note: str) -> TokenizedPost:
    matchers = _matchers()
    tokens: list[Token] = []
    pos, end = 0, len(note)
    while pos < end:
        ws = _WS_RE.match(note, pos)
        if ws:
            pos = ws.end()
            continue
        for kind, pattern in matchers:
            m = pattern.match(note, pos)
            if m:
                surface = m.group(0)
                lemma = lemma_for_word(surface) if kind == WORD else surface
                tokens.append(Token(surface=surface, lemma=lemma, kind=kind))
                pos = m.end()
                break
        else:
            # unreachable: _PUNCT_RE matches any non-space character
            surface = note[pos]
            tokens.append(Token(surface=surface, lemma=surface, kind=PUNCT))
            pos += 1
    return TokenizedPost(tokens=tuple(tokens), raw=note)


def generate_ngrams_oracle(post: TokenizedPost, n_range=(1, 2)) -> list[str]:
    low, high = n_range
    if not (1 <= low <= high <= 3):
        raise ValueError(f"n_range must satisfy 1 <= low <= high <= 3, got {n_range}")
    lemmas = [t.lemma for t in post.tokens]
    grams: list[str] = []
    for n in range(low, high + 1):
        for i in range(len(lemmas) - n + 1):
            grams.append(" ".join(lemmas[i:i + n]))
    return grams


def fit_vocabulary_oracle(user_posts, n_range=(1, 2), min_df=2) -> Vocabulary:
    if len(user_posts) == 0:
        raise EmptyCorpus("cannot fit a vocabulary on zero users")
    df: dict[str, int] = {}
    for posts in user_posts:
        for term in {g for post in posts for g in generate_ngrams_oracle(post, n_range)}:
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= min_df)
    return Vocabulary(
        terms=kept,
        df=[df[t] for t in kept],
        n_documents=len(user_posts),
        n_range=n_range,
        min_df=min_df,
    )


def count_transform_oracle(user_posts, vocab: Vocabulary) -> sp.csr_matrix:
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for posts in user_posts:
        row: dict[int, float] = {}
        for term in (g for post in posts
                     for g in generate_ngrams_oracle(post, vocab.n_range)):
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


def gbdt_raw_oracle(model, X) -> np.ndarray:
    """gbdt_raw with each internal node scattering its column to dense."""
    Xc = sp.csc_matrix(X, dtype=np.float64)
    Xc.sum_duplicates()

    def apply(node, idx, out):
        if "value" in node:
            out[idx] = node["value"]
            return
        lo, hi = Xc.indptr[node["feature"]], Xc.indptr[node["feature"] + 1]
        col = np.zeros(Xc.shape[0])
        col[Xc.indices[lo:hi]] = Xc.data[lo:hi]
        mask = col[idx] < node["threshold"]
        apply(node["left"], idx[mask], out)
        apply(node["right"], idx[~mask], out)

    idx = np.arange(Xc.shape[0])
    out = np.full(idx.size, model.init_log_odds)
    buf = np.zeros(idx.size)
    for tree in model.trees:
        apply(tree, idx, buf)
        out += model.config.learning_rate * buf
    return out


# Per-node dense GBDT split search (one histogram over d x n_bins cells per
# node, recursive) over its own dense binning. Of the candidates whose gain is
# within 1e-9 * max(|best|, 1) of the best, the lowest (feature, bin) wins.
# train_gbdt must grow the same trees.
def gbdt_bin_columns(Xd: np.ndarray, n_bins: int):
    n, d = Xd.shape
    codes = np.zeros((n, d), dtype=np.int32)
    cuts_list: list[np.ndarray] = []
    for j in range(d):
        col = Xd[:, j]
        uniq = np.unique(col)
        if uniq.size <= 1:
            cuts = np.empty(0)
        elif uniq.size <= n_bins:
            cuts = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.quantile(col, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
            cuts = np.unique(qs)
        codes[:, j] = np.searchsorted(cuts, col, side="right")
        cuts_list.append(cuts)
    return codes, cuts_list


def _histograms(codes: np.ndarray, g: np.ndarray, h: np.ndarray, n_bins: int):
    m, d = codes.shape
    offsets = (np.arange(d, dtype=np.int64) * n_bins)[None, :]
    flat = (codes.astype(np.int64) + offsets).ravel()
    size = d * n_bins
    hg = np.bincount(flat, weights=np.repeat(g, d), minlength=size).reshape(d, n_bins)
    hh = np.bincount(flat, weights=np.repeat(h, d), minlength=size).reshape(d, n_bins)
    hc = np.bincount(flat, minlength=size).reshape(d, n_bins)
    return hg, hh, hc


def gbdt_build_tree(codes: np.ndarray, cuts_list: list[np.ndarray],
                    g: np.ndarray, h: np.ndarray, idx: np.ndarray,
                    depth: int, max_depth: int, n_bins: int) -> dict:
    gsum = float(g[idx].sum())
    hsum = float(h[idx].sum())
    if depth >= max_depth or idx.size < 2:
        return {"value": _leaf_value(gsum, hsum)}

    hg, hh, hc = _histograms(codes[idx], g[idx], h[idx], n_bins)
    GL = np.cumsum(hg, axis=1)[:, :-1]
    HL = np.cumsum(hh, axis=1)[:, :-1]
    CL = np.cumsum(hc, axis=1)[:, :-1]
    GR = gsum - GL
    HR = hsum - HL
    CR = idx.size - CL
    gain = (GL ** 2 / (HL + _LAMBDA) + GR ** 2 / (HR + _LAMBDA)
            - gsum ** 2 / (hsum + _LAMBDA))
    gain = np.where((CL > 0) & (CR > 0), gain, -np.inf)

    best_gain = gain.max()
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return {"value": _leaf_value(gsum, hsum)}
    near = gain >= best_gain - 1e-9 * max(abs(best_gain), 1.0)
    feature, b = divmod(int(np.argmax(near)), n_bins - 1)  # row-major: lowest first
    threshold = float(cuts_list[feature][b])

    mask = codes[idx, feature] <= b
    left = gbdt_build_tree(codes, cuts_list, g, h, idx[mask],
                           depth + 1, max_depth, n_bins)
    right = gbdt_build_tree(codes, cuts_list, g, h, idx[~mask],
                            depth + 1, max_depth, n_bins)
    return {"feature": int(feature), "threshold": threshold,
            "left": left, "right": right}


# Dual coordinate descent as first written: the epoch kernel indexes numpy
# arrays one element at a time. train_linear_svm must fit the same bits.
def _svm_cd_epoch(indptr, indices, data, y, qd, alpha, w, C, order):
    # one pass of dual coordinate descent over the given row order
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        g = 0.0
        for k in range(lo, hi):
            g += data[k] * w[indices[k]]
        g = y[i] * g - 1.0
        a = alpha[i]
        if a == 0.0:
            pg = min(g, 0.0)
        elif a == C:
            pg = max(g, 0.0)
        else:
            pg = g
        if pg != 0.0:
            na = min(max(a - g / qd[i], 0.0), C)
            d = (na - a) * y[i]
            alpha[i] = na
            for k in range(lo, hi):
                w[indices[k]] += d * data[k]


def svm_train(X, y, C: float = 1.0, tol: float = 1e-3, seed: int = 0,
              max_epochs: int = 1000) -> LinearSvmModel:
    """Fit the hinge-loss linear model to the stated relative duality gap."""
    Xc = _as_csr(X)
    yv = check_binary_labels(y, (-1, 1), Xc.shape[0])
    if not np.isfinite(Xc.data).all():
        raise NonFiniteError("training matrix contains non-finite values")
    if C <= 0:
        raise ValueError("C must be positive")

    n, d = Xc.shape
    Xa = sp.hstack([Xc, np.ones((n, 1))], format="csr")  # bias feature
    qd = np.asarray(Xa.multiply(Xa).sum(axis=1)).ravel()
    qd[qd == 0.0] = 1.0  # all-zero rows never move their alpha anyway
    alpha = np.zeros(n)
    w = np.zeros(d + 1)
    rng = np.random.default_rng(seed)

    primal = gap = np.inf
    epochs = 0
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        _svm_cd_epoch(Xa.indptr, Xa.indices, Xa.data, yv, qd, alpha, w, C, order)
        epochs = epoch + 1
        margins = 1.0 - yv * (Xa @ w)
        reg = 0.5 * float(w @ w)
        primal = reg + C * float(np.clip(margins, 0.0, None).sum())
        dual = float(alpha.sum()) - reg
        gap = primal - dual
        if gap <= tol * max(abs(primal), 1.0):
            break

    return LinearSvmModel(
        weights=w[:-1].copy(), bias=float(w[-1]), C=C, tol=tol, seed=seed,
        epochs_run=epochs, primal_objective=primal, duality_gap=gap,
    )


# The MLP's training loop as first written, gradients included: the epoch
# loss comes from a full forward and backward pass whose gradients are
# dropped. train_mlp must fit the same bits.
def _mlp_loss_and_grads(W1, b1, W2, b2, X, y):
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.shape[0]
    pre = X @ W1 + b1
    hidden = np.maximum(pre, 0.0)
    z = (hidden @ W2).ravel() + b2[0]
    loss = bce_with_logits(z, y)
    dz = (_sigmoid(z) - y)[:, None] / n
    dW2 = hidden.T @ dz
    db2 = dz.sum(axis=0)
    dhidden = dz @ W2.T
    dhidden[pre <= 0.0] = 0.0
    dW1 = X.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, dW1, db1, dW2, db2


@np.errstate(over="ignore", invalid="ignore")
def train_mlp_oracle(X, y, config: MlpConfig | None = None) -> MlpModel:
    if config is None:
        config = MlpConfig()
    Xv = (X.tocsr().astype(np.float64) if sp.issparse(X)
          else np.asarray(X, dtype=np.float64))
    n, d = Xv.shape
    yv = check_binary_labels(y, (0, 1), n)

    rng = np.random.default_rng(config.seed)
    limit1 = np.sqrt(6.0 / (d + config.hidden))
    limit2 = np.sqrt(6.0 / (config.hidden + 1))
    W1 = rng.uniform(-limit1, limit1, size=(d, config.hidden))
    b1 = np.zeros(config.hidden)
    W2 = rng.uniform(-limit2, limit2, size=(config.hidden, 1))
    b2 = np.zeros(1)

    batch = max(1, min(config.batch, n))
    loss_curve: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            Xb = Xv[idx]
            loss, dW1, db1, dW2, db2 = _mlp_loss_and_grads(W1, b1, W2, b2, Xb, yv[idx])
            if not np.isfinite(loss):
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}")
            W1 -= config.lr * dW1
            b1 -= config.lr * db1
            W2 -= config.lr * dW2
            b2 -= config.lr * db2
        full_loss, *_ = _mlp_loss_and_grads(W1, b1, W2, b2, Xv, yv)
        if not np.isfinite(full_loss):
            raise NonFiniteError(f"non-finite loss after epoch {epoch}")
        loss_curve.append(full_loss)

    return MlpModel(W1=W1, b1=b1, W2=W2, b2=b2, config=config,
                    loss_curve=loss_curve)


# Per-user aggregation as first written: a dataclass of named aggregates,
# flattened by to_vector. aggregate_user_features must return the same bits.
@dataclass(frozen=True)
class EngineeredFeatures:
    """Per-user aggregates: (avg, pct) per content feature plus structure."""

    avg_per_post: dict[str, float]
    pct_posts_containing: dict[str, float]
    pct_charge: float
    avg_likes: float
    avg_len_chars: float
    avg_len_tokens: float
    pct_as_actor: float

    def to_vector(self, include_actor_pct: bool = False) -> np.ndarray:
        vals: list[float] = []
        for name in CONTENT_FEATURES:
            vals.append(self.avg_per_post[name])
            vals.append(self.pct_posts_containing[name])
        vals.extend([self.pct_charge, self.avg_likes,
                     self.avg_len_chars, self.avg_len_tokens])
        if include_actor_pct:
            vals.append(self.pct_as_actor)
        return np.array(vals, dtype=np.float64)


def engineered_features(profile, posts, counts=None) -> EngineeredFeatures:
    """Aggregate per-post counts and structure into one user's feature row.

    posts must align one-to-one with profile.posts. Precomputed counts may be
    passed to avoid re-detection.
    """
    n = len(profile.posts)
    if n == 0:
        raise EmptyProfile(f"user {profile.user_id} has no posts")
    if len(posts) != n:
        raise ValueError("posts must align with profile.posts")
    if counts is None:
        counts = [detect_content_features(p) for p in posts]

    matrix = np.array(counts, dtype=np.float64)
    avg = matrix.mean(axis=0)
    pct = (matrix > 0).mean(axis=0)

    kinds = [t.kind for t, _ in profile.posts]
    roles = [role for _, role in profile.posts]
    likes = [t.likes_count for t, _ in profile.posts]
    notes = [t.note for t, _ in profile.posts]

    return EngineeredFeatures(
        avg_per_post={name: float(avg[i]) for i, name in enumerate(CONTENT_FEATURES)},
        pct_posts_containing={name: float(pct[i]) for i, name in enumerate(CONTENT_FEATURES)},
        pct_charge=sum(1 for k in kinds if k == "charge") / n,
        avg_likes=float(np.mean(likes)),
        avg_len_chars=float(np.mean([len(s) for s in notes])),
        avg_len_tokens=float(np.mean([len(p.tokens) for p in posts])),
        pct_as_actor=sum(1 for r in roles if r == "actor") / n,
    )


# Model payloads as first written: a hand-written pair per model class. The
# codec must write the same JSON text as a model's payload, and load the
# same fields.
class SvmPayload(LinearSvmModel):
    def to_payload(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "C": self.C,
            "tol": self.tol,
            "seed": self.seed,
            "epochs_run": self.epochs_run,
            "primal_objective": self.primal_objective,
            "duality_gap": self.duality_gap,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LinearSvmModel":
        return cls(
            weights=np.asarray(payload["weights"], dtype=np.float64),
            bias=float(payload["bias"]),
            C=float(payload["C"]),
            tol=float(payload["tol"]),
            seed=int(payload["seed"]),
            epochs_run=int(payload.get("epochs_run", 0)),
            primal_objective=float(payload.get("primal_objective", 0.0)),
            duality_gap=float(payload.get("duality_gap", 0.0)),
        )


class MlpPayload(MlpModel):
    def to_payload(self) -> dict:
        return {
            "W1": self.W1.tolist(), "b1": self.b1.tolist(),
            "W2": self.W2.tolist(), "b2": self.b2.tolist(),
            "config": vars(self.config),
            "loss_curve": self.loss_curve,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MlpModel":
        return cls(
            W1=np.asarray(payload["W1"], dtype=np.float64),
            b1=np.asarray(payload["b1"], dtype=np.float64),
            W2=np.asarray(payload["W2"], dtype=np.float64),
            b2=np.asarray(payload["b2"], dtype=np.float64),
            config=MlpConfig(**payload["config"]),
            loss_curve=list(payload.get("loss_curve", [])),
        )


class GbdtPayload(GbdtModel):
    def to_payload(self) -> dict:
        return {
            "trees": self.trees,
            "init_log_odds": self.init_log_odds,
            "config": vars(self.config),
            "loss_curve": self.loss_curve,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GbdtModel":
        return cls(
            trees=payload["trees"],
            init_log_odds=float(payload["init_log_odds"]),
            config=GbdtConfig(**payload["config"]),
            loss_curve=list(payload.get("loss_curve", [])),
        )


PAYLOAD_ORACLES = {"svm": SvmPayload, "mlp": MlpPayload, "gbdt": GbdtPayload}


def _confusion(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[int, int, int, int]:
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    return tn, fp, fn, tp


def cross_validate_oracle(dataset, plan, config) -> CvResult:
    """One config's cross-validation with a full pipeline refit per fold."""
    outcomes = []
    for i in range(plan.k):
        train_idx, test_idx = plan.split(i)
        fitted = fit_pipeline(dataset, train_idx, config)
        X_test = pipeline_transform(fitted, dataset, test_idx)
        y_pred = pipeline_predict(fitted, X_test)
        outcomes.append(_confusion(dataset.labels01[test_idx], y_pred))
    return CvResult(config=config, outcomes=outcomes)
