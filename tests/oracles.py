"""Independent brute-force oracles used by unit and acceptance tests.

The text oracles deliberately avoid the library's own matrix code paths:
plain dicts, math.log and explicit loops only.
"""

import math

import numpy as np

from paylens.models.gbdt import _LAMBDA, _leaf_value


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


# Per-node dense GBDT split search as first written (one histogram over
# d x n_bins cells per node, recursive). train_gbdt must grow the same trees.
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

    best = int(np.argmax(gain))  # ties: lowest feature index, lowest bin
    best_gain = gain.flat[best]
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return {"value": _leaf_value(gsum, hsum)}
    feature, b = divmod(best, n_bins - 1)
    threshold = float(cuts_list[feature][b])

    mask = codes[idx, feature] <= b
    left = gbdt_build_tree(codes, cuts_list, g, h, idx[mask],
                           depth + 1, max_depth, n_bins)
    right = gbdt_build_tree(codes, cuts_list, g, h, idx[~mask],
                            depth + 1, max_depth, n_bins)
    return {"feature": int(feature), "threshold": threshold,
            "left": left, "right": right}
