"""Per-post content feature detection and per-user aggregation.

Eleven content features are counted per post: emoji, emoticon, venmo_emoji,
repeated_chars, excitement, single_exclaim, ellipses, shouting, laughing,
omg, curse. Punctuation-driven features (excitement, single_exclaim,
ellipses, shouting) are detected on the raw note text; lexical features on
word tokens. Per user we report the average count per post and the fraction
of posts containing each feature, plus structural features.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .corpus import UserProfile
from .errors import EmptyProfile
from .tokenizer import (EMOJI, EMOTICON, SHORTCODE, WORD, TokenizedPost,
                        _read_data_lines)

STRUCTURAL_FEATURES = ("pct_charge", "avg_likes", "avg_len_chars", "avg_len_tokens")

_REPEATED_RE = re.compile(r"(.)\1\1")          # same character 3+ in a row
_EXCITEMENT_RE = re.compile(r"!{2,}")          # maximal runs of 2+ '!'
_ELLIPSIS_RE = re.compile(r"…|\.{3,}")    # '…' or runs of 3+ '.'
_LAUGH_RE = re.compile(r"(?:ha|he){2,}$")
_OMG_RE = re.compile(r"o+m+g+$")


@lru_cache(maxsize=1)
def default_curse_lexicon() -> frozenset[str]:
    return frozenset(_read_data_lines("curse_words.txt"))


@lru_cache(maxsize=1)
def default_laughing_lexicon() -> frozenset[str]:
    return frozenset(_read_data_lines("laughing.txt"))


class ContentCounts(NamedTuple):
    """One post's count of each content feature, in column order."""

    emoji: int = 0
    emoticon: int = 0
    venmo_emoji: int = 0
    repeated_chars: int = 0
    excitement: int = 0
    single_exclaim: int = 0
    ellipses: int = 0
    shouting: int = 0
    laughing: int = 0
    omg: int = 0
    curse: int = 0


CONTENT_FEATURES = ContentCounts._fields


def engineered_feature_names(include_actor_pct: bool = False) -> list[str]:
    """Column names of the rows aggregate_user_features returns."""
    names = [f"{f}_{stat}" for f in CONTENT_FEATURES for stat in ("avg", "pct")]
    actor = ["pct_as_actor"] if include_actor_pct else []
    return names + list(STRUCTURAL_FEATURES) + actor


def detect_content_features(post: TokenizedPost) -> ContentCounts:
    """Count the eleven content features in one tokenized post."""
    curse_lexicon = default_curse_lexicon()
    laughing_lexicon = default_laughing_lexicon()

    raw = post.raw
    emoji = emoticon = venmo = repeated = laughing = omg = curse = 0
    for tok in post.tokens:
        if tok.kind == EMOJI:
            emoji += 1
        elif tok.kind == EMOTICON:
            emoticon += 1
        elif tok.kind == SHORTCODE:
            venmo += 1
        elif tok.kind == WORD:
            low = tok.surface.lower()
            if _REPEATED_RE.search(low):
                repeated += 1
            if low in laughing_lexicon or _LAUGH_RE.fullmatch(low):
                laughing += 1
            if _OMG_RE.fullmatch(low):
                omg += 1
            if low in curse_lexicon:
                curse += 1

    excitement = len(_EXCITEMENT_RE.findall(raw))
    stripped = raw.rstrip()
    single_exclaim = 1 if stripped.endswith("!") and raw.count("!") == 1 else 0
    ellipses = len(_ELLIPSIS_RE.findall(raw))
    alpha = [c for c in raw if c.isalpha()]
    shouting = 1 if len(alpha) >= 2 and all(c.isupper() for c in alpha) else 0

    return ContentCounts(
        emoji=emoji, emoticon=emoticon, venmo_emoji=venmo,
        repeated_chars=repeated, excitement=excitement,
        single_exclaim=single_exclaim, ellipses=ellipses, shouting=shouting,
        laughing=laughing, omg=omg, curse=curse,
    )


def aggregate_user_features(profile: UserProfile,
                            posts: list[TokenizedPost],
                            counts: list[ContentCounts],
                            include_actor_pct: bool = False) -> np.ndarray:
    """One user's float64 feature row, in engineered_feature_names order.

    The (avg, pct) pair of each content feature, then the structural
    columns, then pct_as_actor when asked for. posts and their counts must
    align one-to-one with profile.posts.
    """
    n = len(profile.posts)
    if n == 0:
        raise EmptyProfile(f"user {profile.user_id} has no posts")
    if not len(posts) == len(counts) == n:
        raise ValueError("posts and counts must align with profile.posts")

    matrix = np.array(counts, dtype=np.float64)
    avg = matrix.mean(axis=0)
    pct = (matrix > 0).mean(axis=0)

    structure = [
        sum(1 for t, _ in profile.posts if t.kind == "charge") / n,
        float(np.mean([t.likes_count for t, _ in profile.posts])),
        float(np.mean([len(t.note) for t, _ in profile.posts])),
        float(np.mean([len(p.tokens) for p in posts])),
    ]
    if include_actor_pct:
        structure.append(sum(1 for _, role in profile.posts if role == "actor") / n)
    return np.concatenate([np.stack([avg, pct], axis=1).ravel(), structure])
