"""Note tokenization: typed tokens, a rule-based lemmatizer, and post-wise n-grams.

A note decomposes into word, emoji, shortcode, emoticon, number and punct
tokens. Emoji segmentation follows extended-pictographic code points plus
ZWJ/variation-selector/skin-tone continuation, so multi-code-point glyphs
stay single tokens. One compiled alternation of named groups finds each
token in a single match.

N-grams are generated per post and never span two posts of the same user.
A post builds its n-grams on first use and keeps them (`TokenizedPost.ngrams`),
so the vocabulary and count refits of every CV fold and n-range reuse them:
order 1 is the lemma tuple, higher orders are interned space-joined strings.
The cache is not part of a post's value (equality, hash, repr). To keep it
from raising memory, the token classes use slots, and `tokenize_post` takes
each Token from a bounded LRU cache keyed on (surface, kind), the one cache
on the token path: a word's lemma is computed when its Token is built, a
repeated token is one object for as long as the cache keeps it, and equal
surfaces stay one interned string after it is evicted.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from . import emoji_data

WORD = "word"
EMOJI = "emoji"
SHORTCODE = "shortcode"
EMOTICON = "emoticon"
NUMBER = "number"
PUNCT = "punct"

TOKEN_KINDS = (WORD, EMOJI, SHORTCODE, EMOTICON, NUMBER, PUNCT)

_VOWELS = set("aeiou")
_UNDOUBLE_KEEP = {"ll", "ss", "zz", "ff"}


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    lemma: str
    kind: str


@dataclass(frozen=True, slots=True)
class TokenizedPost:
    tokens: tuple[Token, ...]
    raw: str
    # this post's n-grams of orders 1..len(_grams); not part of its value
    _grams: tuple[tuple[str, ...], ...] = field(
        default=(), init=False, compare=False, repr=False)

    def ngrams(self, n: int) -> tuple[str, ...]:
        """This post's n-grams of order n by position, built on first use.

        Orders 1..n are built together; order 1 is the lemma tuple.
        """
        grams = self._grams
        if len(grams) < n:
            if not grams:
                grams = (tuple([t.lemma for t in self.tokens]),)
            lemmas = grams[0]
            for k in range(len(grams) + 1, n + 1):
                windows = zip(*[lemmas[i:] for i in range(k)]) if len(lemmas) >= k else ()
                grams += (tuple(map(sys.intern, map(" ".join, windows))),)
            object.__setattr__(self, "_grams", grams)  # a cache, not the value
        return grams[n - 1]

    def __len__(self) -> int:
        return len(self.tokens)


def _read_data_lines(name: str) -> list[str]:
    text = (resources.files("paylens") / "data" / name).read_text(encoding="utf-8")
    return [line for line in (ln.strip() for ln in text.splitlines())
            if line and not line.startswith("#")]


@lru_cache(maxsize=1)
def default_lemma_exceptions() -> dict[str, str]:
    table = {}
    for line in _read_data_lines("lemma_exceptions.tsv"):
        surface, _, lemma = line.partition("\t")
        table[surface.strip()] = lemma.strip()
    return table


def _emoticon_pattern(emoticons: list[str]) -> str:
    # longest first; alphanumeric-final emoticons must not run into a word
    parts = []
    for e in sorted(emoticons, key=len, reverse=True):
        pat = re.escape(e)
        if e[-1].isalnum():
            pat += r"(?!\w)"
        parts.append(pat)
    return "|".join(parts)


_PICTO = f"[{emoji_data.pictographic_class()}]"
_MODS = "[\U0001F3FB-\U0001F3FF︎️]"
_RI = "[\U0001F1E6-\U0001F1FF]"
_EMOJI = "|".join([
    rf"[0-9#*]️?⃣",                      # keycap
    rf"{_RI}{_RI}",                                # flag pair
    rf"{_RI}",                                     # lone regional indicator
    rf"{_PICTO}{_MODS}*(?:‍{_PICTO}{_MODS}*)*",  # ZWJ sequence
])

_WS = "ws"


@lru_cache(maxsize=1)
def _scanner() -> re.Pattern:
    """Every token kind as one named group, in priority order."""
    kinds = (
        (_WS, r"\s+"),
        (SHORTCODE, r":[a-z0-9_]+:"),
        (EMOTICON, _emoticon_pattern(_read_data_lines("emoticons.txt"))),
        (EMOJI, _EMOJI),
        (WORD, r"[^\W\d_]+(?:['’][^\W\d_]+)*"),
        (NUMBER, r"\d+(?:[.,]\d+)*"),
        (PUNCT, r"(?P<punct_char>\S)(?P=punct_char)*"),  # a run of one character
    )
    return re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in kinds))


def lemma_for_word(surface: str) -> str:
    """Lowercase a word and strip common inflections.

    Exception table first, then suffix rules: -ies/-ied to -y, -es/-s
    stripping, -ing/-ed stripping with consonant undoubling and silent-e
    restoration (CVC heuristic).
    """
    exceptions = default_lemma_exceptions()
    w = surface.lower()
    if w in exceptions:
        return exceptions[w]
    if w.endswith(("'s", "’s")) and len(w) > 3:
        w = w[:-2]
        if w in exceptions:
            return exceptions[w]
    if len(w) > 4 and (w.endswith("ies") or w.endswith("ied")):
        return w[:-3] + "y"
    if w.endswith("ing") and len(w) > 5:
        return _restore(w[:-3])
    if w.endswith("ed") and len(w) > 4:
        return _restore(w[:-2])
    if w.endswith("es") and len(w) > 3 and (
            w[:-2].endswith(("ss", "x", "z", "ch", "sh"))):
        return w[:-2]
    if (w.endswith("s") and len(w) > 2
            and not w.endswith(("ss", "us", "is", "'s"))):
        return w[:-1]
    return w


def _restore(stem: str) -> str:
    # undouble trailing consonants (runn -> run) except ll/ss/zz/ff
    if (len(stem) >= 3 and stem[-1] == stem[-2]
            and stem[-1] not in _VOWELS and stem[-2:] not in _UNDOUBLE_KEEP):
        return stem[:-1]
    # silent-e restoration: consonant-vowel-consonant ending (mak -> make)
    if (len(stem) >= 3
            and stem[-1] not in _VOWELS and stem[-1] not in "wxy"
            and stem[-2] in _VOWELS
            and stem[-3] not in _VOWELS):
        return stem + "e"
    return stem


@lru_cache(maxsize=2 ** 16)
def _token(surface: str, kind: str) -> Token:
    surface = sys.intern(surface)
    return Token(surface, lemma_for_word(surface) if kind == WORD else surface, kind)


def tokenize_post(note: str) -> TokenizedPost:
    """Segment a note into typed tokens. Total and deterministic.

    Match priority at each position: whitespace (skipped), shortcode,
    emoticon, emoji sequence, word, number, then a run of identical
    punctuation characters. Every position matches one of them, so the
    matches tile the note.
    """
    tokens = [_token(m.group(), m.lastgroup)
              for m in _scanner().finditer(note) if m.lastgroup != _WS]
    return TokenizedPost(tokens=tuple(tokens), raw=note)


def ngram_orders(n_range: tuple[int, int]) -> range:
    """The n-gram orders of an n_range; ValueError unless 1 <= low <= high <= 3."""
    low, high = n_range
    if not (1 <= low <= high <= 3):
        raise ValueError(f"n_range must satisfy 1 <= low <= high <= 3, got {n_range}")
    return range(low, high + 1)


def ngrams_by_post(posts: Iterable[TokenizedPost], orders: range) -> list[tuple[str, ...]]:
    """`post.ngrams(n)` for each post and each order in turn.

    Orders a post has already built are read without a method call, which
    is most of the cost when a fold refit gathers them again.
    """
    return [grams[n - 1] if len(grams := post._grams) >= n else post.ngrams(n)
            for post in posts for n in orders]

