"""Note tokenization: typed tokens, a rule-based lemmatizer, and post-wise n-grams.

A note decomposes into word, emoji, shortcode, emoticon, number and punct
tokens. Emoji segmentation follows extended-pictographic code points plus
ZWJ/variation-selector/skin-tone continuation, so multi-code-point glyphs
stay single tokens. N-grams are generated per post and never span two posts
of the same user.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    kind: str


@dataclass(frozen=True)
class TokenizedPost:
    tokens: tuple[Token, ...]
    raw: str

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]

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


def _emoticon_pattern(emoticons: list[str]) -> re.Pattern:
    # longest first; alphanumeric-final emoticons must not run into a word
    parts = []
    for e in sorted(emoticons, key=len, reverse=True):
        pat = re.escape(e)
        if e[-1].isalnum():
            pat += r"(?!\w)"
        parts.append(pat)
    return re.compile("|".join(parts))


_PICTO = f"[{emoji_data.pictographic_class()}]"
_MODS = "[\U0001F3FB-\U0001F3FF︎️]"
_RI = "[\U0001F1E6-\U0001F1FF]"
_EMOJI_RE = re.compile(
    "|".join([
        rf"[0-9#*]️?⃣",                      # keycap
        rf"{_RI}{_RI}",                                # flag pair
        rf"{_RI}",                                     # lone regional indicator
        rf"{_PICTO}{_MODS}*(?:‍{_PICTO}{_MODS}*)*",  # ZWJ sequence
    ])
)
_SHORTCODE_RE = re.compile(r":[a-z0-9_]+:")
_WORD_RE = re.compile(r"[^\W\d_]+(?:['’][^\W\d_]+)*")
_NUMBER_RE = re.compile(r"\d+(?:[.,]\d+)*")
_PUNCT_RE = re.compile(r"(\S)\1*")
_WS_RE = re.compile(r"\s+")


@lru_cache(maxsize=1)
def _matchers():
    return (
        (SHORTCODE, _SHORTCODE_RE),
        (EMOTICON, _emoticon_pattern(_read_data_lines("emoticons.txt"))),
        (EMOJI, _EMOJI_RE),
        (WORD, _WORD_RE),
        (NUMBER, _NUMBER_RE),
        (PUNCT, _PUNCT_RE),
    )


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


def lemmatize(token: Token) -> Token:
    """Lemma for word tokens; non-word tokens pass through unchanged."""
    if token.kind != WORD:
        return token
    return Token(surface=token.surface,
                 lemma=lemma_for_word(token.surface),
                 kind=WORD)


def tokenize_post(note: str) -> TokenizedPost:
    """Segment a note into typed tokens. Total and deterministic.

    Match priority at each position: shortcode, emoticon, emoji sequence,
    word, number, then a run of identical punctuation characters.
    """
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
                token = Token(surface=surface, lemma=surface, kind=kind)
                if kind == WORD:
                    token = lemmatize(token)
                tokens.append(token)
                pos = m.end()
                break
        else:
            # unreachable: _PUNCT_RE matches any non-space character
            surface = note[pos]
            tokens.append(Token(surface=surface, lemma=surface, kind=PUNCT))
            pos += 1
    return TokenizedPost(tokens=tuple(tokens), raw=note)


def generate_ngrams(post: TokenizedPost, n_range: tuple[int, int] = (1, 2)) -> list[str]:
    """N-grams over this post's lemma sequence, joined by single spaces.

    Emitted by n ascending, then by position. Never crosses post boundaries
    because it only ever sees one post.
    """
    low, high = n_range
    if not (1 <= low <= high <= 3):
        raise ValueError(f"n_range must satisfy 1 <= low <= high <= 3, got {n_range}")
    lemmas = post.lemmas()
    grams: list[str] = []
    for n in range(low, high + 1):
        for i in range(len(lemmas) - n + 1):
            grams.append(" ".join(lemmas[i:i + n]))
    return grams


def user_ngrams(posts: list[TokenizedPost], n_range: tuple[int, int] = (1, 2)) -> list[str]:
    """Concatenated post-wise n-grams for one user's posts."""
    grams: list[str] = []
    for post in posts:
        grams.extend(generate_ngrams(post, n_range))
    return grams
