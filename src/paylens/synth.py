"""Synthetic corpus generator with planted class signal.

Two user classes share a Zipf-weighted background vocabulary and emoji pool;
each class additionally owns a small set of signal tokens. Per post, the
user's own-class signal token appears with probability p_signal and the
other class's with probability p_noise, so recovering the labels (and the
planted tokens in the coefficient report) has a known difficulty. Posts
without signal are usually a single emoji, which keeps the mode of the
note-length histogram at one character.

Each labeled user transacts with one-off counterparty accounts, so a user's
document contains exactly their own notes. Counterparties carry non-name
display handles and never enter the labeled set.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import SynthSpecError
from .corpus import Transaction
from .labels import FEMALE, MALE, default_name_corpus, guess_gender

SIGNAL_TOKENS_A = (
    "zephyrine", "quabble", "snorkelet", "bramblewick",
    "plumetta", "gorseleaf", "twinklap", "marzipane",
)
SIGNAL_TOKENS_B = (
    "grindlewort", "stubbleknock", "vargrim", "duskhollow",
    "brackenfell", "ironmoss", "cobblewick", "thorngate",
)

# deduplicated in first-occurrence order, which the Zipf weights follow
BACKGROUND_WORDS = tuple(dict.fromkeys((
    "pizza rent dinner lunch coffee tickets groceries uber lyft beer wine "
    "sushi tacos brunch movie concert hotel trip vacation split bill tab "
    "thank food snacks parking laundry internet cable electric water heat "
    "dues golf poker league game bday gift cake party weekend roadtrip "
    "flight bagels donuts ramen pho burrito gym membership haircut massage "
    "copay dog cat vet sitter cleaning supplies books tuition textbooks "
    "printing storage moving truck deposit utilities drinks nachos karaoke "
    "bowling camping fishing firewood cooler propane boat lake cabin slopes "
    "lift gear rental cab toll fuel wash detail oil brakes insurance phone "
    "stream split rent groceries squad crew fam bro dude buddy pal roomie "
    "neighbor costco target amazon walmart pharmacy bakery deli tip cover "
    "entry fee raffle bet wager pool stakes dare loan payback iou change"
).split()))

EMOJI_POOL = (
    "🍕🍺🍻🍷🍸🍹🍔🌮🏠🚗💸💵🎉🎂🎁⚽🏈🎾🏀🐶"
    "🐱🌊🌲☕🍩🍎🚕🚌🎬🎤🎮🏖🎣🍜🍣🥑🥂🧾🛒🎟"
)

CHARGE_FRACTION = 0.2


@dataclass(frozen=True)
class SynthSpec:
    n_users_per_class: int = 100
    posts_per_user: tuple[int, int] = (5, 12)
    p_signal: float = 0.6
    p_noise: float = 0.1
    emoji_fraction: float = 0.6
    seed: int = 0
    # not fields: every spec plants the same tokens; bench/inputs.py reads them
    signal_tokens_a = SIGNAL_TOKENS_A
    signal_tokens_b = SIGNAL_TOKENS_B

    def validate(self) -> None:
        if not (0.0 <= self.p_noise < self.p_signal <= 1.0):
            raise SynthSpecError(
                f"need 0 <= p_noise < p_signal <= 1, got "
                f"p_noise={self.p_noise}, p_signal={self.p_signal}")
        if self.n_users_per_class < 1:
            raise SynthSpecError("n_users_per_class must be >= 1")
        lo, hi = self.posts_per_user
        if not (1 <= lo <= hi):
            raise SynthSpecError(f"bad posts_per_user range {self.posts_per_user}")
        if not (0.0 <= self.emoji_fraction <= 1.0):
            raise SynthSpecError("emoji_fraction must be in [0, 1]")


@dataclass
class SynthResult:
    transactions: list[Transaction]
    labels: list[tuple[str, str]]       # (user_id, "democrat"|"republican")


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / (np.arange(n) + 2.0)
    return w / w.sum()


def _name_pools() -> tuple[list[str], list[str]]:
    corpus = default_name_corpus()
    female = sorted(n for n in corpus.counts
                    if guess_gender(n, corpus, "us") == FEMALE)
    male = sorted(n for n in corpus.counts
                  if guess_gender(n, corpus, "us") == MALE)
    return female, male


def generate_synthetic_corpus(spec: SynthSpec) -> SynthResult:
    """Deterministic corpus + labels for the given spec."""
    spec.validate()
    root = np.random.SeedSequence(spec.seed)
    rng_notes, rng_tx, rng_names = (np.random.default_rng(s) for s in root.spawn(3))

    female_names, male_names = _name_pools()
    bg_weights = _zipf_weights(len(BACKGROUND_WORDS))
    base_time = datetime(2024, 1, 1, tzinfo=timezone.utc)

    transactions: list[Transaction] = []
    labels: list[tuple[str, str]] = []
    seq = 0

    for class_key, signal_own, signal_other, pol_label, name_pool in (
            ("a", SIGNAL_TOKENS_A, SIGNAL_TOKENS_B, "democrat", female_names),
            ("b", SIGNAL_TOKENS_B, SIGNAL_TOKENS_A, "republican", male_names)):
        for i in range(spec.n_users_per_class):
            user_id = f"u{class_key}{i:05d}"
            first = name_pool[int(rng_names.integers(len(name_pool)))]
            display = f"{first.capitalize()} {chr(ord('A') + int(rng_names.integers(26)))}."
            labels.append((user_id, pol_label))

            n_posts = int(rng_notes.integers(spec.posts_per_user[0],
                                             spec.posts_per_user[1] + 1))
            for _ in range(n_posts):
                note = _make_note(spec, rng_notes, signal_own, signal_other,
                                  bg_weights)
                counterparty = f"x{seq:07d}"
                cp_name = f"Px{seq:07d}"
                user_is_actor = bool(rng_tx.integers(2))
                kind = "charge" if rng_tx.random() < CHARGE_FRACTION else "payment"
                transactions.append(Transaction(
                    id=f"t{seq:07d}",
                    created_at=base_time + timedelta(minutes=seq),
                    note=note,
                    kind=kind,
                    actor_id=user_id if user_is_actor else counterparty,
                    actor_name=display if user_is_actor else cp_name,
                    target_id=counterparty if user_is_actor else user_id,
                    target_name=cp_name if user_is_actor else display,
                    likes_count=int(rng_tx.poisson(0.25)),
                    comments_count=int(rng_tx.poisson(0.05)),
                    audience="public",
                ))
                seq += 1

    return SynthResult(transactions=transactions, labels=labels)


def _make_note(spec: SynthSpec, rng: np.random.Generator,
               signal_own: tuple[str, ...], signal_other: tuple[str, ...],
               bg_weights: np.ndarray) -> str:
    tokens: list[str] = []
    if rng.random() < spec.p_signal:
        tokens.append(signal_own[int(rng.integers(len(signal_own)))])
    if rng.random() < spec.p_noise:
        tokens.append(signal_other[int(rng.integers(len(signal_other)))])

    if not tokens:
        if rng.random() < spec.emoji_fraction:
            return EMOJI_POOL[int(rng.integers(len(EMOJI_POOL)))]
        k = int(rng.choice([1, 2, 3], p=[0.6, 0.3, 0.1]))
        picks = rng.choice(len(BACKGROUND_WORDS), size=k, p=bg_weights)
        return " ".join(BACKGROUND_WORDS[int(p)] for p in picks)

    extra = int(rng.choice([0, 1, 2], p=[0.5, 0.35, 0.15]))
    picks = rng.choice(len(BACKGROUND_WORDS), size=extra, p=bg_weights)
    tokens.extend(BACKGROUND_WORDS[int(p)] for p in picks)
    rng.shuffle(tokens)
    if rng.random() < spec.emoji_fraction:
        tokens.append(EMOJI_POOL[int(rng.integers(len(EMOJI_POOL)))])
    return " ".join(tokens)
