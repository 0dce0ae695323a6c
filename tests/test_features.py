import random

import numpy as np
import pytest

from paylens.corpus import group_by_user
from paylens.errors import EmptyProfile
from paylens.features import (CONTENT_FEATURES, ContentCounts,
                              aggregate_user_features,
                              detect_content_features,
                              engineered_feature_names)
from paylens.tokenizer import tokenize_post

from conftest import make_txn
from golden_features import GOLDEN_NOTES
from oracles import engineered_features


def counts_for(note):
    return detect_content_features(tokenize_post(note))


class TestDetectContentFeatures:
    @pytest.mark.parametrize("note,expected", GOLDEN_NOTES,
                             ids=[repr(n) for n, _ in GOLDEN_NOTES])
    def test_golden_table(self, note, expected):
        counts = counts_for(note)
        for feature in CONTENT_FEATURES:
            assert getattr(counts, feature) == expected.get(feature, 0), feature

    def test_table_covers_every_feature(self):
        covered = {f for _, exp in GOLDEN_NOTES for f in exp}
        assert covered == set(CONTENT_FEATURES)
        assert len(GOLDEN_NOTES) >= 50

    def test_empty_note_all_zero(self):
        assert counts_for("") == ContentCounts()


def row_of(profile, posts, include_actor_pct=True):
    counts = [detect_content_features(p) for p in posts]
    return aggregate_user_features(profile, posts, counts, include_actor_pct)


def features_of(profile, posts):
    """One user's engineered row, keyed by column name."""
    return dict(zip(engineered_feature_names(True), row_of(profile, posts)))


def make_profile(notes, kinds=None, likes=None, roles=None):
    kinds = kinds or ["payment"] * len(notes)
    likes = likes or [0] * len(notes)
    roles = roles or ["actor"] * len(notes)
    txns = []
    for i, (note, kind, like, role) in enumerate(zip(notes, kinds, likes, roles)):
        actor, target = ("uu", f"x{i}") if role == "actor" else (f"x{i}", "uu")
        txns.append(make_txn(f"t{i}", note=note, actor=actor, target=target,
                             minutes=i, kind=kind, likes=like))
    profile = group_by_user(txns).users["uu"]
    posts = [tokenize_post(t.note) for t, _ in profile.posts]
    return profile, posts


class TestAggregateUserFeatures:
    def test_avg_and_pct(self):
        feats = features_of(*make_profile(["🍕🍕", "rent"]))
        assert feats["emoji_avg"] == pytest.approx(1.0)
        assert feats["emoji_pct"] == pytest.approx(0.5)

    def test_all_charges(self):
        feats = features_of(*make_profile(["a", "b"], kinds=["charge", "charge"]))
        assert feats["pct_charge"] == pytest.approx(1.0)

    def test_avg_likes(self):
        feats = features_of(*make_profile(["a", "b", "c"], likes=[0, 3, 3]))
        assert feats["avg_likes"] == pytest.approx(2.0)

    def test_lengths(self):
        feats = features_of(*make_profile(["🍕", "hi there"]))
        assert feats["avg_len_chars"] == pytest.approx((1 + 8) / 2)
        assert feats["avg_len_tokens"] == pytest.approx((1 + 2) / 2)

    def test_pct_as_actor(self):
        feats = features_of(*make_profile(
            ["a", "b", "c", "d"], roles=["actor", "actor", "actor", "target"]))
        assert feats["pct_as_actor"] == pytest.approx(0.75)

    def test_empty_profile_rejected(self):
        profile, _ = make_profile(["a"])
        profile.posts.clear()
        with pytest.raises(EmptyProfile):
            aggregate_user_features(profile, [], [])

    def test_permutation_invariance(self):
        notes = ["🍕 pizza!!", "omg", "lol...", "PARTY", "plain note"]
        profile, posts = make_profile(notes, likes=[1, 0, 2, 5, 0])
        base = row_of(profile, posts)
        rng = random.Random(3)
        order = list(range(len(profile.posts)))
        for _ in range(5):
            rng.shuffle(order)
            shuffled_posts = [profile.posts[i] for i in order]
            clone = type(profile)(user_id=profile.user_id,
                                  display_name=profile.display_name,
                                  posts=shuffled_posts)
            shuffled_tokens = [posts[i] for i in order]
            out = row_of(clone, shuffled_tokens)
            assert np.allclose(out, base)

    def test_pct_positive_iff_avg_positive(self):
        notes = ["🍕🍕 omg!!", "", "lol", "regular", "shit happens..."]
        feats = features_of(*make_profile(notes))
        for name in CONTENT_FEATURES:
            assert (feats[f"{name}_avg"] > 0) == (feats[f"{name}_pct"] > 0)

    def test_vector_matches_names(self):
        profile, posts = make_profile(["a"])
        for include in (False, True):
            row = row_of(profile, posts, include)
            assert row.dtype == np.float64
            assert len(row) == len(engineered_feature_names(include))
        assert engineered_feature_names(True)[-1] == "pct_as_actor"


_ORACLE_NOTES = ["", "🍕🍕 omg!!", "lol...", "PARTY TIME", "shit happens",
                 "hahaha :) :venmo_heart:", "soooo good!", "rent", "…", "ok!"]


@pytest.mark.parametrize("include_actor_pct", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_row_matches_oracle(seed, include_actor_pct):
    # random profiles: empty notes, charges, likes and mixed actor/target roles
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    profile, posts = make_profile(
        [rng.choice(_ORACLE_NOTES) for _ in range(n)],
        kinds=[rng.choice(["payment", "charge"]) for _ in range(n)],
        likes=[rng.choice([0, 0, 1, 2, 7]) for _ in range(n)],
        roles=[rng.choice(["actor", "target"]) for _ in range(n)])
    expected = engineered_features(profile, posts).to_vector(include_actor_pct)
    row = row_of(profile, posts, include_actor_pct)
    assert row.tobytes() == expected.tobytes()
