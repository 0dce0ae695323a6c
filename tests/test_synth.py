import io
from collections import Counter

import pytest

from paylens.corpus import dump_transactions, group_by_user, note_length_histogram
from paylens.errors import SynthSpecError
from paylens.labels import build_labeled_dataset
from paylens.synth import (SIGNAL_TOKENS_A, SIGNAL_TOKENS_B, SynthSpec,
                           generate_synthetic_corpus)
from paylens.tokenizer import tokenize_post


def dump_bytes(result):
    buf = io.StringIO()
    dump_transactions(result.transactions, buf)
    return buf.getvalue()


class TestSynthSpec:
    def test_rejects_equal_probabilities(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(p_signal=0.3, p_noise=0.3).validate()

    def test_rejects_noise_above_signal(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(p_signal=0.2, p_noise=0.5).validate()

    def test_rejects_bad_posts_range(self):
        with pytest.raises(SynthSpecError):
            SynthSpec(posts_per_user=(5, 3)).validate()

    def test_accepts_degenerate_extremes(self):
        SynthSpec(p_signal=1.0, p_noise=0.0).validate()


class TestGenerate:
    def test_degenerate_probabilities(self):
        spec = SynthSpec(n_users_per_class=10, posts_per_user=(4, 6),
                         p_signal=1.0, p_noise=0.0, seed=1)
        result = generate_synthetic_corpus(spec)
        signal_a = set(SIGNAL_TOKENS_A)
        signal_b = set(SIGNAL_TOKENS_B)
        by_user = {}
        for t in result.transactions:
            uid = t.actor_id if t.actor_id.startswith("u") else t.target_id
            by_user.setdefault(uid, []).append(t.note)
        for uid, label in result.labels:
            own = signal_a if label == "democrat" else signal_b
            other = signal_b if label == "democrat" else signal_a
            text = " ".join(by_user[uid])
            tokens = set(text.split())
            assert tokens & own          # every post carries an own token
            assert not (tokens & other)  # and never the other class's

    def test_same_seed_byte_identical(self):
        spec = SynthSpec(n_users_per_class=15, seed=42)
        assert dump_bytes(generate_synthetic_corpus(spec)) == \
            dump_bytes(generate_synthetic_corpus(spec))

    def test_different_seed_differs(self):
        one = generate_synthetic_corpus(SynthSpec(n_users_per_class=15, seed=1))
        two = generate_synthetic_corpus(SynthSpec(n_users_per_class=15, seed=2))
        assert dump_bytes(one) != dump_bytes(two)

    def test_note_length_mode_is_one(self):
        spec = SynthSpec(n_users_per_class=150, posts_per_user=(8, 8), seed=3)
        result = generate_synthetic_corpus(spec)
        histogram = note_length_histogram(group_by_user(result.transactions))
        mode = max(histogram, key=lambda k: histogram[k])
        assert mode == 1

    def test_posts_per_user_range_respected(self):
        spec = SynthSpec(n_users_per_class=20, posts_per_user=(3, 7), seed=5)
        result = generate_synthetic_corpus(spec)
        counts = Counter()
        for uid, _ in result.labels:
            counts[uid] = 0
        for t in result.transactions:
            uid = t.actor_id if t.actor_id in counts else t.target_id
            counts[uid] += 1
        assert all(3 <= c <= 7 for c in counts.values())

    def test_labels_cover_both_classes(self):
        result = generate_synthetic_corpus(SynthSpec(n_users_per_class=8, seed=0))
        labels = Counter(label for _, label in result.labels)
        assert labels == {"democrat": 8, "republican": 8}

    def test_counterparties_not_labeled(self):
        result = generate_synthetic_corpus(SynthSpec(n_users_per_class=5, seed=0))
        labeled_ids = {uid for uid, _ in result.labels}
        assert all(uid.startswith("u") for uid in labeled_ids)
        for t in result.transactions:
            pair = {t.actor_id, t.target_id}
            assert len(pair & labeled_ids) == 1  # exactly one labeled side

    def test_gender_task_recovers_all_users(self):
        # display names are drawn from strict male/female fixture names
        result = generate_synthetic_corpus(SynthSpec(n_users_per_class=25, seed=9))
        corpus = group_by_user(result.transactions)
        labeled = build_labeled_dataset(corpus, "gender")
        assert len(labeled) == 50

    def test_signal_tokens_survive_lemmatization(self):
        for token in SIGNAL_TOKENS_A + SIGNAL_TOKENS_B:
            post = tokenize_post(token)
            assert post.tokens[0].lemma == token
