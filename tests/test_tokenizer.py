import copy
import pickle
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import (EMOJI, EMOTICON, NUMBER, PUNCT, SHORTCODE,
                               WORD, Token, TokenizedPost, lemma_for_word,
                               ngram_orders, ngrams, tokenize_post)
from paylens.vectorizer import (TermTable, UserPosts, count_transform,
                                fit_vocabulary, user_rows)

from conftest import synth_dataset
from oracles import generate_ngrams_oracle, tokenize_post_oracle

N_RANGES = [(1, 1), (1, 2), (2, 3), (1, 3), (3, 3)]

# characters at the edges between token kinds: emoticon parts, shortcode
# colons, emoji with their joiners and modifiers, digits, apostrophes
_EDGE_ALPHABET = (list("ab xXD:)(-;P<3/_^o!?.,'’09#*\t") +
                  ["🍕", "👍", "🏽", "\u200d", "\ufe0f", "\u20e3", "🇺", "🇸",
                   "👨", "👩", "é"])


def synth_notes(seed=3, per_class=20):
    result = generate_synthetic_corpus(SynthSpec(n_users_per_class=per_class,
                                                 seed=seed))
    return [t.note for t in result.transactions]


def post_ngrams(post, n_range):
    """One post's n-grams by order, then position."""
    lemmas = [t.lemma for t in post.tokens]
    return list(chain.from_iterable(ngrams(lemmas, n) for n in ngram_orders(n_range)))


def user(*notes):
    """One user's posts over a table of its own."""
    return user_rows([[tokenize_post(n) for n in notes]])[0]


def grams_of(user_posts, n):
    """{gram: count} of a user's row of its table's order-n ids."""
    indptr, ids, counts = user_posts.table.ngrams[n]
    lo, hi = indptr[user_posts.row], indptr[user_posts.row + 1]
    terms = list(user_posts.table)
    return {terms[i]: int(c) for i, c in zip(ids[lo:hi], counts[lo:hi])}


def kinds_and_surfaces(note):
    return [(t.kind, t.surface) for t in tokenize_post(note).tokens]


class TestTokenizePost:
    def test_shortcode_and_word(self):
        assert kinds_and_surfaces(":uber: ride") == [
            (SHORTCODE, ":uber:"), (WORD, "ride")]

    def test_empty_note(self):
        assert tokenize_post("").tokens == ()

    def test_adjacent_emoji_stay_separate(self):
        assert kinds_and_surfaces("pizza🍕🍕 :-)") == [
            (WORD, "pizza"), (EMOJI, "🍕"), (EMOJI, "🍕"), (EMOTICON, ":-)")]

    def test_zwj_family_is_one_token(self):
        note = "👩‍👩‍👧"
        assert kinds_and_surfaces(note) == [(EMOJI, note)]

    def test_skin_tone_modifier_attaches(self):
        note = "👍🏽"
        assert kinds_and_surfaces(note) == [(EMOJI, note)]

    def test_variation_selector_attaches(self):
        note = "❤️"
        assert kinds_and_surfaces(note) == [(EMOJI, note)]

    def test_flag_pair_is_one_token(self):
        assert kinds_and_surfaces("🇺🇸 trip") == [(EMOJI, "🇺🇸"), (WORD, "trip")]

    def test_keycap_sequence(self):
        assert kinds_and_surfaces("1️⃣") == [(EMOJI, "1️⃣")]

    def test_currency_splits_off_number(self):
        assert kinds_and_surfaces("$10") == [(PUNCT, "$"), (NUMBER, "10")]

    def test_emoticon_lexicon(self):
        assert kinds_and_surfaces("thanks :-) <3") == [
            (WORD, "thanks"), (EMOTICON, ":-)"), (EMOTICON, "<3")]

    def test_emoticon_not_inside_word(self):
        # xD is an emoticon alone but not when a word continues
        assert kinds_and_surfaces("xD")[0][0] == EMOTICON
        assert kinds_and_surfaces("xDay")[0] == (WORD, "xDay")

    def test_shortcode_beats_emoticon(self):
        assert kinds_and_surfaces(":p:")[0] == (SHORTCODE, ":p:")

    def test_punct_runs_collapse(self):
        assert kinds_and_surfaces("wow!!!") == [(WORD, "wow"), (PUNCT, "!!!")]

    def test_mixed_punct_split(self):
        assert kinds_and_surfaces("?!") == [(PUNCT, "?"), (PUNCT, "!")]

    def test_apostrophe_word(self):
        assert kinds_and_surfaces("don't") == [(WORD, "don't")]

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_total_and_reconstructs_up_to_whitespace(self, note):
        post = tokenize_post(note)
        joined = "".join(t.surface for t in post.tokens)
        assert joined == "".join(note.split())
        assert all(t.surface for t in post.tokens)

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, note):
        first = tokenize_post(note)
        second = tokenize_post(note)
        assert first == second

    @given(st.text(alphabet=st.sampled_from(_EDGE_ALPHABET), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_matches_per_kind_scan_oracle(self, note):
        assert tokenize_post(note) == tokenize_post_oracle(note)

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_any_text(self, note):
        assert tokenize_post(note) == tokenize_post_oracle(note)

    def test_matches_oracle_on_synth_notes(self):
        notes = synth_notes() + ["xD xDx :uber: :-) 3.50 $20 don't 🇺🇸 1️⃣ 👩‍👩‍👧 👍🏽 ...!!"]
        for note in notes:
            assert tokenize_post(note) == tokenize_post_oracle(note), note

    def test_word_lemma_is_lowercase(self):
        for tok in tokenize_post("Huge PIZZA Party").tokens:
            assert tok.lemma == tok.lemma.lower()


class TestLemmatize:
    @pytest.mark.parametrize("word,expected", [
        ("Drinks", "drink"),
        ("parties", "party"),
        ("running", "run"),
        ("making", "make"),
        ("falling", "fall"),
        ("boxes", "box"),
        ("dishes", "dish"),
        ("classes", "class"),
        ("movies", "movie"),
        ("tried", "try"),
        ("stopped", "stop"),
        ("baked", "bake"),
        ("played", "play"),
        ("went", "go"),
        ("bought", "buy"),
        ("women", "woman"),
        ("thing", "thing"),
        ("kiss", "kiss"),
        ("bus", "bus"),
        ("this", "this"),
        ("gas", "gas"),
        ("mom's", "mom"),
    ])
    def test_rules_and_exceptions(self, word, expected):
        assert lemma_for_word(word) == expected

    def test_non_word_tokens_unchanged(self):
        assert tokenize_post("🍕 :uber: :-) 20").tokens == (
            Token("🍕", "🍕", EMOJI), Token(":uber:", ":uber:", SHORTCODE),
            Token(":-)", ":-)", EMOTICON), Token("20", "20", NUMBER))

    def test_word_token_gets_lemma(self):
        assert tokenize_post("Drinks 🍕").tokens == (
            Token("Drinks", "drink", WORD), Token("🍕", "🍕", EMOJI))


class TestGenerateNgrams:
    def test_unigrams_and_bigrams(self):
        post = tokenize_post("pizza night")
        assert post_ngrams(post, (1, 2)) == ["pizza", "night", "pizza night"]

    def test_single_token(self):
        post = tokenize_post("pizza")
        assert post_ngrams(post, (1, 2)) == ["pizza"]

    def test_emission_order_by_n_then_position(self):
        post = tokenize_post("a b c")
        assert post_ngrams(post, (1, 3)) == [
            "a", "b", "c", "a b", "b c", "a b c"]

    def test_invalid_range_rejected(self):
        post = tokenize_post("a b")
        for bad in ((0, 1), (2, 1), (1, 4)):
            with pytest.raises(ValueError):
                post_ngrams(post, bad)

    @given(st.lists(st.sampled_from("abcdef"), max_size=12),
           st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_count_formula(self, tokens, low, span):
        high = min(3, low + span - 1)
        post = tokenize_post(" ".join(tokens))
        grams = post_ngrams(post, (low, high))
        expected = sum(max(0, len(post.tokens) - n + 1)
                       for n in range(low, high + 1))
        assert len(grams) == expected

    @pytest.mark.parametrize("n_range", N_RANGES)
    def test_matches_oracle(self, n_range):
        posts = [tokenize_post(n) for n in synth_notes(seed=4, per_class=5)]
        posts += [tokenize_post(n) for n in ("", "solo", "two words")]
        for post in posts:
            assert post_ngrams(post, n_range) == generate_ngrams_oracle(post, n_range)


class TestNgramCache:
    """A TermTable keeps each order's n-gram ids for all of its users; no
    post keeps n-grams."""

    def test_token_classes_have_no_instance_dict(self):
        post = tokenize_post("pizza night 🍕")
        assert not hasattr(post, "__dict__")
        assert not any(hasattr(t, "__dict__") for t in post.tokens)

    def test_cache_leaves_value_unchanged(self):
        posts = (tokenize_post("pizza night out"), tokenize_post("rent"))
        cached = user_rows([posts])[0]
        before = (repr(cached), hash(cached))
        fit_vocabulary([cached], (1, 3), min_df=1)
        assert cached.table.ngrams and cached == posts and hash(cached) == hash(posts)
        assert (repr(cached), hash(cached)) == before == (repr(posts), hash(posts))

    def test_orders_built_once_and_reused(self):
        cached = user("a b c d", "b c")
        fit_vocabulary([cached], (1, 2), min_df=1)
        built = dict(cached.table.ngrams)
        count_transform([cached], fit_vocabulary([cached], (2, 3), min_df=1))
        assert sorted(cached.table.ngrams) == [1, 2, 3]
        assert all(cached.table.ngrams[n] is built[n] for n in (1, 2))
        assert grams_of(cached, 2) == {"a b": 1, "b c": 2, "c d": 1}
        ids = cached.table.ngrams[2][1]
        assert ids.tolist() == sorted(set(ids.tolist()))

    def test_users_of_a_dataset_share_one_table(self):
        dataset, other = synth_dataset(seed=3, n=5), synth_dataset(seed=3, n=5)
        table = dataset.posts[0].table
        assert all(type(u) is UserPosts and u.table is table for u in dataset.posts)
        assert [u.row for u in dataset.posts] == list(range(len(dataset)))
        assert other.posts[0].table is not table
        fit_vocabulary(dataset.posts[::2], (1, 2))
        indptr = table.ngrams[2][0]
        assert sorted(table.ngrams) == [1, 2] and len(indptr) == len(dataset) + 1
        assert not other.posts[0].table.ngrams

    @pytest.mark.parametrize("restore", [lambda d: pickle.loads(pickle.dumps(d)),
                                         copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_dataset_restored_with_one_table_and_its_orders(self, monkeypatch,
                                                            restore):
        dataset = synth_dataset(seed=3, n=5)
        table = dataset.posts[0].table
        vocab = fit_vocabulary(dataset.posts, (1, 2), min_df=1)
        counts = count_transform(dataset.posts, vocab)
        built = []
        init = TermTable.__init__
        monkeypatch.setattr(TermTable, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        restored = restore(dataset)
        assert not built  # the table is restored, never built again
        again = restored.posts[0].table
        assert again is not table and restored.posts == dataset.posts
        assert all(type(u) is UserPosts and u.table is again for u in restored.posts)
        assert [u.row for u in restored.posts] == list(range(len(dataset)))
        assert dict(again) == dict(table) and again.posts == table.posts
        assert again.ends.tolist() == table.ends.tolist()
        cached = dict(again.ngrams)
        assert sorted(cached) == [1, 2]
        for n in (1, 2):
            assert all(np.array_equal(a, b)
                       for a, b in zip(cached[n], table.ngrams[n]))
        assert fit_vocabulary(restored.posts, (1, 2), min_df=1) == vocab
        assert (count_transform(restored.posts, vocab) != counts).nnz == 0
        assert all(again.ngrams[n] is cached[n] for n in (1, 2))

    def test_short_posts(self):
        for notes, n in (((), 1), (("",), 1), (("one",), 2), (("one two",), 3)):
            cached = user(*notes)
            fit_vocabulary([cached], (n, n), min_df=1)
            assert grams_of(cached, n) == {}

    def test_ngrams_never_span_posts(self):
        cached = user("a b", "c d", "e", "a b")
        fit_vocabulary([cached], (1, 3), min_df=1)
        assert grams_of(cached, 1) == {"a": 2, "b": 2, "c": 1, "d": 1, "e": 1}
        assert grams_of(cached, 2) == {"a b": 2, "c d": 1}
        assert grams_of(cached, 3) == {}

    def test_lemma_with_a_space_rejected(self):
        # tokenize_post never makes one; an order-1 "a b" would be the bigram
        spaced = TokenizedPost((Token("a b", "a b", WORD),), "a b")
        with pytest.raises(ValueError, match="holds a space"):
            fit_vocabulary([[spaced]], (1, 2), min_df=1)
