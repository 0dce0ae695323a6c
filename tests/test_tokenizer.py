from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paylens.synth import SynthSpec, generate_synthetic_corpus
from paylens.tokenizer import (EMOJI, EMOTICON, NUMBER, PUNCT, SHORTCODE,
                               WORD, Token, TokenizedPost, lemma_for_word,
                               ngram_orders, ngrams_by_post, tokenize_post)

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
    """One post's n-grams as the vectorizer gathers them: by order, then position."""
    return list(chain.from_iterable(ngrams_by_post([post], ngram_orders(n_range))))


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
    def test_token_classes_have_no_instance_dict(self):
        post = tokenize_post("pizza night 🍕")
        assert not hasattr(post, "__dict__")
        assert not any(hasattr(t, "__dict__") for t in post.tokens)

    def test_cache_leaves_value_unchanged(self):
        cached, fresh = tokenize_post("pizza night out"), tokenize_post("pizza night out")
        before = (repr(cached), hash(cached))
        for n in (3, 1, 2):
            cached.ngrams(n)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert (repr(cached), hash(cached)) == before == (repr(fresh), hash(fresh))
        assert cached == TokenizedPost(tokens=fresh.tokens, raw=fresh.raw)

    def test_orders_built_once_and_interned(self):
        post = tokenize_post("a b c d")
        assert post.ngrams(1) == ("a", "b", "c", "d")
        assert post.ngrams(2) is post.ngrams(2)
        assert post.ngrams(3) == ("a b c", "b c d")
        other = tokenize_post("b c")
        assert other.ngrams(2)[0] is post.ngrams(2)[1]

    def test_short_posts(self):
        assert tokenize_post("").ngrams(1) == ()
        assert tokenize_post("one").ngrams(2) == ()
        assert tokenize_post("one two").ngrams(3) == ()
