import io
import json
import random

import pytest

from paylens.corpus import (Corpus, dump_transactions, filter_min_posts,
                            group_by_user, load_transactions,
                            note_length_histogram, parse_transaction)
from paylens.errors import ParseError

from conftest import make_txn, txn_json


class TestLoadTransactions:
    def test_three_well_formed_lines(self):
        lines = [txn_json("t1"), txn_json("t2"), txn_json("t3")]
        result = load_transactions(iter(lines))
        assert len(result.transactions) == 3
        assert result.skipped == 0
        assert [t.id for t in result.transactions] == ["t1", "t2", "t3"]

    def test_duplicate_id_keeps_first(self):
        line = txn_json("t1", note="first")
        other = txn_json("t1", note="second")
        result = load_transactions(iter([line, other]))
        assert len(result.transactions) == 1
        assert result.transactions[0].note == "first"

    def test_lenient_skips_malformed(self):
        lines = [txn_json(f"t{i}") for i in range(10)]
        lines.insert(4, "{not valid json")
        result = load_transactions(iter(lines))
        assert len(result.transactions) == 10
        assert result.skipped == 1

    def test_nine_of_ten_with_one_bad(self):
        lines = [txn_json(f"t{i}") for i in range(9)]
        lines.append(json.dumps({"id": "t9"}))  # missing fields
        result = load_transactions(iter(lines))
        assert len(result.transactions) == 9
        assert result.skipped == 1

    def test_strict_aborts_with_line_number(self):
        lines = [txn_json("t1"), "oops", txn_json("t2")]
        with pytest.raises(ParseError, match="line 2"):
            load_transactions(iter(lines), strict=True)

    def test_schema_violations_are_malformed(self):
        bad_kind = json.loads(txn_json("t1"))
        bad_kind["type"] = "gift"
        self_pay = json.loads(txn_json("t2"))
        self_pay["target"]["id"] = self_pay["actor"]["id"]
        negative = json.loads(txn_json("t3"))
        negative["likes_count"] = -1
        no_date = json.loads(txn_json("t4"))
        no_date["date_created"] = None
        infinite = json.loads(txn_json("t5"))
        infinite["likes_count"] = float("inf")  # written as Infinity
        # counts must be JSON integers: none of these is read as a number
        fractional, whole_float, digits, flag = (
            dict(json.loads(txn_json(f"t{i}")), likes_count=count)
            for i, count in ((6, 3.7), (7, 3.0), (8, "3"), (9, True)))
        # lone surrogates parse from their escapes but cannot be written back
        surrogate_note = json.loads(txn_json("t10", note="\ud800"))
        surrogate_name = json.loads(txn_json("t11"))
        surrogate_name["target"]["name"] = "Bo\udc80"
        lines = [json.dumps(o) for o in (bad_kind, self_pay, negative, no_date,
                                         infinite, fractional, whole_float,
                                         digits, flag, surrogate_note,
                                         surrogate_name)]
        result = load_transactions(iter(lines))
        assert result.transactions == []
        assert result.skipped == 11
        for line in lines[5:]:
            with pytest.raises(ParseError, match="^corpus: line 2: "):
                load_transactions(iter([txn_json("t0"), line]), strict=True)

    @pytest.mark.parametrize("note", [None, 7, ["hi"]])
    def test_non_string_note_is_malformed(self, note):
        obj = json.loads(txn_json("t1"))
        obj["note"] = note
        lines = [json.dumps(obj), txn_json("t2", note="ok")]
        result = load_transactions(iter(lines))
        assert [t.id for t in result.transactions] == ["t2"]
        assert result.skipped == 1
        with pytest.raises(ParseError, match="line 1: note must be a string"):
            load_transactions(iter(lines), strict=True)

    def test_unknown_fields_ignored(self):
        obj = json.loads(txn_json("t1"))
        obj["brand_new_field"] = {"nested": True}
        result = load_transactions(iter([json.dumps(obj)]))
        assert len(result.transactions) == 1

    def test_accepts_byte_lines_and_blank_lines(self):
        lines = [txn_json("t1").encode("utf-8"), b"", b"   "]
        result = load_transactions(iter(lines))
        assert len(result.transactions) == 1

    def test_zulu_timestamp(self):
        obj = json.loads(txn_json("t1"))
        obj["date_created"] = "2024-03-01T12:00:00Z"
        result = load_transactions(iter([json.dumps(obj)]))
        assert result.transactions[0].created_at.tzinfo is not None

    def test_round_trip(self):
        lines = [txn_json(f"t{i}", note=f"note {i} 🍕", minutes=i, likes=i)
                 for i in range(5)]
        first = load_transactions(iter(lines)).transactions
        buf = io.StringIO()
        dump_transactions(first, buf)
        buf.seek(0)
        second = load_transactions(buf).transactions
        assert first == second

    def test_equal_strings_on_different_lines_are_one_object(self):
        lines = [txn_json("t1", note="pizza night", actor="ua", target="ub"),
                 txn_json("t2", note="pizza night", actor="ub", target="ua"),
                 txn_json("t3", note="pizza night", actor="ua", target="uc",
                          kind="charge"),
                 txn_json("t4", note="rent", actor="uc", target="ub",
                          kind="charge")]
        # json.loads builds each value anew, so equal is not yet identical
        first, second = (parse_transaction(json.loads(line)) for line in lines[:2])
        assert first.note == second.note and first.note is not second.note
        a, b, c, d = load_transactions(iter(lines)).transactions
        assert a.note is b.note is c.note
        assert a.actor_id is b.target_id is c.actor_id
        assert a.target_id is b.actor_id is d.target_id
        assert c.target_id is d.actor_id
        assert a.actor_name is b.target_name is c.actor_name
        assert a.target_name is b.actor_name is d.target_name
        assert a.kind is b.kind and c.kind is d.kind
        assert a.audience is b.audience is c.audience is d.audience


class TestGroupByUser:
    def test_single_transaction_two_users(self):
        corpus = group_by_user([make_txn("t1", actor="ua", target="ub")])
        assert set(corpus.users) == {"ua", "ub"}
        assert len(corpus.users["ua"].posts) == 1
        assert len(corpus.users["ub"].posts) == 1
        assert corpus.users["ua"].posts[0][1] == "actor"
        assert corpus.users["ub"].posts[0][1] == "target"

    def test_two_transactions_roles(self):
        txns = [make_txn("t1", actor="ua", target="ub", minutes=0),
                make_txn("t2", actor="ub", target="ua", minutes=1)]
        corpus = group_by_user(txns)
        assert [role for _, role in corpus.users["ua"].posts] == ["actor", "target"]
        assert [role for _, role in corpus.users["ub"].posts] == ["target", "actor"]

    def test_empty_list(self):
        corpus = group_by_user([])
        assert corpus.transactions == {}
        assert corpus.users == {}

    def test_posts_sorted_by_time_then_id(self):
        txns = [make_txn("t2", actor="ua", target="ub", minutes=1),
                make_txn("t9", actor="ua", target="uc", minutes=0),
                make_txn("t1", actor="ua", target="ud", minutes=1)]
        corpus = group_by_user(txns)
        assert [t.id for t, _ in corpus.users["ua"].posts] == ["t9", "t1", "t2"]

    def test_permutation_invariance(self):
        txns = [make_txn(f"t{i}", actor=f"u{i % 3}", target=f"u{(i % 3) + 3}",
                         minutes=i) for i in range(12)]
        base = group_by_user(txns)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = txns[:]
            rng.shuffle(shuffled)
            other = group_by_user(shuffled)
            assert list(other.users) == list(base.users)
            for uid in base.users:
                assert ([t.id for t, _ in other.users[uid].posts]
                        == [t.id for t, _ in base.users[uid].posts])

    def test_post_count_is_twice_transaction_count(self):
        txns = [make_txn(f"t{i}", actor=f"a{i % 4}", target=f"b{i % 5}",
                         minutes=i) for i in range(20)]
        corpus = group_by_user(txns)
        total = sum(len(p.posts) for p in corpus.users.values())
        assert total == 2 * len(txns)

    def test_display_name_from_earliest_post(self):
        txns = [make_txn("t1", actor="ua", target="ub", minutes=5,
                         actor_name="New Name"),
                make_txn("t2", actor="ua", target="uc", minutes=0,
                         actor_name="Old Name")]
        corpus = group_by_user(txns)
        assert corpus.users["ua"].display_name == "Old Name"

    def test_records_have_no_instance_dict(self, small_corpus):
        profile = small_corpus.users["ua"]
        assert not hasattr(profile, "__dict__")
        assert not any(hasattr(t, "__dict__") for t, _ in profile.posts)


class TestNoteLengthHistogram:
    def test_counts_scalar_values(self):
        corpus = group_by_user([make_txn("t1", note="🍕"),
                                make_txn("t2", note="hi", actor="uc", target="ud")])
        assert note_length_histogram(corpus) == {1: 1, 2: 1}

    def test_empty_corpus(self):
        assert note_length_histogram(Corpus(transactions={}, users={})) == {}

    def test_sum_equals_transaction_count(self):
        txns = [make_txn(f"t{i}", note="x" * (i % 4)) for i in range(10)]
        corpus = group_by_user(txns)
        histogram = note_length_histogram(corpus)
        assert sum(histogram.values()) == len(corpus.transactions)

    def test_zwj_sequence_counts_scalars(self):
        # family emoji is 5 scalar values (3 pictographs + 2 joiners)
        corpus = group_by_user([make_txn("t1", note="👩‍👩‍👧")])
        assert note_length_histogram(corpus) == {5: 1}


class TestFilterMinPosts:
    def _corpus(self):
        txns = [make_txn(f"a{i}", actor="ua", target=f"x{i}", minutes=i)
                for i in range(6)]
        txns += [make_txn(f"b{i}", actor="ub", target=f"y{i}", minutes=10 + i)
                 for i in range(2)]
        return group_by_user(txns)

    def test_threshold_five(self):
        corpus = self._corpus()
        filtered = filter_min_posts(corpus, 5)
        assert set(filtered.users) == {"ua"}

    def test_user_with_four_posts_removed(self):
        txns = [make_txn(f"t{i}", actor="ua", target=f"x{i}") for i in range(4)]
        filtered = filter_min_posts(group_by_user(txns), 5)
        assert "ua" not in filtered.users

    def test_min_one_is_identity(self):
        corpus = self._corpus()
        filtered = filter_min_posts(corpus, 1)
        assert set(filtered.users) == set(corpus.users)

    def test_transactions_remain_loadable(self):
        corpus = self._corpus()
        filtered = filter_min_posts(corpus, 5)
        assert set(filtered.transactions) == set(corpus.transactions)
        assert filtered.transactions is corpus.transactions  # shared, not copied

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            filter_min_posts(self._corpus(), 0)
