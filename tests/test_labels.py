import contextlib
import io
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paylens.cli import main
from paylens.corpus import group_by_user
from paylens.errors import LabelFileError, UnknownRegion
from paylens.labels import (ANDY, CLASS_A, CLASS_B, FEMALE, MALE,
                            MOSTLY_FEMALE, MOSTLY_MALE, UNKNOWN, LabeledUser,
                            NameCorpus, build_labeled_dataset, default_name_corpus,
                            extract_first_name, guess_gender,
                            load_name_corpus, load_political_labels)

from conftest import make_txn


def corpus_with(counts):
    """NameCorpus with explicit male/female counts in region 'us'."""
    return NameCorpus(counts={name: {"us": mf} for name, mf in counts.items()},
                      regions=("us",))


class TestExtractFirstName:
    def test_strips_non_letters(self):
        assert extract_first_name("Mary-Jane Smith") == "maryjane"

    def test_no_letters(self):
        assert extract_first_name("🔥🔥") == ""

    def test_plain(self):
        assert extract_first_name("bob") == "bob"

    def test_empty(self):
        assert extract_first_name("") == ""
        assert extract_first_name("   ") == ""

    def test_first_token_only(self):
        assert extract_first_name("Ana Maria Lopez") == "ana"


class TestGuessGender:
    def test_absent_name_unknown(self):
        nc = corpus_with({"zed": (1, 1)})
        assert guess_gender("nobody", nc, "us") == UNKNOWN

    def test_empty_name_unknown(self):
        nc = corpus_with({})
        assert guess_gender("", nc, "us") == UNKNOWN

    @pytest.mark.parametrize("male,female,expected", [
        (100, 0, MALE),          # m = 1.0
        (95, 5, MALE),           # m = 0.95 boundary inclusive
        (94, 6, MOSTLY_MALE),    # m = 0.94
        (70, 30, MOSTLY_MALE),   # m = 0.70 boundary inclusive
        (69, 31, ANDY),          # m = 0.69
        (50, 50, ANDY),          # m = 0.5
        (31, 69, ANDY),          # m = 0.31
        (30, 70, MOSTLY_FEMALE),  # m = 0.30 boundary
        (6, 94, MOSTLY_FEMALE),  # m = 0.06
        (5, 95, FEMALE),         # m = 0.05 boundary
        (0, 100, FEMALE),        # m = 0.0
    ])
    def test_threshold_table(self, male, female, expected):
        nc = corpus_with({"pat": (male, female)})
        assert guess_gender("pat", nc, "us") == expected

    def test_case_insensitive(self):
        nc = corpus_with({"alice": (0, 10)})
        assert guess_gender("Alice", nc, "us") == guess_gender("alice", nc, "us")
        assert guess_gender("ALICE", nc, "us") == FEMALE

    def test_unknown_region(self):
        nc = corpus_with({"alice": (0, 10)})
        with pytest.raises(UnknownRegion):
            guess_gender("alice", nc, "gb")

    def test_name_without_region_data_unknown(self):
        nc = NameCorpus(counts={"nigel": {"gb": (10, 0)}}, regions=("gb", "us"))
        assert guess_gender("nigel", nc, "us") == UNKNOWN

    def test_zero_counts_unknown(self):
        nc = corpus_with({"ghost": (0, 0)})
        assert guess_gender("ghost", nc, "us") == UNKNOWN

    def test_every_fraction_maps_to_one_category(self):
        for i in range(0, 101):
            nc = corpus_with({"x": (i, 100 - i)})
            category = guess_gender("x", nc, "us")
            assert category in (MALE, MOSTLY_MALE, ANDY, MOSTLY_FEMALE, FEMALE)

    def test_default_corpus_loads(self):
        nc = default_name_corpus()
        assert "us" in nc.regions
        assert guess_gender("liam", nc, "us") == MALE
        assert guess_gender("emma", nc, "us") == FEMALE


class TestLoadNameCorpus:
    def test_parses_tsv(self):
        nc = load_name_corpus(["# comment", "Pat\tus\t50\t50", ""])
        assert nc.counts["pat"]["us"] == (50, 50)

    def test_rejects_bad_rows(self):
        with pytest.raises(LabelFileError):
            load_name_corpus(["just-one-column"])

    @pytest.mark.parametrize("row", ["alice\tus\t-1\t5", "alice\tus\t5\t-1",
                                     "alice\tus\t1.5\t5", "alice\tus\tx\t5"])
    def test_rejects_counts_not_digits(self, row):
        # a negative count once labeled alice female (male fraction -0.25)
        with pytest.raises(LabelFileError, match="bad name corpus row"):
            load_name_corpus([row])


class TestPoliticalLabels:
    def test_load(self):
        buf = io.StringIO("user_id,label\nu1,democrat\nu2,republican\n")
        assert load_political_labels(buf) == {"u1": "democrat",
                                              "u2": "republican"}

    def test_rejects_unknown_label(self):
        with pytest.raises(LabelFileError):
            load_political_labels(io.StringIO("u1,green\n"))


class TestBuildLabeledDataset:
    def _corpus(self, names):
        txns = []
        for i, name in enumerate(names):
            txns.append(make_txn(f"t{i}", actor=f"u{i}", target=f"x{i}",
                                 minutes=i, actor_name=name))
        return group_by_user(txns)

    def test_gender_drop_rule(self):
        nc = corpus_with({
            "mike": (100, 0), "anna": (0, 100), "pat": (50, 50),
            "lee": (80, 20),
        })
        corpus = self._corpus(["Mike", "Anna", "Pat", "Lee", "Zorp"])
        labeled = build_labeled_dataset(corpus, "gender", name_corpus=nc)
        assert len(labeled) == 2
        by_user = {lu.user_id: lu.label for lu in labeled}
        assert by_user == {"u0": CLASS_B, "u1": CLASS_A}  # male=b, female=a

    def test_politics_join_drops_unmatched(self):
        corpus = self._corpus(["A", "B", "C"])
        political = {"u0": "democrat", "u2": "republican", "u9": "democrat"}
        labeled = build_labeled_dataset(corpus, "politics",
                                        political_labels=political)
        assert {lu.user_id for lu in labeled} == {"u0", "u2"}

    def test_politics_requires_label_map(self):
        corpus = self._corpus(["A"])
        with pytest.raises(LabelFileError):
            build_labeled_dataset(corpus, "politics")

    def test_balanced_counts_preserved(self):
        corpus = self._corpus(["A"] * 0 or ["n%d" % i for i in range(6)])
        political = {f"u{i}": ("democrat" if i < 3 else "republican")
                     for i in range(6)}
        labeled = build_labeled_dataset(corpus, "politics",
                                        political_labels=political)
        assert sum(1 for lu in labeled if lu.label == CLASS_A) == 3
        assert sum(1 for lu in labeled if lu.label == CLASS_B) == 3

    def test_empty_corpus(self):
        corpus = self._corpus([])
        assert build_labeled_dataset(corpus, "gender") == []

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            build_labeled_dataset(self._corpus([]), "age")

    def test_gender_output_only_strict_categories(self):
        nc = corpus_with({
            "maro": (100, 0), "fera": (0, 100), "andy": (50, 50),
            "mosm": (80, 20), "mosf": (20, 80),
        })
        corpus = self._corpus(["Maro", "Fera", "Andy", "Mosm", "Mosf", "Ghost"])
        labeled = build_labeled_dataset(corpus, "gender", name_corpus=nc)
        assert {lu.label for lu in labeled} <= {CLASS_A, CLASS_B}
        assert len(labeled) == 2

    def test_class_map_over_every_category(self):
        nc = corpus_with({"maro": (100, 0), "mosm": (80, 20), "andy": (50, 50),
                          "mosf": (20, 80), "fera": (0, 100)})
        # users u0..u7; their counterparties x0..x7 have names no corpus knows
        corpus = self._corpus(["Fera", "Maro", "Andy", "Mosm", "Mosf", "Ghost",
                               "Fera", "Maro"])
        assert {guess_gender(extract_first_name(p.display_name), nc)
                for p in corpus.users.values()} == {
            MALE, MOSTLY_MALE, ANDY, MOSTLY_FEMALE, FEMALE, UNKNOWN}
        assert build_labeled_dataset(corpus, "gender", name_corpus=nc) == [
            LabeledUser("u0", CLASS_A, "gender"),
            LabeledUser("u1", CLASS_B, "gender"),
            LabeledUser("u6", CLASS_A, "gender"),
            LabeledUser("u7", CLASS_B, "gender")]
        political = {"x2": "republican", "u3": "democrat", "u1": "republican",
                     "u0": "democrat", "absent": "democrat"}
        assert build_labeled_dataset(corpus, "politics",
                                     political_labels=political) == [
            LabeledUser("u0", CLASS_A, "politics"),
            LabeledUser("u1", CLASS_B, "politics"),
            LabeledUser("u3", CLASS_A, "politics"),
            LabeledUser("x2", CLASS_B, "politics")]
        with pytest.raises(ValueError, match="unknown task"):
            build_labeled_dataset(corpus, "age", name_corpus=nc)
        with pytest.raises(LabelFileError):
            build_labeled_dataset(corpus, "politics", name_corpus=nc)


# values that are not a count, or not a political label
NOT_A_COUNT = st.one_of(st.integers(max_value=-1).map(str),
                        st.floats().map(str), st.text("ab+-. ", max_size=4))


class TestMutatedLabelFiles:
    """Hostile labels CSV and name-corpus TSV files through `paylens label`:
    a dropped column, a retyped value, a row cut before its last field or
    bytes that are not UTF-8 exit 1 or 2 with an `error: ` line."""

    @pytest.fixture
    def work(self, tmp_path):
        corpus, labels = tmp_path / "corpus.jsonl", tmp_path / "labels.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--users-per-class", "4", "--posts-min", "5",
                         "--posts-max", "5", "--seed", "3", "--out",
                         str(corpus), "--labels-out", str(labels)]) == 0
        names = (resources.files("paylens") / "data" / "name_corpus.tsv")
        return tmp_path, corpus, labels.read_bytes(), names.read_bytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutant_exits_cleanly(self, work, data):
        tmp_path, corpus, labels, names = work
        task = data.draw(st.sampled_from(["politics", "gender"]))
        text, sep, values = {"politics": (labels, b",", [1]),
                             "gender": (names, b"\t", [2, 3])}[task]
        rows = text.split(b"\n")
        i = data.draw(st.sampled_from(
            [i for i, row in enumerate(rows)
             if row and not row.startswith((b"#", b"user_id"))]))
        fields = rows[i].split(sep)
        mutation = data.draw(st.sampled_from(
            ["drop_column", "retype", "truncate", "not_utf8"]))
        if mutation == "drop_column":
            del fields[data.draw(st.integers(0, len(fields) - 1))]
        elif mutation == "retype":
            fields[data.draw(st.sampled_from(values))] = \
                data.draw(NOT_A_COUNT).encode()
        rows[i] = sep.join(fields)
        if mutation == "truncate":
            rows[i] = rows[i][:data.draw(st.integers(1, rows[i].rfind(sep)))]
        elif mutation == "not_utf8":
            at = data.draw(st.integers(0, len(rows[i])))
            rows[i] = (rows[i][:at] + data.draw(st.binary(max_size=3))
                       + b"\xff" + rows[i][at:])
        path = tmp_path / "mutant"
        path.write_bytes(b"\n".join(rows))
        flag = {"politics": "--labels-file", "gender": "--name-corpus"}[task]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["label", "--task", task, "--in", str(corpus),
                         "--min-posts", "1", flag, str(path),
                         "--out", str(tmp_path / "out.csv")])
        assert code in (1, 2)
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()
