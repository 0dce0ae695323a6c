"""Ground-truth labels: name-based gender guessing and external political labels.

Gender is guessed from the first name against a name-frequency corpus with
per-region male/female counts. The category thresholds on the male fraction
m are: male m >= 0.95, mostly_male 0.7 <= m < 0.95, andy 0.3 < m < 0.7,
mostly_female 0.05 < m <= 0.3, female m <= 0.05, unknown when the name is
absent. Only strict male/female users survive into the gender dataset.
Political labels are consumed as-is from a user_id,label CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import IO, Iterable

from .corpus import Corpus
from .errors import LabelFileError, UnknownRegion

UNKNOWN = "unknown"
ANDY = "andy"
MALE = "male"
FEMALE = "female"
MOSTLY_MALE = "mostly_male"
MOSTLY_FEMALE = "mostly_female"

CLASS_A = "class_a"
CLASS_B = "class_b"

# class_a holds the alphabetically first class name of each task
CLASS_NAMES = {
    "gender": {CLASS_A: FEMALE, CLASS_B: MALE},
    "politics": {CLASS_A: "democrat", CLASS_B: "republican"},
}


@dataclass(frozen=True)
class LabeledUser:
    user_id: str
    label: str  # CLASS_A or CLASS_B
    task: str   # "gender" or "politics"


@dataclass
class NameCorpus:
    """First name (lowercase) -> region -> (male_count, female_count)."""

    counts: dict[str, dict[str, tuple[int, int]]]
    regions: tuple[str, ...]

    def check_region(self, region: str) -> None:
        if region not in self.regions:
            raise UnknownRegion(f"region {region!r} not in corpus regions {self.regions}")

    def male_fraction(self, first_name: str, region: str) -> float | None:
        self.check_region(region)
        by_region = self.counts.get(first_name.lower())
        if not by_region or region not in by_region:
            return None
        male, female = by_region[region]
        total = male + female
        if total <= 0:
            return None
        return male / total


def load_name_corpus(lines: Iterable[str]) -> NameCorpus:
    """Parse TSV rows: name, region, male_count, female_count, with counts
    written as digits; any other row is a LabelFileError."""
    counts: dict[str, dict[str, tuple[int, int]]] = {}
    regions: set[str] = set()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        # counts are digits only, so a negative count is a bad row too
        if len(parts) != 4 or not (parts[2].isdecimal() and parts[3].isdecimal()):
            raise LabelFileError(f"bad name corpus row: {line!r}")
        name, region, male, female = parts
        name = name.lower()
        regions.add(region)
        counts.setdefault(name, {})[region] = (int(male), int(female))
    return NameCorpus(counts=counts, regions=tuple(sorted(regions)))


@lru_cache(maxsize=1)
def default_name_corpus() -> NameCorpus:
    text = (resources.files("paylens") / "data" / "name_corpus.tsv").read_text("utf-8")
    return load_name_corpus(text.splitlines())


def extract_first_name(display_name: str) -> str:
    """First whitespace-delimited token, letters only, lowercased."""
    parts = display_name.split()
    if not parts:
        return ""
    return "".join(c for c in parts[0] if c.isalpha()).lower()


def guess_gender(first_name: str, corpus: NameCorpus | None = None,
                 region: str = "us") -> str:
    """Map a first name to a gender category via the threshold table."""
    if corpus is None:
        corpus = default_name_corpus()
    if not first_name:
        return UNKNOWN
    m = corpus.male_fraction(first_name, region)
    if m is None:
        return UNKNOWN
    if m >= 0.95:
        return MALE
    if m >= 0.7:
        return MOSTLY_MALE
    if m > 0.3:
        return ANDY
    if m > 0.05:
        return MOSTLY_FEMALE
    return FEMALE


def load_political_labels(fp: IO) -> dict[str, str]:
    """CSV user_id,label with label in {republican, democrat}. Header optional."""
    labels: dict[str, str] = {}
    reader = csv.reader(fp)
    for row in reader:
        if not row or (row[0] == "user_id" and len(labels) == 0):
            continue
        if len(row) != 2:
            raise LabelFileError(f"bad political label row: {row!r}")
        user_id, label = row[0].strip(), row[1].strip().lower()
        if label not in CLASS_NAMES["politics"].values():
            raise LabelFileError(f"bad political label {label!r} for user {user_id!r}")
        labels[user_id] = label
    return labels


def build_labeled_dataset(corpus: Corpus, task: str,
                          name_corpus: NameCorpus | None = None,
                          region: str = "us",
                          political_labels: dict[str, str] | None = None) -> list[LabeledUser]:
    """Derive binary labels for every user the task rules keep.

    Gender keeps only strict male/female guesses. Politics joins the supplied
    label map and drops unmatched users. Output ordered by user_id.
    """
    if task == "gender":
        def name_of(user_id):
            return guess_gender(extract_first_name(corpus.users[user_id].display_name),
                                name_corpus, region)
    elif task == "politics":
        if political_labels is None:
            raise LabelFileError("politics task requires a user_id -> label file")
        name_of = political_labels.get
    else:
        raise ValueError(f"unknown task {task!r}")
    class_of = {name: cls for cls, name in CLASS_NAMES[task].items()}
    return [LabeledUser(user_id, class_of[name], task)
            for user_id in sorted(corpus.users)
            if (name := name_of(user_id)) in class_of]
