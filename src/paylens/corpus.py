"""Transaction corpus: parsing, grouping by user, and corpus statistics.

Input is line-delimited JSON, one transaction per line:

    {"id": str, "date_created": ISO-8601 str, "note": str,
     "type": "payment"|"charge",
     "actor": {"id": str, "name": str}, "target": {"id": str, "name": str},
     "likes_count": int, "comments_count": int, "audience": str}

Unknown fields are ignored. Duplicate ids are collapsed keeping the first
occurrence. In lenient mode (the default) malformed lines are counted and
skipped; in strict mode the first malformed line aborts with its line number.

Every `parse_transaction` call shares strings through a memo mapping each
string to its first copy: within one `load_transactions` call, or one
harvested page, equal notes, kinds, audiences and actor/target ids and names
are one string object, and nothing outlives them but the shared strings.
`Transaction` and `UserProfile` use slots.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Iterable, Union

from .errors import ParseError

KINDS = ("payment", "charge")
AUDIENCES = ("public", "friends", "private")


@dataclass(frozen=True, slots=True)
class Transaction:
    """One payment or charge event with its attached note."""

    id: str
    created_at: datetime
    note: str
    kind: str
    actor_id: str
    actor_name: str
    target_id: str
    target_name: str
    likes_count: int
    comments_count: int
    audience: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("transaction id must be non-empty")
        if self.actor_id == self.target_id:
            raise ValueError(f"transaction {self.id}: actor_id == target_id")
        if self.kind not in KINDS:
            raise ValueError(f"transaction {self.id}: bad kind {self.kind!r}")
        if self.audience not in AUDIENCES:
            raise ValueError(f"transaction {self.id}: bad audience {self.audience!r}")
        if self.likes_count < 0 or self.comments_count < 0:
            raise ValueError(f"transaction {self.id}: negative count")


@dataclass(slots=True)
class UserProfile:
    """A user id plus the ordered posts (transaction, role) they appear in."""

    user_id: str
    display_name: str
    posts: list[tuple[Transaction, str]] = field(default_factory=list)


@dataclass
class Corpus:
    transactions: dict[str, Transaction]
    users: dict[str, UserProfile]

    def __len__(self) -> int:
        return len(self.transactions)


@dataclass
class LoadResult:
    transactions: list[Transaction]
    skipped: int


def _parse_timestamp(value: str) -> datetime:
    # ISO-8601; a trailing Z is normalized for fromisoformat on 3.10
    if not isinstance(value, str):
        raise TypeError(f"date_created must be a string, got {type(value).__name__}")
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


PARSE_ERRORS = (KeyError, ValueError, TypeError, OverflowError, RecursionError)


def _admit(memo: dict[str, str], s: str) -> str:
    """Put s in the memo, which holds only strings that encode as UTF-8: a
    lone surrogate decodes from a JSON escape but cannot be written back."""
    s.encode("utf-8")
    memo[s] = s
    return s


def parse_transaction(obj: dict, memo: dict[str, str]) -> Transaction:
    """Build a Transaction from one decoded JSONL object.

    Raises one of PARSE_ERRORS on schema violations: a count that is not a
    JSON integer, or a string that cannot be written back as UTF-8 (a lone
    surrogate); callers decide whether that skips the line or aborts. Each
    string field but the transaction id is replaced by the equal string the
    memo already holds, or becomes the one it holds from now on; a string is
    checked when it enters the memo, and the id on every line.
    """
    actor = obj["actor"]
    target = obj["target"]
    likes, comments = obj["likes_count"], obj["comments_count"]
    if type(likes) is not int or type(comments) is not int:  # bools too
        raise TypeError("likes_count and comments_count must be integers")
    if not isinstance(obj["note"], str):
        raise TypeError(f"note must be a string, got {type(obj['note']).__name__}")
    tx_id, created_at = str(obj["id"]), _parse_timestamp(obj["date_created"])
    note, kind = obj["note"], obj["type"]
    actor_id, actor_name = str(actor["id"]), str(actor["name"])
    target_id, target_name = str(target["id"]), str(target["name"])
    audience = obj["audience"]
    tx_id.encode("utf-8")
    get = memo.get  # an empty string is falsy, so it is only admitted again
    note = get(note) or _admit(memo, note)
    actor_id = get(actor_id) or _admit(memo, actor_id)
    actor_name = get(actor_name) or _admit(memo, actor_name)
    target_id = get(target_id) or _admit(memo, target_id)
    target_name = get(target_name) or _admit(memo, target_name)
    if kind in KINDS and audience in AUDIENCES:  # else Transaction rejects it
        kind = get(kind) or _admit(memo, kind)
        audience = get(audience) or _admit(memo, audience)
    return Transaction(
        id=tx_id, created_at=created_at, note=note, kind=kind,
        actor_id=actor_id, actor_name=actor_name,
        target_id=target_id, target_name=target_name,
        likes_count=likes, comments_count=comments, audience=audience,
    )


def transaction_to_obj(t: Transaction) -> dict:
    return {
        "id": t.id,
        "date_created": t.created_at.isoformat().replace("+00:00", "Z"),
        "note": t.note,
        "type": t.kind,
        "actor": {"id": t.actor_id, "name": t.actor_name},
        "target": {"id": t.target_id, "name": t.target_name},
        "likes_count": t.likes_count,
        "comments_count": t.comments_count,
        "audience": t.audience,
    }


def load_transactions(source: Union[IO, Iterable[Union[str, bytes]]],
                      strict: bool = False) -> LoadResult:
    """Parse transactions from a line-delimited JSON stream.

    Returns transactions in input order with duplicate ids collapsed keeping
    the first occurrence. Lenient mode counts and skips malformed lines, a
    bytes line that is not UTF-8 included; strict mode raises ParseError at
    the first one. Equal strings across lines share one object (see
    parse_transaction); the memo that does it is dropped on return.
    """
    memo: dict[str, str] = {}
    out: list[Transaction] = []
    seen: set[str] = set()
    skipped = 0
    for lineno, raw in enumerate(source, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            if not line:
                continue
            t = parse_transaction(json.loads(line), memo)
        except PARSE_ERRORS as exc:
            if strict:
                raise ParseError(f"line {lineno}: {exc}") from exc
            skipped += 1
            continue
        if t.id in seen:
            continue
        seen.add(t.id)
        out.append(t)
    return LoadResult(transactions=out, skipped=skipped)


def dump_transactions(transactions: Iterable[Transaction], fp: IO) -> int:
    """Write transactions as JSONL in the input schema. Returns line count."""
    n = 0
    for t in transactions:
        fp.write(json.dumps(transaction_to_obj(t), ensure_ascii=False))
        fp.write("\n")
        n += 1
    return n


def group_by_user(transactions: list[Transaction]) -> Corpus:
    """Index each transaction under both its actor and its target.

    Per-user posts are sorted by created_at ascending with ties broken by id,
    so the result is independent of input order. The display name is taken
    from the user's earliest post.
    """
    users: dict[str, UserProfile] = {}
    txmap: dict[str, Transaction] = {}
    for t in transactions:
        txmap[t.id] = t
        for uid, name, role in ((t.actor_id, t.actor_name, "actor"),
                                (t.target_id, t.target_name, "target")):
            profile = users.get(uid)
            if profile is None:
                profile = UserProfile(user_id=uid, display_name=name)
                users[uid] = profile
            profile.posts.append((t, role))
    for profile in users.values():
        profile.posts.sort(key=lambda p: (p[0].created_at, p[0].id))
        first_tx, first_role = profile.posts[0]
        profile.display_name = (first_tx.actor_name if first_role == "actor"
                                else first_tx.target_name)
    return Corpus(transactions=txmap, users=dict(sorted(users.items())))


def note_length_histogram(corpus: Corpus) -> dict[int, int]:
    """Note length in Unicode scalar values -> count, over unique transactions."""
    return dict(Counter(len(t.note) for t in corpus.transactions.values()))


def check_min_posts(min_posts: int) -> None:
    """ValueError unless min_posts is at least 1."""
    if min_posts < 1:
        raise ValueError("min_posts must be >= 1")


def filter_min_posts(corpus: Corpus, min_posts: int) -> Corpus:
    """Keep users with at least min_posts posts.

    The result shares corpus.transactions (a Corpus is never mutated), so a
    transaction stays loadable even when every profile referencing it was dropped.
    """
    check_min_posts(min_posts)
    users = {uid: p for uid, p in corpus.users.items() if len(p.posts) >= min_posts}
    return Corpus(transactions=corpus.transactions, users=users)
