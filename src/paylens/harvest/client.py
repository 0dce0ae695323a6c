"""Rate-limited harvesting client: feed polling, per-user pagination, crawls.

All requests flow through one token bucket shared by every worker thread, so
the client never exceeds its configured rate by more than one bucket burst.
Transient failures (connection errors, 5xx) retry with exponential backoff
up to a budget; 429 responses wait out the server's Retry-After and retry.

Crawls checkpoint after each completed user: the user's transactions are
appended to the output sink and the checkpoint file is replaced atomically,
so killing and resuming a crawl converges on the same transaction set.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Callable, Iterator, Sequence

import requests

from ..corpus import Transaction, parse_transaction, transaction_to_obj
from ..errors import (HarvestError, MalformedPage, PatternNotFound,
                      UnknownUsername, UserNotFound)

USER_ID_PATTERN = re.compile(r'"user_id"\s*:\s*"([^"]+)"')


class TokenBucket:
    """Thread-safe token bucket of at least one token; rate 0 disables limiting."""

    def __init__(self, rate: float, capacity: float = 1.0):
        self.rate = rate
        self.capacity = max(1.0, float(capacity))
        self.tokens = self.capacity
        self.stamp = time.monotonic()
        self.lock = threading.Lock()

    def try_acquire(self) -> float:
        """0.0 when a token was taken, else seconds until one is available."""
        if self.rate <= 0:
            return 0.0
        with self.lock:
            now = time.monotonic()
            self.tokens = min(self.capacity,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return 0.0
            return (1.0 - self.tokens) / self.rate

    def acquire(self) -> None:
        while (wait := self.try_acquire()) > 0:
            time.sleep(wait)


@dataclass
class ClientConfig:
    rate: float = 0.0          # requests/sec; 0 = unlimited
    burst: float = 1.0
    max_retries: int = 5
    backoff_base: float = 0.1  # seconds, doubled per retry
    backoff_cap: float = 5.0
    timeout: float = 10.0


class HarvestClient:
    """requests.Session plus the shared limiter and retry policy."""

    def __init__(self, config: ClientConfig | None = None):
        self.config = config or ClientConfig()
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self.session = requests.Session()

    def get(self, url: str, params: dict | None = None) -> requests.Response:
        cfg = self.config
        attempt = 0
        while True:
            self.bucket.acquire()
            try:
                resp = self.session.get(url, params=params, timeout=cfg.timeout)
            except requests.RequestException as exc:
                attempt += 1
                if attempt > cfg.max_retries:
                    raise HarvestError(f"GET {url} failed after "
                                       f"{cfg.max_retries} retries: {exc}") from exc
                time.sleep(min(cfg.backoff_cap, cfg.backoff_base * 2 ** (attempt - 1)))
                continue
            if resp.status_code == 429:
                retry_after = resp.headers.get("Retry-After")
                try:
                    wait = float(retry_after) if retry_after else cfg.backoff_base
                except ValueError:
                    wait = cfg.backoff_base
                time.sleep(min(cfg.backoff_cap, max(wait, 0.001)))
                continue
            if resp.status_code >= 500:
                attempt += 1
                if attempt > cfg.max_retries:
                    raise HarvestError(f"GET {url} failed after {cfg.max_retries} "
                                       f"retries: HTTP {resp.status_code}")
                time.sleep(min(cfg.backoff_cap, cfg.backoff_base * 2 ** (attempt - 1)))
                continue
            return resp


def _client(client: HarvestClient | ClientConfig | None) -> HarvestClient:
    if isinstance(client, HarvestClient):
        return client
    return HarvestClient(client)


def _parse_page_transactions(objs, context: str) -> list[Transaction]:
    try:
        return [parse_transaction(obj) for obj in objs]
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedPage(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class FeedPage:
    transactions: tuple[Transaction, ...]
    next_before_id: str | None


def fetch_public_feed(endpoint: str, pages: int,
                      client: HarvestClient | ClientConfig | None = None,
                      wait_between_polls: bool = True) -> list[Transaction]:
    """Poll the public feed `pages` times and return the deduplicated union.

    When wait_between_polls is set, sleeps out the refresh interval the
    server advertises so consecutive polls see fresh windows.
    """
    hc = _client(client)
    seen: dict[str, Transaction] = {}
    refresh = 0.0
    for page_index in range(pages):
        if page_index > 0 and wait_between_polls and refresh > 0:
            time.sleep(refresh)
        resp = hc.get(f"{endpoint}/feed")
        if resp.status_code != 200:
            raise HarvestError(f"feed poll {page_index}: HTTP {resp.status_code}")
        try:
            body = resp.json()
            data = body["data"]
            refresh = float(body.get("refresh_interval", 0.0))
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedPage(f"feed poll {page_index}: {exc}") from exc
        for t in _parse_page_transactions(data, f"feed poll {page_index}"):
            seen.setdefault(t.id, t)
    return list(seen.values())


def iter_user_pages(endpoint: str, user_id: str,
                    client: HarvestClient | ClientConfig | None = None,
                    before_id: str | None = None,
                    limit: int | None = None) -> Iterator[FeedPage]:
    """Follow before_id pagination through a user's timeline."""
    hc = _client(client)
    cursor = before_id
    page_index = 0
    while True:
        params: dict = {}
        if cursor is not None:
            params["before_id"] = cursor
        if limit is not None:
            params["limit"] = limit
        resp = hc.get(f"{endpoint}/users/{user_id}/transactions", params=params)
        if resp.status_code == 404:
            raise UserNotFound(f"user {user_id!r} not found")
        if resp.status_code != 200:
            raise HarvestError(
                f"user {user_id!r} page {page_index}: HTTP {resp.status_code}")
        try:
            body = resp.json()
            data = body["data"]
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedPage(f"user {user_id!r} page {page_index}: {exc}") from exc
        txns = _parse_page_transactions(data, f"user {user_id!r} page {page_index}")
        next_cursor = body.get("next_before_id")
        yield FeedPage(transactions=tuple(txns), next_before_id=next_cursor)
        if next_cursor is None:
            return
        cursor = next_cursor
        page_index += 1


def fetch_user_transactions(endpoint: str, user_id: str,
                            client: HarvestClient | ClientConfig | None = None,
                            before_id: str | None = None) -> list[Transaction]:
    """Every public transaction of a user exactly once, newest-first."""
    out: dict[str, Transaction] = {}
    for page in iter_user_pages(endpoint, user_id, client, before_id=before_id):
        for t in page.transactions:
            out.setdefault(t.id, t)
    return list(out.values())


def resolve_user_id(endpoint: str, username: str,
                    client: HarvestClient | ClientConfig | None = None) -> str:
    """Extract the user id embedded in a profile page."""
    hc = _client(client)
    resp = hc.get(f"{endpoint}/profile/{username}")
    if resp.status_code == 404:
        raise UnknownUsername(f"no profile for username {username!r}")
    if resp.status_code != 200:
        raise HarvestError(f"profile {username!r}: HTTP {resp.status_code}")
    match = USER_ID_PATTERN.search(resp.text)
    if not match:
        raise PatternNotFound(
            f"profile for {username!r} does not embed a user_id variable")
    return match.group(1)


@dataclass
class CrawlState:
    seen_transaction_ids: set[str] = field(default_factory=set)
    pending_user_ids: list[str] = field(default_factory=list)
    completed_user_ids: set[str] = field(default_factory=set)
    checkpoint_at: datetime | None = None

    def validate(self) -> None:
        overlap = self.completed_user_ids & set(self.pending_user_ids)
        if overlap:
            raise HarvestError(f"checkpoint corrupt: users both pending and "
                               f"completed: {sorted(overlap)[:5]}")


def save_checkpoint(state: CrawlState, path: str | os.PathLike) -> None:
    """Atomic write: temp file then rename."""
    state.checkpoint_at = datetime.now(timezone.utc)
    payload = {
        "seen": sorted(state.seen_transaction_ids),
        "completed": sorted(state.completed_user_ids),
        "pending": list(state.pending_user_ids),
        "checkpoint_at": state.checkpoint_at.isoformat(),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fp:
        json.dump(payload, fp)
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> CrawlState:
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    if not isinstance(payload, dict):
        raise HarvestError(f"checkpoint corrupt: {path} is not a JSON object")
    for key in ("seen", "pending", "completed"):
        ids = payload.get(key)
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise HarvestError(f"checkpoint corrupt: {key!r} must be a list of ids")
    state = CrawlState(
        seen_transaction_ids=set(payload["seen"]),
        pending_user_ids=list(payload["pending"]),
        completed_user_ids=set(payload["completed"]),
        checkpoint_at=datetime.fromisoformat(payload["checkpoint_at"])
        if payload.get("checkpoint_at") else None,
    )
    state.validate()
    return state


def crawl_users(endpoint: str, user_ids: Sequence[str],
                workers: int = 8,
                checkpoint_path: str | os.PathLike | None = None,
                out: IO | None = None,
                client: HarvestClient | ClientConfig | None = None,
                max_users: int | None = None,
                on_user_done: Callable[[str, int], None] | None = None
                ) -> list[Transaction]:
    """Fetch all transactions of the queued users with a bounded worker pool.

    Resumes from checkpoint_path when it exists: completed users are skipped
    and previously seen transaction ids are never re-emitted. Returns the
    transactions newly collected by this call; each completed user's new
    transactions are written to `out` (JSONL) before the checkpoint advances.
    max_users bounds how many users this invocation completes.
    """
    hc = _client(client)
    state = CrawlState()
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
        known = state.completed_user_ids | set(state.pending_user_ids)
        for uid in user_ids:
            if uid not in known:
                state.pending_user_ids.append(uid)
    else:
        queued: list[str] = []
        for uid in user_ids:
            if uid not in queued:
                queued.append(uid)
        state.pending_user_ids = queued

    lock = threading.Lock()
    collected: list[Transaction] = []
    done_count = 0
    errors: list[Exception] = []

    def pull() -> str | None:
        nonlocal done_count
        with lock:
            if errors or not state.pending_user_ids:
                return None
            if max_users is not None and done_count >= max_users:
                return None
            done_count += 1
            return state.pending_user_ids.pop(0)

    def commit(user_id: str, txns: list[Transaction]) -> None:
        with lock:
            fresh = [t for t in txns if t.id not in state.seen_transaction_ids]
            for t in fresh:
                state.seen_transaction_ids.add(t.id)
                collected.append(t)
            if out is not None:
                for t in fresh:
                    out.write(json.dumps(transaction_to_obj(t), ensure_ascii=False))
                    out.write("\n")
                out.flush()
            state.completed_user_ids.add(user_id)
            if checkpoint_path is not None:
                save_checkpoint(state, checkpoint_path)
        if on_user_done is not None:
            on_user_done(user_id, len(fresh))

    def worker() -> None:
        while True:
            user_id = pull()
            if user_id is None:
                return
            try:
                txns = fetch_user_transactions(endpoint, user_id, hc)
            except Exception as exc:  # surface after join; requeue the user
                with lock:
                    errors.append(exc)
                    state.pending_user_ids.insert(0, user_id)
                return
            commit(user_id, txns)

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, workers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return collected
