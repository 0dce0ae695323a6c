"""Rate-limited harvesting client: feed polling, per-user pagination, crawls.

All requests flow through one token bucket shared by every worker thread, so
the client never exceeds its configured rate by more than one bucket burst.
Transient failures (connection errors, 5xx) retry with exponential backoff
up to a budget; 429 responses wait out the server's Retry-After and retry
until one request's 429 waits would reach max_retries × backoff_cap seconds.

Crawl workers only fetch; the calling thread records each user in queue
order: its new transactions go to the sink, then a line with the user, its
new ids and the sink's offset is appended to the checkpoint, an append-only
JSONL log. Each crawl call appends one start line, the ids it queues and its
sink, when it starts; no exit (normal end, error, interrupt or kill) writes
anything, so every exit leaves what a kill leaves. Unrecorded users stay
pending, a record torn by a kill is ignored and then cut, and a resume into
the recorded file truncates it to the recorded offset, so each transaction
is written once. After an error the crawl waits out its in-flight fetches;
after an interrupt it does not.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import math
import mmap
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import IO, Callable, Sequence
from urllib.parse import quote, urlencode, urlsplit

from ..corpus import (PARSE_ERRORS, Transaction, dump_transactions,
                      parse_transaction)
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


def non_negative(name: str, value: float, what: str = "number") -> float:
    """value, or a ValueError unless it is finite and not negative."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} {value!r} is not a finite non-negative {what}")
    return value


@dataclass
class ClientConfig:
    rate: float = 0.0          # requests/sec; 0 = unlimited
    burst: float = 1.0
    max_retries: int = 5
    backoff_base: float = 0.1  # seconds, doubled per retry
    backoff_cap: float = 5.0
    timeout: float = 10.0

    def __post_init__(self):
        non_negative("rate", self.rate)


@dataclass(frozen=True)
class Response:
    """A whole HTTP response: status, headers and body."""
    status_code: int
    headers: http.client.HTTPMessage
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


_CONNECTIONS = {"http": http.client.HTTPConnection,
                "https": http.client.HTTPSConnection}
# a URL's path and query are sent as given, but for the characters a request
# line cannot carry; kept are RFC 3986's sub-delimiters, ":@/?" and escapes
_TARGET_SAFE = "!$&'()*+,;=:@/?%"


def _target(url: str, params: dict | None) -> tuple[str, str, str]:
    """(scheme, netloc, request target) of a GET of url with query params."""
    parts = urlsplit(url)
    scheme, netloc, path, query, _ = parts
    if scheme not in _CONNECTIONS or not netloc:
        raise HarvestError(f"not an http(s) URL: {url!r}")  # not retried
    try:
        parts.port  # a number in 0-65535; getaddrinfo would wrap 99999 to 34463
    except ValueError as exc:
        raise HarvestError(f"bad port in {url!r}: {exc}") from None
    target = quote((path or "/") + ("?" + query if query else ""),
                   safe=_TARGET_SAFE)
    if params:
        target += ("&" if query else "?") + urlencode(params)
    return scheme, netloc, target


def _close_idle(idle: list, lock: threading.Lock) -> None:
    with lock:
        conns = [conn for _, conn in idle]
        idle.clear()
    for conn in conns:
        conn.close()


class HarvestClient:
    """Kept-alive HTTP connections plus the shared limiter and retry policy.

    Connections wait in an idle list shared by every thread; a request takes
    one to its origin or opens a new one, and puts it back once it has read
    the whole response. close(), or collecting the client, closes the idle
    ones. The client connects directly (no proxy, no .netrc), does not
    follow redirects, and reads text as UTF-8.
    """

    def __init__(self, config: ClientConfig | None = None):
        self.config = config or ClientConfig()
        self.bucket = TokenBucket(self.config.rate, self.config.burst)
        self._idle: list[tuple[tuple[str, str], http.client.HTTPConnection]] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_idle, self._idle, self._lock)

    def close(self) -> None:
        _close_idle(self._idle, self._lock)

    def __enter__(self) -> HarvestClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _take(self, origin: tuple[str, str]) -> http.client.HTTPConnection | None:
        with self._lock:
            for i, (key, conn) in enumerate(self._idle):
                if key == origin:
                    del self._idle[i]
                    return conn
        return None

    def _send(self, url: str, params: dict | None = None) -> Response:
        """One GET attempt. A reused connection the server dropped before
        answering is retried once on a new one, as connection pools do;
        any other failure closes the connection and raises."""
        scheme, netloc, target = _target(url, params)
        conn = self._take((scheme, netloc))
        reused = conn is not None
        while True:
            if conn is None:
                conn = _CONNECTIONS[scheme](netloc, timeout=self.config.timeout)
            try:
                conn.request("GET", target)
                resp = conn.getresponse()
                break
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
                conn.close()
                if not reused:
                    raise
                conn, reused = None, False
            except BaseException:
                conn.close()
                raise
        with resp:
            try:
                content = resp.read()
            except BaseException:
                conn.close()
                raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(((scheme, netloc), conn))
        return Response(resp.status, resp.headers, content)

    def get(self, url: str, params: dict | None = None) -> Response:
        cfg = self.config
        attempt = limited = 0
        waited = 0.0  # seconds spent waiting out 429s
        while True:
            self.bucket.acquire()
            try:
                resp = self._send(url, params)
            except (OSError, http.client.HTTPException) as exc:
                cause, reason = exc, str(exc)
            else:
                if resp.status_code == 429:
                    limited += 1
                    retry_after = resp.headers.get("Retry-After")
                    try:
                        wait = float(retry_after) if retry_after else cfg.backoff_base
                    except ValueError:
                        wait = cfg.backoff_base
                    wait = min(cfg.backoff_cap, max(wait, 0.001))
                    if waited + wait >= cfg.max_retries * cfg.backoff_cap:
                        raise HarvestError(
                            f"GET {url} still rate-limited after {limited} "
                            f"429 responses and {waited:.3g} s of waiting")
                    time.sleep(wait)
                    waited += wait
                    continue
                if resp.status_code < 500:
                    return resp
                cause, reason = None, f"HTTP {resp.status_code}"
            attempt += 1
            if attempt > cfg.max_retries:
                raise HarvestError(f"GET {url} failed after {cfg.max_retries} "
                                   f"retries: {reason}") from cause
            time.sleep(min(cfg.backoff_cap, cfg.backoff_base * 2 ** (attempt - 1)))


def _client(client: HarvestClient | ClientConfig | None
            ) -> contextlib.AbstractContextManager[HarvestClient]:
    """The caller's client, left open, or a new one closed on exit."""
    if isinstance(client, HarvestClient):
        return contextlib.nullcontext(client)
    return HarvestClient(client)


def _get_page(hc: HarvestClient, url: str, context: str,
              missing: HarvestError | None = None, params: dict | None = None,
              read: Callable[[dict], object] | None = None):
    """GET one page: 404 raises `missing` (when given), other non-200 codes
    raise HarvestError. A text page (read=None) returns its text; a JSON page
    returns (transactions parsed from its `data`, read(body)), and a body
    that does not parse raises MalformedPage."""
    resp = hc.get(url, params=params)
    if resp.status_code == 404 and missing is not None:
        raise missing
    if resp.status_code != 200:
        raise HarvestError(f"{context}: HTTP {resp.status_code}")
    if read is None:
        return resp.text
    try:
        body, memo = resp.json(), {}  # equal strings of a page are one object
        return [parse_transaction(obj, memo) for obj in body["data"]], read(body)
    except PARSE_ERRORS as exc:
        raise MalformedPage(f"{context}: {exc}") from exc


def _refresh_interval(body: dict) -> float:
    """The feed's advertised wait in seconds: finite and not negative."""
    return non_negative("refresh_interval", float(body.get("refresh_interval", 0.0)),
                        "number of seconds")


def fetch_public_feed(endpoint: str, pages: int,
                      client: HarvestClient | ClientConfig | None = None
                      ) -> list[Transaction]:
    """Poll the public feed `pages` times and return the deduplicated union.

    Sleeps out the refresh interval the server advertises between polls, so
    consecutive polls see fresh windows. `pages` below 1 is a ValueError.
    """
    if pages < 1:
        raise ValueError(f"pages must be at least 1, got {pages}")
    seen: dict[str, Transaction] = {}
    refresh = 0.0
    with _client(client) as hc:
        for page_index in range(pages):
            if page_index > 0 and refresh > 0:
                time.sleep(refresh)
            txns, refresh = _get_page(
                hc, f"{endpoint}/feed", f"feed poll {page_index}",
                read=_refresh_interval)
            for t in txns:
                seen.setdefault(t.id, t)
    return list(seen.values())


def fetch_user_transactions(endpoint: str, user_id: str,
                            client: HarvestClient | ClientConfig | None = None,
                            before_id: str | None = None) -> list[Transaction]:
    """Every public transaction of a user exactly once, newest-first,
    following before_id pages from the newest page or from before_id; the id
    is one path segment. A cursor requested before raises MalformedPage."""
    url = f"{endpoint}/users/{quote(user_id, safe='')}/transactions"
    missing = UserNotFound(f"user {user_id!r} not found")
    out: dict[str, Transaction] = {}
    requested = {before_id}
    with _client(client) as hc:
        for page_index in itertools.count():
            context = f"user {user_id!r} page {page_index}"
            params = {} if before_id is None else {"before_id": before_id}
            txns, before_id = _get_page(
                hc, url, context, missing, params,
                read=lambda body: body.get("next_before_id"))
            for t in txns:
                out.setdefault(t.id, t)
            if before_id is None:
                return list(out.values())
            if before_id in requested:
                raise MalformedPage(f"{context}: next_before_id {before_id!r} "
                                    "was already requested")
            requested.add(before_id)


def resolve_user_id(endpoint: str, username: str,
                    client: HarvestClient | ClientConfig | None = None) -> str:
    """Extract the user id embedded in a profile page."""
    with _client(client) as hc:
        text = _get_page(hc, f"{endpoint}/profile/{quote(username, safe='')}",
                         f"profile {username!r}",
                         UnknownUsername(f"no profile for username {username!r}"))
    match = USER_ID_PATTERN.search(text)
    if not match:
        raise PatternNotFound(
            f"profile for {username!r} does not embed a user_id variable")
    return match.group(1)


@dataclass
class CrawlState:
    seen_transaction_ids: set[str] = field(default_factory=set)
    pending_user_ids: list[str] = field(default_factory=list)
    completed_user_ids: set[str] = field(default_factory=set)
    sink: tuple[str | None, int] | None = None  # (file, offset) after the last user


def save_checkpoint(state: CrawlState, path: str | os.PathLike) -> None:
    """Append a call's start line, the ids it queues (state's pending ids)
    and its sink, to the log at `path`; user lines record the rest.

    A new log is created whole (temp file, then rename), so it always begins
    with a complete start line. An existing log first loses the record a
    kill may have torn after its last newline.
    """
    line = json.dumps({"pending": state.pending_user_ids,
                       "sink": state.sink}).encode() + b"\n"
    if not os.path.exists(path):
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fp:
            fp.write(line)
        os.replace(tmp, path)
        return
    with open(path, "r+b") as fp:
        end = fp.seek(0, os.SEEK_END)
        if end:  # mmap refuses an empty file
            with mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ) as log:
                end = log.rfind(b"\n") + 1
        fp.truncate(end)
        fp.seek(end)
        fp.write(line)


def _ids(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(i, str) for i in value):
        raise HarvestError(f"checkpoint corrupt: {what} must be a list of ids")
    return value


def _sink(value, what: str) -> tuple[str | None, int] | None:
    """A sink's [file, offset]; null or missing (no sink yet) means none."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 2
            and isinstance(value[0], (str, type(None)))
            and type(value[1]) is int and value[1] >= 0):
        raise HarvestError(f"checkpoint corrupt: {what} must be [file, offset]")
    return value[0], value[1]


def load_checkpoint(path: str | os.PathLike) -> CrawlState:
    """Replay the log at `path`. Seen is the union of the user lines' ids,
    completed is their users, pending is the start lines' ids in order, each
    once, less the completed users, and the sink is the last line's.

    Bytes after the last newline are a record torn by a kill, so its user
    never completed: they are ignored. A file that does not begin with a
    start line (an older snapshot checkpoint among them) or holds any other
    malformed line is a HarvestError.
    """
    state, queued = CrawlState(), None
    with open(path, "rb") as fp:
        for number, line in enumerate(fp, 1):
            if not line.endswith(b"\n"):
                break  # torn
            what = f"{path} line {number}"
            try:
                entry = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise HarvestError(f"checkpoint corrupt: {what}: {exc}") from exc
            if not isinstance(entry, dict):
                raise HarvestError(f"checkpoint corrupt: {what}: not an object")
            if "user" not in entry:
                queued = queued or {}
                queued.update(dict.fromkeys(
                    _ids(entry.get("pending"), f"{what}: 'pending'")))
            elif queued is None:
                break  # a user line first: refused below
            elif isinstance(entry["user"], str):
                state.seen_transaction_ids.update(
                    _ids(entry.get("seen"), f"{what}: 'seen'"))
                state.completed_user_ids.add(entry["user"])
            else:
                raise HarvestError(f"checkpoint corrupt: {what}: 'user' must be an id")
            state.sink = _sink(entry.get("sink"), f"{what}: 'sink'")
    if queued is None:
        raise HarvestError(f"checkpoint corrupt: {path} does not begin with "
                           "a start line")
    state.pending_user_ids = [u for u in queued
                              if u not in state.completed_user_ids]
    return state


def crawl_users(endpoint: str, user_ids: Sequence[str],
                workers: int = 8,
                checkpoint_path: str | os.PathLike | None = None,
                out: IO | None = None,
                client: HarvestClient | ClientConfig | None = None,
                max_users: int | None = None) -> list[Transaction]:
    """Fetch all transactions of the queued users with a bounded worker pool.

    Resumes from checkpoint_path when it exists: completed users are skipped
    and previously seen transaction ids are never re-emitted. Returns the
    transactions newly collected by this call; each completed user's new
    transactions are written to `out` (JSONL), in queue order, before the
    checkpoint advances; a resume first truncates a seekable `out` to the
    checkpoint's sink offset when `out` is the file the checkpoint recorded
    (in-memory streams cannot be told apart). max_users bounds how many
    users this call completes, and workers (at least 1) how many fetch at once.
    """
    if max_users is not None and max_users < 0:
        raise ValueError(f"max_users must be at least 0, got {max_users}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    state = CrawlState()
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
    seekable = out is not None and out.seekable()
    if seekable:
        try:  # a file sink is known by its device and inode
            stat = os.fstat(out.fileno())
            sink_file = f"{stat.st_dev}:{stat.st_ino}"
        except (OSError, ValueError):
            sink_file = None  # in-memory streams cannot be told apart
        # the recorded file's lines past its offset belong to users still
        # pending; another file's lines are not the crawl's to cut
        end = out.seek(0, os.SEEK_END)
        recorded_file, offset = state.sink or (None, end)
        if recorded_file == sink_file and offset < end:
            out.seek(offset)
            out.truncate()
        state.sink = sink_file, out.tell()
    # queue each id once, after the checkpoint's pending users
    known = state.completed_user_ids | set(state.pending_user_ids)
    added = [u for u in dict.fromkeys(user_ids) if u not in known]
    state.pending_user_ids += added
    batch = state.pending_user_ids[:max_users]

    collected: list[Transaction] = []
    log: IO | None = None
    if checkpoint_path is not None:
        # the call's start line; every exit leaves what a kill leaves
        save_checkpoint(CrawlState(pending_user_ids=added, sink=state.sink),
                        checkpoint_path)
        log = open(checkpoint_path, "a", encoding="utf-8")
    # ThreadPool, not concurrent.futures: its workers are daemon threads, so
    # an interrupt returns at once instead of waiting out every in-flight
    # user at exit. Imported here because the mock server imports this module.
    from multiprocessing.pool import ThreadPool
    with contextlib.nullcontext() if log is None else log, \
            _client(client) as hc, \
            ThreadPool(min(workers, len(batch)) or 1) as pool:
        try:
            fetched = pool.imap(
                lambda user_id: fetch_user_transactions(endpoint, user_id, hc),
                batch)
            for user_id, txns in zip(batch, fetched):
                fresh = [t for t in txns
                         if t.id not in state.seen_transaction_ids]
                state.seen_transaction_ids.update(t.id for t in fresh)
                collected.extend(fresh)
                if out is not None:
                    dump_transactions(fresh, out)
                    out.flush()
                    if seekable:
                        state.sink = sink_file, out.tell()
                if log is not None:
                    log.write(json.dumps(
                        {"user": user_id, "seen": [t.id for t in fresh],
                         "sink": state.sink}) + "\n")
                    log.flush()
        except Exception:  # an interrupt skips this: it waits for no worker
            pool.terminate()  # drops the users no worker has started
            pool.join()  # after an error, let no in-flight user outlive the call
            raise
    return collected
