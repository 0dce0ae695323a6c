"""Mock feed server: a local stand-in for a Venmo-like public API.

Endpoints:
  GET /feed
      {"data": [txn...], "refresh_interval": s}. Serves a rotating window of
      page_size newest-first transactions; the window advances once per
      refresh interval (or per request when the interval is 0).
  GET /users/<id>/transactions?before_id=<id>
      {"data": [...], "next_before_id": ...} for a user of corpus.users, else
      404; next_before_id is omitted on the last page. Transactions are
      newest-first; before_id returns strictly older entries.
  GET /profile/<username>
      HTML-ish page embedding "user_id": "<id>" as a script variable.
  An id or username is one path segment, percent-decoded as UTF-8.

Every request consumes one token from a server-side bucket; an empty bucket
yields 429 with a (possibly fractional) Retry-After header and increments
the handle's rate_limited_count audit counter.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..corpus import Corpus, transaction_to_obj
from .client import TokenBucket, non_negative

PROFILE_TEMPLATE = """<!doctype html>
<html><head><title>{username}</title></head>
<body>
<script>
  window.__page_state__ = {{"page_user": {{"user_id": "{user_id}", "username": "{username}"}}}};
</script>
</body></html>
"""


@dataclass
class MockServerConfig:
    page_size: int = 20            # at least 1
    refresh_interval: float = 0.0  # seconds; 0 advances the feed per request
    rate_limit: float = 0.0        # requests/sec; 0 disables limiting
    burst: int | None = None       # capacity, min 1; default ~1s of tokens
    usernames: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.page_size < 1:
            raise ValueError(f"page_size must be at least 1, got {self.page_size}")
        non_negative("refresh_interval", self.refresh_interval)
        non_negative("rate_limit", self.rate_limit)
        if not (isinstance(self.usernames, dict)
                and all(isinstance(v, str) for v in self.usernames.values())):
            raise ValueError(f"usernames must map strings to strings, "
                             f"got {str(self.usernames)[:80]}")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # keep tests quiet
        pass

    def _send(self, status: int, body: bytes, content_type: str = "application/json",
              extra_headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra_headers or {}).items():
            self.send_header(key, value)
        if self.request_version == "HTTP/0.9":  # a bare body, no headers
            self.wfile.write(body)
            return
        # Headers and body in one write: written apart, the body waits under
        # Nagle's algorithm for the client's delayed ACK, ~40 ms per request.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, status: int, obj) -> None:
        self._send(status, json.dumps(obj).encode("utf-8"))

    def do_GET(self):  # noqa: N802 (stdlib naming)
        state: "MockServer" = self.server.mock  # type: ignore[attr-defined]
        with state.count_lock:
            state.request_count += 1
        wait = state.bucket.try_acquire()
        if wait > 0:
            with state.count_lock:
                state.rate_limited_count += 1
            self._send(429, json.dumps({"error": "rate limited"}).encode("utf-8"),
                       extra_headers={"Retry-After": f"{wait:.3f}"})
            return

        parsed = urlsplit(self.path)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        query = parse_qs(parsed.query)
        try:
            if parts == ["feed"]:
                self._send_json(200, state.feed_page())
            elif (len(parts) == 3 and parts[0] == "users"
                    and parts[2] == "transactions"):
                body = state.user_page(parts[1],
                                       query.get("before_id", [None])[0])
                if body is None:
                    self._send_json(404, {"error": "user not found"})
                else:
                    self._send_json(200, body)
            elif len(parts) == 2 and parts[0] == "profile":
                page = state.profile_page(parts[1])
                if page is None:
                    self._send_json(404, {"error": "unknown username"})
                else:
                    self._send(200, page.encode("utf-8"), "text/html")
            else:
                self._send_json(404, {"error": "no such endpoint"})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})


class MockServer:
    """Serving handle: URL, audit counters, stop(). Usable as a context manager."""

    def __init__(self, corpus: Corpus, config: MockServerConfig, port: int = 0):
        if not 0 <= port <= 65535:
            raise ValueError(f"port must be in 0-65535, got {port}")
        self.config = config
        burst = config.burst if config.burst is not None else max(1, int(config.rate_limit))
        self.bucket = TokenBucket(config.rate_limit, burst)
        self.request_count = 0
        self.rate_limited_count = 0
        self.count_lock = threading.Lock()
        self.feed_lock = threading.Lock()
        self._feed_counter = 0
        self._started = time.monotonic()

        # the newest-first feed; a user's pages reverse corpus.users' posts
        self._all = sorted(corpus.transactions.values(),
                           key=lambda t: (t.created_at, t.id), reverse=True)
        self._users = corpus.users
        self._usernames = dict(config.usernames)
        for uid in self._users:
            self._usernames.setdefault(uid, uid)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.mock = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        # stop() waits up to one poll interval for the serving loop to notice
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.02}, daemon=True)
        self._thread.start()

    def _window_index(self) -> int:
        if self.config.refresh_interval > 0:
            return int((time.monotonic() - self._started) / self.config.refresh_interval)
        with self.feed_lock:
            index = self._feed_counter
            self._feed_counter += 1
        return index

    def feed_page(self) -> dict:
        n = len(self._all)
        size = self.config.page_size
        if n == 0:
            window = []
        elif n <= size:
            window = self._all
        else:
            start = (self._window_index() * size) % n
            window = [self._all[(start + i) % n] for i in range(size)]
        return {"data": [transaction_to_obj(t) for t in window],
                "refresh_interval": self.config.refresh_interval}

    def user_page(self, user_id: str, before_id: str | None) -> dict | None:
        profile = self._users.get(user_id)
        if profile is None:
            return None
        timeline = [t for t, _ in reversed(profile.posts)]
        size = self.config.page_size
        start = 0
        if before_id is not None:
            positions = [i for i, t in enumerate(timeline) if t.id == before_id]
            if not positions:
                raise ValueError(f"unknown before_id {before_id!r}")
            start = positions[0] + 1
        page = timeline[start:start + size]
        body: dict = {"data": [transaction_to_obj(t) for t in page]}
        if start + size < len(timeline):
            body["next_before_id"] = page[-1].id
        return body

    def profile_page(self, username: str) -> str | None:
        user_id = self._usernames.get(username)
        if user_id is None:
            return None
        return PROFILE_TEMPLATE.format(username=username, user_id=user_id)

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MockServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_mock_server(corpus: Corpus, config: MockServerConfig | None = None,
                    port: int = 0) -> MockServer:
    """Start the mock server on 127.0.0.1. Raises ValueError if the port is
    outside 0-65535 and OSError if it is taken."""
    return MockServer(corpus, config or MockServerConfig(), port=port)
