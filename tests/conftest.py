import json
import threading
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from paylens.corpus import Transaction, group_by_user
from paylens.labels import build_labeled_dataset
from paylens.pipeline import build_dataset
from paylens.synth import SynthSpec, generate_synthetic_corpus

BASE_TIME = datetime(2024, 3, 1, 12, 0, 0, tzinfo=timezone.utc)


def make_txn(txn_id, note="", actor="ua", target="ub", minutes=0,
             kind="payment", likes=0, comments=0, audience="public",
             actor_name=None, target_name=None):
    return Transaction(
        id=txn_id,
        created_at=BASE_TIME + timedelta(minutes=minutes),
        note=note,
        kind=kind,
        actor_id=actor,
        actor_name=actor_name if actor_name is not None else actor.upper(),
        target_id=target,
        target_name=target_name if target_name is not None else target.upper(),
        likes_count=likes,
        comments_count=comments,
        audience=audience,
    )


def txn_json(txn_id, note="", actor="ua", target="ub", minutes=0,
             kind="payment", likes=0, comments=0, audience="public"):
    return json.dumps({
        "id": txn_id,
        "date_created": (BASE_TIME + timedelta(minutes=minutes)).isoformat(),
        "note": note,
        "type": kind,
        "actor": {"id": actor, "name": actor.upper()},
        "target": {"id": target, "name": target.upper()},
        "likes_count": likes,
        "comments_count": comments,
        "audience": audience,
    })


def synth_dataset(seed=0, n=25, p_signal=0.8, p_noise=0.05, posts=(6, 6)):
    spec = SynthSpec(n_users_per_class=n, posts_per_user=posts,
                     p_signal=p_signal, p_noise=p_noise, seed=seed)
    result = generate_synthetic_corpus(spec)
    corpus = group_by_user(result.transactions)
    labeled = build_labeled_dataset(corpus, "politics",
                                    political_labels=dict(result.labels))
    return build_dataset(corpus, labeled)


@pytest.fixture
def txn():
    return make_txn


@pytest.fixture
def small_corpus():
    """Three users: ua posts twice, ub twice, uc once (as target)."""
    txns = [
        make_txn("t1", "pizza night", actor="ua", target="ub", minutes=0),
        make_txn("t2", "rent", actor="ub", target="ua", minutes=1),
        make_txn("t3", "🍕", actor="ua", target="uc", minutes=2, kind="charge"),
    ]
    return group_by_user(txns)


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_GET(self):  # noqa: N802 (stdlib naming)
        self.server.hits += 1
        self.server.paths.append(self.path)
        body = self.server.body.encode("utf-8")
        self.send_response(self.server.status)
        self.send_header("Content-Length", str(len(body)))
        # one write, as serve-mock does: a body written apart from its headers
        # waits ~40 ms on Nagle's algorithm and the client's delayed ACK
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()
        # drop: close without saying so, as a server ending an idle keep-alive
        self.close_connection = self.server.drop

    def log_message(self, fmt, *args):
        pass


@pytest.fixture
def stub_server():
    """start(status, body, drop=False) runs a server that answers every GET
    alike, and with drop closes each connection after its first answer.

    The returned server has `url`, a `hits` request counter, the request
    targets in `paths`, and a `connections` counter.
    """
    servers = []

    def start(status, body, drop=False):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        httpd.daemon_threads = True
        httpd.status, httpd.body, httpd.hits = status, body, 0
        httpd.drop, httpd.paths, httpd.connections = drop, [], 0
        httpd.url = f"http://127.0.0.1:{httpd.server_address[1]}"
        # shutdown() waits out the poll interval, 0.5 s by default
        threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.02},
                         daemon=True).start()
        servers.append(httpd)
        return httpd

    yield start
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()
