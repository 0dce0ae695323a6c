import contextlib
import io
import json
import multiprocessing.pool
import os
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paylens.corpus import dump_transactions, group_by_user, load_transactions
from paylens.errors import (HarvestError, MalformedPage, PatternNotFound,
                            UnknownUsername, UserNotFound)
from paylens.harvest import (ClientConfig, HarvestClient, MockServerConfig,
                             TokenBucket, crawl_users, fetch_public_feed,
                             fetch_user_transactions, load_checkpoint,
                             resolve_user_id, run_mock_server, save_checkpoint)
import paylens.harvest.client as client_mod
from paylens.harvest.client import CrawlState

from conftest import make_txn, txn_json

SRC = Path(__file__).resolve().parent.parent / "src"


def corpus_for_user(user_id, n, start_minute=0):
    """n transactions all involving user_id (as actor), newest last."""
    return [make_txn(f"{user_id}-t{i:03d}", note=f"n{i}", actor=user_id,
                     target=f"cp{user_id}{i}", minutes=start_minute + i)
            for i in range(n)]


@pytest.fixture
def server45():
    """User u1 with 45 transactions, page size 20."""
    corpus = group_by_user(corpus_for_user("u1", 45))
    with run_mock_server(corpus, MockServerConfig(page_size=20)) as srv:
        yield srv


class TestMockServerEndpoints:
    def test_feed_serves_page_size(self):
        corpus = group_by_user(corpus_for_user("u1", 20))
        with run_mock_server(corpus, MockServerConfig(page_size=20)) as srv:
            body = requests.get(f"{srv.url}/feed").json()
            assert len(body["data"]) == 20

    def test_feed_newest_first(self):
        corpus = group_by_user(corpus_for_user("u1", 30))
        with run_mock_server(corpus, MockServerConfig(page_size=20)) as srv:
            body = requests.get(f"{srv.url}/feed").json()
            ids = [t["id"] for t in body["data"]]
            assert ids == sorted(ids, reverse=True)

    def test_user_pagination_arithmetic(self, server45):
        # before_id of the 21st newest entry returns entries 22..41
        all_ids = [f"u1-t{i:03d}" for i in range(44, -1, -1)]  # newest first
        before = all_ids[20]
        body = requests.get(
            f"{server45.url}/users/u1/transactions",
            params={"before_id": before}).json()
        got = [t["id"] for t in body["data"]]
        assert got == all_ids[21:41]
        assert body["next_before_id"] == all_ids[40]

    def test_last_page_omits_cursor(self, server45):
        all_ids = [f"u1-t{i:03d}" for i in range(44, -1, -1)]
        body = requests.get(
            f"{server45.url}/users/u1/transactions",
            params={"before_id": all_ids[24]}).json()
        assert len(body["data"]) == 20
        assert "next_before_id" not in body

    def test_unknown_user_404(self, server45):
        resp = requests.get(f"{server45.url}/users/nobody/transactions")
        assert resp.status_code == 404

    def test_unknown_before_id_400(self, server45):
        resp = requests.get(f"{server45.url}/users/u1/transactions",
                            params={"before_id": "zzz"})
        assert resp.status_code == 400

    def test_profile_embeds_user_id(self):
        corpus = group_by_user(corpus_for_user("u123", 3))
        config = MockServerConfig(usernames={"alice": "u123"})
        with run_mock_server(corpus, config) as srv:
            text = requests.get(f"{srv.url}/profile/alice").text
            assert '"user_id": "u123"' in text
            assert requests.get(f"{srv.url}/profile/bob").status_code == 404

    def test_rate_limiter_trips(self):
        corpus = group_by_user(corpus_for_user("u1", 5))
        with run_mock_server(corpus, MockServerConfig(rate_limit=10.0)) as srv:
            session = requests.Session()
            codes = [session.get(f"{srv.url}/feed").status_code
                     for _ in range(100)]
            assert codes.count(429) >= 1
            assert srv.rate_limited_count == codes.count(429)

    def test_zero_burst_still_serves(self):
        corpus = group_by_user(corpus_for_user("u1", 5))
        config = MockServerConfig(rate_limit=1.0, burst=0)
        with run_mock_server(corpus, config) as srv:
            assert requests.get(f"{srv.url}/feed").status_code == 200

    def test_stop_returns_promptly(self):
        srv = run_mock_server(group_by_user(corpus_for_user("u1", 5)))
        assert requests.get(f"{srv.url}/feed").status_code == 200
        start = time.monotonic()
        srv.stop()
        assert time.monotonic() - start < 0.2
        assert not srv._thread.is_alive()

    def test_429_carries_retry_after(self):
        corpus = group_by_user(corpus_for_user("u1", 5))
        config = MockServerConfig(rate_limit=1.0, burst=1)
        with run_mock_server(corpus, config) as srv:
            session = requests.Session()
            session.get(f"{srv.url}/feed")
            resp = session.get(f"{srv.url}/feed")
            assert resp.status_code == 429
            assert float(resp.headers["Retry-After"]) > 0


    @pytest.mark.parametrize("path, status, content_type", [
        ("/feed", 200, "application/json"),
        ("/users/ghost/transactions", 404, "application/json"),
        ("/feed", 429, "application/json"),
        ("/profile/alice", 200, "text/html"),
    ], ids=["json_200", "404", "429", "profile_html"])
    def test_one_write_per_response(self, monkeypatch, path, status,
                                    content_type):
        # headers and body sent apart stall each request on Nagle's
        # algorithm and the client's delayed ACK
        writes = []
        real_write = socketserver._SocketWriter.write

        def write(self, data):
            writes.append(bytes(data))
            return real_write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", write)
        corpus = group_by_user(corpus_for_user("u1", 5))
        config = MockServerConfig(usernames={"alice": "u1"},
                                  rate_limit=1.0 if status == 429 else 0.0)
        with run_mock_server(corpus, config) as srv:
            session = requests.Session()
            if status == 429:
                session.get(f"{srv.url}/feed")  # takes the only token
            writes.clear()
            resp = session.get(f"{srv.url}{path}")
        assert resp.status_code == status
        assert resp.headers["Content-Type"] == content_type
        assert len(writes) == 1
        _, body = writes[0].split(b"\r\n\r\n", 1)
        assert body == resp.content
        assert int(resp.headers["Content-Length"]) == len(body)
        if status == 429:
            assert float(resp.headers["Retry-After"]) > 0


class TestFetchPublicFeed:
    def test_single_page_twenty(self):
        corpus = group_by_user(corpus_for_user("u1", 20))
        with run_mock_server(corpus, MockServerConfig(page_size=20)) as srv:
            txns = fetch_public_feed(srv.url, pages=1)
            assert len(txns) == 20

    def test_dedup_when_window_repeats(self):
        corpus = group_by_user(corpus_for_user("u1", 20))
        config = MockServerConfig(page_size=20, refresh_interval=0.0)
        with run_mock_server(corpus, config) as srv:
            before = srv.request_count
            txns = fetch_public_feed(srv.url, pages=2)
            assert len(txns) == 20
            assert srv.request_count - before == 2

    def test_rotating_window_collects_all(self):
        corpus = group_by_user(corpus_for_user("u1", 50))
        config = MockServerConfig(page_size=20, refresh_interval=0.0)
        with run_mock_server(corpus, config) as srv:
            txns = fetch_public_feed(srv.url, pages=3)
            assert len(txns) == 50

    def test_waits_out_small_refresh_interval(self):
        corpus = group_by_user(corpus_for_user("u1", 40))
        config = MockServerConfig(page_size=20, refresh_interval=0.2)
        with run_mock_server(corpus, config) as srv:
            start = time.monotonic()
            txns = fetch_public_feed(srv.url, pages=2)
            assert time.monotonic() - start >= 0.2
            assert len(txns) == 40


class TestFetchUserTransactions:
    def test_45_transactions_in_3_requests(self, server45):
        before = server45.request_count
        txns = fetch_user_transactions(server45.url, "u1")
        assert len(txns) == 45
        assert len({t.id for t in txns}) == 45
        assert server45.request_count - before == 3

    def test_zero_transactions_single_request(self, stub_server):
        srv = stub_server(200, '{"data": []}')
        assert fetch_user_transactions(srv.url, "quiet") == []
        assert srv.hits == 1

    def test_repeating_cursor_raises(self, stub_server):
        srv = stub_server(200, '{"data": [], "next_before_id": "x"}')
        with pytest.raises(MalformedPage, match="user 'loop' page 1: "
                           "next_before_id 'x' was already requested"):
            fetch_user_transactions(srv.url, "loop")
        assert srv.hits == 2

    def test_missing_user_raises(self, server45):
        with pytest.raises(UserNotFound):
            fetch_user_transactions(server45.url, "ghost")

    def test_resume_from_cursor_covers_all(self, server45):
        first = requests.get(f"{server45.url}/users/u1/transactions").json()
        assert len(first["data"]) == 20
        before = server45.request_count
        rest = fetch_user_transactions(server45.url, "u1",
                                       before_id=first["next_before_id"])
        assert server45.request_count - before == 2
        combined = {t["id"] for t in first["data"]} | {t.id for t in rest}
        assert len(rest) == 25 and len(combined) == 45

    def test_rate_limited_fetch_retries(self):
        corpus = group_by_user(corpus_for_user("u1", 45))
        config = MockServerConfig(page_size=20, rate_limit=5.0, burst=1)
        with run_mock_server(corpus, config) as srv:
            txns = fetch_user_transactions(srv.url, "u1")
            assert len(txns) == 45
            assert srv.rate_limited_count > 0  # server pushed back, client retried


class TestMalformedPages:
    @pytest.mark.parametrize("body", [
        '{"data": [', '{"items": []}', '{"data": [], "refresh_interval": "soon"}',
        '{"data": [], "refresh_interval": Infinity}',
        '{"data": [], "refresh_interval": NaN}',
        '{"data": [], "refresh_interval": -2}',
        '{"data": [%s]}' % txn_json("t1", note="\ud800"),
        '{"data": [%s]}' % txn_json("t1", likes=2.5),
    ], ids=["bad_json", "no_data", "bad_refresh_interval", "inf_refresh_interval",
            "nan_refresh_interval", "negative_refresh_interval",
            "lone_surrogate_note", "fractional_count"])
    def test_feed_page(self, stub_server, body):
        srv = stub_server(200, body)
        with pytest.raises(MalformedPage, match="^harvest: feed poll 0: "):
            fetch_public_feed(srv.url, pages=1)

    @pytest.mark.parametrize("body", [
        "<html>", '{"next_before_id": null}', "[1, 2]", '{"data": 7}',
    ], ids=["bad_json", "no_data", "list_body", "data_not_list"])
    def test_user_page(self, stub_server, body):
        srv = stub_server(200, body)
        with pytest.raises(MalformedPage, match="^harvest: user 'u1' page 0: "):
            fetch_user_transactions(srv.url, "u1")


class TestRetries:
    CONFIG = ClientConfig(max_retries=2, backoff_base=0.001)

    def test_persistent_5xx_exhausts_retries(self, stub_server):
        srv = stub_server(503, "{}")
        with pytest.raises(HarvestError) as info:
            HarvestClient(self.CONFIG).get(f"{srv.url}/feed")
        assert type(info.value) is HarvestError
        assert str(info.value).endswith("failed after 2 retries: HTTP 503")
        assert srv.hits == 3  # the first try plus max_retries

    def test_refused_connection_exhausts_retries(self):
        with socket.socket() as sock:  # a port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(HarvestError) as info:
            HarvestClient(self.CONFIG).get(f"http://127.0.0.1:{port}/feed")
        assert type(info.value) is HarvestError
        assert "failed after 2 retries: " in str(info.value)
        assert isinstance(info.value.__cause__, ConnectionRefusedError)

    def test_persistent_429_exhausts_wait_budget(self, stub_server):
        srv = stub_server(429, "{}")  # no Retry-After: each wait is backoff_base
        config = ClientConfig(max_retries=2, backoff_base=0.01, backoff_cap=0.05)
        start = time.monotonic()
        with pytest.raises(HarvestError) as info:
            HarvestClient(config).get(f"{srv.url}/feed")
        assert type(info.value) is HarvestError
        assert f"still rate-limited after {srv.hits} 429 responses" in str(info.value)
        # waits stop short of max_retries x backoff_cap = 0.1 s
        assert 9 <= srv.hits <= 11
        assert time.monotonic() - start < 2.0

    def test_4xx_is_returned_without_retry(self, stub_server):
        srv = stub_server(418, "{}")
        assert HarvestClient(self.CONFIG).get(srv.url).status_code == 418
        assert srv.hits == 1


class TestTransport:
    # ids without "%": the target requests sent
    @pytest.mark.parametrize("user_id, before_id", [
        ("u1", None), ("two words", None), ("naïve-日本", "t ü/1"),
        ("q?x=1", "c"), ("!$&'()*+,;=:@", "~-._ é"),
    ])
    def test_request_line_matches_requests(self, stub_server, user_id,
                                           before_id):
        srv = stub_server(200, '{"data": []}')
        url = f"{srv.url}/users/{user_id}/transactions"
        params = {} if before_id is None else {"before_id": before_id}
        requests.get(url, params=params)
        with HarvestClient() as hc:
            hc.get(url, params)
        assert srv.paths[1] == srv.paths[0]

    # ids with "%": the path and query go as given, where requests (through
    # urllib3) encoded every "%" unless all started escapes, upper-cased
    # escapes and decoded those of unreserved characters
    @pytest.mark.parametrize("path, before_id, target", [
        ("50%", None, "/users/50%/transactions"),
        ("a%41%2f", "b%zz+&=",
         "/users/a%41%2f/transactions?before_id=b%25zz%2B%26%3D"),
        ("%7e%7E", "%41", "/users/%7e%7E/transactions?before_id=%2541"),
    ], ids=["percent_kept", "escapes_kept", "unreserved_escapes_kept"])
    def test_request_target(self, stub_server, path, before_id, target):
        srv = stub_server(200, '{"data": []}')
        params = {} if before_id is None else {"before_id": before_id}
        with HarvestClient() as hc:
            hc.get(f"{srv.url}/users/{path}/transactions", params)
        assert srv.paths == [target]

    def test_connection_kept_alive(self, stub_server):
        srv = stub_server(200, '{"data": []}')
        with HarvestClient() as hc:
            for _ in range(3):
                assert hc.get(srv.url).json() == {"data": []}
        assert (srv.hits, srv.connections) == (3, 1)

    def test_dropped_connection_reopened_without_a_retry(self, stub_server):
        srv = stub_server(200, '{"data": []}', drop=True)
        no_retries = ClientConfig(max_retries=0, backoff_base=60.0)
        with HarvestClient(no_retries) as hc:
            for _ in range(2):
                assert hc.get(srv.url).status_code == 200
        assert (srv.hits, srv.connections) == (2, 2)

    def test_text_is_utf8(self, stub_server):
        srv = stub_server(200, "café ☕")
        with HarvestClient() as hc:
            resp = hc.get(srv.url)
        assert resp.text == "café ☕"
        assert resp.content == "café ☕".encode("utf-8")

    def test_threads_share_the_idle_connections(self, stub_server):
        srv = stub_server(200, '{"data": []}')
        threads, gets = 8, 25
        codes = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with HarvestClient() as hc:
                def work():
                    codes.extend(hc.get(srv.url).status_code
                                 for _ in range(gets))
                pool = [threading.Thread(target=work) for _ in range(threads)]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in pool)
                assert len(hc._idle) == srv.connections
            assert hc._idle == []
        finally:
            sys.setswitchinterval(previous)
        assert codes == [200] * threads * gets
        assert len(srv.paths) == threads * gets  # appends are atomic, += is not
        # a connection two threads took at once would break a response
        assert srv.connections <= threads


def test_stub_server_answers_in_one_write(monkeypatch, stub_server):
    writes = []
    real_write = socketserver._SocketWriter.write

    def write(self, data):
        writes.append(bytes(data))
        return real_write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", write)
    srv = stub_server(503, '{"error": "down"}')
    resp = requests.get(srv.url)
    assert (resp.status_code, resp.text) == (503, '{"error": "down"}')
    assert len(writes) == 1
    assert writes[0].endswith(b"\r\n\r\n" + resp.content)


class TestResolveUserId:
    def test_resolves(self):
        corpus = group_by_user(corpus_for_user("u123", 2))
        config = MockServerConfig(usernames={"alice": "u123"})
        with run_mock_server(corpus, config) as srv:
            assert resolve_user_id(srv.url, "alice") == "u123"

    def test_unknown_username(self):
        corpus = group_by_user(corpus_for_user("u1", 2))
        with run_mock_server(corpus, MockServerConfig()) as srv:
            with pytest.raises(UnknownUsername):
                resolve_user_id(srv.url, "nope")

    def test_pattern_not_found(self, monkeypatch):
        corpus = group_by_user(corpus_for_user("u1", 2))
        with run_mock_server(corpus, MockServerConfig()) as srv:
            monkeypatch.setattr(
                "paylens.harvest.server.PROFILE_TEMPLATE",
                "<html>nothing to see</html>")
            with pytest.raises(PatternNotFound):
                resolve_user_id(srv.url, "u1")


# ids a URL would split, cut or decode unless each is one percent-encoded
# path segment
ODD_IDS = ["two words", "naïve-日本", "a/b", "q?x=1", "h#1", "50%", "a%41"]


@pytest.fixture(scope="module")
def odd_server():
    """Each odd id with 12 transactions, and the users a misread id would
    reach ("aA", "a", "h", "q") with 12 more; page size 5. Each odd id is
    also the username of the plain id "uid<k>"."""
    txns = []
    for k, user_id in enumerate([*ODD_IDS, "aA", "a", "h", "q"]):
        txns.extend(corpus_for_user(user_id, 12, start_minute=20 * k))
    config = MockServerConfig(
        page_size=5, usernames={u: f"uid{k}" for k, u in enumerate(ODD_IDS)})
    with run_mock_server(group_by_user(txns), config) as srv:
        yield srv, txns


class TestIdsAsPathSegments:
    @pytest.mark.parametrize("user_id", ODD_IDS)
    def test_fetch_user_transactions(self, odd_server, user_id):
        srv, txns = odd_server
        got = fetch_user_transactions(srv.url, user_id)
        assert [t.id for t in got] == [t.id for t in reversed(txns)
                                       if t.actor_id == user_id]

    @pytest.mark.parametrize("k, username", enumerate(ODD_IDS))
    def test_resolve_user_id(self, odd_server, k, username):
        srv, _ = odd_server
        assert resolve_user_id(srv.url, username) == f"uid{k}"


# two calls' lines: each start line queues the users, each user line records
# one completed user
LOG = [{"pending": ["u1", "u2"], "sink": ["8:9", 0]},
       {"user": "u1", "seen": ["t1", "t2"], "sink": ["8:9", 40]},
       {"pending": ["u2", "u3", "u4"], "sink": ["8:9", 40]},
       {"user": "u2", "seen": ["t3"], "sink": ["8:9", 60]},
       {"user": "u3", "seen": ["t4", "t5"], "sink": ["8:9", 100]}]
WHOLE_QUEUE_LOG = """\
{"pending": ["w0", "w1", "w2", "w3"], "sink": [null, 0]}
{"user": "w0", "seen": ["w0-t1", "w0-t0"], "sink": [null, 450]}
{"pending": ["w1", "w2", "w3", "w4"], "sink": [null, 450]}
{"user": "w1", "seen": ["w1-t1", "w1-t0"], "sink": [null, 900]}
{"user": "w2", "seen": ["w2-t1", "w2-t0"], "sink": [null, 1350]}
{"pending": ["w3", "w4", "w5"], "sink": [null, 1350]}
{"user": "w3", "seen": ["w3-t1", "w3-t0"], "sink": [null, 1800]}
"""
NOT_A_STR = st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                      st.lists(st.text(max_size=3), max_size=2),
                      st.dictionaries(st.text(max_size=3), st.integers(),
                                      max_size=2))
NOT_IDS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=5),
    st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
    st.tuples(st.lists(st.text(max_size=3), max_size=2),
              st.one_of(st.none(), st.integers(), st.lists(st.text(max_size=2))))
    .map(lambda pair: [*pair[0], pair[1]]))
NOT_AN_OFFSET = st.one_of(st.booleans(), st.integers(max_value=-1),
                          st.floats(allow_nan=False), st.text(max_size=3))
NOT_A_SINK = st.one_of(
    NOT_AN_OFFSET, st.lists(st.integers(0, 9), max_size=3),
    st.tuples(st.one_of(st.none(), st.text(max_size=3)), NOT_AN_OFFSET).map(list),
    st.tuples(st.one_of(st.booleans(), st.integers()), st.integers(0, 9)).map(list))


def log_text(lines):
    return "".join(line + "\n" for line in lines)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cp.json"
        save_checkpoint(CrawlState(pending_user_ids=["u1", "u2"]), path)
        save_checkpoint(CrawlState(pending_user_ids=["u3", "u2", "u4"],
                                   sink=("8:9", 7)), path)
        assert len(path.read_text().splitlines()) == 2  # appended
        # the start lines' ids in order, each once
        assert vars(load_checkpoint(path)) == vars(CrawlState(
            pending_user_ids=["u1", "u2", "u3", "u4"], sink=("8:9", 7)))

    def test_whole_queue_start_lines_replayed(self, tmp_path):
        # written when each start line repeated the whole pending queue:
        # three calls with max_users 1, 2 and 1
        path = tmp_path / "cp.json"
        path.write_text(WHOLE_QUEUE_LOG)
        assert vars(load_checkpoint(path)) == vars(CrawlState(
            seen_transaction_ids={f"w{u}-t{i}" for u in range(4)
                                  for i in range(2)},
            pending_user_ids=["w4", "w5"],
            completed_user_ids={"w0", "w1", "w2", "w3"}, sink=(None, 1800)))

    def test_no_sink_recorded_without_sink(self, tmp_path):
        # a crawl without a seekable sink records none, and a line without
        # the sink key has none: a resume then truncates nothing
        path = tmp_path / "cp.json"
        save_checkpoint(CrawlState(pending_user_ids=["u1"]), path)
        payload = json.loads(path.read_text())
        assert payload["sink"] is None
        assert load_checkpoint(path).sink is None
        del payload["sink"]
        path.write_text(json.dumps(payload) + "\n")
        assert load_checkpoint(path).sink is None

    def test_schema(self, tmp_path):
        state = CrawlState(seen_transaction_ids={"t1"},
                           pending_user_ids=["u1"], completed_user_ids={"u0"})
        path = tmp_path / "cp.json"
        save_checkpoint(state, path)
        # seen ids and completed users reach the log only as user lines
        assert path.read_text() == '{"pending": ["u1"], "sink": null}\n'

    def test_no_temp_file_left_behind(self, tmp_path):
        state = CrawlState(pending_user_ids=["u1"])
        for _ in range(2):  # the log's creation, then an append
            save_checkpoint(state, tmp_path / "cp.json")
            assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_log_replayed(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(log_text(json.dumps(line) for line in LOG))
        state = load_checkpoint(path)
        assert state.seen_transaction_ids == {"t1", "t2", "t3", "t4", "t5"}
        assert state.completed_user_ids == {"u1", "u2", "u3"}
        assert state.pending_user_ids == ["u4"]
        assert state.sink == ("8:9", 100)  # the last line's

    def test_torn_record_ignored_then_cut(self, tmp_path):
        path = tmp_path / "cp.json"
        lines = [json.dumps(line).encode() + b"\n" for line in LOG]
        data = b"".join(lines)
        start = json.dumps({"pending": ["u9"], "sink": None}).encode() + b"\n"
        for cut in range(len(lines[0]), len(data) + 1):
            kept = data[:data.rfind(b"\n", 0, cut) + 1]
            path.write_bytes(kept)
            whole = load_checkpoint(path)
            path.write_bytes(data[:cut])
            assert vars(load_checkpoint(path)) == vars(whole)
            save_checkpoint(CrawlState(pending_user_ids=["u9"]), path)
            assert path.read_bytes() == kept + start

    @pytest.mark.parametrize("text", [
        "", '{"pending": [], "sink": null}',
        '{"user": "u1", "seen": [], "sink": null}\n'
        '{"pending": [], "sink": null}\n',
        json.dumps({"seen": ["t1"], "completed": ["u1"], "pending": ["u2"],
                    "checkpoint_at": "2024-03-01T12:00:00+00:00",
                    "sink": ["8:9", 40]}),
    ], ids=["empty", "torn_start_line", "user_line_first", "snapshot"])
    def test_must_begin_with_start_line(self, tmp_path, text):
        path = tmp_path / "cp.json"
        path.write_text(text)
        with pytest.raises(HarvestError, match="checkpoint corrupt: .* does "
                           "not begin with a start line"):
            load_checkpoint(path)

    @pytest.mark.parametrize("line", [
        "{", "[1]", '{"user": 7, "seen": []}', '{"user": "u2"}',
        '{"user": "u2", "seen": "t3"}', '{"user": "u2", "seen": [3]}', "",
        '{"user": "u2", "seen": [], "sink": [null, -1]}',
        '{"user": "u2", "seen": [], "sink": [null, "60"]}',
        '{"user": "u2", "seen": [], "sink": 60}',
        '{"user": "u2", "seen": [], "sink": [7, 60]}',
        '{"pending": "u2"}', '{"seen": []}', "[" * 200_000,
    ], ids=["bad_json", "not_an_object", "user_not_str", "no_seen",
            "seen_not_list", "seen_id_not_str", "blank", "sink_negative",
            "sink_not_int", "sink_not_pair", "sink_file_not_str",
            "pending_not_list", "no_pending", "deeply_nested"])
    def test_bad_middle_line_rejected(self, tmp_path, line):
        path = tmp_path / "cp.json"
        first, *rest = (json.dumps(line) for line in LOG)
        path.write_text(log_text([first, line, *rest]))
        with pytest.raises(HarvestError,
                           match="checkpoint corrupt: .*cp.json line 2"):
            load_checkpoint(path)

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_checkpoint_is_typed_error(self, tmp_path, data):
        """Dropped keys, changed types and truncation of a complete line,
        or a user line first, all raise HarvestError, nothing else."""
        lines = [dict(line) for line in LOG]
        mutation = data.draw(st.sampled_from(
            ["drop_key", "retype_key", "truncate_line", "line_not_object",
             "user_line_first"]))
        k = data.draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        keys = ["pending"] if "pending" in line else ["user", "seen"]
        if mutation == "drop_key":
            del line[data.draw(st.sampled_from(keys))]
        elif mutation == "retype_key":
            key = data.draw(st.sampled_from([*keys, "sink"]))
            line[key] = data.draw({"user": st.one_of(st.none(), NOT_A_STR),
                                   "sink": NOT_A_SINK}.get(key, NOT_IDS))
        elif mutation == "user_line_first":
            lines.insert(0, lines.pop(data.draw(st.sampled_from([1, 3, 4]))))
        text = [json.dumps(line) for line in lines]
        if mutation == "truncate_line":
            text[k] = text[k][:data.draw(st.integers(0, len(text[k]) - 1))]
        elif mutation == "line_not_object":
            text[k] = json.dumps(data.draw(st.one_of(
                st.none(), st.integers(), st.text(max_size=5),
                st.lists(st.integers(), max_size=3))))
        path = tmp_path / "cp.json"
        path.write_text(log_text(text))
        with pytest.raises(HarvestError, match="checkpoint corrupt"):
            load_checkpoint(path)


class TestCrawlUsers:
    def _server(self, users=6, per_user=25):
        txns = []
        for u in range(users):
            txns.extend(corpus_for_user(f"w{u}", per_user,
                                        start_minute=u * per_user))
        corpus = group_by_user(txns)
        return txns, run_mock_server(
            corpus, MockServerConfig(page_size=10, rate_limit=500.0, burst=50))

    def test_full_crawl_complete_and_unique(self):
        txns, server = self._server()
        with server as srv:
            out = io.StringIO()
            collected = crawl_users(srv.url, [f"w{u}" for u in range(6)],
                                    workers=3, out=out,
                                    client=ClientConfig(rate=300.0, burst=10))
            assert len(collected) == len(txns)
            assert {t.id for t in collected} == {t.id for t in txns}
            out.seek(0)
            written = load_transactions(out).transactions
            assert {t.id for t in written} == {t.id for t in txns}

    def test_kill_and_resume_same_set(self, tmp_path):
        txns, server = self._server()
        ids = [f"w{u}" for u in range(6)]
        with server as srv:
            cp = tmp_path / "cp.json"
            out = io.StringIO()
            first = crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                                out=out, max_users=3)
            state = load_checkpoint(cp)
            assert len(state.completed_user_ids) == 3
            second = crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                                 out=out)
            combined = {t.id for t in first} | {t.id for t in second}
            assert combined == {t.id for t in txns}
            out.seek(0)
            assert {t.id for t in load_transactions(out).transactions} == combined

    def test_kill_with_torn_log_line_resumes_same_set(self, tmp_path):
        txns, server = self._server()
        ids = [f"w{u}" for u in range(6)]
        cp = tmp_path / "cp.json"
        with server as srv:
            out = io.StringIO()
            # a call's end leaves what a kill leaves
            first = crawl_users(srv.url, ids, workers=1, checkpoint_path=cp,
                                out=out, max_users=3)
            head, last = cp.read_bytes().rstrip(b"\n").rsplit(b"\n", 1)
            assert json.loads(last)["user"] == "w2"
            cp.write_bytes(head + b"\n" + last[:len(last) // 2])
            state = load_checkpoint(cp)
            assert state.completed_user_ids == {"w0", "w1"}
            assert state.pending_user_ids == ["w2", "w3", "w4", "w5"]
            second = crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                                 out=out)
        assert {t.id for t in first} | {t.id for t in second} == {t.id for t in txns}
        assert {t.id for t in txns if t.actor_id == "w2"} <= {t.id for t in second}
        sink_ids = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns)  # w2's once
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_kill_mid_sink_line_resumes_exactly_once(self, tmp_path):
        txns, server = self._server()
        ids = [f"w{u}" for u in range(6)]
        cp, sink = tmp_path / "cp.json", tmp_path / "sink.jsonl"
        with server as srv:
            with open(sink, "w", encoding="utf-8") as out:
                crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                            out=out, max_users=3)
            # killed while writing w3's lines, before its journal line
            with open(sink, "a", encoding="utf-8") as out:
                out.write('{"id": "w3-t024", "note": "n2')
            assert load_checkpoint(cp).pending_user_ids == ["w3", "w4", "w5"]
            with open(sink, "a", encoding="utf-8") as out:
                crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                            out=out)
        sink_ids = [json.loads(line)["id"] for line in sink.read_text().splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns)

    def test_resume_into_another_file_cuts_nothing(self, tmp_path):
        _, server = self._server(users=2)
        cp = tmp_path / "cp.json"
        other = tmp_path / "other.jsonl"
        other.write_text("".join(f'{{"line": {i}, "pad": "{"x" * 180}"}}\n'
                                 for i in range(100)))
        before = other.read_text()
        with server as srv:
            with open(tmp_path / "sink.jsonl", "w", encoding="utf-8") as out:
                crawl_users(srv.url, ["w0"], workers=1, checkpoint_path=cp,
                            out=out)
            with open(other, "a", encoding="utf-8") as out:
                crawl_users(srv.url, ["w0", "w1"], workers=1,
                            checkpoint_path=cp, out=out)
            # the checkpoint now follows the other file
            with open(other, "a", encoding="utf-8") as out:
                out.write('{"id": "w9-t0')
            with open(other, "a", encoding="utf-8") as out:
                crawl_users(srv.url, [], workers=1, checkpoint_path=cp,
                            out=out)
        after = other.read_text()
        assert after.startswith(before)
        assert [json.loads(line)["actor"]["id"]
                for line in after[len(before):].splitlines()] == ["w1"] * 25

    def test_batched_resume_logs_each_id_once(self, tmp_path):
        txns, server = self._server(users=20, per_user=3)
        ids = [f"w{u}" for u in range(20)]
        cp = tmp_path / "cp.json"
        out = io.StringIO()
        with server as srv:
            for _ in range(10):
                crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                            out=out, max_users=2)
        lines = [json.loads(line) for line in cp.read_text().splitlines()]
        starts = [line["pending"] for line in lines if "user" not in line]
        assert starts == [ids] + [[]] * 9  # each call adds only new ids
        state = load_checkpoint(cp)
        assert (state.pending_user_ids, state.completed_user_ids) == ([], set(ids))
        sink_ids = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns)

    def test_sink_in_queue_order_whatever_the_workers(self):
        # uneven timelines (1 to 33 transactions, 1 to 4 pages) finish out
        # of queue order in a pool
        txns = []
        for u in range(10):
            txns.extend(corpus_for_user(f"v{u}", 1 + (u * 13) % 34,
                                        start_minute=100 * u))
        queue = [f"v{u}" for u in (3, 0, 7, 9, 1, 5, 8, 2, 6, 4)]
        with run_mock_server(group_by_user(txns),
                             MockServerConfig(page_size=10)) as srv:
            sinks = []
            for workers in (1, 4):
                out = io.StringIO()
                crawl_users(srv.url, queue, workers=workers, out=out)
                sinks.append(out.getvalue())
        assert sinks[0] == sinks[1]
        actors = [json.loads(line)["actor"]["id"]
                  for line in sinks[1].splitlines()]
        assert list(dict.fromkeys(actors)) == queue

    def test_log_left_at_rest_when_call_ends(self, tmp_path):
        _, server = self._server(users=3)
        cp = tmp_path / "cp.json"
        lines_seen = []

        class Sink(io.StringIO):
            def flush(self):  # runs before the user's line
                lines_seen.append(len(cp.read_text().splitlines()))
                super().flush()

        with server as srv:
            crawl_users(srv.url, ["w0", "w1", "w2"], workers=1,
                        checkpoint_path=cp, out=Sink())
            assert lines_seen == [1, 2, 3]
            # the end leaves what a kill leaves: the start line and a line
            # per user
            assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]
            assert len(cp.read_text().splitlines()) == 4
            with pytest.raises(UserNotFound):  # the start appends its line
                crawl_users(srv.url, ["ghost"], workers=1, checkpoint_path=cp)
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]
        *_, last = cp.read_text().splitlines()
        assert json.loads(last)["pending"] == ["ghost"]
        state = load_checkpoint(cp)
        assert state.completed_user_ids == {"w0", "w1", "w2"}
        assert state.pending_user_ids == ["ghost"]

    def test_normal_end_reloads_nothing(self, tmp_path, monkeypatch):
        txns, server = self._server(users=3)
        ids = ["w0", "w1", "w2"]
        cp = tmp_path / "cp.json"
        real_load = client_mod.load_checkpoint
        loads = []
        monkeypatch.setattr(client_mod, "load_checkpoint",
                            lambda path: loads.append(path) or real_load(path))
        with server as srv:
            crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                        max_users=2)
            assert loads == []
            state = real_load(cp)
            assert state.completed_user_ids == {"w0", "w1"}
            assert state.pending_user_ids == ["w2"]
            crawl_users(srv.url, ids, workers=2, checkpoint_path=cp)
            assert loads == [cp]  # the resume's start, and no reload at its end
        state = real_load(cp)
        assert state.completed_user_ids == set(ids)
        assert state.pending_user_ids == []
        assert state.seen_transaction_ids == {t.id for t in txns}
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    @pytest.mark.parametrize("exit_by", ["end", "error", "interrupt"])
    def test_one_snapshot_write_per_call(self, tmp_path, monkeypatch, exit_by):
        _, server = self._server(users=3)
        cp = tmp_path / "cp.json"
        calls = []

        def counted(name):
            real = getattr(client_mod, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        class Sink(io.StringIO):
            def flush(self):  # Ctrl-C amid the first user's record
                raise KeyboardInterrupt

        for name in ("save_checkpoint", "load_checkpoint"):
            monkeypatch.setattr(client_mod, name, counted(name))
        raises, queue, out = {
            "end": (contextlib.nullcontext(), ["w1", "w2"], None),
            "error": (pytest.raises(UserNotFound), ["ghost", "w1"], None),
            "interrupt": (pytest.raises(KeyboardInterrupt), ["w1"], Sink()),
        }[exit_by]
        with server as srv:
            crawl_users(srv.url, ["w0"], workers=1, checkpoint_path=cp)
            assert calls == ["save_checkpoint"]  # nothing to load yet
            calls.clear()
            with raises:
                crawl_users(srv.url, queue, workers=2, checkpoint_path=cp,
                            out=out)
        assert calls == ["load_checkpoint", "save_checkpoint"]
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_interrupt_keeps_in_flight_user_pending(self, tmp_path,
                                                    monkeypatch):
        def fetch(endpoint, user_id, client=None, before_id=None):
            if user_id == "slow":  # Ctrl-C while this user is in flight
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(5)
            return []

        monkeypatch.setattr(client_mod, "fetch_user_transactions", fetch)
        cp = tmp_path / "cp.json"
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            start = time.monotonic()
            with pytest.raises(KeyboardInterrupt):
                crawl_users("http://unused", ["quick", "slow"], workers=2,
                            checkpoint_path=cp)
            assert time.monotonic() - start < 2.0
        finally:
            signal.signal(signal.SIGINT, previous)
        state = load_checkpoint(cp)
        assert "slow" in state.pending_user_ids  # "quick" may be either
        assert {*state.pending_user_ids, *state.completed_user_ids} == {"quick",
                                                                        "slow"}

    def test_interrupt_while_writing_sink_loses_nothing(self, tmp_path,
                                                        monkeypatch):
        txns, server = self._server()
        ids = [f"w{u}" for u in range(6)]
        cp, out = tmp_path / "cp.json", io.StringIO()
        real_dump = client_mod.dump_transactions

        def dump_then_interrupt(fresh, fp):  # Ctrl-C amid w2's lines
            if fresh[0].actor_id == "w2":
                real_dump(fresh[:5], fp)
                raise KeyboardInterrupt
            real_dump(fresh, fp)

        with server as srv:
            monkeypatch.setattr(client_mod, "dump_transactions",
                                dump_then_interrupt)
            with pytest.raises(KeyboardInterrupt):
                crawl_users(srv.url, ids, workers=2, checkpoint_path=cp,
                            out=out)
            monkeypatch.setattr(client_mod, "dump_transactions", real_dump)
            assert load_checkpoint(cp).pending_user_ids == ["w2", "w3", "w4",
                                                            "w5"]
            crawl_users(srv.url, ids, workers=2, checkpoint_path=cp, out=out)
        sink_ids = [json.loads(line)["id"] for line in out.getvalue().splitlines()]
        assert sorted(sink_ids) == sorted(t.id for t in txns)

    def test_error_lets_no_request_outlive_the_call(self):
        _, server = self._server(users=3, per_user=300)
        with server as srv:
            with pytest.raises(UserNotFound):
                crawl_users(srv.url, ["ghost", "w0", "w1", "w2"], workers=4)
            served = srv.request_count
            time.sleep(0.3)
            assert srv.request_count == served

    @pytest.mark.parametrize("max_users", [-1, -7])
    def test_negative_max_users_rejected(self, tmp_path, max_users):
        cp = tmp_path / "cp.json"
        save_checkpoint(CrawlState(pending_user_ids=["u1", "u2"]), cp)
        before = cp.read_bytes()
        with pytest.raises(ValueError, match="max_users must be at least 0"):
            crawl_users("http://unused", ["u3"], checkpoint_path=cp,
                        max_users=max_users)
        assert cp.read_bytes() == before

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        cp = tmp_path / "cp.json"
        save_checkpoint(CrawlState(pending_user_ids=["u1"]), cp)
        before = cp.read_bytes()
        with pytest.raises(ValueError, match="workers must be at least 1, "
                           f"got {workers}"):
            crawl_users("http://unused", ["u2"], workers=workers,
                        checkpoint_path=cp)
        assert cp.read_bytes() == before

    @pytest.mark.parametrize("workers, queue, size", [
        (64, ["a", "b", "c"], 3), (2, ["a", "b", "c"], 2), (64, [], 1)])
    def test_pool_no_larger_than_the_batch(self, monkeypatch, workers, queue,
                                           size):
        sizes = []

        class Recording(multiprocessing.pool.ThreadPool):
            def __init__(self, processes=None, *args, **kwargs):
                sizes.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "ThreadPool", Recording)
        monkeypatch.setattr(client_mod, "fetch_user_transactions",
                            lambda endpoint, user_id, client=None: [])
        crawl_users("http://unused", queue, workers=workers)
        assert sizes == [size]

    def test_resume_queues_repeated_new_id_once(self, tmp_path):
        _, server = self._server(users=3)
        with server as srv:
            cp = tmp_path / "cp.json"
            crawl_users(srv.url, ["w0"], workers=1, checkpoint_path=cp)
            crawl_users(srv.url, ["w0", "w1", "w1", "w2"], workers=1,
                        checkpoint_path=cp, max_users=1)
            state = load_checkpoint(cp)
            assert state.completed_user_ids == {"w0", "w1"}
            assert state.pending_user_ids == ["w2"]

    def test_checkpointed_crawl_loads_no_numpy(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as fp:
            dump_transactions(corpus_for_user("w0", 25)
                              + corpus_for_user("w1", 25, start_minute=25), fp)
        # a fresh interpreter, as the CLI's harvest and serve-mock start
        script = f"""
import sys
from paylens.corpus import dump_transactions, group_by_user, load_transactions
from paylens.harvest import MockServerConfig, crawl_users, run_mock_server
with open({str(corpus)!r}, encoding="utf-8") as fp:
    corpus = group_by_user(load_transactions(fp).transactions)
cp = {str(tmp_path / "cp.json")!r}
with run_mock_server(corpus, MockServerConfig(page_size=10)) as srv:
    crawl_users(srv.url, ["w0"], workers=1, checkpoint_path=cp)
    crawl_users(srv.url, ["w0", "w1"], workers=1, checkpoint_path=cp)
print(sorted({{"numpy", "scipy"}} & set(sys.modules)))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_compliant_client_never_limited(self):
        _, server = self._server(users=4)
        with server as srv:
            crawl_users(srv.url, [f"w{u}" for u in range(4)], workers=4,
                        client=ClientConfig(rate=200.0, burst=5))
            assert srv.rate_limited_count == 0

    def test_missing_user_surfaces_error(self):
        _, server = self._server(users=2)
        with server as srv:
            with pytest.raises(UserNotFound):
                crawl_users(srv.url, ["w0", "ghost", "w1"], workers=2)


class TestTokenBucket:
    def test_caps_request_rate(self):
        bucket = TokenBucket(rate=50.0, capacity=5.0)
        start = time.monotonic()
        for _ in range(30):
            bucket.acquire()
        elapsed = time.monotonic() - start
        # 30 acquisitions at 50/s with a 5-token burst need >= 0.5s
        assert elapsed >= (30 - 5) / 50.0 - 0.05

    def test_zero_rate_never_blocks(self):
        bucket = TokenBucket(rate=0.0)
        start = time.monotonic()
        for _ in range(1000):
            bucket.acquire()
        assert time.monotonic() - start < 0.5

    def test_try_acquire_on_empty_bucket_returns_wait(self):
        bucket = TokenBucket(rate=0.5, capacity=1.0)
        assert bucket.try_acquire() == 0.0
        start = time.monotonic()
        wait = bucket.try_acquire()
        assert time.monotonic() - start < 0.5  # reports, never sleeps
        assert 1.5 < wait <= 2.0

    def test_try_acquire_zero_rate_returns_zero(self):
        bucket = TokenBucket(rate=0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(100))

    def test_zero_capacity_floored_to_one_token(self):
        bucket = TokenBucket(rate=0.5, capacity=0)
        assert bucket.capacity == 1.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0

    def test_thread_safe_accounting(self):
        bucket = TokenBucket(rate=200.0, capacity=10.0)
        count = 60
        start = time.monotonic()
        threads = [threading.Thread(target=bucket.acquire) for _ in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.monotonic() - start
        assert elapsed >= (count - 10) / 200.0 - 0.05
