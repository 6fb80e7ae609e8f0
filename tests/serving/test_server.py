"""The serve daemon: differential, hot-swap soak, admission, lifecycle.

The archetype deliverable of the serving daemon is its harness:

* an **in-process client** (:class:`ServeHarness`) that runs the real
  asyncio server on a private event-loop thread and speaks real HTTP
  to it, so every test exercises the production network path;
* a **serve-vs-CLI differential** suite proving each endpoint's answer
  byte-identical to the one-shot ``repro-mine query`` on the same
  snapshot, for every query verb and kernel backend;
* a **concurrent-swap soak**: client threads hammer ``/top_k`` while a
  writer produces new snapshot generations and the server hot-swaps
  them — every response must match the canonical answer of exactly the
  generation it claims, and ``serve.swap.count`` must equal the
  generations produced;
* **admission control**: an exhausted per-request budget answers 503
  with ``Retry-After`` and provably leaves the store untouched; a full
  bounded queue answers 429;
* **persistent connections and the body cache**: many requests share
  one connection byte-identically, every reason to end a connection
  ends it, and a repeated family request is answered from its
  generation's encoded body without running a query.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
import repro.serving.server as server_module
from repro.cli import EXIT_USER_ERROR, main
from repro.kernels import available_backends
from repro.serving import QueryServer, StreamingMiner, load_snapshot
from repro.serving.queries import QUERY_VERBS, query_lines
from repro.serving.streaming import _list_snapshots

TRANSACTIONS = [
    [1, 2, 3],
    [1, 2],
    [2, 3],
    [1, 3],
    [1, 2, 3, 4],
    [2, 4],
    [3, 4],
    [1, 2],
    [4, 5],
    [2, 3, 4],
]

EXTRA_ROUNDS = [
    [[1, 2, 5], [2, 5], [1, 5]],
    [[3, 4, 5], [1, 2, 3], [2, 3, 5]],
    [[1, 4], [2, 4, 5], [1, 2, 3, 4]],
]


def build_store(path, transactions=TRANSACTIONS):
    """Ingest ``transactions`` and close: one snapshot generation on disk."""
    store = StreamingMiner.open(str(path), batch_records=4)
    for row in transactions:
        store.ingest(row)
    store.close()
    return str(path)


def newest_snapshot(store):
    covered, path = _list_snapshots(store)[-1]
    return covered, path


def exchange(sock, request):
    """Send raw request bytes; returns the answer's (status, Connection, body)."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response.status, response.getheader("Connection"), response.read()


def count_run_query(server):
    """Record the verb of every query the server runs on its pool."""
    calls = []
    original = server._run_query

    def counting(hot, verb, *args):
        calls.append(verb)
        return original(hot, verb, *args)

    server._run_query = counting
    return calls


def ingest_round(store, rows):
    """Fold ``rows`` into the store: a newer snapshot generation."""
    writer = StreamingMiner.open(store, batch_records=2)
    for row in rows:
        writer.ingest(row)
    writer.close()
    return newest_snapshot(store)


def store_state(directory):
    """(relative path, size, mtime_ns) of every file, recursively."""
    state = []
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            stat = os.stat(path)
            state.append(
                (os.path.relpath(path, directory), stat.st_size, stat.st_mtime_ns)
            )
    return sorted(state)


class ServeHarness:
    """Run a :class:`QueryServer` on a private event-loop thread.

    The in-process test client of the suite: ``get()`` speaks real
    HTTP/1.1 over a real socket to the real asyncio server, and error
    statuses are returned (not raised) so admission tests can assert on
    them directly.
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def __enter__(self) -> "ServeHarness":
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
        return self

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()

    @property
    def base(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def get(self, path, timeout=30):
        """One GET; returns ``(status, headers, body)`` even on 4xx/5xx."""
        try:
            with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def connect(self, timeout=30):
        """A keep-alive ``http.client`` connection to the server."""
        return http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=timeout
        )

    def get_json(self, path, timeout=30):
        status, headers, body = self.get(path, timeout=timeout)
        return status, headers, json.loads(body)

    def post(self, path, payload, timeout=30):
        """One POST; ``payload`` is JSON-encoded unless already bytes."""
        data = payload if isinstance(payload, bytes) else json.dumps(
            payload
        ).encode("utf-8")
        request = urllib.request.Request(
            self.base + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()


@pytest.fixture
def store(tmp_path):
    return build_store(tmp_path / "store")


@pytest.fixture
def harness(store):
    with ServeHarness(QueryServer(store, poll_interval=30.0)) as handle:
        yield handle


#: verb -> (CLI argv tail after the snapshot path, endpoint URL,
#: expected non-default payload fields).
_DIFFERENTIAL = {
    "closed_sets": (["-s", "2"], "/closed_sets?smin=2", {"smin": 2}),
    "top_k": (
        ["--top", "5", "-s", "2"],
        "/top_k?k=5&smin=2",
        {"smin": 2, "k": 5},
    ),
    "supersets_of": (
        ["--supersets", "2,3"],
        "/supersets_of?items=2,3",
        {"items": "2,3"},
    ),
    "support_of": (
        ["--support", "1,2"],
        "/support_of?items=1,2",
        {"items": "1,2"},
    ),
}


class TestDifferential:
    """Every endpoint byte-equals one-shot ``repro query``, by construction."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("verb", QUERY_VERBS)
    def test_endpoint_byte_equals_cli(self, store, capsys, verb, backend):
        covered, snap_path = newest_snapshot(store)
        cli_tail, url, fields = _DIFFERENTIAL[verb]
        assert main(["query", snap_path, "--backend", backend] + cli_tail) == 0
        cli_out = capsys.readouterr().out
        assert cli_out, "the CLI answer must not be empty"

        with ServeHarness(
            QueryServer(store, backend=backend, poll_interval=30.0)
        ) as handle:
            status, _, body = handle.get(url)
        assert status == 200

        expected = {
            "verb": verb,
            "store": store,
            "generation": covered,
            "snapshot": os.path.basename(snap_path),
            "smin": 1,
            "lines": cli_out.splitlines(),
        }
        expected.update(fields)
        assert body == json.dumps(
            expected, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")

    @pytest.mark.parametrize(
        "verb,get_url,payload",
        [
            ("supersets_of", "/supersets_of?items=2,3", {"items": [2, 3]}),
            ("supersets_of", "/supersets_of?items=2,3", [2, 3]),
            (
                "supersets_of",
                "/supersets_of?items=2,3&smin=2",
                {"items": [2, 3], "smin": 2},
            ),
            ("support_of", "/support_of?items=1,2", {"items": [1, 2]}),
            ("support_of", "/support_of?items=1,2", [1, 2]),
        ],
    )
    def test_post_body_byte_equals_get(self, harness, verb, get_url, payload):
        """A POSTed item list answers byte-identically to the GET form."""
        get_status, _, get_body = harness.get(get_url)
        post_status, _, post_body = harness.post(f"/{verb}", payload)
        assert (get_status, post_status) == (200, 200)
        assert post_body == get_body

    def test_post_rejected_on_non_item_verbs(self, harness):
        for path in ("/closed_sets", "/top_k?k=3", "/metrics", "/healthz"):
            status, _, body = harness.post(path, {"items": [1]})
            assert status == 405, path
            assert b"use GET" in body

    @pytest.mark.parametrize(
        "payload",
        [
            b"not json at all",
            {"no_items": 1},
            [],
            {"items": []},
            {"items": "2,3"},
            {"items": [1.5]},
            {"items": [True]},
            {"items": [1], "smin": "two"},
            {"items": [1], "smin": True},
        ],
    )
    def test_post_bad_bodies_answer_400(self, harness, payload):
        status, _, body = harness.post("/support_of", payload)
        assert status == 400
        assert b"error" in body


class TestHotSwap:
    def test_swap_serves_new_generation(self, tmp_path):
        store = build_store(tmp_path / "store")
        gen1, _ = newest_snapshot(store)
        server = QueryServer(store, poll_interval=30.0)
        with ServeHarness(server) as handle:
            status, _, before = handle.get_json("/top_k?k=3")
            assert status == 200 and before["generation"] == gen1

            writer = StreamingMiner.open(store, batch_records=2)
            for row in EXTRA_ROUNDS[0]:
                writer.ingest(row)
            writer.close()
            gen2, _ = newest_snapshot(store)
            assert gen2 > gen1

            assert server.reload_if_changed() is True
            assert server.reload_if_changed() is False  # idempotent
            status, _, after = handle.get_json("/top_k?k=3")
            assert status == 200 and after["generation"] == gen2
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.swap.count"] == 1
        assert counters["serve.load.count"] == 1

    def test_failed_swap_keeps_old_generation(self, store):
        server = QueryServer(store, poll_interval=30.0)
        gen1, path = newest_snapshot(store)
        with ServeHarness(server) as handle:
            bogus = os.path.join(
                store, f"snapshot-{gen1 + 7:012d}.rsnp"
            )
            with open(bogus, "wb") as fh:
                fh.write(b"not a snapshot at all")
            assert server.reload_if_changed() is False
            status, _, payload = handle.get_json("/closed_sets")
            assert status == 200 and payload["generation"] == gen1
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.swap.failures"] == 1
        assert "serve.swap.count" not in counters

    def test_background_watcher_swaps_without_manual_reload(self, tmp_path):
        store = build_store(tmp_path / "store")
        gen1, _ = newest_snapshot(store)
        server = QueryServer(store, poll_interval=0.05)
        with ServeHarness(server) as handle:
            writer = StreamingMiner.open(store, batch_records=2)
            for row in EXTRA_ROUNDS[1]:
                writer.ingest(row)
            writer.close()
            gen2, _ = newest_snapshot(store)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, payload = handle.get_json("/support_of?items=1")
                assert status == 200
                if payload["generation"] == gen2:
                    break
                time.sleep(0.02)
            else:
                pytest.fail(f"watcher never swapped {gen1} -> {gen2}")


class TestSoak:
    def test_queries_race_swaps_with_zero_torn_reads(self, tmp_path):
        """200+ queries racing >=3 generation swaps; every response must
        match the canonical answer of exactly the generation it claims."""
        store = build_store(tmp_path / "store")
        expected = {}

        def record_expected():
            covered, path = newest_snapshot(store)
            expected[covered] = query_lines(load_snapshot(path), "top_k", k=8)
            return covered

        record_expected()
        server = QueryServer(store, poll_interval=30.0)
        stop = threading.Event()
        mismatches = []
        failures = []
        counts = [0] * 4

        with ServeHarness(server) as handle:
            def client(index):
                while not stop.is_set():
                    try:
                        status, _, payload = handle.get_json("/top_k?k=8")
                    except Exception as exc:  # noqa: BLE001 - collected
                        failures.append(repr(exc))
                        return
                    if status != 200:
                        failures.append((status, payload))
                        return
                    want = expected.get(payload["generation"])
                    if payload["lines"] != want:
                        mismatches.append(payload)
                    counts[index] += 1

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(counts))
            ]
            for thread in threads:
                thread.start()

            swaps = 0
            for rows in EXTRA_ROUNDS:
                writer = StreamingMiner.open(store, batch_records=2)
                for row in rows:
                    writer.ingest(row)
                writer.close()
                # Record the canonical answer BEFORE the flip so a
                # response can never cite a generation we cannot check.
                record_expected()
                assert server.reload_if_changed() is True
                swaps += 1
                time.sleep(0.05)

            deadline = time.monotonic() + 30
            while sum(counts) < 250 and time.monotonic() < deadline:
                time.sleep(0.02)
            stop.set()
            for thread in threads:
                thread.join(10)

        assert not failures, failures[:3]
        assert not mismatches, mismatches[:3]
        assert sum(counts) >= 200, f"only {sum(counts)} queries completed"
        assert swaps >= 3
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.swap.count"] == swaps
        assert len(expected) == swaps + 1


class TestAdmission:
    def test_budget_trip_answers_503_and_leaves_store_untouched(self, store):
        before = store_state(store)
        server = QueryServer(store, request_timeout=0.0, poll_interval=30.0)
        with ServeHarness(server) as handle:
            status, headers, payload = handle.get_json("/closed_sets?smin=2")
            assert status == 503
            assert "Retry-After" in headers
            assert "budget" in payload["error"]
        assert store_state(store) == before
        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.admission.tripped"] == 1
        assert counters["serve.http.status.503"] == 1

    def test_full_queue_answers_429_with_retry_after(self, store):
        server = QueryServer(
            store, max_inflight=1, max_queue=0, retry_after=2.5,
            poll_interval=30.0,
        )
        release = threading.Event()
        entered = threading.Event()
        original = server._run_query

        def slow_query(*args, **kwargs):
            entered.set()
            release.wait(30)
            return original(*args, **kwargs)

        server._run_query = slow_query
        first = []
        with ServeHarness(server) as handle:
            blocker = threading.Thread(
                target=lambda: first.append(handle.get_json("/top_k?k=2"))
            )
            blocker.start()
            assert entered.wait(10)
            status, headers, payload = handle.get_json("/top_k?k=2")
            assert status == 429
            assert headers["Retry-After"] == "2"  # round(2.5) banker's
            assert "saturated" in payload["error"]
            release.set()
            blocker.join(30)
        assert first and first[0][0] == 200
        assert server._admission.snapshot()["rejected"] == 1

    def test_generous_budget_serves_normally(self, store):
        server = QueryServer(store, request_timeout=60.0, poll_interval=30.0)
        with ServeHarness(server) as handle:
            status, _, payload = handle.get_json("/closed_sets")
            assert status == 200 and payload["lines"]


class TestKeepAlive:
    def test_one_connection_answers_like_closed_connections(self, harness):
        paths = [url for _, url, _ in _DIFFERENTIAL.values()] * 3
        conn = harness.connect()
        try:
            conn.connect()
            sock = conn.sock
            kept = []
            for path in paths:
                conn.request("GET", path)
                response = conn.getresponse()
                assert response.status == 200
                kept.append(response.read())
                assert conn.sock is sock, "the daemon ended the connection"
        finally:
            conn.close()
        for path, body in zip(paths, kept):
            status, headers, closed = harness.get(path)
            assert status == 200 and headers["Connection"] == "close"
            assert body == closed, path

    @pytest.mark.parametrize(
        "request_bytes,status",
        [
            (b"GET /top_k?k=2 HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
            (b"GET /top_k?k=2 HTTP/1.0\r\n\r\n", 200),
            (
                b"POST /support_of HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % ((1 << 20) + 1),
                400,
            ),
            (b"POST /support_of HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400),
            (
                b"GET /top_k?k=2 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                200,
            ),
        ],
        ids=["close", "http-1.0", "oversized-body", "bad-length", "chunked"],
    )
    def test_connection_ends_after_the_response(
        self, harness, request_bytes, status
    ):
        with socket.create_connection(
            ("127.0.0.1", harness.server.port), timeout=10
        ) as sock:
            assert exchange(sock, request_bytes)[:2] == (status, "close")
            assert sock.recv(1) == b""  # the daemon closed its end

    def test_http10_keep_alive_keeps_the_connection(self, harness):
        request = (
            b"GET /support_of?items=1 HTTP/1.0\r\n"
            b"Connection: keep-alive\r\n\r\n"
        )
        with socket.create_connection(
            ("127.0.0.1", harness.server.port), timeout=10
        ) as sock:
            answers = [exchange(sock, request) for _ in range(3)]
        assert [answer[:2] for answer in answers] == [(200, "keep-alive")] * 3

    def test_idle_connection_ends_at_the_read_timeout(self, harness, monkeypatch):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT", 1.0)
        with socket.create_connection(
            ("127.0.0.1", harness.server.port), timeout=10
        ) as sock:
            request = b"GET /support_of?items=1 HTTP/1.1\r\n\r\n"
            assert exchange(sock, request)[:2] == (200, "keep-alive")
            began = time.monotonic()
            assert sock.recv(1) == b""
        assert time.monotonic() - began < 5

    def test_head_ends_the_connection(self, harness):
        # A HEAD client reads no body, so the 405's body must not be left
        # on a kept connection to pass for the next response.
        conn = harness.connect()
        try:
            conn.request("HEAD", "/top_k?k=2")
            response = conn.getresponse()
            assert response.status == 405
            assert response.getheader("Connection") == "close"
            assert response.read() == b""
            conn.request("GET", "/top_k?k=2")
            response = conn.getresponse()
            assert response.status == 200
            body = response.read()
        finally:
            conn.close()
        assert body == harness.get("/top_k?k=2")[2]

    def test_request_stalled_in_its_headers_is_dropped(
        self, harness, monkeypatch
    ):
        monkeypatch.setattr(server_module, "_READ_TIMEOUT", 1.0)
        calls = count_run_query(harness.server)
        with socket.create_connection(
            ("127.0.0.1", harness.server.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /top_k?k=2 HTTP/1.1\r\nHost: x\r\n")
            assert sock.recv(1) == b""  # closed at the deadline, unanswered
        counters = harness.server.metrics.snapshot()["counters"]
        assert calls == []
        assert counters.get("serve.http.requests", 0) == 0

    def test_kept_connection_sees_a_hot_swap(self, tmp_path):
        store = build_store(tmp_path / "store")
        server = QueryServer(store, poll_interval=30.0)
        with ServeHarness(server) as handle:
            conn = handle.connect()
            try:
                conn.connect()
                sock = conn.sock
                conn.request("GET", "/top_k?k=3")
                before = json.loads(conn.getresponse().read())
                gen2, path = ingest_round(store, EXTRA_ROUNDS[0])
                assert server.reload_if_changed() is True
                conn.request("GET", "/top_k?k=3")
                after = json.loads(conn.getresponse().read())
                assert conn.sock is sock
            finally:
                conn.close()
        assert before["generation"] < gen2 == after["generation"]
        assert after["lines"] == query_lines(load_snapshot(path), "top_k", k=3)


class TestBodyCache:
    @pytest.mark.parametrize(
        "verb,path",
        [("closed_sets", "/closed_sets?smin=2"), ("top_k", "/top_k?k=3")],
    )
    def test_repeat_is_answered_without_running_the_query(
        self, store, verb, path
    ):
        server = QueryServer(store, poll_interval=30.0)
        calls = count_run_query(server)
        with ServeHarness(server) as handle:
            status, _, first = handle.get(path)
            hits = server.metrics.snapshot()["counters"].get(
                "serving.memo.hits", 0
            )
            repeats = [handle.get(path) for _ in range(3)]
            counters = server.metrics.snapshot()["counters"]
        assert status == 200 and calls == [verb]
        assert [(code, body) for code, _, body in repeats] == [(200, first)] * 3
        assert counters["serving.memo.hits"] == hits + 3

    def test_distinct_parameters_are_cached_apart(self, harness):
        calls = count_run_query(harness.server)
        paths = [
            "/closed_sets?smin=1",
            "/closed_sets?smin=2",
            "/top_k?k=2",
            "/top_k?k=2&smin=2",
            "/top_k?k=3&smin=2",
        ]
        first = [harness.get(path)[2] for path in paths]
        second = [harness.get(path)[2] for path in paths]
        assert second == first
        assert len(set(first)) == len(paths)
        assert len(calls) == len(paths)
        assert len(harness.server._hot.bodies) == len(paths)

    @pytest.mark.parametrize(
        "path",
        [
            "/closed_sets?smin=2&k=4",
            "/closed_sets?smin=2&items=x",
            "/top_k?k=2&items=1",
        ],
    )
    def test_stray_parameters_run_the_query_each_time(self, harness, path):
        # The body echoes a parameter its verb ignores, so keeping it
        # would hold one more copy of the answer per distinct value.
        harness.get("/closed_sets?smin=2")
        kept = dict(harness.server._hot.bodies)
        calls = count_run_query(harness.server)
        answers = [harness.get(path) for _ in range(3)]
        assert [status for status, _, _ in answers] == [200] * 3
        assert len({body for _, _, body in answers}) == 1
        assert len(calls) == 3
        assert harness.server._hot.bodies == kept

    def test_cache_drops_the_oldest_past_its_bound(self, harness, monkeypatch):
        monkeypatch.setattr(server_module, "_MAX_BODIES", 2)
        calls = count_run_query(harness.server)
        for k in (1, 2, 3, 3, 2):
            assert harness.get(f"/top_k?k={k}")[0] == 200
        assert len(calls) == 3
        assert list(harness.server._hot.bodies) == [
            ("top_k", 1, 2), ("top_k", 1, 3)
        ]

    def test_swap_empties_the_cache(self, tmp_path):
        store = build_store(tmp_path / "store")
        server = QueryServer(store, poll_interval=30.0)
        calls = count_run_query(server)
        with ServeHarness(server) as handle:
            handle.get("/closed_sets?smin=2")
            handle.get("/closed_sets?smin=2")
            assert len(calls) == 1
            gen2, path = ingest_round(store, EXTRA_ROUNDS[1])
            assert server.reload_if_changed() is True
            status, _, after = handle.get_json("/closed_sets?smin=2")
        assert status == 200 and len(calls) == 2
        assert after["generation"] == gen2
        assert after["lines"] == query_lines(
            load_snapshot(path), "closed_sets", smin=2
        )

    def test_hit_while_saturated_answers_429(self, store):
        server = QueryServer(
            store, max_inflight=1, max_queue=0, poll_interval=30.0
        )
        release = threading.Event()
        entered = threading.Event()
        original = server._run_query

        def blocking(hot, verb, *args):
            if verb == "support_of":
                entered.set()
                release.wait(30)
            return original(hot, verb, *args)

        server._run_query = blocking
        blocked = []
        with ServeHarness(server) as handle:
            assert handle.get("/top_k?k=2")[0] == 200  # now cached
            blocker = threading.Thread(
                target=lambda: blocked.append(handle.get("/support_of?items=1"))
            )
            blocker.start()
            assert entered.wait(10)
            status, headers, _ = handle.get("/top_k?k=2")
            release.set()
            blocker.join(30)
        assert not blocker.is_alive()
        assert status == 429 and "Retry-After" in headers
        assert blocked and blocked[0][0] == 200


class TestOperationalEndpoints:
    def test_metrics_exposes_per_endpoint_latency(self, harness):
        for path in ("/top_k?k=2", "/support_of?items=1", "/closed_sets"):
            assert harness.get(path)[0] == 200
        status, headers, body = harness.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        for name in (
            "repro_serve_http_top_k_seconds_count",
            "repro_serve_http_support_of_seconds_count",
            "repro_serve_http_closed_sets_seconds_count",
            "repro_serve_http_requests_total",
            "repro_serve_load_count_total",
        ):
            assert name in text, name

    def test_request_phases_and_connections(self, store):
        server = QueryServer(store, poll_interval=30.0)
        with ServeHarness(server) as handle:
            conn = handle.connect()
            try:
                for _ in range(2):  # a miss, then a hit
                    conn.request("GET", "/closed_sets?smin=2")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                conn.close()
        # stop() waited for the connection, so every phase is recorded.
        snapshot = server.metrics.snapshot()
        assert snapshot["counters"]["serve.http.connections"] == 1
        counts = {
            phase: snapshot["histograms"][f"serve.phase.{phase}.seconds"]["count"]
            for phase in ("read", "admit", "engine", "encode", "write")
        }
        assert counts == {
            "read": 2, "admit": 2, "engine": 1, "encode": 1, "write": 2
        }

    def test_healthz_reports_store_and_server_state(self, store, harness):
        status, _, payload = harness.get_json("/healthz")
        assert status == 200
        assert payload["healthy"] is True
        assert payload["directory"] == store
        covered, path = newest_snapshot(store)
        assert payload["server"]["generation"] == covered
        assert payload["server"]["snapshot"] == os.path.basename(path)
        admission = payload["server"]["admission"]
        assert admission["inflight"] == 0 and admission["rejected"] == 0

    def test_healthz_is_read_only(self, store, harness):
        before = store_state(store)
        assert harness.get("/healthz")[0] == 200
        assert store_state(store) == before

    def test_unknown_endpoint_404_and_bad_params_400(self, harness):
        assert harness.get("/nope")[0] == 404
        assert harness.get("/top_k")[0] == 400
        assert harness.get("/top_k?k=many")[0] == 400
        assert harness.get("/supersets_of")[0] == 400
        status, _, payload = harness.get_json("/top_k?k=-1")
        assert status == 400
        assert "k must be non-negative" in payload["error"]


class TestCliLifecycle:
    def test_store_without_snapshot_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["serve", str(empty)]) == EXIT_USER_ERROR
        assert "no snapshot generation" in capsys.readouterr().err

    def test_bad_workers_exits_2(self, store, capsys):
        assert main(["serve", store, "--workers", "0"]) == EXIT_USER_ERROR

    @staticmethod
    def spawn(store):
        """A ``repro-mine serve`` subprocess and its port."""
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", store, "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = proc.stderr.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if not match:
            TestCliLifecycle.reap(proc)
            pytest.fail(f"no address line, got {line!r}")
        return proc, int(match.group(1))

    @staticmethod
    def reap(proc):
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stderr.close()

    def test_sigterm_shuts_down_cleanly(self, store):
        proc, port = self.spawn(store)
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            self.reap(proc)

    def test_sigterm_with_an_idle_kept_connection(self, store):
        proc, port = self.spawn(store)
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/top_k?k=2")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            proc.send_signal(signal.SIGTERM)
            # Well inside the 10 s idle timeout: stop() closes the
            # idle connection itself.
            assert proc.wait(timeout=5) == 0
        finally:
            conn.close()
            self.reap(proc)
