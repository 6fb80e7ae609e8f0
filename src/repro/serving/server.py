"""The long-lived query daemon: ``repro-mine serve STORE``.

The paper's premise is *mine once, serve many*: the closed family is
computed by intersecting transactions, then queried repeatedly.  The
one-shot ``repro-mine query`` command pays a snapshot load per
invocation and throws the memo away; :class:`QueryServer` keeps a hot
:class:`~repro.core.incremental.IncrementalMiner` resident instead and
answers the same four verbs over HTTP/JSON, so repeat queries hit the
generation-memoised warm path the serving benchmarks measure.

Design points:

* **Pure reader.**  The server only ever reads snapshot generations
  (``snapshot-*.rsnp``); it never touches the writer's WAL or flight
  recorder, so it can attach to a live :class:`StreamingMiner` store —
  the same attached-reader rule ``repro-mine top`` follows.
* **Hot snapshot swap.**  A watcher polls the store directory; when a
  newer generation appears it is loaded *off* the request path and the
  resident miner is replaced by flipping one reference
  (:meth:`QueryServer.reload_if_changed`).  In-flight requests keep the
  generation they grabbed at entry, so every answer is internally
  consistent with exactly one snapshot — there is no torn state to
  observe.  A failed load keeps the old generation serving and counts
  ``serve.swap.failures``.
* **Admission control.**  A bounded queue
  (:class:`~repro.runtime.AdmissionController`) rejects beyond
  ``max_inflight + max_queue`` with **429** and a ``Retry-After`` hint;
  each admitted query runs under a fresh per-request
  :class:`~repro.runtime.RunGuard` wall-clock/memory budget
  (:func:`~repro.runtime.request_guard`) and a budget trip answers
  **503** — the guard's first check fires before the query body, so an
  exhausted budget leaves the store untouched.
* **Observability built in.**  Every endpoint lands a
  ``serve.http.<endpoint>.seconds`` latency histogram in the probe's
  registry (the same quantile machinery as the WAL and kernel
  metrics); ``/metrics`` is the registry's Prometheus text exposition
  and ``/healthz`` the read-only
  :func:`~repro.serving.health.compute_health` report as JSON.

* **Answers at the engine floor.**  Connections persist (HTTP/1.1
  keep-alive) until the client asks to close, speaks HTTP/1.0 without
  ``keep-alive``, sends a body the daemon does not consume, idles past
  the read timeout, or the daemon stops.  The encoded body of a
  ``closed_sets``/``top_k`` answer is kept on its generation, and a
  repeat is answered on the event loop itself: admission still counts
  it, but no pool hop, no query and no ``json.dumps`` run.

The HTTP layer is deliberately minimal — stdlib ``asyncio`` streams,
one request at a time per connection — because the protocol surface
is four read-only verbs plus two operational endpoints; see
``docs/serving.md`` for the endpoint catalogue and curl examples.
Everything answers ``GET``; the two item-taking verbs
(``/supersets_of``, ``/support_of``) additionally accept ``POST`` with
a JSON body — an item list, or ``{"items": [...], "smin": N}`` — for
clients whose item lists outgrow a query string.  A POST answers
**byte-identically** to the equivalent GET: the body's item list is
canonicalised to the same comma-separated spec the query parameter
carries and routed through the identical code path (the differential
suite pins that too).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import LATENCY_BUCKETS, Probe
from ..runtime import AdmissionController, MiningInterrupted, Saturated, request_guard
from .health import compute_health
from .queries import QUERY_VERBS, parse_items, query_lines
from .snapshot import SnapshotError, load_snapshot

__all__ = ["QueryServer"]

#: HTTP reason phrases for the statuses the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Compact, key-sorted JSON: responses are byte-deterministic.
_JSON_KWARGS = dict(sort_keys=True, separators=(",", ":"))

#: Largest accepted POST body.  The verbs take item lists, not data
#: uploads — a megabyte of items is already far past any real query.
_MAX_BODY_BYTES = 1 << 20

#: The verbs that accept a POSTed JSON item list.
_POST_VERBS = ("supersets_of", "support_of")

#: Encoded family answers (``closed_sets``, ``top_k``) kept per
#: generation: large answers that a repeat would otherwise encode again.
#: Point answers are small, and their keys would be client-chosen item
#: lists.  Past this many the oldest is dropped, so a client cycling
#: ``k`` or ``smin`` holds at most this many bodies until the next swap.
_MAX_BODIES = 32

#: Seconds a client has to send a whole request, counted from when the
#: daemon starts waiting for it — so it also ends a kept connection
#: that idles between requests.
_READ_TIMEOUT = 10.0


class _HttpError(Exception):
    """Internal routing shortcut carrying a ready HTTP error."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class _Hot:
    """One resident snapshot generation: miner + its identity + lock.

    The lock serialises query execution against this miner — its memo
    dictionary and resident packed table are not thread-safe — and is
    *per generation*, so a swap never waits on it: requests that
    grabbed the old generation finish on the old lock while new
    requests queue on the new one.

    ``bodies`` maps a family answer's ``(verb, smin, k)`` to its
    encoded 200 body, oldest first.  Only the event loop thread reads
    or writes it, so it needs no lock, and a swap brings a fresh, empty
    one.
    """

    __slots__ = ("miner", "covered", "path", "lock", "bodies")

    def __init__(self, miner, covered: int, path: str) -> None:
        self.miner = miner
        self.covered = covered
        self.path = path
        self.lock = threading.Lock()
        self.bodies: Dict[tuple, bytes] = {}


class QueryServer:
    """Resident HTTP/JSON query daemon over a snapshot store directory.

    Parameters
    ----------
    store:
        A store directory holding at least one ``snapshot-*.rsnp``
        generation (as written by ``repro-mine ingest`` / ``snapshot``).
        Raises :class:`ValueError` at :meth:`start` when none exists —
        the daemon is a reader, it cannot invent a repository.
    host, port:
        Listen address; port 0 asks the kernel for an ephemeral port
        (``self.port`` holds the real one after :meth:`start`).
    workers:
        Query executor threads.  Snapshot loads run on a dedicated
        extra thread, so ingest-driven swaps never queue behind slow
        queries (and vice versa).
    max_inflight, max_queue:
        Admission bounds: at most ``max_inflight`` queries execute
        while ``max_queue`` more wait; beyond that, 429.
    request_timeout, request_memory_limit_mb:
        Per-request budgets enforced by a fresh RunGuard around every
        query; a trip answers 503.  ``None`` disables the budget.
    poll_interval:
        Store watch period in seconds for the background swap task.
    backend:
        Kernel backend for the resident miners (``None`` = default).
    probe:
        A live :class:`repro.obs.Probe` to record into; one is created
        when omitted (``/metrics`` needs a registry to expose).
    """

    def __init__(
        self,
        store,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_inflight: int = 8,
        max_queue: int = 16,
        request_timeout: Optional[float] = None,
        request_memory_limit_mb: Optional[float] = None,
        retry_after: float = 1.0,
        poll_interval: float = 1.0,
        backend=None,
        probe: Optional[Probe] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {poll_interval}"
            )
        self.store = os.fspath(store)
        self.host = host
        self.port = port
        self.workers = workers
        self.request_timeout = request_timeout
        self.request_memory_limit_mb = request_memory_limit_mb
        self.poll_interval = poll_interval
        self._backend = backend
        self._obs = probe if probe is not None else Probe()
        self._admission = AdmissionController(
            max_inflight=max_inflight,
            max_queue=max_queue,
            retry_after=retry_after,
        )
        self._hot: Optional[_Hot] = None
        self._swap_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve-query"
        )
        # Dedicated lane for swap loads and health scans: a saturated
        # query pool must never delay a generation flip.
        self._aux = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-swap"
        )
        self._slots = asyncio.Semaphore(max_inflight)
        self._server: Optional[asyncio.base_events.Server] = None
        self._watch_task: Optional[asyncio.Task] = None
        # Connection handlers, and the writers of those waiting for
        # their next request: stop() closes the idle ones and waits
        # for the rest to finish their response.
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.StreamWriter] = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Hot generation management
    # ------------------------------------------------------------------

    @property
    def metrics(self):
        """The probe's metrics registry (what ``/metrics`` exposes)."""
        return self._obs.metrics

    @property
    def generation(self) -> Optional[int]:
        """Covered-transaction count of the resident generation."""
        hot = self._hot
        return hot.covered if hot is not None else None

    def _list_generations(self) -> List[Tuple[int, str]]:
        from .streaming import _list_snapshots

        return _list_snapshots(self.store)

    def _load_generation(self, covered: int, path: str) -> _Hot:
        with self._obs.phase("serve.swap.load", covered=covered):
            miner = load_snapshot(path, backend=self._backend, probe=self._obs)
        return _Hot(miner, covered, path)

    def load_initial(self) -> None:
        """Load the newest generation or fail; called by :meth:`start`."""
        snapshots = self._list_generations()
        if not snapshots:
            raise ValueError(
                f"no snapshot generation found in {self.store!r}; "
                "run 'repro-mine ingest' or 'repro-mine snapshot' first"
            )
        covered, path = snapshots[-1]
        self._hot = self._load_generation(covered, path)
        self._obs.count("serve.load.count")

    def reload_if_changed(self) -> bool:
        """Swap in a newer snapshot generation if one appeared.

        Synchronous and thread-safe (the background watcher, a test
        driver and an operator signal can all call it); returns whether
        a swap happened.  The load runs entirely outside the request
        path — requests keep answering from the old generation until
        the single reference flip — and a failed load keeps the old
        generation serving.
        """
        with self._swap_lock:
            hot = self._hot
            snapshots = self._list_generations()
            if not snapshots:
                return False
            covered, path = snapshots[-1]
            if hot is not None and covered <= hot.covered:
                return False
            try:
                fresh = self._load_generation(covered, path)
            except (SnapshotError, OSError):
                # Best effort: the writer may be mid-rename, or the
                # newest generation may be damaged.  Keep serving the
                # resident one; the next poll retries.
                self._obs.count("serve.swap.failures")
                return False
            self._hot = fresh
            self._obs.count("serve.swap.count")
            self._obs.event(
                "snapshot-swapped", covered=covered, path=os.path.basename(path)
            )
            return True

    async def _watch_store(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval)
            try:
                await loop.run_in_executor(self._aux, self.reload_if_changed)
            except Exception:
                # The watcher must survive transient filesystem trouble.
                self._obs.count("serve.swap.failures")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Load the newest generation and start listening + watching."""
        loop = asyncio.get_running_loop()
        if self._hot is None:
            await loop.run_in_executor(self._aux, self.load_initial)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watch_task = loop.create_task(self._watch_store())

    async def stop(self) -> None:
        """Stop listening, cancel the watcher, end every connection,
        drain the executors.

        An idle kept connection is closed at once; one in the middle of
        a request first gets its response, sent ``Connection: close``.
        (``Server.wait_closed`` waits for every open connection on
        Python 3.12+, so idle ones must be closed here.)
        """
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        self._stopping = True
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections))
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=True)
        self._aux.shutdown(wait=True)

    def run(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> int:
        """Serve until SIGTERM/SIGINT; returns 0 on clean shutdown.

        ``ready`` is called with the bound ``(host, port)`` once the
        listener is up (the CLI prints the address to stderr).
        """
        return asyncio.run(self._run(ready))

    async def _run(self, ready: Optional[Callable[[str, int], None]]) -> int:
        await self.start()
        if ready is not None:
            ready(self.host, self.port)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stopping.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):  # pragma: no cover
            pass
        await self.stop()
        return 0

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._obs.count("serve.http.connections")
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._stopping:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, target, request_body, content_length, keep_alive = request
                status, ctype, body, extra = await self._respond(
                    method, target, request_body, content_length
                )
                keep_alive = keep_alive and not self._stopping
                began = time.perf_counter()
                head = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                    f"Content-Type: {ctype}",
                    f"Content-Length: {len(body)}",
                    "Connection: keep-alive" if keep_alive else "Connection: close",
                ]
                head.extend(extra)
                writer.write(
                    ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
                )
                await writer.drain()
                self._phase("serve.phase.write.seconds", began)
                if not keep_alive:
                    break
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes, int, bool]]:
        """Read one request: ``(method, target, body, content_length,
        keep_alive)``, or ``None`` when the connection should end.

        The request must arrive whole within ``_READ_TIMEOUT``; on
        expiry the transport is closed, which ends the pending read, and
        a request cut off that way is dropped unanswered.  ``keep_alive``
        is false when the client asked to close, left a body unread (its
        bytes would otherwise parse as the next request), or used a
        method other than GET and POST.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.call_later(_READ_TIMEOUT, writer.close)
        self._idle.add(writer)
        try:
            request_line = await reader.readline()
            self._idle.discard(writer)
            began = time.perf_counter()
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                return None
            method, target = parts[0], parts[1]
            keep_alive = len(parts) > 2 and parts[2] == "HTTP/1.1"
            # Drain the headers, keeping those that decide the body (POST
            # verbs carry a JSON one) and whether the connection stays.
            content_length = 0
            while True:
                line = await reader.readline()
                if not line:
                    # The stream ended before the headers did: the client
                    # left, or the deadline closed the transport.  Drop
                    # the request rather than run it.
                    return None
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1", "replace").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        content_length = -1
                elif name == "connection":
                    tokens = {token.strip() for token in value.lower().split(",")}
                    if "close" in tokens:
                        keep_alive = False
                    elif "keep-alive" in tokens:
                        keep_alive = True
                elif name == "transfer-encoding":
                    keep_alive = False
            request_body = b""
            if 0 < content_length <= _MAX_BODY_BYTES:
                request_body = await reader.readexactly(content_length)
            elif content_length:
                keep_alive = False
            if method not in ("GET", "POST"):
                # It answers 405 with a body, which a HEAD client never
                # reads: those bytes must not pass for the next response.
                keep_alive = False
        except (asyncio.IncompleteReadError, ValueError):
            # The stream ended mid-request (the client left, or the
            # deadline closed it), or a line overran the stream limit.
            return None
        finally:
            deadline.cancel()
            self._idle.discard(writer)
        self._phase("serve.phase.read.seconds", began)
        return method, target, request_body, content_length, keep_alive

    def _phase(self, name: str, began: float) -> float:
        """Observe the time since ``began`` in histogram ``name``; returns now."""
        now = time.perf_counter()
        self._obs.observe(name, now - began, buckets=LATENCY_BUCKETS)
        return now

    async def _respond(
        self, method: str, target: str, request_body: bytes = b"",
        content_length: int = 0,
    ) -> Tuple[int, str, bytes, List[str]]:
        """Route one request; returns (status, content-type, body, headers)."""
        split = urlsplit(target)
        endpoint = split.path.strip("/")
        started = time.perf_counter()
        try:
            if method == "POST" and endpoint in _POST_VERBS:
                if content_length > _MAX_BODY_BYTES:
                    raise _HttpError(
                        400,
                        f"POST body of {content_length} bytes exceeds the "
                        f"{_MAX_BODY_BYTES}-byte limit",
                    )
                if content_length < 0:
                    raise _HttpError(400, "malformed Content-Length header")
                params = parse_qs(split.query, keep_blank_values=True)
                items, smin = self._parse_post_body(request_body)
                # Canonicalise to the exact spec string a GET would
                # carry in ?items= — from here on the two methods run
                # the same code and emit the same bytes.
                params["items"] = [",".join(str(item) for item in items)]
                if smin is not None:
                    params["smin"] = [str(smin)]
                result = await self._query(endpoint, params)
            elif method != "GET":
                allowed = (
                    "GET or POST" if endpoint in _POST_VERBS else "GET"
                )
                raise _HttpError(
                    405, f"method {method} not allowed; use {allowed}"
                )
            elif endpoint == "metrics":
                body = self.metrics.to_prom().encode("utf-8")
                result = (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    body,
                    [],
                )
            elif endpoint == "healthz":
                result = (200, "application/json", await self._healthz(), [])
            elif endpoint in QUERY_VERBS:
                params = parse_qs(split.query, keep_blank_values=True)
                result = await self._query(endpoint, params)
            else:
                raise _HttpError(
                    404,
                    f"unknown endpoint {split.path!r}; expected one of "
                    + ", ".join(f"/{verb}" for verb in QUERY_VERBS)
                    + ", /metrics, /healthz",
                )
        except _HttpError as exc:
            result = self._error_response(exc)
        except Exception as exc:  # pragma: no cover - defensive
            result = self._error_response(
                _HttpError(500, f"{type(exc).__name__}: {exc}")
            )
        status = result[0]
        self._obs.count("serve.http.requests")
        self._obs.count(f"serve.http.status.{status}")
        if endpoint in QUERY_VERBS or endpoint in ("metrics", "healthz"):
            self._obs.observe(
                f"serve.http.{endpoint}.seconds",
                time.perf_counter() - started,
                buckets=LATENCY_BUCKETS,
            )
        return result

    def _error_response(
        self, exc: _HttpError
    ) -> Tuple[int, str, bytes, List[str]]:
        body = json.dumps(
            {"error": exc.message, "status": exc.status}, **_JSON_KWARGS
        ).encode("utf-8")
        extra = []
        if exc.retry_after is not None:
            extra.append(f"Retry-After: {max(1, round(exc.retry_after))}")
        return exc.status, "application/json", body, extra

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _healthz(self) -> bytes:
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._aux, compute_health, self.store
        )
        hot = self._hot
        payload = dataclasses.asdict(report)
        payload["server"] = {
            "generation": hot.covered if hot is not None else None,
            "snapshot": (
                os.path.basename(hot.path) if hot is not None else None
            ),
            "admission": self._admission.snapshot(),
        }
        return json.dumps(payload, **_JSON_KWARGS).encode("utf-8")

    @staticmethod
    def _parse_post_body(body: bytes) -> Tuple[List[object], Optional[int]]:
        """Decode a POSTed item list: ``[...]`` or ``{"items": [...]}``.

        Returns ``(items, smin)`` with ``smin`` ``None`` when the body
        does not carry one.  Items must be JSON strings or integers —
        the same universe a ``?items=`` query parameter can express.
        """
        shape = (
            "POST body must be JSON: an item list, or an object "
            "{\"items\": [...], \"smin\": N}"
        )
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, shape) from None
        smin: Optional[int] = None
        if isinstance(payload, dict):
            if "items" not in payload:
                raise _HttpError(400, shape + " — 'items' is missing")
            items = payload["items"]
            smin = payload.get("smin")
            if smin is not None and (
                isinstance(smin, bool) or not isinstance(smin, int)
            ):
                raise _HttpError(
                    400, f"POST 'smin' must be an integer, got {smin!r}"
                )
        else:
            items = payload
        if not isinstance(items, list) or not items:
            raise _HttpError(400, shape + " — need a non-empty item list")
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (str, int)):
                raise _HttpError(
                    400,
                    f"POST items must be strings or integers, got {item!r}",
                )
        return items, smin

    @staticmethod
    def _int_param(
        params: Dict[str, List[str]], name: str, default: Optional[int]
    ) -> Optional[int]:
        values = params.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise _HttpError(
                400, f"query parameter {name!r} must be an integer, "
                f"got {values[-1]!r}"
            ) from None

    async def _query(
        self, verb: str, params: Dict[str, List[str]]
    ) -> Tuple[int, str, bytes, List[str]]:
        smin = self._int_param(params, "smin", 1)
        k = self._int_param(params, "k", None)
        items_spec = params.get("items", [None])[-1]
        if verb == "top_k" and k is None:
            raise _HttpError(400, "top_k needs a 'k' query parameter")
        if verb in ("supersets_of", "support_of") and items_spec is None:
            raise _HttpError(
                400, f"{verb} needs an 'items' query parameter"
            )
        # A family answer is kept only when the request carries no
        # parameter its verb ignores: a stray k or items is echoed into
        # the body, so each would keep another copy of the same answer.
        key = None
        if items_spec is None and (
            verb == "top_k" or (verb == "closed_sets" and k is None)
        ):
            key = (verb, smin, k)
        # One reference grab: an inline answer comes from exactly this
        # generation, swap or no swap.
        hot = self._hot
        body = hot.bodies.get(key) if key is not None else None
        began = time.perf_counter()
        try:
            self._admission.admit()
        except Saturated as exc:
            raise _HttpError(429, str(exc), retry_after=exc.retry_after)
        if body is not None:
            # The answer is already encoded: serve it from the event
            # loop, with no pool hop, no query and no encoding.
            self._admission.start()
            self._admission.release()
            self._phase("serve.phase.admit.seconds", began)
            self._obs.count("serving.memo.hits")
            return 200, "application/json", body, []
        loop = asyncio.get_running_loop()
        try:
            async with self._slots:
                self._admission.start()
                began = self._phase("serve.phase.admit.seconds", began)
                # Grab again: a swap may have landed while this request
                # waited for its slot.  It answers from this generation.
                hot = self._hot
                try:
                    lines = await loop.run_in_executor(
                        self._pool,
                        self._run_query,
                        hot,
                        verb,
                        smin,
                        k,
                        items_spec,
                    )
                except MiningInterrupted as exc:
                    self._obs.count("serve.admission.tripped")
                    raise _HttpError(
                        503,
                        f"request budget exceeded: {exc}",
                        retry_after=self._admission.retry_after,
                    ) from None
                except ValueError as exc:
                    raise _HttpError(400, str(exc)) from None
                began = self._phase("serve.phase.engine.seconds", began)
        finally:
            self._admission.release()
        payload = {
            "verb": verb,
            "store": self.store,
            "generation": hot.covered,
            "snapshot": os.path.basename(hot.path),
            "smin": smin,
            "lines": lines,
        }
        if k is not None:
            payload["k"] = k
        if items_spec is not None:
            payload["items"] = items_spec
        body = json.dumps(payload, **_JSON_KWARGS).encode("utf-8")
        if key is not None:
            bodies = hot.bodies
            if key not in bodies and len(bodies) >= _MAX_BODIES:
                del bodies[next(iter(bodies))]
            bodies[key] = body
        self._phase("serve.phase.encode.seconds", began)
        return 200, "application/json", body, []

    def _run_query(
        self,
        hot: _Hot,
        verb: str,
        smin: int,
        k: Optional[int],
        items_spec: Optional[str],
    ) -> List[str]:
        """Execute one verb on the pool, serialised per generation.

        The per-generation lock makes the miner's memo/packed-table
        mutations safe; the per-request guard is installed under the
        same lock, so its hook never leaks across requests.
        """
        with hot.lock:
            with request_guard(
                hot.miner,
                timeout=self.request_timeout,
                memory_limit_mb=self.request_memory_limit_mb,
                probe=self._obs,
            ):
                items = (
                    parse_items(items_spec, hot.miner)
                    if items_spec is not None
                    else None
                )
                return query_lines(
                    hot.miner, verb, smin=smin, k=k, items=items
                )
