"""One measured session: set-up, then the mine, ingest and serve phases.

Started by ``run.py`` in a fresh interpreter with a fixed
``PYTHONHASHSEED`` (``python session.py PLAN``) and pinned to one CPU;
the cold-start interpreters and the daemon it spawns inherit that CPU.
It reaches the program only through public entry points: ``repro-mine
mine`` called in-process, ``StreamingMiner``, and a ``repro-mine
serve`` process over loopback HTTP.

Outputs are not judged here.  Each one is saved once per distinct
content under ``outputs/`` and named in the operation's check list;
``run.py`` compares them with the reference after the session exits,
so the reference never lives in a process whose memory is measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from calibration import NOMINAL_MS, Calibrator  # noqa: E402
from httpclient import Client  # noqa: E402
from tracing import NULL_SPANS, SpanRecorder, TimingBackend  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402
from repro.common import prepare_for_mining  # noqa: E402
from repro.data.io import read_fimi  # noqa: E402
from repro.kernels import resolve_backend  # noqa: E402
from repro.mining import mine  # noqa: E402
from repro.serving import (  # noqa: E402
    StreamingMiner,
    dumps_snapshot,
    load_snapshot,
    parse_items,
    query_lines,
)
from repro.stats import OperationCounters  # noqa: E402

BACKENDS = ("bitint", "native")
VERBS = ("top_k", "support_of", "supersets_of", "closed_sets")
_SNAPSHOT_RE = re.compile(r"snapshot-(\d+)\.rsnp$")
_READY_RE = re.compile(r"on http://([^:\s]+):(\d+)")


def newest_snapshot(store: str):
    found = []
    for name in os.listdir(store):
        match = _SNAPSHOT_RE.search(name)
        if match:
            found.append((int(match.group(1)), os.path.join(store, name)))
    if not found:
        raise RuntimeError(f"no snapshot in {store}")
    return max(found)


def class_mean(latencies: Dict[tuple, List[float]], verb: str) -> float:
    """Mean over a verb's request classes of each class's median.

    A verb's requests come in classes of different cost (``top_k`` per
    (k, smin) pair, ``closed_sets`` per smin, the item verbs per query
    size).  A median over the mixture falls between classes and jumps
    from run to run; the mean of per-class medians does not.
    """
    return statistics.mean(
        median(values) for (v, _), values in latencies.items() if v == verb
    )


def canonical_bytes(family) -> bytes:
    rows = sorted((sorted(labels), support) for labels, support in family.items())
    return json.dumps(rows, separators=(",", ":")).encode("utf-8")


class _LeaveTail(Exception):
    """Raised inside ``with StreamingMiner.open(...)`` to skip the clean close."""


class Daemon:
    """A ``repro-mine serve`` process, stderr to a file, stopped with SIGTERM."""

    def __init__(self, plan: Dict, store: str, log: str) -> None:
        self._plan = plan
        self._store = store
        self._log_path = log
        self._log = None
        self.proc: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> None:
        """Spawn the daemon and wait until it prints its address."""
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self._store, "--backend", "native"],
            cwd=self._plan["root"],
            env=self._plan["env"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        self.wait_ready()

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._log_path, "rb") as handle:
                match = _READY_RE.search(handle.read().decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        raise RuntimeError(f"daemon did not become ready; see {self._log_path}")

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> Optional[int]:
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


class Session:
    def __init__(self, plan: Dict) -> None:
        self.plan = plan
        self.work = plan["work"]
        self.trace = plan["trace"]
        self.cal = Calibrator()
        self.out_dir = os.path.join(self.work, "outputs")
        os.makedirs(self.out_dir, exist_ok=True)
        self._saved = set()
        self.ops: List[Dict] = []
        self.samples: Dict[str, List[float]] = {}
        self.layers: Dict[str, float] = {}
        self.report: Dict = {}
        if self.trace:
            self.spans = SpanRecorder()

    # -- bookkeeping ------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def save(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._saved:
            with open(os.path.join(self.out_dir, digest), "wb") as handle:
                handle.write(data)
            self._saved.add(digest)
        return digest

    def save_file(self, path: str) -> str:
        with open(path, "rb") as handle:
            return self.save(handle.read())

    def op(self, kind: str, checks: List[Dict]) -> None:
        self.ops.append({"kind": kind, "checks": checks})

    def mine_cli(self, backend: str, out: str) -> int:
        return cli_main([
            "mine", self.plan["fimi"], "-s", str(inputs.SMIN), "-o", out,
            "--backend", backend,
        ])

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        plan = self.plan
        self.pristine = []
        for rep, parts in enumerate(plan["stores"]):
            base = parts["base"]
            cold_out = os.path.join(self.work, "cold.out")
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "coldstart.py"),
                 plan["fimi"], str(inputs.SMIN), cold_out],
                cwd=plan["root"], env=plan["env"], capture_output=True,
                text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"cold start failed: {proc.stderr[-2000:]}")
            cold = json.loads(proc.stdout.strip().splitlines()[-1])
            cold_s = cold["wall_ms"] * cold["factor"] / 1000.0
            self.op("setup.cold_mine", [
                {"kind": "status", "ok": cold["exit"] == 0, "what": "cold mine exit"},
                {"kind": "mine", "digest": self.save_file(cold_out)},
            ])

            store = os.path.join(self.work, f"base-{rep}")
            shutil.rmtree(store, ignore_errors=True)
            self.cal.invalidate()

            def build():
                sm = StreamingMiner.open(
                    store, backend="native", batch_records=inputs.BATCH_RECORDS
                )
                for row in base:
                    sm.ingest(row)
                sm.close()

            _, wall, factor = self.cal.timed(build)
            store_s = wall * factor / 1000.0

            daemon = Daemon(plan, store, os.path.join(self.work, f"daemon-setup-{rep}.log"))

            def spawn_and_query():
                daemon.start()
                client = Client(daemon.host, daemon.port)
                try:
                    return client.get("/closed_sets?smin=1")
                finally:
                    client.close()

            try:
                resp, wall, factor = self.cal.timed(spawn_and_query)
            finally:
                code = daemon.stop()
            daemon_s = wall * factor / 1000.0
            self.op("setup.store_and_daemon", [
                {"kind": "status", "ok": code == 0, "what": f"setup daemon exit {code}"},
                {"kind": "body", "stage": f"base/{rep}", "request": {"verb": "closed_sets", "smin": 1},
                 "status": resp.status, "digest": self.save(resp.body)},
            ])
            self.add("setup.cold_mine_s", cold_s)
            self.add("setup.base_store_s", store_s)
            self.add("setup.daemon_s", daemon_s)
            self.add("setup_s", cold_s + store_s + daemon_s)
            self.cal.invalidate()
            self.leave_tail(store, parts["tail"])
            self.pristine.append(store)

    @staticmethod
    def leave_tail(store: str, tail) -> None:
        """Log ``tail`` without folding it: exit the ``with`` block on an
        exception, which skips the clean close."""
        try:
            with StreamingMiner.open(
                store, backend="native", batch_records=len(tail) + 1
            ) as sm:
                for row in tail:
                    sm.ingest(row)
                raise _LeaveTail
        except _LeaveTail:
            pass

    # -- mine phase -------------------------------------------------------

    def settle(self) -> None:
        """Start each round from the same collector state, untimed."""
        gc.collect()
        self.cal.invalidate()

    def mine_round(self, index: int) -> None:
        order = BACKENDS if index % 2 == 0 else BACKENDS[::-1]
        self.settle()
        codes = {}
        for backend in order:
            out = os.path.join(self.work, f"mine-{backend}.out")
            codes[backend], wall, factor = self.cal.timed(self.mine_cli, backend, out)
            self.add(f"mine_ms.{backend}", wall * factor)
            self.add(f"raw.mine_ms.{backend}", wall)
        for backend, code in codes.items():
            self.op(f"mine.{backend}", [
                {"kind": "status", "ok": code == 0, "what": f"mine exit {code}"},
                {"kind": "mine", "digest": self.save_file(os.path.join(self.work, f"mine-{backend}.out"))},
            ])

    def mine_direct(self, backend: str, spans, kernel, counters, out: str):
        """What ``repro-mine mine FILE -s 5 -o OUT`` does, through the library."""
        with spans.span("data.read_fimi", op=backend) as s_read:
            db = read_fimi(self.plan["fimi"])
        with spans.span("mine.mine", op=backend) as s_mine:
            result = mine(db, inputs.SMIN, backend=kernel, counters=counters)
        with spans.span("mine.report", op=backend) as s_report:
            lines = result.to_lines()
            with open(out, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
        return db, s_read, s_mine, s_report

    def mine_round_traced(self, index: int) -> None:
        """Each backend's mine through ``mine_direct`` twice: plain (no-op
        spans, the backend itself, the miner's own counters) and traced
        (spans, the timing proxy, caller-held counters), in alternating
        order.  The difference of their medians is the tracing overhead."""
        order = BACKENDS if index % 2 == 0 else BACKENDS[::-1]
        sides = ("plain", "traced") if (index // 2) % 2 == 0 else ("traced", "plain")
        spans = self.spans
        self.settle()
        outs = []
        for backend in order:
            for side in sides:
                out = os.path.join(self.work, f"mine-{side}-{backend}.out")
                outs.append((f"mine.{side}.{backend}", out))
                if side == "plain":
                    _, wall, factor = self.cal.timed(
                        self.mine_direct, backend, NULL_SPANS, resolve_backend(backend), None, out
                    )
                    self.add(f"plain.mine_ms.{backend}", wall * factor)
                    continue
                proxy = TimingBackend(resolve_backend(backend))
                counters = OperationCounters()
                (db, s_read, s_mine, s_report), wall, factor = self.cal.timed(
                    self.mine_direct, backend, spans, proxy, counters, out
                )
                ms = lambda record: spans.ms(record) * factor  # noqa: E731
                kernel_ms = proxy.seconds * 1000.0 * factor
                self.add(f"traced.mine_ms.{backend}", wall * factor)
                self.add("data.read_fimi_ms", ms(s_read))
                self.add("mine.report_ms", ms(s_report))
                self.add(f"mine.core_ms.{backend}", ms(s_mine) - kernel_ms)
                self.add(f"mine.kernel_ms.{backend}", kernel_ms)
                self.add(f"mine.kernel_calls.{backend}", proxy.calls)
                self.add("kernels.rows_tested", proxy.rows_tested)
                self.add("kernels.rows_skipped", proxy.rows_skipped)
                for name in ("intersections", "nodes_created", "nodes_pruned", "repository_peak"):
                    self.add(f"core.{name}", getattr(counters, name))

        def recode():
            # The first pass that mine() runs internally, timed on its own.
            with spans.span("data.recode") as record:
                prepare_for_mining(db, inputs.SMIN)
            return record

        s_recode, _, factor = self.cal.timed(recode)
        self.add("data.recode_ms", spans.ms(s_recode) * factor)
        for kind, out in outs:
            self.op(kind, [{"kind": "mine", "digest": self.save_file(out)}])

    # -- ingest phase -----------------------------------------------------

    def restore(self, index: int) -> str:
        store = os.path.join(self.work, "pass")
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(self.pristine[index], store)
        self.settle()
        return store

    def check_pass(self, kind: str, index: int, recovered, store: str) -> None:
        covered, path = newest_snapshot(store)
        final = load_snapshot(path)
        self.op(kind, [
            {"kind": "family", "stage": f"base+tail/{index}",
             "digest": self.save(canonical_bytes(recovered))},
            {"kind": "property", "ok": covered == self.plan["n_rows"],
             "what": f"compacted snapshot covers {covered} rows"},
            {"kind": "family", "stage": "all",
             "digest": self.save(canonical_bytes(final.closed_sets(1)))},
        ])
        self.cal.invalidate()

    def ingest_pass(self, index: int) -> None:
        stream = self.plan["stores"][index]["stream"]
        store = self.restore(index)

        def recover():
            sm = StreamingMiner.open(
                store, backend="native", batch_records=inputs.BATCH_RECORDS
            )
            return sm, sm.closed_sets(1)

        (sm, recovered), wall, factor = self.cal.timed(recover)
        recover_ms = wall * factor

        def ingest(rows):
            for row in rows:
                sm.ingest(row)

        batches = []
        for start in range(0, len(stream), inputs.BATCH_RECORDS):
            _, wall, factor = self.cal.timed(ingest, stream[start:start + inputs.BATCH_RECORDS])
            batches.append(wall * factor)
        _, wall, factor = self.cal.timed(sm.close)
        close_ms = wall * factor
        pass_ms = recover_ms + sum(batches) + close_ms
        self.add("recover_ms", recover_ms)
        self.add("batch_ms", statistics.mean(batches))
        self.add("ingest_tps", len(stream) / (pass_ms / 1000.0))
        self.check_pass("ingest.pass", index, recovered, store)

    def ingest_pass_layers(self, index: int, traced: bool) -> None:
        """One pass with its layers apart, plain or traced.

        The snapshot decode that ``open()`` runs first and the encode
        that ``close()`` runs last are each also run on their own, and
        explicit ``fold()`` calls every ``BATCH_RECORDS`` rows repeat the
        automatic micro-batch cadence while timing appends and folds
        apart.  Plain runs it under no-op spans with the backend itself
        and the miner's own counters; traced under spans, the timing
        proxy and caller-held counters.  ``<side>.pass_ms`` sums open,
        first query, batches and close on both sides, so its traced
        minus plain median is the tracing overhead.
        """
        side = "traced" if traced else "plain"
        spans = self.spans if traced else NULL_SPANS
        proxy = TimingBackend(resolve_backend("native")) if traced else None
        counters = OperationCounters() if traced else None
        stream = self.plan["stores"][index]["stream"]
        store = self.restore(index)
        _, path = newest_snapshot(store)

        def load():
            with spans.span("serving.snapshot_load") as record:
                load_snapshot(path, backend="native")
            return record

        s_load, _, factor = self.cal.timed(load)
        if traced:
            self.add("serving.snapshot_load_ms", spans.ms(s_load) * factor)

        def recover():
            with spans.span("serving.open") as s_open:
                sm = StreamingMiner.open(
                    store, backend=proxy or "native", counters=counters,
                    batch_records=len(stream) + 1,
                )
            with spans.span("serving.first_query") as s_query:
                recovered = sm.closed_sets(1)
            return sm, recovered, s_open, s_query

        (sm, recovered, s_open, s_query), wall, factor = self.cal.timed(recover)
        total = wall * factor
        if traced:
            self.add("serving.open_ms", spans.ms(s_open) * factor)
            self.add("serving.first_query_ms", spans.ms(s_query) * factor)

        def ingest(rows):
            appends = []
            for row in rows:
                with spans.span("serving.append") as s_append:
                    sm.ingest(row)
                appends.append(s_append)
            with spans.span("serving.fold") as s_fold:
                sm.fold()
                sm.maybe_compact()
            return appends, s_fold

        fold_kernel = []
        intersections = support_updates = 0
        for start in range(0, len(stream), inputs.BATCH_RECORDS):
            if traced:
                k0, i0, u0 = proxy.seconds, counters.intersections, counters.support_updates
            (appends, s_fold), wall, factor = self.cal.timed(
                ingest, stream[start:start + inputs.BATCH_RECORDS]
            )
            total += wall * factor
            if traced:
                fold_kernel.append((proxy.seconds - k0) * 1000.0 * factor)
                intersections += counters.intersections - i0
                support_updates += counters.support_updates - u0
                for record in appends:
                    self.add("serving.append_ms", spans.ms(record) * factor)
                self.add("serving.fold_ms", spans.ms(s_fold) * factor)

        def dump():
            with spans.span("serving.snapshot_dump") as record:
                dumps_snapshot(sm.miner)
            return record

        def close():
            with spans.span("serving.close") as record:
                sm.close()
            return record

        s_dump, _, factor = self.cal.timed(dump)
        if traced:
            self.add("serving.snapshot_dump_ms", spans.ms(s_dump) * factor)
        s_close, wall, factor = self.cal.timed(close)
        total += wall * factor
        self.add(f"{side}.pass_ms", total)
        if traced:
            self.add("serving.close_ms", spans.ms(s_close) * factor)
            self.add("fold.kernel_ms", statistics.mean(fold_kernel))
            self.add("fold.intersections", intersections)
            self.add("fold.support_updates", support_updates)
            _, path = newest_snapshot(store)
            self.add("serving.snapshot_bytes", os.path.getsize(path))
        self.check_pass(f"ingest.{side}_pass", index, recovered, store)

    # -- serve phase ------------------------------------------------------

    def serve(self) -> None:
        plan = self.plan
        begin = time.perf_counter()
        store = os.path.join(self.work, "pass")
        daemon = Daemon(plan, store, os.path.join(self.work, "daemon.log"))
        try:
            daemon.start()
            client = Client(daemon.host, daemon.port)
            try:
                self.serve_requests(client, begin)
                if self.trace:
                    metrics = client.get("/metrics").body.decode("utf-8")
            finally:
                client.close()
            self.add("rss.daemon_kb", daemon.peak_rss_kb())
        finally:
            code = daemon.stop()
        self.op("serve.daemon_exit", [
            {"kind": "status", "ok": code == 0, "what": f"daemon exit {code}"}
        ])
        if self.trace:
            self.daemon_metrics(metrics)
            self.replay_in_process(store)
        self.report["serve_ops"] = len(self.served)
        self.report["serve_phase_s"] = time.perf_counter() - begin

    def serve_requests(self, client: Client, begin: float) -> None:
        plan = self.plan
        self.served = []
        for request in plan["warmup"]:
            resp = client.get(inputs.request_path(request))
            self.check_body("serve.warmup", request, resp)
        self.cal.invalidate()
        latencies: Dict[tuple, List[float]] = {}
        traced_lat: Dict[tuple, List[float]] = {}
        all_latencies: List[float] = []
        sizes: Dict[str, List[int]] = {verb: [] for verb in VERBS}
        block_s = 0.0
        for index, block in enumerate(plan["blocks"]):
            if (
                index >= inputs.MIN_COUNTS["serve"]
                and index % inputs.ROUND["serve"] == 0
                and time.perf_counter() - begin > plan["caps"]["serve"]
            ):
                self.report.setdefault("capped", []).append("serve")
                break
            self.served.append(block)
            # Pairs of blocks alternate, so both sides see every smin rotation.
            traced = self.trace and (index // 2) % 2 == 1
            paths = [inputs.request_path(request) for request in block]
            responses = []
            before = self.cal.before()
            block_begin = time.perf_counter()
            for path in paths:
                start = time.perf_counter()
                resp = client.get(path)
                if traced:  # a traced request's latency includes its span
                    self.spans.record(
                        "http.request", start, time.perf_counter(), op=path,
                        connect_s=resp.connect_s, first_byte_s=resp.first_byte_s,
                        body_s=resp.body_s,
                    )
                responses.append((resp, time.perf_counter() - start))
            block_wall = time.perf_counter() - block_begin
            factor = self.cal.factor(before, self.cal.probe())
            block_s += block_wall * factor
            self.report.setdefault("serve_blocks", []).append(
                [factor, [[r["verb"], r["class"], e * 1000.0] for r, (_, e) in zip(block, responses)]]
            )
            for request, (resp, elapsed) in zip(block, responses):
                ms = elapsed * 1000.0 * factor
                key = (request["verb"], request["class"])
                (traced_lat if traced else latencies).setdefault(key, []).append(ms)
                all_latencies.append(ms)
                sizes[request["verb"]].append(len(resp.body))
                if traced:
                    self.add("http.connect_ms", resp.connect_s * 1000.0 * factor)
                    self.add("http.first_byte_ms", resp.first_byte_s * 1000.0 * factor)
                    self.add("http.body_ms", resp.body_s * 1000.0 * factor)
                self.check_body("serve.request", request, resp)
            self.cal.invalidate()
        for verb in VERBS:
            self.samples[f"latency_ms.{verb}"] = [class_mean(latencies, verb)]
            self.layers[f"serve.response_bytes.{verb}"] = statistics.mean(sizes[verb])
        ordered = sorted(all_latencies)
        rank = -(-99 * len(ordered) // 100)  # nearest-rank p99
        self.report["requests"] = len(ordered)
        self.report["requests_beyond_p99"] = len(ordered) - rank
        self.samples["latency_ms.p99"] = [ordered[rank - 1]]
        self.samples["requests_per_s"] = [len(ordered) / block_s]
        self.report["connects"] = client.connects
        if self.trace:
            self.layers["trace.overhead_ms.serve"] = statistics.mean(
                median(traced_lat[key]) - median(latencies[key])
                for key in latencies if key in traced_lat
            )

    def check_body(self, kind: str, request: Dict, resp) -> None:
        self.op(kind, [{
            "kind": "body", "stage": "all", "request": request,
            "status": resp.status, "digest": self.save(resp.body),
        }])

    def daemon_metrics(self, text: str) -> None:
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        # Aggregated by the daemon, so scaled by the run's median loop time.
        factor = NOMINAL_MS / median(self.cal.raw_ms)
        for verb in VERBS:
            total = values[f"repro_serve_http_{verb}_seconds_sum"]
            count = values[f"repro_serve_http_{verb}_seconds_count"]
            self.layers[f"serve.handler_ms.{verb}"] = total / count * 1000.0 * factor
        hits = values.get("repro_serving_memo_hits_total", 0.0)
        misses = values.get("repro_serving_memo_misses_total", 0.0)
        self.layers["serve.memo_hit_ratio"] = hits / (hits + misses)

    def replay_in_process(self, store: str) -> None:
        """The same request sequence through ``query_lines`` on the same snapshot."""
        proxy = TimingBackend(resolve_backend("native"))
        _, path = newest_snapshot(store)
        miner = load_snapshot(path, backend=proxy)

        def answer(request):
            items = request.get("items")
            if items is not None:
                items = parse_items(",".join(items), miner)
            return query_lines(
                miner, request["verb"], smin=request.get("smin", 1),
                k=request.get("k"), items=items,
            )

        for request in self.plan["warmup"]:
            answer(request)
        engine: Dict[str, List[float]] = {verb: [] for verb in VERBS}
        kernel_ms = 0.0
        n = 0
        self.cal.invalidate()
        for block in self.served:
            walls = []
            kernel_before = proxy.seconds
            before = self.cal.before()
            for request in block:
                start = time.perf_counter()
                answer(request)
                walls.append(time.perf_counter() - start)
            factor = self.cal.factor(before, self.cal.probe())
            kernel_ms += (proxy.seconds - kernel_before) * 1000.0 * factor
            n += len(block)
            for request, wall in zip(block, walls):
                engine[request["verb"]].append(wall * 1000.0 * factor)
        for verb in VERBS:
            self.layers[f"serve.engine_ms.{verb}"] = median(engine[verb])
        self.layers["serve.kernel_ms"] = kernel_ms / n

    # -- run --------------------------------------------------------------

    def phase(self, name: str, step) -> None:
        """Run ``step(index)`` for the phase's count of operations.

        Past the phase's cap the phase stops at its next whole round
        (never below its minimum count) and the report says so.
        """
        plan = self.plan
        begin = time.perf_counter()
        done = 0
        for index in range(plan["counts"][name]):
            if (
                index >= inputs.MIN_COUNTS[name]
                and index % inputs.ROUND[name] == 0
                and time.perf_counter() - begin > plan["caps"][name]
            ):
                self.report.setdefault("capped", []).append(name)
                break
            step(index)
            done += 1
        self.report[f"{name}_ops"] = done
        self.report[f"{name}_phase_s"] = time.perf_counter() - begin

    def run(self) -> Dict:
        started = time.perf_counter()
        self.setup()
        for index in range(2):  # warm-up: lazy set-up of both backends
            self.mine_cli(BACKENDS[index], os.path.join(self.work, "warm.out"))
        # Keep the harness's own long-lived objects (the plan, the set-up
        # state) out of the collector's full passes, so their number does
        # not leak into the program's timings.
        gc.collect()
        gc.freeze()

        def mine_step(index):
            (self.mine_round_traced if self.trace else self.mine_round)(index)

        def ingest_step(index):
            store = index % len(self.pristine)
            if not self.trace:
                self.ingest_pass(store)
                return
            for traced in (False, True) if (index // 2) % 2 == 0 else (True, False):
                self.ingest_pass_layers(store, traced)

        self.phase("mine", mine_step)
        self.phase("ingest", ingest_step)
        self.serve()
        self.report["session_s"] = time.perf_counter() - started
        self.add("rss.miner_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if self.trace:
            self.spans.write_jsonl(os.path.join(self.work, "spans.jsonl"))
        return self.metrics()

    def metrics(self) -> Dict:
        s = self.samples
        out: Dict[str, float] = {}
        if not self.trace:
            for name in (
                "setup_s", "mine_ms.bitint", "mine_ms.native",
                "recover_ms", "batch_ms", "ingest_tps",
                *(f"latency_ms.{verb}" for verb in VERBS),
                "latency_ms.p99", "requests_per_s",
            ):
                out[name] = median(s[name])
            out["rss_mb"] = max(s["rss.miner_kb"][0], s["rss.daemon_kb"][0]) / 1024.0
        else:
            for name in (
                "setup.cold_mine_s", "setup.base_store_s", "setup.daemon_s",
                "data.read_fimi_ms", "data.recode_ms", "mine.report_ms",
                *(f"mine.{part}.{backend}" for part in ("core_ms", "kernel_ms", "kernel_calls")
                  for backend in BACKENDS),
                "core.intersections", "core.nodes_created", "core.nodes_pruned",
                "core.repository_peak",
                "serving.open_ms", "serving.first_query_ms", "serving.snapshot_load_ms",
                "serving.append_ms", "serving.fold_ms", "fold.kernel_ms",
                "fold.intersections", "fold.support_updates", "serving.close_ms",
                "serving.snapshot_dump_ms", "serving.snapshot_bytes",
                "http.connect_ms", "http.first_byte_ms", "http.body_ms",
            ):
                out[name] = median(s[name])
            out["kernels.bounded_skip_ratio"] = (
                sum(s["kernels.rows_skipped"]) / max(1, sum(s["kernels.rows_tested"]))
            )
            out["rss.miner_mb"] = s["rss.miner_kb"][0] / 1024.0
            out["rss.daemon_mb"] = s["rss.daemon_kb"][0] / 1024.0
            out["trace.overhead_ms.mine"] = statistics.mean(
                median(s[f"traced.mine_ms.{b}"]) - median(s[f"plain.mine_ms.{b}"]) for b in BACKENDS
            )
            out["trace.overhead_ms.ingest"] = (
                median(s["traced.pass_ms"]) - median(s["plain.pass_ms"])
            )
            out.update(self.layers)
        self.report["samples"] = s
        self.report["calibration"] = self.cal.summary()
        return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    os.sched_setaffinity(0, {plan["cpu"]})
    session = Session(plan)
    metrics = session.run()
    with open(os.path.join(plan["work"], "session.json"), "w", encoding="utf-8") as handle:
        json.dump({
            "metrics": metrics,
            "ops": session.ops,
            "report": session.report,
        }, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
