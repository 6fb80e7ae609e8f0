"""Serve-daemon gate: request latency and throughput over real HTTP.

``bench_serving.py`` gates the warm-start and memoization ratios of the
query surface itself; this gate covers the daemon wrapped around it.
A :class:`~repro.serving.server.QueryServer` is started in-process on
an ephemeral loopback port over a store built from the committed yeast
gate fixture, then hammered with sequential HTTP requests the way the
CI smoke step's ``curl`` loop would be.  Recorded per endpoint:

* **p50 / p99 latency** — milliseconds per request, send through
  full-body read, over one kept-alive ``http.client`` connection per
  endpoint loop (``urllib`` would send ``Connection: close`` and pay a
  connect per request);
* **qps** — requests per second over the measured window.

Absolute wall clock over loopback is noisier than the ratio gates, so
the hard floors are deliberately loose (the daemon answering memoized
queries should clear them by an order of magnitude) and the baseline
band is one-sided and wide: faster always passes, only a collapse
fails.  Before any timing is trusted the gate re-checks exactness: the
served ``closed_sets`` body must equal the in-process query verbatim.

Usage::

    # Record (refresh) the committed baseline
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --record benchmarks/BENCH_serve.json

    # CI gate
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --compare benchmarks/BENCH_serve.json --tolerance 0.5 \
        --out bench-serve-fresh.json

Exit codes: 0 = pass/recorded, 1 = floor missed or drift detected.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import shutil
import tempfile
import threading
import time

from repro.data.io import read_fimi
from repro.serving import QueryServer, StreamingMiner, query_lines

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "yeast_gate.fimi")
SMIN = 5
TOP_K = 20
WARMUP_REQUESTS = 20
MEASURE_REQUESTS = 300
#: Hard floors: a stdlib asyncio daemon answering memoized queries over
#: loopback clears these by >= 10x on any plausible runner.
QPS_FLOOR = 25.0
P99_CEILING_MS = 250.0

ENDPOINTS = {
    "top_k": f"/top_k?k={TOP_K}&smin={SMIN}",
    "closed_sets": f"/closed_sets?smin={SMIN}",
    "healthz": "/healthz",
}


def _percentile(samples: list, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class _Daemon:
    """QueryServer on a private event loop thread, bound to port 0."""

    def __init__(self, store: str):
        self.server = QueryServer(store, port=0, workers=2, poll_interval=30.0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )

    def __enter__(self):
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=60)
        return self

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30
        )


def _get(conn: http.client.HTTPConnection, path: str) -> bytes:
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise AssertionError(f"GET {path} -> {response.status}")
    return body


def measure() -> dict:
    """Serve the fixture store and time the endpoint request loops."""
    db = read_fimi(FIXTURE)
    rows = [list(db.decode(mask)) for mask in db.transactions]

    workdir = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        store = os.path.join(workdir, "store")
        writer = StreamingMiner.open(store, batch_records=32)
        for row in rows:
            writer.ingest(row)
        writer.close()

        record = {
            "fixture": os.path.relpath(FIXTURE, os.path.dirname(__file__)),
            "smin": SMIN,
            "k": TOP_K,
            "transactions": len(rows),
            "requests_per_endpoint": MEASURE_REQUESTS,
        }
        with _Daemon(store) as daemon:
            # Exactness before timing: the served body's lines must be
            # the in-process answer verbatim.
            conn = daemon.connect()
            try:
                payload = json.loads(_get(conn, ENDPOINTS["closed_sets"]))
            finally:
                conn.close()
            expected = list(
                query_lines(daemon.server._hot.miner, "closed_sets", smin=SMIN)
            )
            if payload["lines"] != expected:
                raise AssertionError(
                    "served closed_sets diverged from the in-process "
                    f"query: {len(payload['lines'])} vs {len(expected)} lines"
                )
            record["n_closed"] = len(expected)

            for name, path in ENDPOINTS.items():
                conn = daemon.connect()
                try:
                    for _ in range(WARMUP_REQUESTS):
                        _get(conn, path)
                    latencies = []
                    window = time.perf_counter()
                    for _ in range(MEASURE_REQUESTS):
                        start = time.perf_counter()
                        _get(conn, path)
                        latencies.append(time.perf_counter() - start)
                    window = time.perf_counter() - window
                finally:
                    conn.close()
                record[name] = {
                    "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
                    "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
                    "qps": round(MEASURE_REQUESTS / window, 1),
                }
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def compare(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Failure messages (empty = gate passes)."""
    failures = []
    if fresh["n_closed"] != baseline["n_closed"]:
        failures.append(
            f"n_closed: {fresh['n_closed']} != baseline "
            f"{baseline['n_closed']} (result family changed)"
        )
    for name in ENDPOINTS:
        row, base = fresh[name], baseline.get(name, {})
        if row["qps"] < QPS_FLOOR:
            failures.append(
                f"{name}.qps: {row['qps']} below the hard floor {QPS_FLOOR}"
            )
        if row["p99_ms"] > P99_CEILING_MS:
            failures.append(
                f"{name}.p99_ms: {row['p99_ms']} above the hard ceiling "
                f"{P99_CEILING_MS}"
            )
        if base:
            allowed = base["qps"] * (1.0 - tolerance)
            if row["qps"] < allowed:
                failures.append(
                    f"{name}.qps: {row['qps']} collapsed below baseline "
                    f"{base['qps']} - {tolerance:.0%} = {allowed:.1f}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--record", metavar="FILE", help="run the load test and write the baseline"
    )
    action.add_argument(
        "--compare", metavar="FILE", help="run the load test and compare"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="one-sided qps regression tolerance (default 0.5 = 50%%)",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="also write the fresh record here"
    )
    args = parser.parse_args(argv)

    fresh = measure()
    print(
        f"# serve gate on {fresh['fixture']} ({fresh['transactions']} "
        f"transactions, smin={SMIN}, {fresh['n_closed']} closed sets, "
        f"{MEASURE_REQUESTS} requests/endpoint)"
    )
    for name in ENDPOINTS:
        row = fresh[name]
        print(
            f"{name:12s} p50 {row['p50_ms']:.2f} ms   "
            f"p99 {row['p99_ms']:.2f} ms   {row['qps']:.0f} qps"
        )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# baseline written to {args.record}")
        return 0

    with open(args.compare, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print(f"# {len(failures)} serve gate failure(s) against {args.compare}:")
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(
        f"# serve latency/throughput above the floors and within "
        f"-{args.tolerance:.0%} of {args.compare}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
