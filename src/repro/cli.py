"""Command-line interface.

Subcommands::

    repro-mine mine     FILE -s SMIN [-a ALGORITHM] [-t TARGET] [-o OUT]
    repro-mine bench    FIGURE [--scale S] [--repeats R] [--value log|seconds|closed]
    repro-mine gen      DATASET -o OUT [--option key=value ...]
    repro-mine stats    FILE [-s SMIN]
    repro-mine rules    FILE -s SMIN [-c CONF]
    repro-mine snapshot FILE -o OUT.snap [--from SNAP] [--workers N]
    repro-mine query    SNAP [-s SMIN] [--top K] [--supersets ITEMS] [--support ITEMS]
    repro-mine ingest   STORE FILE [--follow] [--fsync always|batch|os]
    repro-mine recover  STORE [-o OUT.snap]
    repro-mine serve    STORE [--port P] [--workers N] [--max-inflight N] [--request-timeout S]
    repro-mine top      STORE [--watch SECONDS] [--json]
    repro-mine trace    FILE [--render]
    repro-mine backends [--json]

``mine`` reads a FIMI-format transaction file and prints (or writes)
the closed frequent item sets, one per line with the support in
parentheses — the output convention of the original fim tools.

``snapshot`` and ``query`` are the serving workflow (mine once, serve
many): ``snapshot`` folds a transaction file into a persistent
repository snapshot — from scratch, or warm-starting from an existing
snapshot so only the new transactions are paid for — and ``query``
answers closed-set queries straight from a snapshot without re-mining.

``ingest`` and ``recover`` are the durable streaming workflow:
``ingest`` runs a long-lived :class:`~repro.serving.StreamingMiner`
over a store directory — every transaction is written to a CRC-framed
write-ahead log before it is folded, micro-batches fold on a
count/age cadence, and tiered compaction periodically merges the
overlay into a canonical snapshot — and ``recover`` opens a store
(possibly after a crash), repairs a torn log tail, replays the
surviving records, and reports exactly what was salvaged.

``serve`` is the resident end of the serving workflow: a long-lived
HTTP/JSON daemon (:class:`~repro.serving.QueryServer`) over a store's
snapshot generations, answering the ``query`` verbs from a hot
in-memory repository, hot-swapping new generations as the writer
compacts them, with admission control and ``/metrics`` + ``/healthz``.

``top`` renders a store's :class:`~repro.serving.HealthReport` — WAL
lag, snapshot age, broken flag, rates and latency quantiles — from the
flight-recorder tail and the on-disk state alone, so it works on a
live store (without touching the writer) and on one that was killed.
``trace`` renders a JSON-lines trace (``--trace`` output) as a span
tree.

``backends`` reports the kernel backend registry for this install:
which backends are built, whether the optional native extension is
present, and how the current environment's selection (flag absent,
``REPRO_KERNEL_BACKEND`` honoured) would resolve, with the reason.
Always exits 0 — it is a diagnostic, not a health check.

Telemetry streams (``--metrics -`` / ``--trace -``) go to **stderr**:
stdout carries only the machine-readable mining results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, Hashable, List, Optional

from .analysis import profile_database, profile_family
from .bench.figures import FIGURES, run_figure
from .bench.plotting import render_figure
from .data.arff import read_arff, write_arff
from .data.database import TransactionDatabase
from .data.io import LoadReport, read_fimi, write_fimi
from .datasets import DATASETS, load
from .kernels import (
    HAVE_NATIVE,
    available_backends,
    selectable_backends,
    selection_report,
)
from .mining import ALGORITHMS, mine
from .obs import Probe, resolve_probe
from .parallel import mine_parallel
from .rules import generate_nonredundant_rules, generate_rules
from .runtime import CorruptInputError, MiningInterrupted, RunGuard
from .serving import (
    StreamingMiner,
    build_miner_parallel,
    compute_health,
    load_snapshot,
    save_snapshot,
)
from .serving.queries import parse_items, query_lines
from .serving.wal import FSYNC_POLICIES
from .core.incremental import IncrementalMiner
from .stats import OperationCounters

#: Exit codes: 0 success, 2 user/input error, 3 resource budget tripped.
EXIT_USER_ERROR = 2
EXIT_INTERRUPTED = 3


def _read_any(path: str, errors: str = "raise"):
    """Read a transaction file, dispatching on the extension."""
    report = LoadReport() if errors == "skip" else None
    if str(path).lower().endswith(".arff"):
        db = read_arff(path, errors=errors, report=report)
    else:
        db = read_fimi(path, errors=errors, report=report)
    if report is not None and report.lines_skipped:
        print(
            f"# skipped {report.lines_skipped} corrupt line(s) in {path}: "
            f"{report.skipped_line_numbers[:10]}"
            + ("..." if report.lines_skipped > 10 else ""),
            file=sys.stderr,
        )
    return db

__all__ = ["main", "build_parser", "EXIT_USER_ERROR", "EXIT_INTERRUPTED"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="Closed frequent item set mining by intersecting transactions "
        "(IsTa / Carpenter, EDBT 2011 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine_parser = subparsers.add_parser("mine", help="mine a FIMI-format file")
    mine_parser.add_argument("file", help="transaction file (FIMI format)")
    mine_parser.add_argument(
        "-s", "--smin", type=int, required=True, help="absolute minimum support"
    )
    mine_parser.add_argument(
        "-a",
        "--algorithm",
        default="ista",
        choices=sorted(ALGORITHMS),
        help="mining algorithm (default: ista)",
    )
    mine_parser.add_argument(
        "-t",
        "--target",
        default="closed",
        choices=("all", "closed", "maximal"),
        help="item set family to report (default: closed)",
    )
    mine_parser.add_argument("-o", "--output", help="write result here instead of stdout")
    mine_parser.add_argument(
        "--backend",
        default=None,
        choices=selectable_backends(),
        help="set-algebra kernel backend (default: REPRO_KERNEL_BACKEND "
        "environment variable, else 'bitint')",
    )
    mine_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; >1 mines shards in parallel and merges "
        "with a closedness re-verification pass (default: 1, serial)",
    )
    mine_parser.add_argument(
        "--shard",
        default="auto",
        choices=("auto", "items", "transactions"),
        help="sharding scheme for --workers >1 (default: auto — "
        "transactions for the intersection family, items otherwise)",
    )
    mine_parser.add_argument(
        "--stats", action="store_true", help="print timing and operation counters"
    )
    mine_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the run after this much wall-clock time (exit code 3)",
    )
    mine_parser.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        metavar="MB",
        help="abort when the run allocates more than this many MB (exit code 3)",
    )
    mine_parser.add_argument(
        "--fallback",
        nargs="?",
        const="default",
        default=None,
        metavar="CHAIN",
        help="on a budget trip, retry along an algorithm chain: 'default' "
        "or a comma-separated list of algorithm names",
    )
    mine_parser.add_argument(
        "--on-partial",
        choices=("raise", "return"),
        default="raise",
        help="when every attempt trips its budget: 'raise' discards the "
        "partial result, 'return' prints it (still exit code 3)",
    )
    mine_parser.add_argument(
        "--errors",
        choices=("raise", "skip"),
        default="raise",
        help="corrupt input lines: 'raise' stops with exit code 2, "
        "'skip' drops them with a note on stderr",
    )
    mine_parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot here after the run ('-' for stderr, "
        "keeping stdout machine-readable); enables the observability probe",
    )
    mine_parser.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="metrics snapshot format: 'json' (default) or 'prom' "
        "(Prometheus text exposition)",
    )
    mine_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSON-lines phase trace here ('-' for stderr); "
        "enables the observability probe",
    )

    bench_parser = subparsers.add_parser("bench", help="run a paper exhibit")
    bench_parser.add_argument("figure", choices=sorted(FIGURES), help="exhibit name")
    bench_parser.add_argument("--scale", type=float, default=1.0, help="workload scale")
    bench_parser.add_argument("--repeats", type=int, default=1, help="timing repeats")
    bench_parser.add_argument(
        "--value",
        default="seconds",
        help="table cells: seconds, log, closed, or a counter name",
    )
    bench_parser.add_argument(
        "--time-limit", type=float, default=None, help="per-cell time limit in seconds"
    )
    bench_parser.add_argument(
        "--plot", action="store_true", help="also draw the log-time chart"
    )

    gen_parser = subparsers.add_parser("gen", help="generate a synthetic data set")
    gen_parser.add_argument("dataset", choices=sorted(DATASETS), help="generator name")
    gen_parser.add_argument(
        "-o", "--output", required=True,
        help="output file (FIMI, or ARFF with an .arff extension)",
    )
    gen_parser.add_argument(
        "--option",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="generator option, repeatable (int/float parsed automatically)",
    )

    stats_parser = subparsers.add_parser(
        "stats", help="profile a transaction file (shape, regime, family sizes)"
    )
    stats_parser.add_argument("file", help="transaction file (FIMI or ARFF)")
    stats_parser.add_argument(
        "-s", "--smin", type=int, default=None,
        help="also mine at this support and profile the closed family",
    )
    stats_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="budget for the -s mining pass; a tripped budget still "
        "profiles the salvaged partial family, marked PARTIAL (exit code 3)",
    )

    rules_parser = subparsers.add_parser(
        "rules", help="mine closed sets and derive association rules"
    )
    rules_parser.add_argument("file", help="transaction file (FIMI or ARFF)")
    rules_parser.add_argument("-s", "--smin", type=int, required=True)
    rules_parser.add_argument(
        "-c", "--min-confidence", type=float, default=0.8, help="default 0.8"
    )
    rules_parser.add_argument(
        "-a", "--algorithm", default="auto",
        choices=sorted(ALGORITHMS) + ["auto"],
    )
    rules_parser.add_argument(
        "--non-redundant",
        action="store_true",
        help="emit the min-max basis (minimal antecedents) instead of all rules",
    )

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="fold a transaction file into a repository snapshot"
    )
    snapshot_parser.add_argument("file", help="transaction file (FIMI or ARFF)")
    snapshot_parser.add_argument(
        "-o", "--output", required=True, help="snapshot file to write"
    )
    snapshot_parser.add_argument(
        "--from",
        dest="warm_from",
        default=None,
        metavar="SNAP",
        help="warm-start from this snapshot and fold the file in as a "
        "delta batch instead of mining from scratch",
    )
    snapshot_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for a from-scratch build; shard "
        "repositories are merged exactly (default: 1)",
    )
    snapshot_parser.add_argument(
        "--backend",
        default=None,
        choices=selectable_backends(),
        help="set-algebra kernel backend (default: REPRO_KERNEL_BACKEND "
        "environment variable, else 'bitint')",
    )
    snapshot_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the build after this much wall-clock time (exit code 3)",
    )
    snapshot_parser.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        metavar="MB",
        help="abort when the build allocates more than this many MB "
        "(exit code 3)",
    )
    snapshot_parser.add_argument(
        "--errors",
        choices=("raise", "skip"),
        default="raise",
        help="corrupt input lines: 'raise' stops with exit code 2, "
        "'skip' drops them with a note on stderr",
    )

    query_parser = subparsers.add_parser(
        "query", help="answer closed-set queries from a snapshot"
    )
    query_parser.add_argument("snapshot", help="snapshot file written by 'snapshot'")
    query_parser.add_argument(
        "-s", "--smin", type=int, default=1,
        help="absolute minimum support (default: 1)",
    )
    query_parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="print only the K highest-support closed sets",
    )
    query_parser.add_argument(
        "--supersets",
        default=None,
        metavar="ITEMS",
        help="comma-separated items; print only closed supersets of them",
    )
    query_parser.add_argument(
        "--support",
        default=None,
        metavar="ITEMS",
        help="comma-separated items; print just the support of that set",
    )
    query_parser.add_argument(
        "-o", "--output", help="write result here instead of stdout"
    )
    query_parser.add_argument(
        "--backend",
        default=None,
        choices=selectable_backends(),
        help="set-algebra kernel backend for the query descent",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream transactions into a durable store "
        "(write-ahead log + tiered snapshot compaction)",
    )
    ingest_parser.add_argument("store", help="store directory (created if absent)")
    ingest_parser.add_argument(
        "file", help="FIMI-format transaction file, or '-' for stdin"
    )
    ingest_parser.add_argument(
        "--follow",
        action="store_true",
        help="keep reading as the file grows (tail -f style) instead of "
        "stopping at end of file",
    )
    ingest_parser.add_argument(
        "--fsync",
        default="batch",
        choices=FSYNC_POLICIES,
        help="WAL durability policy: 'always' fsyncs every record "
        "(power-loss durable), 'batch' fsyncs at fold boundaries "
        "(default), 'os' leaves flushing to the kernel "
        "(process-crash durable only)",
    )
    ingest_parser.add_argument(
        "--batch-records",
        type=int,
        default=64,
        metavar="N",
        help="fold the micro-batch after this many transactions "
        "(default: 64)",
    )
    ingest_parser.add_argument(
        "--batch-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also fold when the oldest buffered transaction is this old",
    )
    ingest_parser.add_argument(
        "--compact-segments",
        type=int,
        default=4,
        metavar="N",
        help="compact when the log holds more than this many segments "
        "(default: 4)",
    )
    ingest_parser.add_argument(
        "--segment-max-bytes",
        type=int,
        default=1 << 20,
        metavar="BYTES",
        help="roll the log segment past this size (default: 1 MiB)",
    )
    ingest_parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="--follow sleep between end-of-file polls (default: 0.2)",
    )
    ingest_parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="--follow exits cleanly after this long with no new data",
    )
    ingest_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-fold wall-clock budget; a tripped fold stops ingest "
        "with exit code 3 (the logged batch is replayed on recovery)",
    )
    ingest_parser.add_argument(
        "--memory-limit",
        type=float,
        default=None,
        metavar="MB",
        help="per-fold memory budget (exit code 3 on a trip)",
    )
    ingest_parser.add_argument(
        "--flight",
        dest="flight",
        action="store_true",
        default=True,
        help="write periodic flight-recorder snapshots under "
        "<store>/flight/ (default: on; implies the observability probe)",
    )
    ingest_parser.add_argument(
        "--no-flight",
        dest="flight",
        action="store_false",
        help="disable the flight recorder",
    )
    ingest_parser.add_argument(
        "--flight-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="minimum seconds between flight-recorder snapshots "
        "(default: 1.0)",
    )
    ingest_parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot here on exit ('-' for stderr); "
        "enables the observability probe",
    )
    ingest_parser.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default="json",
        help="metrics snapshot format: 'json' (default) or 'prom'",
    )
    ingest_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSON-lines phase trace here ('-' for stderr); "
        "enables the observability probe",
    )

    recover_parser = subparsers.add_parser(
        "recover",
        help="open a store after a crash: repair the log tail, replay, "
        "and report what was salvaged",
    )
    recover_parser.add_argument("store", help="store directory to recover")
    recover_parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="SNAP",
        help="also export the recovered repository as a standalone "
        "snapshot file (answerable by 'query')",
    )
    recover_parser.add_argument(
        "--no-compact",
        action="store_true",
        help="report and repair only; leave the store's snapshot and "
        "log tail exactly as recovered",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived query daemon over a store's snapshot "
        "generations: HTTP/JSON endpoints for the query verbs, hot "
        "snapshot swap, admission control, /metrics and /healthz",
    )
    serve_parser.add_argument(
        "store", help="store directory holding snapshot-*.rsnp generations"
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port; 0 picks an ephemeral port, printed to stderr "
        "(default: 0)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="query executor threads; snapshot swaps load on a "
        "dedicated extra thread (default: 2)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="queries executing concurrently before new ones queue "
        "(default: 8)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="queries waiting for a slot before new ones are rejected "
        "with 429 (default: 16)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock budget; a tripped query answers "
        "503 and leaves the store untouched",
    )
    serve_parser.add_argument(
        "--request-memory-limit",
        type=float,
        default=None,
        metavar="MB",
        help="per-request memory budget (503 on a trip)",
    )
    serve_parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint on 429/503 responses (default: 1.0)",
    )
    serve_parser.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="store watch period for hot snapshot swaps (default: 1.0)",
    )
    serve_parser.add_argument(
        "--backend",
        default=None,
        choices=selectable_backends(),
        help="set-algebra kernel backend for the resident miners",
    )

    top_parser = subparsers.add_parser(
        "top",
        help="render a store's health report (WAL lag, rates, latency "
        "quantiles) from its flight recorder and on-disk state — works "
        "on a live or dead store, never touches the writer",
    )
    top_parser.add_argument("store", help="store directory to inspect")
    top_parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep refreshing every SECONDS until interrupted",
    )
    top_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw HealthReport as JSON instead of text",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a JSON-lines trace written by --trace"
    )
    trace_parser.add_argument(
        "file", help="trace file ('-' reads stdin)"
    )
    trace_parser.add_argument(
        "--render",
        action="store_true",
        help="draw the span tree (parent/child by span ids; workers and "
        "folds merged via trace propagation appear under their parents)",
    )

    backends_parser = subparsers.add_parser(
        "backends",
        help="report the kernel backend registry: what is built, the "
        "native extension status, and how this environment's selection "
        "resolves (always exits 0)",
    )
    backends_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    return parser


def _parse_options(pairs: List[str]) -> dict:
    options = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --option {pair!r}: expected KEY=VALUE")
        key, value = pair.split("=", 1)
        try:
            options[key] = int(value)
        except ValueError:
            try:
                options[key] = float(value)
            except ValueError:
                options[key] = value
    return options


def _emit_observability(probe: Optional[Probe], args: argparse.Namespace) -> None:
    """Write the probe's metrics snapshot and trace where requested.

    ``'-'`` means **stderr** — stdout carries the machine-readable
    mining results, and interleaving telemetry into it would corrupt
    piped consumers.  Called from a ``finally`` so budget-tripped runs
    still leave their telemetry behind.
    """
    if probe is None:
        return
    if args.metrics:
        if args.metrics_format == "prom":
            payload = probe.metrics.to_prom()
        else:
            payload = probe.metrics.to_json() + "\n"
        if args.metrics == "-":
            sys.stderr.write(payload)
        else:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                handle.write(payload)
    if args.trace:
        if args.trace == "-":
            probe.tracer.write_jsonl(sys.stderr)
        else:
            with open(args.trace, "w", encoding="utf-8") as handle:
                probe.tracer.write_jsonl(handle)


def _command_mine(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.workers > 1 and args.fallback is not None:
        raise ValueError(
            "--workers >1 cannot be combined with --fallback: shards run "
            "a single algorithm; pick one or drop --fallback"
        )
    if args.workers > 1 and args.target == "all":
        raise ValueError(
            "--workers >1 supports targets 'closed' and 'maximal' only "
            "(the sharded merge re-verifies closedness)"
        )
    probe = Probe() if (args.metrics or args.trace) else None
    obs = resolve_probe(probe)
    counters = OperationCounters()
    start = time.perf_counter()
    try:
        with obs.phase("load", file=args.file):
            db = _read_any(args.file, errors=args.errors)
        if args.workers > 1:
            result = mine_parallel(
                db,
                args.smin,
                algorithm=args.algorithm,
                target=args.target,
                n_workers=args.workers,
                shard=args.shard,
                backend=args.backend,
                timeout=args.timeout,
                memory_limit_mb=args.memory_limit,
                on_partial=args.on_partial,
                probe=probe,
            )
        else:
            result = mine(
                db,
                args.smin,
                algorithm=args.algorithm,
                target=args.target,
                backend=args.backend,
                counters=counters,
                timeout=args.timeout,
                memory_limit_mb=args.memory_limit,
                fallback=args.fallback,
                on_partial=args.on_partial,
                probe=probe,
            )
    finally:
        # Telemetry is most valuable exactly when the run died on a
        # budget trip, so the files are written no matter how we exit.
        _emit_observability(probe, args)
    elapsed = time.perf_counter() - start
    lines = result.to_lines()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    if result.fallback_path and not result.interrupted:
        print(
            f"# fell back after {', '.join(result.fallback_path)}; "
            f"finished with {result.algorithm}",
            file=sys.stderr,
        )
    if args.stats:
        print(
            f"# {len(result)} item sets in {elapsed:.3f}s "
            f"({db.n_transactions} transactions, {db.n_items} items)",
            file=sys.stderr,
        )
        print(f"# counters: {counters.as_dict()}", file=sys.stderr)
    if result.interrupted:
        print(
            f"# PARTIAL result: every attempt hit its budget; "
            f"{len(result)} item sets salvaged",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    sweep = run_figure(
        args.figure,
        scale=args.scale,
        repeats=args.repeats,
        time_limit=args.time_limit,
    )
    spec = FIGURES[args.figure]
    print(f"# {spec.paper_exhibit}: {spec.description}")
    print(f"# expected shape: {spec.expected_shape}")
    print(sweep.format_table(args.value))
    if args.plot:
        print()
        print(render_figure(sweep))
    return 0


def _file_labels(db: TransactionDatabase) -> TransactionDatabase:
    """``db`` with each tuple label joined into one token (``g48+``).

    FIMI and ARFF name an item by one token, and a generator's
    ``(gene, sign)`` label would be written as ``('g48', '+')``, which
    does not read back as one item.  A rendering that maps two labels
    to one string is refused.
    """
    rendered = [
        "".join(str(part) for part in label) if isinstance(label, tuple) else label
        for label in db.item_labels
    ]
    owners: Dict[str, Hashable] = {}
    for label, text in zip(db.item_labels, rendered):
        owner = owners.setdefault(str(text), label)
        if owner != label:
            raise ValueError(
                f"item labels {owner!r} and {label!r} would both be "
                f"written as {str(text)!r}"
            )
    return TransactionDatabase(db.transactions, db.n_items, rendered)


def _command_gen(args: argparse.Namespace) -> int:
    db = _file_labels(load(args.dataset, **_parse_options(args.option)))
    if args.output.lower().endswith(".arff"):
        write_arff(db, args.output, relation=args.dataset)
    else:
        write_fimi(db, args.output)
    print(
        f"wrote {db.n_transactions} transactions over {db.n_items} items "
        f"to {args.output}",
        file=sys.stderr,
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    db = _read_any(args.file)
    profile = profile_database(db)
    print(profile.describe())
    if args.smin is not None:
        # on_partial="return": a tripped budget must not masquerade as
        # the complete family — the profile line says so explicitly and
        # the exit code matches the other budget-tripped paths.
        result = mine(
            db,
            args.smin,
            algorithm="auto",
            timeout=args.timeout,
            on_partial="return",
        )
        family = profile_family(result)
        qualifier = (
            " (PARTIAL: budget tripped, counts are lower bounds)"
            if result.interrupted
            else ""
        )
        print(
            f"closed family at smin={args.smin}{qualifier}: {family.n_sets} sets, "
            f"mean size {family.mean_size:.1f} (max {family.max_size}), "
            f"mean support {family.mean_support:.1f} (max {family.max_support})"
        )
        if result.interrupted:
            return EXIT_INTERRUPTED
    return 0


def _command_rules(args: argparse.Namespace) -> int:
    db = _read_any(args.file)
    closed = mine(db, args.smin, algorithm=args.algorithm)
    if args.non_redundant:
        rules = generate_nonredundant_rules(
            db, closed, min_confidence=args.min_confidence
        )
    else:
        rules = generate_rules(
            closed, db.n_transactions, min_confidence=args.min_confidence
        )
    count = 0
    for rule in rules:
        print(rule.labeled(db.item_labels))
        count += 1
    print(f"# {count} rules from {len(closed)} closed sets", file=sys.stderr)
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.workers > 1 and args.warm_from:
        raise ValueError(
            "--workers >1 applies to from-scratch builds only; a warm "
            "start folds the file in as one serial delta batch"
        )
    guard = None
    if args.timeout is not None or args.memory_limit is not None:
        # Ingest polls the guard once per transaction, not per operation,
        # so every poll must be a real check: the default stride would let
        # a small file's entire build slip between samples.
        guard = RunGuard(
            timeout=args.timeout, memory_limit_mb=args.memory_limit, stride=1
        )
    db = _read_any(args.file, errors=args.errors)
    if args.warm_from:
        miner = load_snapshot(args.warm_from, guard=guard, backend=args.backend)
        _check_label_universe(miner, db, args.warm_from, args.file)
        miner.extend(db.decode(mask) for mask in db.transactions)
    elif args.workers > 1:
        miner = build_miner_parallel(
            db, n_workers=args.workers, guard=guard, backend=args.backend
        )
    else:
        miner = IncrementalMiner.from_database(
            db, guard=guard, backend=args.backend
        )
    n_bytes = save_snapshot(miner, args.output)
    print(
        f"# snapshot {args.output}: {len(miner._ensure_flat())} closed sets, "
        f"{miner.n_transactions} transactions, {n_bytes} bytes",
        file=sys.stderr,
    )
    return 0


def _check_label_universe(miner, db, snap_path: str, delta_path: str) -> None:
    """Refuse a warm ``--from`` fold whose labels cannot be the same items.

    ``read_fimi`` coerces a file's tokens to ``int`` only when *every*
    token in the file is numeric, so the same logical item can arrive
    as ``int`` from one file and ``str`` from another.  Folding such a
    delta would silently double-count every item as two distinct ones.
    The telltale is an empty exact overlap between the two label
    universes while their textual forms do overlap: same spellings,
    different types.  That is a user error, not a mining result —
    refuse with a clear message (exit code 2).
    """
    snap_labels = set(miner.item_labels)
    delta_labels = set(db.item_labels)
    if not snap_labels or not delta_labels:
        return
    if snap_labels & delta_labels:
        return
    textual_overlap = {str(label) for label in snap_labels} & {
        str(label) for label in delta_labels
    }
    if textual_overlap:
        sample = sorted(textual_overlap)[:3]
        snap_kind = type(next(iter(snap_labels))).__name__
        delta_kind = type(next(iter(delta_labels))).__name__
        raise ValueError(
            f"--from refused: snapshot {snap_path} labels items as "
            f"{snap_kind} but delta file {delta_path} reads them as "
            f"{delta_kind} (e.g. {', '.join(sample)}); folding would "
            f"double-count them as distinct items.  FIMI files are "
            f"int-labeled only when every token is numeric — make the "
            f"delta's tokens match the snapshot's, or rebuild from "
            f"scratch without --from"
        )


def _command_query(args: argparse.Namespace) -> int:
    # Parsing and rendering live in repro.serving.queries, shared with
    # the 'serve' daemon — that sharing is what the serve-vs-CLI
    # differential suite relies on for byte-identical answers.
    chosen = [
        name
        for name, value in (
            ("--top", args.top),
            ("--supersets", args.supersets),
            ("--support", args.support),
        )
        if value is not None
    ]
    if len(chosen) > 1:
        raise ValueError(f"pick one of {', '.join(chosen)}")
    miner = load_snapshot(args.snapshot, backend=args.backend)
    if args.support is not None:
        lines = query_lines(
            miner, "support_of", items=parse_items(args.support, miner)
        )
    elif args.top is not None:
        lines = query_lines(miner, "top_k", k=args.top, smin=args.smin)
    elif args.supersets is not None:
        lines = query_lines(
            miner,
            "supersets_of",
            items=parse_items(args.supersets, miner),
            smin=args.smin,
        )
    else:
        lines = query_lines(miner, "closed_sets", smin=args.smin)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    return 0


def _tokenize_stream_line(line: str) -> Optional[List[object]]:
    """Tokenize one streaming FIMI line, per-token int coercion.

    Unlike :func:`read_fimi` — which sees the whole file and coerces to
    ``int`` only when every token is numeric — a stream has no whole
    file to inspect, so each token is coerced independently.  The two
    agree on all-numeric and no-numeric files; ``docs/serving.md``
    records the divergence for mixed ones.
    """
    tokens = line.split()
    if not tokens:
        return None
    labels: List[object] = []
    for token in tokens:
        try:
            labels.append(int(token))
        except ValueError:
            labels.append(token)
    return labels


def _command_ingest(args: argparse.Namespace) -> int:
    # The flight recorder (on by default) needs a live registry to
    # snapshot, so it implies the probe even without --metrics/--trace.
    probe = (
        Probe() if (args.metrics or args.trace or args.flight) else None
    )
    store = StreamingMiner.open(
        args.store,
        fsync=args.fsync,
        batch_records=args.batch_records,
        batch_age=args.batch_age,
        compact_segments=args.compact_segments,
        segment_max_bytes=args.segment_max_bytes,
        fold_timeout=args.timeout,
        fold_memory_limit_mb=args.memory_limit,
        flight=args.flight,
        flight_interval=args.flight_interval,
        probe=probe,
    )
    if not store.recovery.clean:
        print(store.recovery.describe(), file=sys.stderr)
    ingested = 0
    if args.file == "-":
        handle, close_handle = sys.stdin, False
    else:
        handle, close_handle = open(args.file, "r", encoding="utf-8"), True
    try:
        idle_start = None
        while True:
            line = handle.readline()
            if line:
                idle_start = None
                labels = _tokenize_stream_line(line)
                if labels is not None:
                    store.ingest(labels)
                    ingested += 1
                continue
            if not args.follow:
                break
            # End of file, for now: fold anything aging in the buffer,
            # then poll for growth.
            store.tick()
            now = time.monotonic()
            if idle_start is None:
                idle_start = now
            elif (
                args.idle_timeout is not None
                and now - idle_start >= args.idle_timeout
            ):
                break
            time.sleep(args.poll_interval)
        store.close()
    except MiningInterrupted:
        # The fold budget tripped mid-batch; the durable state (log +
        # last snapshot) is intact and 'recover' resumes from it.
        try:
            store.close()
        except Exception:
            pass
        raise
    finally:
        if close_handle:
            handle.close()
        _emit_observability(probe, args)
    print(
        f"# store {args.store}: ingested {ingested} transaction(s), "
        f"{store.n_transactions} total",
        file=sys.stderr,
    )
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    store = StreamingMiner.open(args.store)
    report = store.recovery
    print(report.describe())
    if args.output:
        n_bytes = save_snapshot(store.miner, args.output)
        print(f"exported {args.output} ({n_bytes} bytes)")
    if not args.no_compact:
        path = store.compact()
        if path is not None:
            print(f"compacted {os.path.basename(path)}")
    store.close(compact=False)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Deferred: the daemon (and its asyncio import) is only paid for by
    # the verb that runs it, never by one-shot mine/query invocations.
    from .serving import QueryServer

    server = QueryServer(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        request_memory_limit_mb=args.request_memory_limit,
        retry_after=args.retry_after,
        poll_interval=args.poll_interval,
        backend=args.backend,
    )

    def ready(host: str, port: int) -> None:
        # stderr, like every other status line: stdout stays free for
        # machine consumers even when the daemon is piped.
        print(
            f"# serving {args.store} on http://{host}:{port}",
            file=sys.stderr,
            flush=True,
        )

    return server.run(ready=ready)


def _command_top(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.store):
        raise ValueError(f"store directory {args.store!r} does not exist")
    report = compute_health(args.store)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), sort_keys=True))
    else:
        print(report.describe())
    if args.watch is not None:
        try:
            while True:
                time.sleep(args.watch)
                report = compute_health(args.store)
                print()
                if args.json:
                    print(json.dumps(dataclasses.asdict(report), sort_keys=True))
                else:
                    print(report.describe())
        except KeyboardInterrupt:
            pass
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    """Diagnostic dump of the kernel registry and selection resolution.

    Exits 0 unconditionally: an install without the native extension is
    a supported configuration, and scripts probing for it should parse
    the output, not the exit code.
    """
    registered = available_backends()
    selectable = selectable_backends()
    report = selection_report()
    payload = {
        "registered": registered,
        "selectable": selectable,
        "native_built": HAVE_NATIVE,
        "selection": report,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"registered backends: {', '.join(registered)}")
    fallback_only = sorted(set(selectable) - set(registered))
    if fallback_only:
        print(
            f"selectable via fallback: {', '.join(fallback_only)} "
            "(extension not built on this install)"
        )
    print(
        "native extension: "
        + ("built (repro.kernels._native importable)" if HAVE_NATIVE
           else "not built — build with: python setup.py build_ext --inplace")
    )
    print(
        f"selection: {report['requested']} (source: {report['source']}) "
        f"-> {report['resolved']}"
    )
    print(f"  {report['reason']}")
    return 0


def _format_trace_record(record: dict, indent: int) -> str:
    attrs = record.get("attrs") or {}
    attr_text = " ".join(f"{key}={value}" for key, value in sorted(attrs.items()))
    if record.get("type") == "event":
        head = f"* {record.get('name')} @{record.get('at', 0.0) * 1e3:.3f}ms"
    else:
        head = (
            f"{record.get('name')} "
            f"{(record.get('duration') or 0.0) * 1e3:.3f}ms"
        )
    return "  " * indent + head + (f"  [{attr_text}]" if attr_text else "")


def _trace_tree_lines(records: List[dict]) -> List[str]:
    """Render trace records as an indented tree, children under parents.

    Version-2 traces carry span/parent ids, so merged worker and fold
    spans nest under the span that was open at fan-out.  Version-1
    traces (no ids) fall back to the recorded depth, in file order.
    """
    span_ids = {
        record["span_id"] for record in records if record.get("span_id")
    }
    if not span_ids:
        return [
            _format_trace_record(record, int(record.get("depth", 0)))
            for record in records
        ]
    children: dict = {}
    for record in records:
        parent = record.get("parent_id")
        key = parent if parent in span_ids else None
        children.setdefault(key, []).append(record)

    def start_key(record: dict):
        return record.get("start", record.get("at", 0.0))

    lines: List[str] = []

    def walk(record: dict, depth: int) -> None:
        lines.append(_format_trace_record(record, depth))
        span_id = record.get("span_id")
        if span_id:
            for child in sorted(children.get(span_id, []), key=start_key):
                walk(child, depth + 1)

    for root in sorted(children.get(None, []), key=start_key):
        walk(root, 0)
    return lines


def _command_trace(args: argparse.Namespace) -> int:
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    header = None
    records: List[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "trace":
            header = record
        else:
            records.append(record)
    if header is not None:
        dropped = header.get("dropped", 0)
        print(
            f"# trace {header.get('trace_id', '?')} "
            f"(v{header.get('version', 1)}): {len(records)} record(s)"
            + (f", {dropped} dropped by the buffer bound" if dropped else "")
        )
    if args.render:
        for line in _trace_tree_lines(records):
            print(line)
    else:
        # Summary: per-span-name count and total duration, slowest first.
        totals: dict = {}
        for record in records:
            if record.get("type") != "span":
                continue
            name = record.get("name", "?")
            count, total = totals.get(name, (0, 0.0))
            totals[name] = (count + 1, total + (record.get("duration") or 0.0))
        for name, (count, total) in sorted(
            totals.items(), key=lambda entry: -entry[1][1]
        ):
            print(f"{name}  n={count}  total={total * 1e3:.3f}ms")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also installed as the ``repro-mine`` script).

    Exit codes: 0 success; 2 user/input error (bad arguments, missing or
    corrupt files); 3 resource budget tripped (timeout, memory,
    cancellation) with nothing — or only a partial result — to show.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mine":
            return _command_mine(args)
        if args.command == "bench":
            return _command_bench(args)
        if args.command == "gen":
            return _command_gen(args)
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "rules":
            return _command_rules(args)
        if args.command == "snapshot":
            return _command_snapshot(args)
        if args.command == "query":
            return _command_query(args)
        if args.command == "ingest":
            return _command_ingest(args)
        if args.command == "recover":
            return _command_recover(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "top":
            return _command_top(args)
        if args.command == "trace":
            return _command_trace(args)
        if args.command == "backends":
            return _command_backends(args)
    except MiningInterrupted as exc:
        print(f"repro-mine: {exc}", file=sys.stderr)
        if exc.fallback_path:
            print(
                f"repro-mine: attempted {', '.join(exc.fallback_path)}",
                file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    except CorruptInputError as exc:
        print(f"repro-mine: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (OSError, ValueError, TypeError) as exc:
        print(f"repro-mine: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
