"""Benchmark harness: support sweeps in the style of the paper's figures.

Each figure of the paper plots ``log10(time in seconds)`` against the
minimum support for a fixed data set and a fixed algorithm line-up.
:func:`run_sweep` reproduces that measurement: for every support value
and algorithm it times the mining call, captures the operation counters
(the language-independent work measure), and records the number of
closed sets found.  An algorithm that exceeds ``time_limit`` at some
support is not run at lower supports — the same early-stopping the
paper applied to the [14] implementation ("we terminated the run").

:func:`SweepResult.format_table` prints the paper-style series.

The bottom of the module is the kernel microbenchmark suite:
:func:`run_kernel_microbench` times the batched set-algebra primitives
of every registered :mod:`repro.kernels` backend on a dense
gene-expression-style fixture, and :func:`compare_kernel_baselines`
checks a fresh run against a committed baseline — by *speedup ratio*
by default, which is machine-independent and therefore safe to gate CI
on.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..closure.verify import check_closed_family
from ..data.database import TransactionDatabase
from ..kernels import available_backends, get_backend
from ..mining import mine
from ..obs import InstrumentedBackend, MetricsRegistry
from ..runtime import MiningInterrupted
from ..stats import OperationCounters

__all__ = [
    "Measurement",
    "SweepResult",
    "run_sweep",
    "run_kernel_microbench",
    "compare_kernel_baselines",
]

#: Cell statuses: ``ok`` (measured), ``budget`` (the in-worker guard
#: tripped and reported back), ``timeout`` (the worker stopped polling
#: and was hard-killed by the parent), ``crashed`` (the worker process
#: died without reporting), ``skipped`` (not run — an earlier cell of
#: the same algorithm already failed).
CELL_STATUSES = ("ok", "budget", "timeout", "crashed", "skipped")


@dataclass
class Measurement:
    """One (algorithm, smin) cell of a sweep."""

    algorithm: str
    smin: int
    seconds: float
    n_closed: int
    counters: Dict[str, int]
    skipped: bool = False
    status: str = "ok"

    @property
    def log_seconds(self) -> float:
        """``log10`` of the runtime — the paper's vertical axis."""
        return math.log10(self.seconds) if self.seconds > 0 else float("-inf")


@dataclass
class SweepResult:
    """All measurements of one sweep, indexed ``[algorithm][smin]``."""

    dataset: str
    smin_values: List[int]
    algorithms: List[str]
    cells: Dict[Tuple[str, int], Measurement] = field(default_factory=dict)

    def get(self, algorithm: str, smin: int) -> Optional[Measurement]:
        return self.cells.get((algorithm, smin))

    def series(self, algorithm: str) -> List[Optional[float]]:
        """Runtime series of one algorithm over the sweep (None = skipped)."""
        out = []
        for smin in self.smin_values:
            cell = self.get(algorithm, smin)
            out.append(None if cell is None or cell.skipped else cell.seconds)
        return out

    def winner(self, smin: int) -> Optional[str]:
        """Fastest algorithm at one support value."""
        best_name, best_time = None, None
        for algorithm in self.algorithms:
            cell = self.get(algorithm, smin)
            if cell is None or cell.skipped:
                continue
            if best_time is None or cell.seconds < best_time:
                best_name, best_time = algorithm, cell.seconds
        return best_name

    def crossover(self, left: str, right: str) -> Optional[int]:
        """Largest smin at which ``left`` is strictly faster than ``right``.

        The paper's figures are all about where the intersection miners
        start beating the enumeration miners as support drops; this
        pinpoints that support value (``None`` if ``left`` never wins).
        """
        for smin in sorted(self.smin_values, reverse=True):
            a, b = self.get(left, smin), self.get(right, smin)
            if a is None or a.skipped:
                continue
            if b is None or b.skipped or a.seconds < b.seconds:
                return smin
        return None

    def as_dict(self) -> Dict:
        """JSON-serialisable form; cells keep their counter snapshots.

        This is what the ``BENCH_*.json`` records are built from, so a
        committed sweep carries the cost-model telemetry (intersections,
        node counts, eliminations) alongside the timings.
        """
        return {
            "dataset": self.dataset,
            "smin_values": list(self.smin_values),
            "algorithms": list(self.algorithms),
            "cells": [
                {
                    "algorithm": cell.algorithm,
                    "smin": cell.smin,
                    "seconds": None if cell.skipped else cell.seconds,
                    "n_closed": cell.n_closed,
                    "status": cell.status,
                    "counters": dict(cell.counters),
                }
                for (_, _), cell in sorted(self.cells.items())
            ],
        }

    def format_table(self, value: str = "seconds") -> str:
        """Paper-style table: rows = smin, columns = algorithms.

        ``value`` is ``"seconds"``, ``"log"`` (the figures' axis),
        ``"closed"`` (result sizes) or any counter name.
        """
        header = ["smin"] + list(self.algorithms)
        rows: List[List[str]] = []
        for smin in self.smin_values:
            row = [str(smin)]
            for algorithm in self.algorithms:
                cell = self.get(algorithm, smin)
                if cell is None or cell.skipped:
                    row.append("--")
                elif value == "seconds":
                    row.append(f"{cell.seconds:.4f}")
                elif value == "log":
                    row.append(f"{cell.log_seconds:+.2f}")
                elif value == "closed":
                    row.append(str(cell.n_closed))
                else:
                    row.append(str(cell.counters.get(value, 0)))
            rows.append(row)
        widths = [
            max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
            for col in range(len(header))
        ]
        lines = [
            "  ".join(title.rjust(width) for title, width in zip(header, widths)),
            "  ".join("-" * width for width in widths),
        ]
        for row in rows:
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        return "\n".join(lines)


def _cell_worker(connection, db, smin, algorithm, options, hard_limit) -> None:
    """Subprocess body for one hard-limited measurement.

    The guard stops the run at ``hard_limit`` from the inside (sending
    a ``("budget", ...)`` report through the pipe); the parent's
    ``terminate()`` stays as the backstop for a worker that stops
    polling (e.g. stuck in numpy).  A worker that dies outright never
    sends anything — the parent reads the EOF/exit code and records the
    cell as crashed, never as a budget trip.
    """
    counters = OperationCounters()
    start = time.perf_counter()
    try:
        mined = mine(
            db,
            smin,
            algorithm=algorithm,
            counters=counters,
            timeout=hard_limit,
            **options,
        )
    except MiningInterrupted as exc:
        connection.send(("budget", str(exc)))
    else:
        elapsed = time.perf_counter() - start
        connection.send(("ok", (elapsed, len(mined), counters.as_dict())))
    connection.close()


def _measure_cell(
    db: TransactionDatabase,
    smin: int,
    algorithm: str,
    options: dict,
    repeats: int,
    hard_limit: Optional[float],
    isolation: str = "process",
) -> Tuple[str, Optional[Tuple[float, int, Dict[str, int]]]]:
    """One measurement, hard-limited according to ``isolation``.

    ``"process"`` runs the cell in a killable fork; ``"guard"`` runs it
    in-process under a :class:`~repro.runtime.RunGuard` deadline (no
    fork overhead, cooperative); ``"none"`` applies no hard limit.

    Returns ``(status, measurement)``: ``("ok", (seconds, n_closed,
    counters))`` for a completed cell, otherwise one of ``("budget",
    None)`` — the in-worker guard tripped and said so — ``("timeout",
    None)`` — the worker stopped responding and the parent killed it —
    or ``("crashed", None)`` — the worker process died without
    reporting.  The distinction matters downstream: a budget trip is
    the expected "run terminated" outcome of the paper's methodology, a
    crash is a bug to investigate.
    """
    if hard_limit is None or isolation == "none":
        best = None
        for _ in range(repeats):
            counters = OperationCounters()
            start = time.perf_counter()
            mined = mine(db, smin, algorithm=algorithm, counters=counters, **options)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, len(mined), counters.as_dict())
        return "ok", best
    if isolation == "guard":
        best = None
        for _ in range(repeats):
            counters = OperationCounters()
            start = time.perf_counter()
            try:
                mined = mine(
                    db,
                    smin,
                    algorithm=algorithm,
                    counters=counters,
                    timeout=hard_limit,
                    **options,
                )
            except MiningInterrupted:
                return "budget", None
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, len(mined), counters.as_dict())
        return "ok", best
    context = multiprocessing.get_context("fork")
    best = None
    for _ in range(repeats):
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(
            target=_cell_worker,
            args=(sender, db, smin, algorithm, options, hard_limit),
        )
        worker.start()
        sender.close()
        # The in-worker guard fires at hard_limit; the extra second of
        # poll is the grace period for it to report back before the
        # parent falls back to a hard kill.
        if receiver.poll(hard_limit + 1.0):
            try:
                status, payload = receiver.recv()
            except EOFError:
                # The pipe closed without a report: the worker died
                # (segfault, os._exit, OOM-kill) — not a budget trip.
                worker.join()
                receiver.close()
                return "crashed", None
            worker.join()
            receiver.close()
            if status == "budget":
                return "budget", None
            if worker.exitcode != 0:  # pragma: no cover - report then death
                return "crashed", None
            if best is None or payload[0] < best[0]:
                best = payload
        else:
            worker.terminate()
            worker.join()
            receiver.close()
            return "timeout", None
    return "ok", best


def run_sweep(
    db: TransactionDatabase,
    smin_values: Sequence[int],
    algorithms: Sequence[str],
    dataset: str = "",
    repeats: int = 1,
    time_limit: Optional[float] = None,
    verify: bool = False,
    algorithm_options: Optional[Dict[str, dict]] = None,
    hard_limit_factor: float = 5.0,
    isolation: str = "process",
) -> SweepResult:
    """Time every algorithm at every support value.

    ``smin_values`` are swept from high to low support (the paper's
    direction of increasing difficulty).  An algorithm whose cell
    exceeds ``time_limit`` is not run at lower supports, and each cell
    is additionally hard-limited after ``time_limit *
    hard_limit_factor`` seconds — the equivalent of the paper
    terminating the runs that did not finish "in reasonable time".
    ``isolation`` selects how: ``"process"`` (default) forks a killable
    subprocess per cell, ``"guard"`` polls a
    :class:`~repro.runtime.RunGuard` deadline in-process (cheaper, and
    the only option where fork is unavailable), ``"none"`` disables the
    hard limit (soft early-stopping still applies).  ``verify=True``
    additionally checks every result against the brute-force oracle
    (tiny databases only, incompatible with the subprocess isolation so
    it runs in-process).  ``algorithm_options`` maps algorithm names to
    extra keyword options for :func:`repro.mining.mine`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if isolation not in ("process", "guard", "none"):
        raise ValueError(f"unknown isolation {isolation!r}")
    options = algorithm_options or {}
    ordered = sorted(set(int(s) for s in smin_values), reverse=True)
    result = SweepResult(dataset, ordered, list(algorithms))
    hard_limit = None
    if time_limit is not None and not verify:
        hard_limit = max(time_limit * hard_limit_factor, time_limit + 30.0)
    dead = set()
    for smin in ordered:
        for algorithm in algorithms:
            if algorithm in dead:
                result.cells[(algorithm, smin)] = Measurement(
                    algorithm, smin, float("inf"), 0, {},
                    skipped=True, status="skipped",
                )
                continue
            status, measurement = _measure_cell(
                db,
                smin,
                algorithm,
                options.get(algorithm, {}),
                repeats,
                hard_limit,
                isolation,
            )
            if status != "ok":
                result.cells[(algorithm, smin)] = Measurement(
                    algorithm, smin, float("inf"), 0, {},
                    skipped=True, status=status,
                )
                dead.add(algorithm)
                continue
            seconds, n_closed, counter_dict = measurement
            if verify:
                mined = mine(db, smin, algorithm=algorithm, **options.get(algorithm, {}))
                check_closed_family(db, mined, smin)
            result.cells[(algorithm, smin)] = Measurement(
                algorithm, smin, seconds, n_closed, counter_dict
            )
            if time_limit is not None and seconds > time_limit:
                dead.add(algorithm)
    return result


# ----------------------------------------------------------------------
# Kernel microbenchmarks
# ----------------------------------------------------------------------

def _dense_fixture(
    n_rows: int, n_bits: int, density: float, seed: int
) -> List[int]:
    """Deterministic gene-expression-style masks: wide, dense rows."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_rows):
        # getrandbits gives density 0.5; AND thins towards 0.25, OR
        # thickens towards 0.75 — coarse, but the exact density is
        # irrelevant to the timing as long as it is reproducible.
        mask = rng.getrandbits(n_bits)
        if density < 0.4:
            mask &= rng.getrandbits(n_bits)
        elif density > 0.6:
            mask |= rng.getrandbits(n_bits)
        rows.append(mask)
    return rows


def _time_call(call, repeats: int) -> float:
    """Best-of-``repeats`` seconds per call, batched against timer jitter.

    Microsecond-scale primitives are timed in batches sized to span
    ~200us per sample — single-call timings at that scale are dominated
    by timer granularity and scheduler noise, which is what a tight CI
    tolerance on speedup *ratios* cannot absorb.  The warmup call also
    pays any one-off lazy cost (e.g. a resident table materialising its
    packed rows) outside the measurement.
    """
    call()  # warmup: lazy materialisation, allocator, branch caches
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    batch = max(1, min(512, int(2e-4 / once))) if once > 0 else 512
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            call()
        elapsed = (time.perf_counter() - start) / batch
        if elapsed < best:
            best = elapsed
    return best


def run_kernel_microbench(
    n_rows: int = 256,
    n_bits: int = 1536,
    density: float = 0.5,
    seed: int = 20110322,
    repeats: int = 3,
    backends: Optional[Sequence[str]] = None,
    cases: Optional[Sequence[str]] = None,
    descent_masks: Optional[Sequence[int]] = None,
) -> Dict:
    """Time the batched kernel primitives on a dense wide fixture.

    The fixture mimics the paper's gene-expression workloads: few rows,
    very many items, high density — exactly the regime where the
    intersection miners (and word-parallel set algebra) win.  Every
    backend runs the same calls on the same masks; each case records
    per-backend best-of-``repeats`` seconds plus the speedup of every
    non-default backend over ``bitint``.

    Absolute seconds are machine-specific; the ``speedup`` ratios are
    not, which is what :func:`compare_kernel_baselines` gates on.

    ``cases`` restricts timing to the named cases (unknown names raise
    ``ValueError``); the result then carries the restriction under
    ``"case_filter"`` so the baseline comparison knows the other cases
    were deliberately not run.  ``descent_masks`` (a prepared
    transaction stream, e.g. the yeast fig-5 workload) enables the
    ``ista_descent`` case, each row timing the repository update that
    backend's IsTa runs: the ``"bitint"`` row times the node-at-a-time
    recursive prefix-tree update, the ``"native"`` row the C repository
    (:class:`~repro.core.prefix_tree.NativeRepository`), and every other
    row the level-batched bounded descent with that backend — so the
    ``speedup:`` ratios read "that backend's repository update over the
    recursive baseline".
    """
    names = list(backends) if backends is not None else available_backends()
    masks = _dense_fixture(n_rows, n_bits, density, seed)
    probe = masks[0]
    # A fresh random mask is (essentially) never a subset of another
    # random mask, so subset_any scans every row for both backends
    # instead of exiting at row zero.
    needle = random.Random(seed + 2).getrandbits(n_bits)
    selector = random.Random(seed + 1).getrandbits(n_rows) | 1
    threshold = max(1, int(n_rows * density * 0.5))
    # Early-abort regime: joints of two density-0.5 masks sit near
    # density 0.25, so a bound at 0.65 * n_bits sentinels every row —
    # the maximal-abort workload for the bounded intersection.
    abort_bound = max(1, int(n_bits * density * 1.3))
    # Query-side case at serving-family scale (closed families run to
    # thousands of rows): the fixture tiled 8x, synthetic supports
    # leaving ~2 rows in 3 eligible — the scan-skipping regime where
    # the support prefilter decides most rows without a containment
    # test.
    query_masks = masks * 8
    query_supports = [1 + (i * 7 % 60) for i in range(len(query_masks))]
    query_bound = 20

    def cases_for(kernel):
        table = kernel.pack(masks, n_bits)
        query_table = kernel.pack(query_masks, n_bits)
        # Dedicated table for intersect_selected: the LCM closure path
        # keeps its transaction table int-backed (no vectorised
        # primitive ever touches it), so the case must measure that
        # regime, not the rows-resident form the shared table takes on
        # after the table-out cases run.
        closure_table = kernel.pack(masks, n_bits)
        counts = kernel.column_counts(masks, n_bits)
        return {
            # The intersect-family cases time the *resident* table
            # forms — the calls the miners' hot loops actually make
            # (table-in/table-out; the one-off pack sits outside the
            # timing).  The mask-list forms they replaced are pinned at
            # ~1.0x by the int<->ndarray conversion at the boundary; the
            # resident forms are where that ceiling breaks.
            "intersect_many": lambda: kernel.intersect_table(table, probe),
            "intersect_count_many": lambda: kernel.intersect_count_table(
                table, probe
            ),
            "intersect_count_many_bounded": lambda: (
                kernel.intersect_count_table_bounded(table, probe, abort_bound)
            ),
            "superset_max_support_bounded": lambda: (
                kernel.superset_max_support_bounded(
                    query_table, query_supports, needle, query_bound
                )
            ),
            "popcount_many": lambda: kernel.popcount_many(masks),
            "popcount_rows": lambda: kernel.popcount_rows(table),
            "subset_any": lambda: kernel.subset_any(table, needle),
            "intersect_selected": lambda: kernel.intersect_selected(
                closure_table, selector
            ),
            "column_counts": lambda: kernel.column_counts(masks, n_bits),
            "bound_filter": lambda: kernel.bound_filter(counts, probe, threshold),
        }

    case_filter = list(cases) if cases is not None else None
    if case_filter is not None:
        known = set(cases_for(get_backend(names[0]))) | {"ista_descent"}
        unknown = sorted(set(case_filter) - known)
        if unknown:
            raise ValueError(
                f"unknown case(s) {unknown}; known cases: {sorted(known)}"
            )

    def selected(case_dict):
        if case_filter is None:
            return case_dict
        return {k: v for k, v in case_dict.items() if k in case_filter}

    cases: Dict[str, Dict[str, float]] = {}
    kernel_metrics: Dict[str, Dict[str, int]] = {}
    for name in names:
        kernel = get_backend(name)
        timed_cases = selected(cases_for(kernel))
        for case, call in timed_cases.items():
            cases.setdefault(case, {})[name] = _time_call(call, repeats)
        # One instrumented pass per backend: the per-primitive call and
        # estimated-bytes counters for the exact case workload above.
        # Kept as its own top-level section (not inside ``cases``) so
        # the speedup/seconds comparison of compare_kernel_baselines is
        # untouched by counter churn.
        registry = MetricsRegistry()
        instrumented = InstrumentedBackend(kernel, registry)
        for call in selected(cases_for(instrumented)).values():
            call()
        kernel_metrics[name] = {
            metric_name: value
            for metric_name, value in registry.snapshot()["counters"].items()
            if value
        }

    if descent_masks is not None and (
        case_filter is None or "ista_descent" in case_filter
    ):
        # The IsTa repository-update workload: recursive node-at-a-time
        # descent as the "bitint" reference row; every other row replays
        # the stream through the repository that backend's IsTa runs
        # (the C repository on native, the level-batched bounded descent
        # elsewhere) — the ratio is its win over the recursion.
        from ..core.prefix_tree import PrefixTree, repository_for

        stream = list(descent_masks)

        def time_descent(make):
            def call():
                tree = make()
                for tx_mask in stream:
                    tree.add_transaction(tx_mask)

            return _time_call(call, repeats)

        descent_row: Dict[str, float] = {}
        for name in names:
            kernel = get_backend(name)
            if name == "bitint":
                descent_row[name] = time_descent(
                    lambda: PrefixTree(kernel=kernel, batched=False)
                )
            else:
                descent_row[name] = time_descent(lambda: repository_for(kernel))
        cases["ista_descent"] = descent_row

    for case, timings in cases.items():
        reference = timings.get("bitint")
        if reference:
            for name in names:
                if name != "bitint" and timings.get(name):
                    timings[f"speedup:{name}"] = reference / timings[name]

    speedups = [
        value
        for timings in cases.values()
        for key, value in timings.items()
        if key.startswith("speedup:") and value > 0
    ]
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else None
    )
    result = {
        "fixture": {
            "n_rows": n_rows,
            "n_bits": n_bits,
            "density": density,
            "seed": seed,
            "repeats": repeats,
        },
        "backends": names,
        "cases": cases,
        "kernel_metrics": kernel_metrics,
        "summary": {"geomean_speedup": geomean},
    }
    if case_filter is not None:
        result["case_filter"] = case_filter
    return result


def compare_kernel_baselines(
    baseline: Dict,
    fresh: Dict,
    mode: str = "speedup",
    tolerance: float = 0.5,
    require_speedup: Optional[float] = None,
    per_case_floors: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Compare a fresh microbench run against a committed baseline.

    Returns a list of regression messages (empty means the gate
    passes).  ``mode="speedup"`` (default, machine-independent)
    requires every recorded ``speedup:<backend>`` ratio to stay within
    ``tolerance`` (relative) of the baseline ratio; ``mode="seconds"``
    requires absolute per-case seconds not to regress by more than
    ``tolerance`` (relative) — only meaningful on the machine that
    recorded the baseline.  ``require_speedup`` additionally demands a
    fresh geometric-mean speedup of at least that factor, regardless of
    what the baseline recorded.  ``per_case_floors`` maps case names
    (``"name"``, binding every ratio of the case; or
    ``"name@backend"``, binding only that backend's ratio) to absolute
    speedup floors the fresh run must clear — hard promises for
    specific primitives (e.g. the resident intersect family),
    independent of the baseline and of ``tolerance``.  Floors committed
    in the baseline itself (a top-level ``"floors"`` mapping with the
    same spec syntax) apply automatically on every comparison;
    ``per_case_floors`` entries override a committed floor for the same
    spec.

    Baseline rows for backends the fresh run did not exercise (its
    ``"backends"`` list — e.g. ``native`` on an install without the
    extension) are skipped rather than failed: an absent optional
    backend is a supported configuration, not a regression.  Whole
    cases are likewise skipped when the fresh run carries a
    ``"case_filter"`` naming a deliberate timing restriction — this
    extends to floors (committed or passed) whose case was restricted
    out of the fresh run.
    """
    if mode not in ("speedup", "seconds"):
        raise ValueError(f"mode must be 'speedup' or 'seconds', got {mode!r}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    failures: List[str] = []
    fresh_backends = set(fresh.get("backends", []))
    case_filter = fresh.get("case_filter")

    def backend_of(key: str) -> str:
        return key.split(":", 1)[1] if key.startswith("speedup:") else key

    for case, base_timings in baseline.get("cases", {}).items():
        fresh_timings = fresh.get("cases", {}).get(case)
        if fresh_timings is None:
            if case_filter is not None and case not in case_filter:
                continue
            failures.append(f"{case}: missing from fresh run")
            continue
        for key, base_value in base_timings.items():
            if fresh_backends and backend_of(key) not in fresh_backends:
                continue
            fresh_value = fresh_timings.get(key)
            if fresh_value is None:
                failures.append(f"{case}/{key}: missing from fresh run")
                continue
            if mode == "speedup":
                if not key.startswith("speedup:"):
                    continue
                floor = base_value * (1.0 - tolerance)
                if fresh_value < floor:
                    failures.append(
                        f"{case}/{key}: speedup {fresh_value:.2f}x fell below "
                        f"{floor:.2f}x (baseline {base_value:.2f}x, "
                        f"tolerance {tolerance:.0%})"
                    )
            else:
                if key.startswith("speedup:"):
                    continue
                ceiling = base_value * (1.0 + tolerance)
                if fresh_value > ceiling:
                    failures.append(
                        f"{case}/{key}: {fresh_value:.6f}s exceeded "
                        f"{ceiling:.6f}s (baseline {base_value:.6f}s, "
                        f"tolerance {tolerance:.0%})"
                    )
    if require_speedup is not None:
        geomean = fresh.get("summary", {}).get("geomean_speedup")
        if geomean is None or geomean < require_speedup:
            failures.append(
                f"geomean speedup {geomean if geomean is None else f'{geomean:.2f}x'} "
                f"below required {require_speedup:.2f}x"
            )
    floors = dict(baseline.get("floors") or {})
    floors.update(per_case_floors or {})
    for spec, floor in sorted(floors.items()):
        case, at, backend = spec.partition("@")
        if (
            case_filter is not None
            and case not in case_filter
            and case not in fresh.get("cases", {})
        ):
            # The case was deliberately restricted out of this run (the
            # derived-family cases survive a restriction to their
            # members, hence the second condition).
            continue
        fresh_timings = fresh.get("cases", {}).get(case, {})
        if at:
            # Backend-qualified floor: binds exactly one ratio, and only
            # when the fresh run exercised that backend at all — an
            # optional backend missing from the install is a supported
            # configuration, not a broken promise.
            if fresh_backends and backend not in fresh_backends:
                continue
            key = f"speedup:{backend}"
            value = fresh_timings.get(key)
            if value is None:
                failures.append(
                    f"{case}/{key}: no speedup recorded "
                    f"(required floor {floor:.2f}x)"
                )
            elif value < floor:
                failures.append(
                    f"{case}/{key}: speedup {value:.2f}x below required "
                    f"floor {floor:.2f}x"
                )
            continue
        ratios = {
            key: value
            for key, value in fresh_timings.items()
            if key.startswith("speedup:")
            and (not fresh_backends or backend_of(key) in fresh_backends)
        }
        if not ratios:
            failures.append(
                f"{case}: no speedup recorded (required floor {floor:.2f}x)"
            )
            continue
        for key, value in sorted(ratios.items()):
            if value < floor:
                failures.append(
                    f"{case}/{key}: speedup {value:.2f}x below required "
                    f"floor {floor:.2f}x"
                )
    return failures
