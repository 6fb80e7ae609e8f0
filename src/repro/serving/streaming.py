"""Durable streaming ingest: WAL + micro-batch folds + tiered compaction.

A :class:`StreamingMiner` is the always-on form of the serving layer: a
single-writer *store directory* holding

* a canonical RSNP snapshot per compaction generation
  (``snapshot-<covered>.rsnp``, where ``<covered>`` is the number of
  ingested transactions the snapshot contains), and
* a write-ahead delta log (``wal/``, see :mod:`repro.serving.wal`)
  recording every transaction **before** it is folded.

The durable state is therefore always *snapshot + log tail*; the
in-memory repository is a pure cache of it.  Ingested transactions are
buffered and folded in micro-batches through the existing batched
:meth:`~repro.core.incremental.IncrementalMiner.extend` (the ~13x warm
delta fold), on a count and/or age cadence.  When enough log segments
accumulate, *compaction* merges the overlay generations back into a
canonical snapshot — written atomically and durably (temp file, fsync,
rename, directory fsync) — and prunes the log segments it covers.  WAL
segments are pruned **only after** the covering snapshot is durable;
that invariant is what the crash-at-every-point property tests pin.

Crash recovery (:meth:`StreamingMiner.open` — the same entry point as
normal startup, because recovery *is* startup) loads the newest
readable snapshot generation, repairs the log (truncating a torn final
record at the last valid CRC), replays the tail, and reports what it
did in a :class:`RecoveryReport`.  The recovered engine answers every
query identically to a process that never crashed, because the
closed-set family is a pure function of the transaction multiset and
the durable state always holds an exact prefix of the acked stream.

Failure semantics during operation:

* A :class:`~repro.runtime.MiningInterrupted` inside a fold (the
  per-fold :class:`~repro.runtime.RunGuard` budget tripped) leaves the
  in-memory repository holding a *reordered* partial batch — no longer
  provably a prefix of the log — so the store marks itself broken,
  refuses further ingest/compaction, and the caller re-opens it (cheap:
  snapshot + tail replay) to resume from the exact durable state.
  Nothing is lost; the interrupted batch is still in the log.
* Transient I/O errors in the append path retry with jittered backoff
  (``wal.retries``); non-transient ones propagate immediately.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Optional, Tuple

from ..obs import FlightRecorder, SIZE_BUCKETS, resolve_probe
from ..runtime import RunGuard
from ..runtime.guard import checker
from ..stats import OperationCounters
from ..core.incremental import IncrementalMiner
from .snapshot import (
    SnapshotError,
    dumps_snapshot,
    load_snapshot,
    write_bytes_durable,
)
from .wal import WalError, WalScan, WriteAheadLog, repair_wal, scan_wal

__all__ = ["StreamingMiner", "RecoveryReport", "CRASH_POINTS"]

#: Every named FaultPlan crash point the pipeline calls, in pipeline
#: order.  The crash-recovery property test iterates this list; adding
#: a new boundary here forces it through the kill-and-recover proof.
CRASH_POINTS = (
    "wal.append",         # before the record is framed to disk
    "wal.append.torn",    # mid-frame: a torn tail for recovery to cut
    "wal.append.flush",   # record written, fsync (if any) pending
    "fold",               # record durable, in-memory fold pending
    "compact",            # before the snapshot temp file is written
    "compact.save",       # temp snapshot durable, rename pending
    "compact.swap",       # renamed into place, directory fsync pending
    "compact.prune",      # snapshot durable, log pruning pending
    "wal.prune",          # before a covered segment is unlinked
    "wal.prune.mid",      # between unlinking covered segments
    "flight.emit",        # before a flight-recorder snapshot line
    "flight.emit.torn",   # mid-line: a torn recorder tail to repair
)

_SNAPSHOT_RE = re.compile(r"snapshot-(\d+)\.rsnp$")


def _snapshot_name(covered: int) -> str:
    return f"snapshot-{covered:012d}.rsnp"


def _list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(covered, path)`` of every snapshot generation, ascending."""
    entries = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SNAPSHOT_RE.fullmatch(name)
        if match:
            entries.append((int(match.group(1)), os.path.join(directory, name)))
    entries.sort()
    return entries


@dataclass
class RecoveryReport:
    """What opening a store found and did (the ``LoadReport`` of crash
    recovery).

    ``clean`` is ``True`` for an ordinary startup: a readable newest
    snapshot, no torn log tail, nothing dropped.  Anything else is
    still a *successful* recovery — the fields say exactly what was
    salvaged and what was cut.
    """

    directory: str
    snapshot_path: Optional[str] = None
    snapshot_transactions: int = 0
    replayed_records: int = 0
    recovered_transactions: int = 0
    segments_scanned: int = 0
    truncated_bytes: int = 0
    torn_segment: Optional[str] = None
    torn_reason: Optional[str] = None
    dropped_segments: List[str] = field(default_factory=list)
    corrupt_snapshots: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.torn_segment is None
            and not self.dropped_segments
            and not self.corrupt_snapshots
        )

    def describe(self) -> str:
        lines = [
            f"store {self.directory}: recovered "
            f"{self.recovered_transactions} transaction(s) "
            f"(snapshot {self.snapshot_transactions} + "
            f"{self.replayed_records} replayed)",
            f"transactions {self.recovered_transactions}",
        ]
        if self.snapshot_path is not None:
            lines.append(f"snapshot {os.path.basename(self.snapshot_path)}")
        lines.append(f"wal segments scanned: {self.segments_scanned}")
        if self.torn_segment is not None:
            lines.append(
                f"truncated {self.truncated_bytes} byte(s) of torn tail in "
                f"{os.path.basename(self.torn_segment)} ({self.torn_reason})"
            )
        for path in self.dropped_segments:
            lines.append(f"dropped unreachable segment {os.path.basename(path)}")
        for path in self.corrupt_snapshots:
            lines.append(
                f"ignored corrupt snapshot generation {os.path.basename(path)}"
            )
        return "\n".join(lines)


class StreamingMiner:
    """Durable, always-on ingest over an :class:`IncrementalMiner`.

    Construct with :meth:`open` (recovery and startup are the same
    code path).  Single writer per store directory; queries
    (:meth:`closed_sets`, :meth:`top_k`, :meth:`supersets_of`,
    :meth:`support_of`) delegate to the inner memoized engine.

    Parameters (all keyword-only on :meth:`open`)
    ---------------------------------------------
    fsync:
        WAL durability policy (``always``/``batch``/``os``); see
        :mod:`repro.serving.wal` and the guarantees matrix in
        ``docs/robustness.md``.
    batch_records / batch_age:
        Micro-batch fold cadence: fold when this many transactions are
        buffered, or when the oldest buffered one is this old
        (age checked on :meth:`ingest` and :meth:`tick`).
    compact_segments:
        Run compaction when the log holds more than this many segment
        files (the tier fan-in).
    segment_max_bytes:
        WAL segment roll threshold.
    keep_snapshots:
        Snapshot generations to retain (older ones are removed after a
        successful compaction; the latest is never removed).
    fold_timeout / fold_memory_limit_mb:
        Per-fold :class:`RunGuard` budget; a trip marks the store
        broken (see the module docstring) and propagates.
    flight / flight_interval / flight_segment_max_bytes /
    flight_keep_segments:
        Flight-recorder control (:class:`repro.obs.FlightRecorder`,
        written under ``<store>/flight/``).  ``flight=None`` (the
        default) turns the recorder on exactly when a probe is
        attached; ``True`` demands one (a recorder with nothing to
        record is a configuration error); ``False`` disables it.  The
        recorder emits at every fold/tick/compaction boundary, rate-
        limited to one record per ``flight_interval`` seconds.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "use StreamingMiner.open(directory, ...) — recovery and "
            "startup share one entry point"
        )

    @classmethod
    def open(
        cls,
        directory,
        *,
        fsync: str = "batch",
        batch_records: int = 64,
        batch_age: Optional[float] = None,
        compact_segments: int = 4,
        segment_max_bytes: int = 1 << 20,
        keep_snapshots: int = 2,
        fold_timeout: Optional[float] = None,
        fold_memory_limit_mb: Optional[float] = None,
        flight: Optional[bool] = None,
        flight_interval: float = 1.0,
        flight_segment_max_bytes: int = 256 << 10,
        flight_keep_segments: int = 4,
        counters: Optional[OperationCounters] = None,
        backend=None,
        probe=None,
        fault_plan=None,
    ) -> "StreamingMiner":
        if batch_records < 1:
            raise WalError(
                f"batch_records must be at least 1, got {batch_records}"
            )
        if compact_segments < 1:
            raise WalError(
                f"compact_segments must be at least 1, got {compact_segments}"
            )
        if keep_snapshots < 1:
            raise WalError(
                f"keep_snapshots must be at least 1, got {keep_snapshots}"
            )
        if flight and not resolve_probe(probe).active:
            # Refused before recovery touches the store or opens the log.
            raise WalError(
                "flight recorder needs an active probe; pass "
                "probe=repro.obs.Probe() (or flight=False)"
            )
        self = object.__new__(cls)
        self._directory = os.fspath(directory)
        self._wal_dir = os.path.join(self._directory, "wal")
        self._obs = resolve_probe(probe)
        self._probe = probe
        self._plan = fault_plan
        self._batch_records = batch_records
        self._batch_age = batch_age
        self._compact_segments = compact_segments
        self._keep_snapshots = keep_snapshots
        self._fold_timeout = fold_timeout
        self._fold_memory_limit_mb = fold_memory_limit_mb
        self._backend = backend
        self._buffer: List[list] = []
        self._buffer_since: Optional[float] = None
        self._broken = False
        self._closed = False
        self._flight: Optional[FlightRecorder] = None
        self._last_fold_seconds: Optional[float] = None
        os.makedirs(self._directory, exist_ok=True)

        with self._obs.phase("serve.recover", store=self._directory):
            report = RecoveryReport(directory=self._directory)
            self._clean_stale_tmp()

            # Newest readable snapshot generation wins; a corrupt newest
            # falls back to the previous one — safe, because segments are
            # pruned only once their covering snapshot is durable, so the
            # older generation's tail is still in the log.
            miner = None
            covered = 0
            for covered_candidate, path in reversed(_list_snapshots(self._directory)):
                try:
                    miner = load_snapshot(
                        path, counters=counters, backend=backend, probe=probe
                    )
                except (SnapshotError, OSError):
                    report.corrupt_snapshots.append(path)
                    continue
                if miner.n_transactions != covered_candidate:
                    report.corrupt_snapshots.append(path)
                    miner = None
                    continue
                report.snapshot_path = path
                covered = covered_candidate
                break
            if miner is None:
                miner = IncrementalMiner(
                    counters=counters, backend=backend, probe=probe
                )
            report.snapshot_transactions = covered

            scan = scan_wal(self._wal_dir)
            report.segments_scanned = len(scan.segments) + (
                1 if scan.torn_segment not in {s.path for s in scan.segments}
                and scan.torn_segment is not None
                else 0
            )
            if not scan.clean:
                report.truncated_bytes = scan.truncated_bytes
                report.torn_segment = scan.torn_segment
                report.torn_reason = scan.torn_reason
                report.dropped_segments = list(scan.dropped_segments)
                repair_wal(scan, probe=probe)

            tail = [labels for seq, labels in scan.records if seq >= covered]
            if tail:
                miner.extend(tail)
                self._obs.count("wal.records_replayed", len(tail))
            report.replayed_records = len(tail)
            report.recovered_transactions = miner.n_transactions

            self._miner = miner
            self._wal = WriteAheadLog(
                self._wal_dir,
                fsync=fsync,
                segment_max_bytes=segment_max_bytes,
                start_seq=miner.n_transactions,
                probe=probe,
                fault_plan=fault_plan,
            )
            self._last_compacted = covered
            self.recovery = report

            if flight is None:
                flight = self._obs.active
            if flight:
                self._flight = FlightRecorder(
                    os.path.join(self._directory, "flight"),
                    self._obs,
                    interval=flight_interval,
                    segment_max_bytes=flight_segment_max_bytes,
                    keep_segments=flight_keep_segments,
                    status=self._flight_status,
                    fault_plan=fault_plan,
                )
                # First record immediately: a store that dies before its
                # first fold still leaves its recovery state on disk.
                self._flight.emit(force=True)
        return self

    # ------------------------------------------------------------------
    # Introspection / delegation
    # ------------------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def miner(self) -> IncrementalMiner:
        """The inner memoized query engine."""
        return self._miner

    @property
    def n_transactions(self) -> int:
        """Transactions folded into the repository (excludes the buffer)."""
        return self._miner.n_transactions

    @property
    def pending_records(self) -> int:
        """Logged-but-unfolded transactions in the micro-batch buffer."""
        return len(self._buffer)

    @property
    def broken(self) -> bool:
        """``True`` after a mid-fold budget trip; re-open to resume."""
        return self._broken

    @property
    def flight(self) -> Optional[FlightRecorder]:
        """The attached flight recorder (``None`` when disabled)."""
        return self._flight

    def _flight_status(self) -> dict:
        """The writer-side status dict stamped on each flight record."""
        return {
            "broken": self._broken,
            "n_transactions": self._miner.n_transactions,
            "pending_records": len(self._buffer),
            "wal_next_seq": self._wal.next_seq,
            "last_compacted": self._last_compacted,
            "last_fold_seconds": self._last_fold_seconds,
        }

    def closed_sets(self, smin: int = 1):
        return self._miner.closed_sets(smin)

    def top_k(self, k: int, smin: int = 1):
        return self._miner.top_k(k, smin)

    def supersets_of(self, items: Iterable[Hashable], smin: int = 1):
        return self._miner.supersets_of(items, smin)

    def support_of(self, items: Iterable[Hashable]) -> int:
        return self._miner.support_of(items)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _reach(self, point: str) -> None:
        if self._plan is not None:
            self._plan.reach(point)

    def _require_usable(self) -> None:
        if self._closed:
            raise WalError(f"store {self._directory} is closed")
        if self._broken:
            raise WalError(
                f"store {self._directory} had a fold interrupted mid-batch; "
                "re-open it to resume from the durable state (nothing was "
                "lost — the batch is still in the log)"
            )

    def ingest(self, transaction: Iterable[Hashable]) -> int:
        """Durably log one transaction, then fold on the batch cadence.

        Returns the transaction's global sequence number.  When this
        call returns, the record has left the process (and, under
        ``fsync="always"``, reached the disk): a crash at any later
        moment cannot lose it.
        """
        self._require_usable()
        labels = list(transaction)
        seq = self._wal.append(labels)
        self._buffer.append(labels)
        if self._buffer_since is None:
            self._buffer_since = time.monotonic()
        if len(self._buffer) >= self._batch_records or self._age_exceeded():
            self.fold()
            self.maybe_compact()
        return seq

    def _age_exceeded(self) -> bool:
        return (
            self._batch_age is not None
            and self._buffer_since is not None
            and time.monotonic() - self._buffer_since >= self._batch_age
        )

    def tick(self) -> bool:
        """Age-based cadence hook for idle follow loops.

        Folds (and maybe compacts) if the oldest buffered transaction
        has exceeded ``batch_age``; returns whether a fold ran.
        """
        self._require_usable()
        folded = False
        if self._buffer and self._age_exceeded():
            self.fold()
            self.maybe_compact()
            folded = True
        elif self._flight is not None:
            # Idle ticks still freshen the recorder (fold emits itself),
            # so an attached reader sees a live store as live.
            self._flight.emit()
        return folded

    def fold(self) -> int:
        """Fold the buffered micro-batch into the repository.

        Syncs the log first (the ``fsync="batch"`` durability point),
        then runs the batched warm delta fold under a fresh per-fold
        guard budget.  Returns the number of transactions folded.
        """
        self._require_usable()
        if not self._buffer:
            return 0
        self._wal.sync()
        self._reach("fold")
        batch = self._buffer
        n = len(batch)
        guard = None
        if self._fold_timeout is not None or self._fold_memory_limit_mb is not None:
            # Ingest polls once per transaction; stride 1 keeps small
            # batches from slipping between samples (same reasoning as
            # the snapshot CLI).
            guard = RunGuard(
                timeout=self._fold_timeout,
                memory_limit_mb=self._fold_memory_limit_mb,
                stride=1,
            )
        miner = self._miner
        fold_begin = time.perf_counter()
        with self._obs.phase("serve.fold", records=n):
            miner._check = checker(guard, miner.counters)
            try:
                miner.extend(batch)
            except BaseException:
                # The fold applied an unknown reordered prefix of the
                # batch; the in-memory state is no longer provably a
                # prefix of the log, so compaction must not run again
                # in this process.  The durable state is untouched.
                self._broken = True
                if self._flight is not None:
                    # Best effort: leave the broken flag on disk for an
                    # attached reader before the exception unwinds.
                    try:
                        self._flight.emit(force=True)
                    except Exception:
                        pass
                raise
            finally:
                miner._check = checker(None)
                if guard is not None:
                    guard.finish()
        self._last_fold_seconds = time.perf_counter() - fold_begin
        self._buffer = []
        self._buffer_since = None
        self._obs.count("wal.folds")
        self._obs.count("wal.folded_records", n)
        self._obs.observe("serve.fold.records", n, buckets=SIZE_BUCKETS)
        if self._flight is not None:
            self._flight.emit()
        return n

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def maybe_compact(self) -> Optional[str]:
        """Compact when the log's segment tier is over its fan-in."""
        if self._wal.segment_count > self._compact_segments:
            return self.compact()
        return None

    def compact(self) -> Optional[str]:
        """Merge the overlay generations into a canonical snapshot.

        Folds anything still buffered, writes the full repository as a
        new snapshot generation — atomically and durably (temp file +
        fsync + rename + directory fsync) — and only then prunes the
        log segments the snapshot covers, plus snapshot generations
        beyond ``keep_snapshots``.  Returns the new snapshot path, or
        ``None`` when nothing changed since the last compaction.
        """
        self._require_usable()
        self.fold()
        covered = self._miner.n_transactions
        if covered == self._last_compacted and _list_snapshots(self._directory):
            return None
        self._reach("compact")
        path = os.path.join(self._directory, _snapshot_name(covered))
        with self._obs.phase("serve.compact", covered=covered):
            data = dumps_snapshot(self._miner)
            write_bytes_durable(path, data, on_step=self._compact_step)
            self._obs.count("compaction.runs")
            self._obs.count("compaction.snapshot_bytes", len(data))
            # The snapshot is durable from here on: pruning the covered
            # log segments (and surplus older generations) is safe.
            self._reach("compact.prune")
            self._wal.roll()
            pruned = self._wal.prune_through(covered - 1)
            self._obs.count("compaction.segments_pruned", pruned)
            for old_covered, old_path in _list_snapshots(self._directory)[
                : -self._keep_snapshots
            ]:
                try:
                    os.unlink(old_path)
                    self._obs.count("compaction.snapshots_removed")
                except OSError:
                    pass
        self._last_compacted = covered
        if self._flight is not None:
            # Compactions are rare and change the store's shape; force a
            # record so the generation flip is always on disk.
            self._flight.emit(force=True)
        return path

    def _compact_step(self, step: str) -> None:
        if step == "synced":
            self._reach("compact.save")
        elif step == "renamed":
            self._reach("compact.swap")

    def _clean_stale_tmp(self) -> None:
        """Remove temp files a crashed compaction left behind."""
        try:
            names = os.listdir(self._directory)
        except FileNotFoundError:
            return
        for name in names:
            if ".rsnp.tmp." in name:
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError:
                    pass

    # ------------------------------------------------------------------

    def close(self, compact: bool = True) -> None:
        """Flush everything and close the log.

        A clean shutdown folds the buffer and (by default) compacts, so
        the next open loads one snapshot and replays nothing.  A broken
        store only closes the log — its durable state is already
        exactly right for the next open.
        """
        if self._closed:
            return
        if not self._broken:
            self.fold()
            if compact:
                self.compact()
        self._wal.close()
        if self._flight is not None:
            self._flight.close()
        self._closed = True

    def __enter__(self) -> "StreamingMiner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception (including an injected crash) must leave the
        # on-disk state exactly as-is; only a clean exit flushes.  The
        # log's descriptor is still given back, unsynced, so a later
        # close() (a no-op) cannot leak it.
        if exc_type is None:
            self.close()
        else:
            self._wal.release()
            if self._flight is not None:
                self._flight.__exit__(exc_type, exc, tb)
            self._closed = True

    def __repr__(self) -> str:
        return (
            f"StreamingMiner({self._directory!r}, "
            f"transactions={self._miner.n_transactions}, "
            f"pending={len(self._buffer)})"
        )
