"""The write-ahead delta log: durable streaming ingest for the miner.

The warm delta fold (:meth:`~repro.core.incremental.IncrementalMiner.extend`)
makes folding a batch of new transactions ~13x cheaper than a cold
mine — but the fold lives in memory, and a process death between
``extend`` and ``save_snapshot`` silently loses every transaction since
the last snapshot.  This module closes that gap with the standard
database recipe: **append every transaction to an on-disk log before it
is folded**, so the durable state is always ``snapshot + log tail`` and
recovery is ``load_snapshot`` plus a replay of the tail.

Log layout
----------

A log is a directory of append-only *segment* files named
``segment-<base_seq>.wal``, where ``base_seq`` is the global sequence
number (0-based transaction count) of the segment's first record::

    offset  size  field
    0       4     magic  b"RWAL"
    4       1     version (= 1)
    5       var   base_seq (unsigned LEB128)
    ...           frames, back to back

Each frame is CRC-checked and length-prefixed so a torn tail is
detectable and recovery never replays a partial transaction::

    offset  size  field
    0       4     payload length N (u32, little-endian)
    4       4     CRC-32 of the payload (u32, little-endian)
    8       N     payload: one type byte, then the body

The only record type is ``TXN`` (``0x01``); its body is the
transaction's labels as a UTF-8 JSON array, the same label universe the
snapshot codec accepts (JSON scalars, so the round trip is lossless).
Sequence numbers are positional — ``base_seq`` plus the frame index —
which keeps frames small and makes any gap between segments detectable.

Durability policies
-------------------

``fsync="always"`` fsyncs after every append (every acked record
survives power loss); ``"batch"`` fsyncs at :meth:`WriteAheadLog.sync`
— the streaming miner calls it at each fold boundary, so a power cut
loses at most one micro-batch; ``"os"`` never fsyncs and leaves
flushing to the kernel (records survive a *process* crash but not a
power cut).  Segment files are opened unbuffered, so even under
``"os"`` every acked append has left the process — ``SIGKILL`` cannot
take it back.  See ``docs/robustness.md`` for the full guarantee
matrix.

Scanning and repair
-------------------

:func:`scan_wal` walks the segments, validates every frame, and stops
at the first torn or corrupt one — a truncated length prefix, a frame
extending past EOF, a CRC mismatch, an undecodable payload, or a
sequence gap between segments.  Everything before the stop point is
replayable; everything after is reported, never raised as an
unstructured exception.  :func:`repair_wal` then truncates the damaged
segment at its last valid frame and removes unreachable later segments
so the log can accept appends again.

Transient I/O errors (``EINTR``/``EAGAIN``-class) during appends are
retried with jittered exponential backoff and counted in
``wal.retries``; non-transient errors fail fast.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..obs import LATENCY_BUCKETS, SIZE_BUCKETS, resolve_probe

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "FSYNC_POLICIES",
    "TRANSIENT_ERRNOS",
    "WalError",
    "WalScan",
    "SegmentInfo",
    "WriteAheadLog",
    "scan_wal",
    "repair_wal",
    "retry_io",
]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1

#: Supported fsync policies, strongest first.
FSYNC_POLICIES = ("always", "batch", "os")

#: Frame record types.
_RECORD_TXN = 0x01

#: Frame header: u32 payload length + u32 CRC-32, both little-endian.
_FRAME_HEADER = 8

#: errno values worth retrying: scheduler/signal noise, not real faults.
TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.EWOULDBLOCK, errno.EBUSY}
)

#: Label types that survive the JSON round trip (mirrors the snapshot codec).
_LABEL_TYPES = (str, int, float, bool)


class WalError(ValueError):
    """Raised for unusable log directories or unencodable records.

    Subclasses :class:`ValueError` so the CLI's exit-code mapping
    treats WAL problems as user/input errors (exit 2), matching
    :class:`~repro.serving.snapshot.SnapshotError`.
    """


def retry_io(
    operation: Callable[[], object],
    *,
    attempts: int = 4,
    base_delay: float = 0.01,
    max_delay: float = 0.5,
    probe=None,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
):
    """Run ``operation`` with bounded jittered-backoff retries.

    Only *transient* :class:`OSError` values (:data:`TRANSIENT_ERRNOS`)
    are retried, at most ``attempts`` total tries, sleeping a jittered
    exponential backoff (``base_delay * 2**k``, capped at
    ``max_delay``, scaled by a uniform jitter in ``[0.5, 1.0]``)
    between tries.  Every retry increments the ``wal.retries`` counter
    on ``probe``.  Non-transient errors — and a transient one on the
    final attempt — propagate unchanged, so callers keep their
    fail-fast behaviour for real faults.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    obs = resolve_probe(probe)
    jitter = (rng.random if rng is not None else random.random)
    for attempt in range(attempts):
        try:
            return operation()
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS or attempt == attempts - 1:
                raise
            obs.count("wal.retries")
            delay = min(base_delay * (2 ** attempt), max_delay)
            sleep(delay * (0.5 + 0.5 * jitter()))


def _append_uvarint(buf: bytearray, value: int) -> None:
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    shift = 0
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def _encode_record(labels) -> bytes:
    """One TXN frame: header + type byte + JSON label array."""
    for label in labels:
        if not isinstance(label, _LABEL_TYPES):
            raise WalError(
                "WAL transaction labels must be str/int/float/bool to "
                f"round-trip losslessly; got {type(label).__name__}: {label!r}"
            )
    payload = bytes([_RECORD_TXN]) + json.dumps(
        list(labels), ensure_ascii=False
    ).encode("utf-8")
    frame = bytearray(len(payload).to_bytes(4, "little"))
    frame += (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little")
    frame += payload
    return bytes(frame)


def _decode_payload(payload: bytes) -> Optional[list]:
    """Labels of a TXN payload, or ``None`` when it does not parse."""
    if not payload or payload[0] != _RECORD_TXN:
        return None
    try:
        labels = json.loads(payload[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(labels, list):
        return None
    return labels


def _segment_name(base_seq: int) -> str:
    return f"segment-{base_seq:012d}.wal"


def _segment_header(base_seq: int) -> bytes:
    buf = bytearray(WAL_MAGIC)
    buf.append(WAL_VERSION)
    _append_uvarint(buf, base_seq)
    return bytes(buf)


@dataclass
class SegmentInfo:
    """One segment's scan outcome."""

    path: str
    base_seq: int
    n_records: int
    #: Byte offset just past the last valid frame (= truncation target).
    valid_end: int
    #: Bytes past ``valid_end`` that did not parse (0 = clean).
    torn_bytes: int = 0


@dataclass
class WalScan:
    """Everything a scan of a log directory learned.

    ``records`` holds ``(seq, labels)`` for every replayable record in
    sequence order.  A scan never raises on torn or corrupt content —
    it stops at the first invalid frame and reports what it dropped, so
    recovery can truncate instead of dying.
    """

    directory: str
    segments: List[SegmentInfo] = field(default_factory=list)
    records: List[Tuple[int, list]] = field(default_factory=list)
    #: Bytes of torn/corrupt tail dropped from the damaged segment.
    truncated_bytes: int = 0
    #: Segment the scan stopped in (``None`` = every frame valid).
    torn_segment: Optional[str] = None
    #: Why the scan stopped there (human-readable, one line).
    torn_reason: Optional[str] = None
    #: Later segment files made unreachable by the damage.
    dropped_segments: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.torn_segment is None and not self.dropped_segments

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended record would take."""
        if self.records:
            return self.records[-1][0] + 1
        for info in reversed(self.segments):
            return info.base_seq + info.n_records
        return 0


def _list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(base_seq, path)`` of every segment file, in sequence order."""
    entries = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if not (name.startswith("segment-") and name.endswith(".wal")):
            continue
        stem = name[len("segment-") : -len(".wal")]
        if not stem.isdigit():
            continue
        entries.append((int(stem), os.path.join(directory, name)))
    entries.sort()
    return entries


def scan_wal(directory) -> WalScan:
    """Validate every frame of every segment; never raises on damage.

    The scan walks segments in sequence order and stops at the first
    problem — torn frame, CRC mismatch, undecodable payload, bad
    header, or inter-segment sequence gap — recording the stop point
    and everything it made unreachable.  All records before the stop
    point are returned for replay.
    """
    directory = os.fspath(directory)
    scan = WalScan(directory=directory)
    segments = _list_segments(directory)
    expected_seq: Optional[int] = None
    for index, (name_seq, path) in enumerate(segments):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            scan.torn_segment = path
            scan.torn_reason = f"unreadable segment: {exc}"
            scan.dropped_segments = [p for _, p in segments[index + 1 :]]
            return scan

        def stop(reason: str, valid_end: int, base_seq: int, n_records: int):
            scan.segments.append(
                SegmentInfo(
                    path, base_seq, n_records, valid_end, len(data) - valid_end
                )
            )
            scan.truncated_bytes += len(data) - valid_end
            scan.torn_segment = path
            scan.torn_reason = reason
            scan.dropped_segments = [p for _, p in segments[index + 1 :]]

        header = _segment_header(name_seq)
        if data[: len(header)] != header:
            stop("segment header mismatch (magic/version/base_seq)", 0, name_seq, 0)
            return scan
        if expected_seq is not None and name_seq != expected_seq:
            stop(
                f"sequence gap: segment starts at {name_seq}, "
                f"expected {expected_seq}",
                0,
                name_seq,
                0,
            )
            return scan
        pos = len(header)
        seq = name_seq
        n_records = 0
        while pos < len(data):
            if pos + _FRAME_HEADER > len(data):
                stop("torn frame header", pos, name_seq, n_records)
                return scan
            length = int.from_bytes(data[pos : pos + 4], "little")
            stored_crc = int.from_bytes(data[pos + 4 : pos + 8], "little")
            end = pos + _FRAME_HEADER + length
            if end > len(data):
                stop("torn frame payload", pos, name_seq, n_records)
                return scan
            payload = data[pos + _FRAME_HEADER : end]
            if (zlib.crc32(payload) & 0xFFFFFFFF) != stored_crc:
                stop("frame checksum mismatch", pos, name_seq, n_records)
                return scan
            labels = _decode_payload(payload)
            if labels is None:
                stop("undecodable frame payload", pos, name_seq, n_records)
                return scan
            scan.records.append((seq, labels))
            seq += 1
            n_records += 1
            pos = end
        scan.segments.append(SegmentInfo(path, name_seq, n_records, len(data)))
        expected_seq = seq
    return scan


def repair_wal(scan: WalScan, probe=None) -> int:
    """Truncate the torn segment and drop unreachable later ones.

    Takes the :class:`WalScan` that found the damage, physically
    truncates the damaged segment file at its last valid frame (so
    future appends produce a readable log again) and unlinks the
    segments past the gap.  Returns the number of bytes removed.
    Idempotent and a no-op on a clean scan.
    """
    obs = resolve_probe(probe)
    removed = 0
    if scan.torn_segment is not None:
        for info in scan.segments:
            if info.path == scan.torn_segment and info.torn_bytes:
                if info.n_records == 0 and info.valid_end == 0:
                    # Header itself was bad: the file holds nothing
                    # recoverable, remove it entirely.
                    removed += os.path.getsize(info.path)
                    os.unlink(info.path)
                else:
                    with open(info.path, "r+b") as handle:
                        handle.truncate(info.valid_end)
                        handle.flush()
                        os.fsync(handle.fileno())
                    removed += info.torn_bytes
                obs.count("wal.truncated_bytes", info.torn_bytes)
    for path in scan.dropped_segments:
        try:
            removed += os.path.getsize(path)
            os.unlink(path)
            obs.count("wal.segments_dropped")
        except OSError:
            pass
    if removed:
        from .snapshot import fsync_directory

        fsync_directory(scan.directory)
    return removed


class WriteAheadLog:
    """Appender over a log directory; one writer at a time.

    Parameters
    ----------
    directory:
        The log directory (created if missing).
    fsync:
        Durability policy — one of :data:`FSYNC_POLICIES`; see the
        module docstring for the guarantee each buys.
    segment_max_bytes:
        Roll to a fresh segment once the current one reaches this many
        bytes; bounded segments are what compaction prunes.
    start_seq:
        Sequence number of the first record if the directory holds no
        segments (a store whose log was fully pruned resumes from its
        snapshot's coverage).
    probe:
        Optional :class:`repro.obs.Probe` for the ``wal.*`` counters.
    fault_plan:
        Optional :class:`repro.runtime.FaultPlan`; the appender calls
        its named crash points (``wal.append``, ``wal.append.torn``,
        ``wal.append.flush``) around every write.
    """

    def __init__(
        self,
        directory,
        fsync: str = "batch",
        segment_max_bytes: int = 1 << 20,
        start_seq: int = 0,
        probe=None,
        fault_plan=None,
        retry_attempts: int = 4,
        retry_base_delay: float = 0.01,
        scan: Optional[WalScan] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; pick one of "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if segment_max_bytes < 1:
            raise WalError(
                f"segment_max_bytes must be positive, got {segment_max_bytes}"
            )
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self._obs = resolve_probe(probe)
        self._plan = fault_plan
        self._retry_attempts = retry_attempts
        self._retry_base_delay = retry_base_delay
        self._handle = None
        self._segment_bytes = 0
        self._synced = True
        os.makedirs(self.directory, exist_ok=True)
        if scan is None:
            scan = scan_wal(self.directory)
        if not scan.clean:
            raise WalError(
                f"WAL at {self.directory} is damaged "
                f"({scan.torn_reason}); run recovery to repair it first"
            )
        self.next_seq = scan.next_seq
        segments = _list_segments(self.directory)
        if start_seq > self.next_seq:
            # The covering snapshot is ahead of every logged record
            # (the log was pruned, or removed wholesale); the stale
            # segments carry nothing the snapshot does not, and keeping
            # them would open a sequence gap below the new base.
            for _, path in segments:
                os.unlink(path)
            segments = []
            self.next_seq = start_seq
        if segments:
            # Resume the live segment in place.
            self._resume_segment(segments[-1][0], segments[-1][1])
        else:
            self._roll_to(self.next_seq)

    # ------------------------------------------------------------------

    def _reach(self, point: str) -> None:
        if self._plan is not None:
            self._plan.reach(point)

    def _resume_segment(self, base_seq: int, path: str) -> None:
        self._handle = open(path, "ab", buffering=0)
        self._segment_bytes = os.path.getsize(path)
        self._segment_base = base_seq

    def _roll_to(self, base_seq: int) -> None:
        """Close the live segment and start a fresh one at ``base_seq``."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
        path = os.path.join(self.directory, _segment_name(base_seq))
        if os.path.exists(path):
            raise WalError(f"segment {path} already exists")
        handle = open(path, "ab", buffering=0)
        handle.write(_segment_header(base_seq))
        self._handle = handle
        self._segment_bytes = handle.tell()
        self._segment_base = base_seq
        self._synced = False
        self._obs.count("wal.segments_rolled")

    def roll(self) -> None:
        """Start a new segment (making the previous one prunable).

        A no-op while the live segment holds no records — rolling
        would just recreate the same base sequence.
        """
        if self._handle is not None and self._segment_base == self.next_seq:
            return
        self._roll_to(self.next_seq)

    @property
    def segment_count(self) -> int:
        return len(_list_segments(self.directory))

    # ------------------------------------------------------------------

    def _write_all(self, data: bytes) -> None:
        handle = self._handle
        view = memoryview(data)
        while view:
            written = handle.write(view)
            view = view[written:]

    def append(self, labels) -> int:
        """Durably frame one transaction; returns its sequence number.

        The record is on its way to disk *before* the caller folds the
        transaction — the whole point of a write-ahead log.  The
        segment file is unbuffered, so an acked append survives a
        process kill under every fsync policy; ``fsync="always"``
        additionally survives power loss.  Transient I/O errors are
        retried with backoff (``wal.retries``); others propagate.
        """
        frame = _encode_record(labels)
        if self._segment_bytes >= self.segment_max_bytes:
            self.roll()
        # Clock reads only when a probe is attached: the probe-off path
        # must stay bit-identical in cost to the pre-histogram appender.
        timed = self._obs.active
        begin = perf_counter() if timed else 0.0
        self._reach("wal.append")
        if self._plan is not None:
            # The torn-write crash point: fail *mid-frame*, leaving a
            # half record for recovery to truncate — reachable only
            # through injection, since real frame writes are one
            # unbuffered write.
            try:
                self._plan.reach("wal.append.torn")
            except BaseException:
                self._write_all(frame[: max(1, len(frame) // 2)])
                raise
        retry_io(
            lambda: self._write_all(frame),
            attempts=self._retry_attempts,
            base_delay=self._retry_base_delay,
            probe=self._obs,
        )
        self._segment_bytes += len(frame)
        self._synced = False
        seq = self.next_seq
        self.next_seq = seq + 1
        self._obs.count("wal.appends")
        self._obs.count("wal.appended_bytes", len(frame))
        self._reach("wal.append.flush")
        if self.fsync == "always":
            self._fsync_now()
        if timed:
            # The latency histogram covers the durable part of the
            # append (write + policy fsync), which is what an operator
            # tuning the fsync policy wants the p99 of.
            self._obs.observe(
                "wal.append.seconds", perf_counter() - begin,
                buckets=LATENCY_BUCKETS,
            )
            self._obs.observe(
                "wal.record.bytes", len(frame), buckets=SIZE_BUCKETS
            )
        return seq

    def sync(self) -> None:
        """Durability point: fsync the live segment (policy-dependent).

        Under ``"always"`` every append already synced; under
        ``"batch"`` this is the fold-boundary fsync; under ``"os"`` it
        is a no-op beyond the unbuffered writes already issued.
        """
        if self.fsync == "os" or self._synced:
            return
        self._fsync_now()

    def _fsync_now(self) -> None:
        if self._handle is None:
            return
        retry_io(
            lambda: os.fsync(self._handle.fileno()),
            attempts=self._retry_attempts,
            base_delay=self._retry_base_delay,
            probe=self._obs,
        )
        self._synced = True
        self._obs.count("wal.fsyncs")

    # ------------------------------------------------------------------

    def prune_through(self, seq: int) -> int:
        """Remove segments whose records are *all* ≤ ``seq``.

        Only call once a snapshot covering ``seq`` is durable — the
        compactor's contract.  The live segment is never pruned (roll
        first to retire it).  Returns the number of files removed.
        """
        segments = _list_segments(self.directory)
        removed = 0
        live = self._handle.name if self._handle is not None else None
        for index, (base_seq, path) in enumerate(segments):
            if path == live:
                continue
            if index + 1 < len(segments):
                covers_through = segments[index + 1][0] - 1
            else:
                covers_through = self.next_seq - 1
            if covers_through <= seq:
                self._reach("wal.prune")
                os.unlink(path)
                removed += 1
                self._obs.count("wal.segments_pruned")
                self._reach("wal.prune.mid")
        if removed:
            from .snapshot import fsync_directory

            fsync_directory(self.directory)
        return removed

    def close(self) -> None:
        """Sync (per policy) and close the live segment."""
        if self._handle is not None:
            self.sync()
        self.release()

    def release(self) -> None:
        """Close the live segment's handle without syncing.

        The exit of a writer that died: the segment is unbuffered, so
        every acked append is already in the file, and closing only
        gives the descriptor back, leaving the bytes on disk as they
        are for the next open to replay.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, fsync={self.fsync!r}, "
            f"next_seq={self.next_seq})"
        )
