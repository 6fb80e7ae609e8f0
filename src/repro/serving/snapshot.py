"""Persistent repository snapshots: mine once, serve many.

A snapshot is the serialised IsTa repository — the complete closed-set
family of everything mined so far, together with the item recode tables
— in a compact versioned binary form.  Loading one warm-starts an
:class:`~repro.core.incremental.IncrementalMiner`: queries answer
straight from the decoded family and a delta batch costs only the new
intersections, never a cold re-mine.

The repository is stored as the flat closed family, not as the prefix
tree: the tree is *derivable* — rebuilding it from the family
reproduces the organic tree node-for-node
(:meth:`~repro.core.prefix_tree.PrefixTree.from_closed_family`), so the
tree records would be pure redundancy.  Storing the family keeps the
codec trivial, makes the bytes a canonical function of the mined
multiset alone (independent of ingestion order or representation
history), and lets the warm path decode with fixed-width reads instead
of walking variable-length node records.

Format (version 1; varints are unsigned LEB128)::

    offset  size  field
    0       4     magic  b"RSNP"
    4       1     version (= 1)
    5       var   n_items          number of item codes
            var   n_transactions   transactions folded into the repository
            var   n_sets           closed item sets in the family
            var   labels_size      byte length of the labels block
            ...   labels block     JSON array of the item labels, UTF-8,
                                   index = item code
            ...   family rows      n_sets fixed-width records, ascending
                                   by mask: item mask as
                                   ceil(n_items / 64) little-endian
                                   64-bit words, then the support as a
                                   32-bit little-endian integer
    end-4   4     CRC-32 (little-endian) over bytes [4, end-4)

Two miners holding the same repository produce byte-identical snapshots
regardless of how they were grown, and ``dumps(loads(data))``
reproduces ``data`` exactly.

Labels must be JSON scalars (``str``/``int``/``float``/``bool``) so the
recode table round-trips losslessly; richer label types are rejected at
save time rather than silently corrupted.

Decoding is lazy: :func:`loads_snapshot` validates the envelope (magic,
version, checksum, section sizes) but leaves the family rows as bytes.
The repository is materialised on first touch — directly into the flat
closed family (one ``int.from_bytes`` per fixed-width row field) when a
loaded snapshot serves queries and small delta batches, or as a rebuilt
prefix tree when the miner keeps streaming.  That
decode-to-flat path is what makes warm starts an order of magnitude
cheaper than re-mining; ``benchmarks/bench_serving.py`` gates the
ratio.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Tuple

from ..core.incremental import IncrementalMiner
from ..core.prefix_tree import PrefixTree

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "dumps_snapshot",
    "loads_snapshot",
    "save_snapshot",
    "load_snapshot",
    "write_bytes_durable",
    "fsync_directory",
]

SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1

#: Label types that survive a JSON round trip unchanged.
_LABEL_TYPES = (str, int, float, bool)

#: Fixed width of the stored support field (u32 little-endian).
_SUPPORT_BYTES = 4


class SnapshotError(ValueError):
    """Raised for unreadable, corrupt or unencodable snapshots.

    Subclasses :class:`ValueError` so existing error handling (the CLI
    exit-code mapping in particular) treats snapshot problems as user
    errors without special-casing.
    """


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


def dumps_snapshot(miner: IncrementalMiner) -> bytes:
    """Serialise a miner's repository to snapshot bytes.

    Emits the flat closed family in canonical (ascending-mask) order,
    so the bytes depend only on the mined multiset.  Raises
    :class:`SnapshotError` for labels that would not survive the JSON
    recode-table round trip, or for repositories beyond the format's
    fixed-width support field.
    """
    for label in miner._labels:
        if not isinstance(label, _LABEL_TYPES):
            raise SnapshotError(
                "snapshot labels must be str/int/float/bool to round-trip "
                f"losslessly; got {type(label).__name__}: {label!r}"
            )
    if miner.n_transactions >> (8 * _SUPPORT_BYTES):
        raise SnapshotError(
            f"snapshot format v{SNAPSHOT_VERSION} stores supports as "
            f"{8 * _SUPPORT_BYTES}-bit integers; "
            f"{miner.n_transactions} transactions exceed that"
        )
    with miner._obs.phase("serve.snapshot_save"):
        flat = miner._ensure_flat()
        mask_bytes = (miner.n_items + 63) // 64 * 8
        labels_block = json.dumps(miner._labels, ensure_ascii=False).encode("utf-8")
        buf = bytearray(SNAPSHOT_MAGIC)
        buf.append(SNAPSHOT_VERSION)
        _append_uvarint(buf, miner.n_items)
        _append_uvarint(buf, miner.n_transactions)
        _append_uvarint(buf, len(flat))
        _append_uvarint(buf, len(labels_block))
        buf += labels_block
        for mask in sorted(flat):
            buf += mask.to_bytes(mask_bytes, "little")
            buf += flat[mask].to_bytes(_SUPPORT_BYTES, "little")
        buf += (zlib.crc32(bytes(buf[4:])) & 0xFFFFFFFF).to_bytes(4, "little")
        data = bytes(buf)
    miner._obs.count("serving.snapshot.saved_bytes", len(data))
    return data


class _PendingRepository:
    """Validated-but-undecoded family rows of a loaded snapshot.

    Held by the miner until a query or mutation first touches the
    repository; then decoded into the flat closed family, or further
    into a rebuilt :class:`PrefixTree` when the access needs one.
    """

    __slots__ = ("_data", "_offset", "n_sets", "_n_words")

    def __init__(self, data: bytes, offset: int, n_sets: int, n_words: int) -> None:
        self._data = data
        self._offset = offset
        self.n_sets = n_sets
        self._n_words = n_words

    def build_flat(self) -> Dict[int, int]:
        """Decode the fixed-width rows into ``mask -> support``.

        A plain ``int.from_bytes`` per field: masks must end as Python
        ints, and assembling them from numpy words measured ~3x slower.
        """
        data = self._data
        mask_bytes = self._n_words * 8
        row_bytes = mask_bytes + _SUPPORT_BYTES
        offset = self._offset
        flat = {}
        for _ in range(self.n_sets):
            mask = int.from_bytes(data[offset : offset + mask_bytes], "little")
            supp = int.from_bytes(
                data[offset + mask_bytes : offset + row_bytes], "little"
            )
            if supp < 1:
                raise SnapshotError("snapshot family row with support 0")
            flat[mask] = supp
            offset += row_bytes
        if len(flat) != self.n_sets:
            raise SnapshotError("snapshot family rows contain duplicate masks")
        if 0 in flat:
            raise SnapshotError("snapshot family row with empty mask")
        return flat

    def build_tree(self, counters, step: int, kernel) -> PrefixTree:
        """Rebuild the prefix tree from the family (lossless, see
        :meth:`PrefixTree.from_closed_family`) on the miner's kernel."""
        return PrefixTree.from_closed_family(
            iter(self.build_flat().items()), counters, step=step, kernel=kernel
        )


def loads_snapshot(
    data: bytes,
    counters=None,
    guard=None,
    backend=None,
    probe=None,
) -> IncrementalMiner:
    """Rehydrate an :class:`IncrementalMiner` from snapshot bytes.

    Validates the envelope (magic, version, CRC-32, header and section
    sizes) eagerly and raises :class:`SnapshotError` on any mismatch;
    the family rows themselves are decoded lazily on first repository
    access.  ``counters``/``guard``/``backend``/``probe`` configure the
    restored miner exactly as the :class:`IncrementalMiner` constructor
    would.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapshotError(
            f"snapshot data must be bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    if len(data) < len(SNAPSHOT_MAGIC) + 1 + 4:
        raise SnapshotError("snapshot too short to hold an envelope")
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"bad snapshot magic {data[:len(SNAPSHOT_MAGIC)]!r}; "
            f"expected {SNAPSHOT_MAGIC!r}"
        )
    version = data[len(SNAPSHOT_MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version}; "
            f"this reader handles version {SNAPSHOT_VERSION}"
        )
    stored_crc = int.from_bytes(data[-4:], "little")
    actual_crc = zlib.crc32(data[4:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise SnapshotError(
            f"snapshot checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    pos = len(SNAPSHOT_MAGIC) + 1
    try:
        n_items, pos = _read_uvarint(data, pos)
        n_transactions, pos = _read_uvarint(data, pos)
        n_sets, pos = _read_uvarint(data, pos)
        labels_size, pos = _read_uvarint(data, pos)
        labels_block = data[pos : pos + labels_size]
        if len(labels_block) != labels_size:
            raise SnapshotError("snapshot labels block truncated")
        pos += labels_size
    except IndexError:
        raise SnapshotError("snapshot header truncated") from None
    try:
        labels = json.loads(labels_block.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"snapshot labels block unreadable: {exc}") from None
    if not isinstance(labels, list) or len(labels) != n_items:
        raise SnapshotError(
            "snapshot labels block inconsistent with the declared item count"
        )
    n_words = (n_items + 63) // 64
    row_bytes = n_words * 8 + _SUPPORT_BYTES
    if len(data) - 4 - pos != n_sets * row_bytes:
        raise SnapshotError(
            f"snapshot declares {n_sets} family rows of {row_bytes} bytes "
            f"but carries {len(data) - 4 - pos} bytes of rows"
        )
    pending = _PendingRepository(data, pos, n_sets, n_words)
    miner = IncrementalMiner._restore(
        labels,
        n_transactions,
        pending,
        counters=counters,
        guard=guard,
        backend=backend,
        probe=probe,
    )
    miner._obs.count("serving.snapshot.loaded_bytes", len(data))
    return miner


def fsync_directory(path) -> None:
    """fsync a directory so a just-renamed entry survives a power cut.

    ``os.replace`` makes the swap atomic against concurrent readers,
    but the *directory entry* itself is only durable once the directory
    inode reaches the disk; without this a crash right after the rename
    can leave a missing (or, on some filesystems, zero-length) file.
    Filesystems that refuse ``fsync`` on directory handles are
    tolerated silently — there is no stronger primitive to fall back
    to on them.
    """
    try:
        fd = os.open(os.fspath(path) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def write_bytes_durable(path, data: bytes, on_step=None) -> None:
    """Write ``data`` to ``path`` atomically *and* durably.

    The full sequence is: write to a temporary name in the destination
    directory, ``fsync`` the temporary file (the bytes), atomically
    ``os.replace`` it into place (the name), then ``fsync`` the parent
    directory (the rename).  A crash at any point leaves either the
    old file or the new one — never a torn or vanishing entry.

    ``on_step`` is an optional callable invoked with ``"synced"``
    (temp file durable, rename pending) and ``"renamed"`` (entry
    swapped, directory fsync pending); the crash-injection tests hook
    these to kill the process between the steps.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
    except Exception:
        # Best-effort cleanup on a write failure.  Ordinary exceptions
        # only: an InjectedCrash must leave the stale temp file behind,
        # exactly as a process kill would.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    if on_step is not None:
        on_step("synced")
    os.replace(tmp_path, path)
    if on_step is not None:
        on_step("renamed")
    fsync_directory(os.path.dirname(path) or ".")


def save_snapshot(miner: IncrementalMiner, path) -> int:
    """Write a snapshot to ``path`` atomically and durably; returns the
    byte count.

    The snapshot lands under a temporary name in the destination
    directory, is fsynced, moved into place with :func:`os.replace`,
    and the directory entry is fsynced too (see
    :func:`write_bytes_durable`) — a crash at any point leaves either
    the previous snapshot or the complete new one.
    """
    data = dumps_snapshot(miner)
    write_bytes_durable(path, data)
    return len(data)


def load_snapshot(
    path,
    counters=None,
    guard=None,
    backend=None,
    probe=None,
) -> IncrementalMiner:
    """Read a snapshot file and rehydrate the miner (see :func:`loads_snapshot`)."""
    with open(os.fspath(path), "rb") as handle:
        data = handle.read()
    return loads_snapshot(
        data, counters=counters, guard=guard, backend=backend, probe=probe
    )
