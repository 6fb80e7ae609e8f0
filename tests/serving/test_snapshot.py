"""Snapshot codec: round-trip exactness, determinism, corruption rejection."""

import os
import random

import pytest

from repro.core.incremental import IncrementalMiner
from repro.data.database import TransactionDatabase
from repro.obs import Probe
from repro.serving import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    dumps_snapshot,
    load_snapshot,
    loads_snapshot,
    save_snapshot,
)

from ..conftest import backend_params


def _random_miner(seed, n_rows=40, universe="abcdefg", density=0.45):
    rng = random.Random(seed)
    miner = IncrementalMiner()
    miner.extend(
        [[l for l in universe if rng.random() < density] for _ in range(n_rows)]
    )
    return miner


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["bitint", "numpy"])
    def test_exact_for_every_smin(self, backend):
        miner = _random_miner(1)
        restored = loads_snapshot(dumps_snapshot(miner), backend=backend)
        assert restored.n_transactions == miner.n_transactions
        assert restored.n_items == miner.n_items
        for smin in range(1, miner.n_transactions + 2):
            assert dict(restored.closed_sets(smin)) == dict(miner.closed_sets(smin))

    def test_header_fields(self):
        blob = dumps_snapshot(_random_miner(2))
        assert blob[:4] == SNAPSHOT_MAGIC
        assert blob[4] == SNAPSHOT_VERSION

    def test_empty_miner(self):
        miner = IncrementalMiner()
        restored = loads_snapshot(dumps_snapshot(miner))
        assert restored.n_transactions == 0
        assert dict(restored.closed_sets(1)) == {}
        restored.add(["a"])
        assert dict(restored.closed_sets(1)) == {("a",): 1}

    def test_arbitrary_label_types(self):
        miner = IncrementalMiner()
        miner.extend([[1, "a", 2.5], [1, "a"], [True]])
        restored = loads_snapshot(dumps_snapshot(miner))
        assert dict(restored.closed_sets(1)) == dict(miner.closed_sets(1))

    def test_unserialisable_label_rejected(self):
        miner = IncrementalMiner()
        miner.add([("tuple", "label")])
        with pytest.raises(SnapshotError, match="label"):
            dumps_snapshot(miner)


class TestDeterminism:
    def test_dump_load_dump_is_identity(self):
        blob = dumps_snapshot(_random_miner(3))
        assert dumps_snapshot(loads_snapshot(blob)) == blob

    def test_repeated_dumps_identical(self):
        miner = _random_miner(4)
        assert dumps_snapshot(miner) == dumps_snapshot(miner)

    def test_rebuilt_and_organic_trees_encode_identically(self):
        """Flat->tree rebuild must reproduce the organic tree byte-for-byte.

        One copy grows its tree organically (pending snapshot decoded
        straight to a tree by the bulk ingest), the other folds the same
        delta into the flat form and only rebuilds the tree when the
        dump asks for it.  The rebuild theorem says the two trees are
        node-for-node identical, so the snapshots must match exactly.
        """
        blob = dumps_snapshot(_random_miner(5))
        delta = [["a", "c"], ["b"], ["a", "c"]]

        flat_route = loads_snapshot(blob)
        for row in delta:  # small adds stay in the flat representation
            flat_route.add(row)
        assert flat_route._tree is None

        tree_route = loads_snapshot(blob)
        tree_route._ensure_tree()
        for row in delta:
            tree_route.add(row)

        assert dumps_snapshot(flat_route) == dumps_snapshot(tree_route)


class TestLazyLoad:
    def test_load_defers_decoding(self):
        restored = loads_snapshot(dumps_snapshot(_random_miner(6)))
        assert restored._tree is None
        assert restored._flat is None
        assert restored._pending is not None
        assert restored.repository_size > 0  # answered from the header

    def test_warm_delta_stays_flat(self):
        miner = _random_miner(7)
        restored = loads_snapshot(dumps_snapshot(miner))
        delta = [["a", "b"], ["f", "g"], []]
        restored.extend(delta)
        assert restored._tree is None  # small delta: no tree rebuild
        reference = _random_miner(7)
        reference.extend(delta)
        assert dict(restored.closed_sets(1)) == dict(reference.closed_sets(1))

    def test_bulk_delta_rebuilds_tree(self):
        miner = _random_miner(8, n_rows=10)
        restored = loads_snapshot(dumps_snapshot(miner))
        rng = random.Random(88)
        delta = [
            [l for l in "abcdefg" if rng.random() < 0.4] for _ in range(30)
        ]
        restored.extend(delta)
        assert restored._tree is not None  # delta dwarfs history
        reference = _random_miner(8, n_rows=10)
        reference.extend(delta)
        assert dict(restored.closed_sets(1)) == dict(reference.closed_sets(1))

    @pytest.mark.parametrize("backend", backend_params())
    def test_rebuilt_tree_runs_on_the_miners_kernel(self, backend):
        rng = random.Random(10)
        rows = [[l for l in "abcdefg" if rng.random() < 0.45] for _ in range(50)]
        base = IncrementalMiner()
        base.extend(rows[:10])
        probe = Probe()
        restored = loads_snapshot(
            dumps_snapshot(base), backend=backend, probe=probe
        )
        restored.extend(rows[10:])  # 40 rows onto 10: the tree is rebuilt
        assert restored._tree is not None
        assert restored._tree._kernel is restored.kernel
        counters = probe.metrics.snapshot()["counters"]
        assert counters["kernel.intersect_count_many_bounded.calls"] > 0
        reference = IncrementalMiner.from_database(
            TransactionDatabase.from_iterable(rows), backend=backend
        )
        assert dict(restored.closed_sets(1)) == dict(reference.closed_sets(1))

    def test_queries_without_tree(self):
        miner = _random_miner(9)
        restored = loads_snapshot(dumps_snapshot(miner))
        assert restored.support_of(["a"]) == miner.support_of(["a"])
        assert restored.support_of(["a", "b"]) == miner.support_of(["a", "b"])
        assert dict(restored.supersets_of(["a"], 2)) == dict(
            miner.supersets_of(["a"], 2)
        )
        assert restored.top_k(5) == miner.top_k(5)
        assert restored._tree is None  # all served from the flat form


class TestCorruption:
    def test_not_bytes(self):
        with pytest.raises(SnapshotError):
            loads_snapshot("not bytes")

    def test_too_short(self):
        with pytest.raises(SnapshotError):
            loads_snapshot(b"RS")

    def test_bad_magic(self):
        blob = bytearray(dumps_snapshot(_random_miner(10)))
        blob[0] ^= 0xFF
        with pytest.raises(SnapshotError, match="magic"):
            loads_snapshot(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(dumps_snapshot(_random_miner(11)))
        blob[4] = 99
        with pytest.raises(SnapshotError, match="version"):
            loads_snapshot(bytes(blob))

    def test_checksum_catches_flipped_bit(self):
        blob = bytearray(dumps_snapshot(_random_miner(12)))
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(SnapshotError):
            loads_snapshot(bytes(blob))

    def test_truncation(self):
        blob = dumps_snapshot(_random_miner(13))
        for cut in (5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SnapshotError):
                loads_snapshot(blob[:cut])


class TestFiles:
    def test_save_load_round_trip(self, tmp_path):
        miner = _random_miner(14)
        path = tmp_path / "repo.snap"
        n_bytes = save_snapshot(miner, str(path))
        assert path.stat().st_size == n_bytes
        restored = load_snapshot(str(path))
        assert dict(restored.closed_sets(1)) == dict(miner.closed_sets(1))

    def test_save_leaves_no_temp_file(self, tmp_path):
        save_snapshot(_random_miner(15), str(tmp_path / "repo.snap"))
        assert os.listdir(tmp_path) == ["repo.snap"]

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"RSNP\x01garbage")
        with pytest.raises(SnapshotError):
            load_snapshot(str(path))


class TestDurableWrite:
    """Satellite: save_snapshot's atomic swap is actually durable —
    temp file fsynced before the rename, parent directory fsynced
    after."""

    def test_fsync_ordering(self, tmp_path, monkeypatch):
        from repro.serving import snapshot as snapmod

        events = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            events.append(("fsync", fd))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        snapmod.save_snapshot(_random_miner(20), str(tmp_path / "repo.snap"))
        kinds = [event[0] for event in events]
        # fsync(temp) strictly before the rename, directory fsync after.
        assert kinds == ["fsync", "replace", "fsync"]
        assert str(tmp_path / "repo.snap") in events[1][2]

    def test_crash_before_rename_leaves_old_snapshot_intact(self, tmp_path):
        from repro.runtime import FaultPlan, InjectedCrash
        from repro.serving.snapshot import write_bytes_durable

        path = tmp_path / "repo.snap"
        write_bytes_durable(str(path), b"generation-1")
        plan = FaultPlan(crash_at="compact.save")

        def crash_after_sync(step):
            if step == "synced":
                plan.reach("compact.save")

        with pytest.raises(InjectedCrash):
            write_bytes_durable(
                str(path), b"generation-2", on_step=crash_after_sync
            )
        # The visible file is still the old generation; the temp file
        # is left behind exactly as a real kill would leave it.
        assert path.read_bytes() == b"generation-1"
        assert any(".tmp." in name for name in os.listdir(tmp_path))

    def test_ordinary_write_failure_cleans_temp_file(self, tmp_path):
        from repro.serving.snapshot import write_bytes_durable

        class Boom(Exception):
            pass

        def explode(step):
            raise Boom(step)

        path = tmp_path / "repo.snap"
        # on_step failures happen *after* the temp write; simulate an
        # ordinary I/O failure inside the write itself instead.
        import repro.serving.snapshot as snapmod

        real_open = open

        def failing_open(file, *args, **kwargs):
            if str(file).startswith(str(path)) and ".tmp." in str(file):
                handle = real_open(file, *args, **kwargs)
                handle.close()
                raise OSError("disk full")
            return real_open(file, *args, **kwargs)

        import builtins

        original = builtins.open
        builtins.open = failing_open
        try:
            with pytest.raises(OSError, match="disk full"):
                write_bytes_durable(str(path), b"data")
        finally:
            builtins.open = original
        assert os.listdir(tmp_path) == []


class TestLazyDecodeAudit:
    """Header-only queries must decode zero family rows.

    ``loads_snapshot`` defers row decoding to the first real repository
    touch; the ``serving.rows_decoded`` histogram audits exactly when
    that happens, so these tests pin the lazy path: header-answerable
    queries keep the histogram empty, and the first repository touch
    records the full family size exactly once.
    """

    def _restored_with_probe(self, seed=7):
        from repro.obs import Probe

        miner = _random_miner(seed)
        probe = Probe()
        restored = loads_snapshot(dumps_snapshot(miner), probe=probe)
        return miner, restored, probe

    def _decoded(self, probe):
        return probe.metrics.snapshot()["histograms"].get(
            "serving.rows_decoded"
        )

    def test_header_only_queries_decode_no_rows(self):
        miner, restored, probe = self._restored_with_probe()
        assert restored.support_of(["never-seen-item"]) == 0
        assert restored.support_of([]) == miner.n_transactions
        assert restored.top_k(0) == ()
        assert restored.n_transactions == miner.n_transactions
        assert restored.n_items == miner.n_items
        assert restored.repository_size > 0  # pending header, not a decode
        decoded = self._decoded(probe)
        assert decoded is None or decoded["count"] == 0

    def test_first_repository_touch_decodes_exactly_once(self):
        miner, restored, probe = self._restored_with_probe(8)
        n_sets = restored.repository_size
        family = restored.closed_sets(1)
        decoded = self._decoded(probe)
        assert decoded["count"] == 1
        assert decoded["sum"] == n_sets == len(family)
        # Follow-up queries reuse the decoded repository: no more rows.
        restored.top_k(3)
        restored.support_of([next(iter(family))[0]])
        assert self._decoded(probe)["count"] == 1
