"""Durable streaming ingest: crash-at-every-point recovery identity.

The heart of the suite is the property test: kill the ingest pipeline
at every named FaultPlan crash point and prove that the recovered
engine answers every query identically to a process that never
crashed — and that no acknowledged transaction is lost.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.incremental import IncrementalMiner
from repro.obs import Probe
from repro.runtime import FaultPlan, InjectedCrash, MiningTimeout
from repro.serving import CRASH_POINTS, StreamingMiner, WalError
from repro.serving.wal import scan_wal


def _rows(seed=11, n=40, universe="abcdefg", density=0.45):
    rng = random.Random(seed)
    return [
        [label for label in universe if rng.random() < density] or ["a"]
        for _ in range(n)
    ]


ROWS = _rows()


def _cold(rows):
    miner = IncrementalMiner()
    miner.extend(rows)
    return miner


def _same_answers(streaming, cold):
    assert streaming.n_transactions == cold.n_transactions
    for smin in (1, 2, 4):
        assert dict(streaming.closed_sets(smin)) == dict(cold.closed_sets(smin))
    assert streaming.top_k(10) == cold.top_k(10)
    assert streaming.support_of(["a", "b"]) == cold.support_of(["a", "b"])


class TestLifecycle:
    def test_ingest_equals_cold_mine(self, tmp_path):
        store = StreamingMiner.open(tmp_path / "store", batch_records=7)
        for row in ROWS:
            store.ingest(row)
        store.fold()
        _same_answers(store, _cold(ROWS))
        store.close()

    def test_reopen_restores_exact_state(self, tmp_path):
        with StreamingMiner.open(
            tmp_path / "store", batch_records=5, segment_max_bytes=512
        ) as store:
            for row in ROWS:
                store.ingest(row)
        reopened = StreamingMiner.open(tmp_path / "store")
        assert reopened.recovery.clean
        _same_answers(reopened, _cold(ROWS))
        reopened.close()

    def test_unfolded_tail_is_replayed(self, tmp_path):
        # Large batch: nothing ever folds, everything lives in the log.
        store = StreamingMiner.open(tmp_path / "store", batch_records=1000)
        for row in ROWS:
            store.ingest(row)
        assert store.pending_records == len(ROWS)
        store._wal.close()  # abandon without folding (simulated death)
        reopened = StreamingMiner.open(tmp_path / "store")
        assert reopened.recovery.replayed_records == len(ROWS)
        _same_answers(reopened, _cold(ROWS))
        reopened.close()

    def test_compaction_prunes_log_and_keeps_generations(self, tmp_path):
        store = StreamingMiner.open(
            tmp_path / "store",
            batch_records=4,
            compact_segments=2,
            segment_max_bytes=256,
            keep_snapshots=2,
        )
        for row in ROWS:
            store.ingest(row)
        store.close()
        names = sorted(os.listdir(tmp_path / "store"))
        snaps = [n for n in names if n.endswith(".rsnp")]
        assert 1 <= len(snaps) <= 2  # surplus generations retired
        # The log holds only the tail past the newest snapshot.
        covered = int(snaps[-1].split("-")[1].split(".")[0])
        scan = scan_wal(tmp_path / "store" / "wal")
        assert all(seq >= covered for seq, _ in scan.records)

    def test_sequence_numbers_are_global_and_stable(self, tmp_path):
        store = StreamingMiner.open(tmp_path / "store", batch_records=3)
        seqs = [store.ingest(row) for row in ROWS[:10]]
        assert seqs == list(range(10))
        store.close()
        reopened = StreamingMiner.open(tmp_path / "store")
        assert reopened.ingest(["z"]) == 10
        reopened.close()

    def test_close_is_idempotent_and_closed_store_refuses(self, tmp_path):
        store = StreamingMiner.open(tmp_path / "store")
        store.ingest(["a"])
        store.close()
        store.close()
        with pytest.raises(WalError, match="closed"):
            store.ingest(["b"])

    def test_direct_construction_refused(self, tmp_path):
        with pytest.raises(TypeError, match="open"):
            StreamingMiner(tmp_path / "store")


def _files(directory):
    """Relative path -> bytes of every file under ``directory``."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, directory)] = handle.read()
    return out


class TestExceptionalExit:
    """Leaving ``with`` on an exception gives the log's handle back."""

    def _die_inside(self, directory, rows):
        """Ingest ``rows`` unfolded, then leave ``with`` on an exception.

        Returns the store, its log's file object and the store's files
        as they were just before the exception.
        """
        seen = {}
        with pytest.raises(RuntimeError, match="writer died"):
            with StreamingMiner.open(directory, batch_records=1000) as store:
                for row in rows:
                    store.ingest(row)
                seen["handle"] = store._wal._handle
                seen["files"] = _files(directory)
                raise RuntimeError("writer died")
        return store, seen["handle"], seen["files"]

    def test_handle_closed_and_log_bytes_unchanged(self, tmp_path):
        directory = str(tmp_path / "store")
        store, handle, before = self._die_inside(directory, ROWS[:12])
        assert handle.closed
        assert any(path.startswith("wal") for path in before)
        assert _files(directory) == before  # no fold, compaction or sync
        store.close()  # a no-op once the exceptional exit ran
        assert _files(directory) == before

    def test_reopen_replays_the_tail_and_late_close_is_a_no_op(self, tmp_path):
        directory = str(tmp_path / "store")
        store, _, _ = self._die_inside(directory, ROWS)
        reopened = StreamingMiner.open(directory)
        assert reopened.recovery.replayed_records == len(ROWS)
        _same_answers(reopened, _cold(ROWS))
        reopened.close()
        state = _files(directory)
        store.close()
        assert _files(directory) == state


class TestCrashRecovery:
    """Kill at every named point; the survivor must answer identically."""

    @pytest.mark.parametrize("point", CRASH_POINTS)
    @pytest.mark.parametrize("hit", [1, 2])
    def test_crash_at_every_point_recovers_identically(self, tmp_path, point, hit):
        plan = FaultPlan(crash_at=point, crash_on_hit=hit)
        acked = 0
        # The probe turns the flight recorder on, so the flight.emit /
        # flight.emit.torn points fire too; opening inside the raises
        # block covers the crash-at-first-emit case.
        with pytest.raises(InjectedCrash):
            store = StreamingMiner.open(
                tmp_path / "store",
                batch_records=3,
                compact_segments=2,
                segment_max_bytes=200,
                fsync="always",
                fault_plan=plan,
                probe=Probe(),
                flight_interval=0.0,
            )
            with store:
                for row in ROWS:
                    store.ingest(row)
                    acked += 1
                pytest.fail(f"crash point {point} (hit {hit}) never fired")

        recovered = StreamingMiner.open(tmp_path / "store")
        n = recovered.n_transactions
        # No acked transaction may be lost; at most the one in-flight
        # record (logged but not yet acknowledged) may additionally
        # survive.  Either way the state is an exact stream prefix.
        assert n in (acked, acked + 1)
        _same_answers(recovered, _cold(ROWS[:n]))
        recovered.close()

    @pytest.mark.parametrize("point", ["compact.prune", "wal.prune"])
    def test_no_segment_pruned_before_snapshot_durable(self, tmp_path, point):
        # Crashing right before the prune leaves the snapshot *and* the
        # full log: recovery must not double-apply the overlap.
        plan = FaultPlan(crash_at=point)
        store = StreamingMiner.open(
            tmp_path / "store",
            batch_records=3,
            compact_segments=1,
            segment_max_bytes=150,
            fault_plan=plan,
        )
        acked = 0
        with pytest.raises(InjectedCrash):
            for row in ROWS:
                store.ingest(row)
                acked += 1
        snaps = [
            name
            for name in os.listdir(tmp_path / "store")
            if name.endswith(".rsnp")
        ]
        assert snaps, "crash fired before any snapshot was durable"
        scan = scan_wal(tmp_path / "store" / "wal")
        covered = max(int(n.split("-")[1].split(".")[0]) for n in snaps)
        # The log still reaches back to (at least) the snapshot edge.
        assert scan.records and scan.records[0][0] <= covered
        recovered = StreamingMiner.open(tmp_path / "store")
        _same_answers(recovered, _cold(ROWS[: recovered.n_transactions]))
        recovered.close()

    def test_corrupt_newest_snapshot_falls_back_a_generation(self, tmp_path):
        store = StreamingMiner.open(
            tmp_path / "store",
            batch_records=4,
            compact_segments=1,
            segment_max_bytes=200,
            keep_snapshots=2,
        )
        for row in ROWS:
            store.ingest(row)
        store.close()
        snaps = sorted(
            name
            for name in os.listdir(tmp_path / "store")
            if name.endswith(".rsnp")
        )
        assert len(snaps) == 2
        newest = tmp_path / "store" / snaps[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(data)

        recovered = StreamingMiner.open(tmp_path / "store")
        report = recovered.recovery
        assert not report.clean
        assert [os.path.basename(p) for p in report.corrupt_snapshots] == [
            snaps[-1]
        ]
        assert os.path.basename(report.snapshot_path) == snaps[0]
        # The older generation plus the (unpruned-at-its-time) tail
        # still reconstructs the full stream...
        _same_answers(recovered, _cold(ROWS[: recovered.n_transactions]))
        recovered.close()

    def test_stale_compaction_tmp_file_cleaned_on_open(self, tmp_path):
        d = tmp_path / "store"
        store = StreamingMiner.open(d, batch_records=4)
        for row in ROWS[:8]:
            store.ingest(row)
        store.close()
        stale = d / "snapshot-000000000099.rsnp.tmp.12345"
        stale.write_bytes(b"half-written snapshot")
        reopened = StreamingMiner.open(d)
        assert not stale.exists()
        reopened.close()

    def test_recovery_report_describe_mentions_damage(self, tmp_path):
        store = StreamingMiner.open(tmp_path / "store", batch_records=100)
        for row in ROWS[:6]:
            store.ingest(row)
        store._wal.close()
        segment = next(
            (tmp_path / "store" / "wal").glob("segment-*.wal")
        )
        with open(segment, "ab") as handle:
            handle.write(b"torn!")
        recovered = StreamingMiner.open(tmp_path / "store")
        report = recovered.recovery
        assert not report.clean
        assert report.truncated_bytes == len(b"torn!")
        text = report.describe()
        assert "truncated 5 byte(s)" in text
        assert f"transactions {report.recovered_transactions}" in text
        _same_answers(recovered, _cold(ROWS[:6]))
        recovered.close()


class TestFoldBudget:
    def test_tripped_fold_marks_store_broken_but_loses_nothing(self, tmp_path):
        plan = FaultPlan(timeout_at=1)
        store = StreamingMiner.open(
            tmp_path / "store", batch_records=5, fold_timeout=1e9,
            fault_plan=None,
        )
        # Arm the injected trip via the per-fold guard's fault plan:
        # easiest honest route is a real tiny timeout on a fold.
        for row in ROWS[:4]:
            store.ingest(row)
        store._fold_timeout = 1e-9  # every check is already past due
        with pytest.raises(MiningTimeout):
            store.ingest(ROWS[4])
        assert store.broken
        with pytest.raises(WalError, match="re-open"):
            store.ingest(["x"])
        with pytest.raises(WalError, match="re-open"):
            store.compact()
        store.close()  # closes the log only; durable state untouched

        recovered = StreamingMiner.open(tmp_path / "store")
        assert recovered.recovery.replayed_records == 5
        _same_answers(recovered, _cold(ROWS[:5]))
        recovered.close()


class TestObservability:
    def test_counters_and_spans_flow_through_probe(self, tmp_path):
        probe = Probe()
        store = StreamingMiner.open(
            tmp_path / "store",
            batch_records=4,
            compact_segments=1,
            segment_max_bytes=200,
            probe=probe,
        )
        for row in ROWS[:20]:
            store.ingest(row)
        store.close()
        counters = probe.metrics.snapshot()["counters"]
        assert counters["wal.appends"] == 20
        assert counters["wal.folds"] >= 4
        assert counters["wal.folded_records"] == 20
        assert counters["compaction.runs"] >= 1
        assert counters["compaction.snapshot_bytes"] > 0
        names = {record["name"] for record in probe.tracer.records}
        assert {"serve.recover", "serve.fold", "serve.compact"} <= names

    def test_probe_on_equals_probe_off(self, tmp_path):
        # Probing (histograms + flight recorder included) must never
        # change what the store answers — across ingest, fold, compact
        # and a reopen.
        def run(name, probe):
            store = StreamingMiner.open(
                tmp_path / name,
                batch_records=4,
                compact_segments=1,
                segment_max_bytes=200,
                probe=probe,
                flight_interval=0.0,
            )
            for row in ROWS:
                store.ingest(row)
            store.fold()
            store.compact()
            answers = {
                "n": store.n_transactions,
                "closed": {
                    smin: dict(store.closed_sets(smin)) for smin in (1, 2, 4)
                },
                "top": store.top_k(10),
                "support": store.support_of(["a", "b"]),
            }
            store.close()
            reopened = StreamingMiner.open(tmp_path / name)
            assert dict(reopened.closed_sets(2)) == answers["closed"][2]
            reopened.close()
            return answers

        assert run("off", None) == run("on", Probe())

    def test_wal_append_histograms_track_every_record(self, tmp_path):
        probe = Probe()
        store = StreamingMiner.open(
            tmp_path / "store", batch_records=4, probe=probe
        )
        for row in ROWS[:12]:
            store.ingest(row)
        store.close()
        histograms = probe.metrics.snapshot()["histograms"]
        assert histograms["wal.append.seconds"]["count"] == 12
        assert histograms["wal.record.bytes"]["count"] == 12
        assert histograms["wal.record.bytes"]["min"] >= 1
        # Fold batches: 3 size-4 folds + the close fold of the rest.
        assert histograms["serve.fold.records"]["count"] >= 3

    def test_flight_recorder_rides_the_probe(self, tmp_path):
        probe = Probe()
        store = StreamingMiner.open(
            tmp_path / "store",
            batch_records=4,
            probe=probe,
            flight_interval=0.0,
        )
        assert store.flight is not None
        for row in ROWS[:12]:
            store.ingest(row)
        store.close()
        from repro.obs.recorder import scan_flight

        scan = scan_flight(tmp_path / "store" / "flight")
        assert scan.clean
        assert len(scan.records) >= 4  # open + folds + final close emit
        tail = scan.records[-1]
        assert tail["status"]["n_transactions"] == 12
        assert tail["status"]["broken"] is False
        assert tail["metrics"]["counters"]["wal.appends"] == 12

    def test_flight_true_demands_probe(self, tmp_path):
        with pytest.raises(WalError, match="[Ff]light"):
            StreamingMiner.open(tmp_path / "store", flight=True)
        assert not (tmp_path / "store").exists()  # refused before any I/O

    def test_flight_off_writes_nothing(self, tmp_path):
        store = StreamingMiner.open(
            tmp_path / "store", probe=Probe(), flight=False
        )
        store.ingest(["a"])
        store.close()
        assert store.flight is None
        assert not os.path.isdir(tmp_path / "store" / "flight")
