"""The C prefix-tree repository against the Python recursion and the oracle.

``NativeRepository`` (``repro.kernels._native.Repository``) is what
``mine_ista`` runs on the ``native`` backend.  It must report what
``PrefixTree(batched=False)`` — the node-at-a-time recursion of the
paper's Figure 2 — reports after every transaction, create exactly the
recursion's nodes, never count more intersections or support updates
than it, mine what ``bitint`` and the brute-force oracle mine with
pruning on, and poll the run guard from inside a transaction.

Every test is parametrized over the ``native`` backend param of
``backend_params()``, so an install without a compiler reports them as
SKIPPED instead of dropping them.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure import galois
from repro.closure.verify import closed_frequent_bruteforce
from repro.core.ista import mine_ista
from repro.core.prefix_tree import NativeRepository, PrefixTree, repository_for
from repro.data import itemset
from repro.data.database import TransactionDatabase
from repro.kernels import get_backend
from repro.obs import Probe
from repro.runtime import FaultPlan, MiningTimeout, RunGuard
from repro.stats import OperationCounters

from ..conftest import backend_params

NATIVE = [param for param in backend_params() if param.id == "native"]

#: Transaction streams with optional per-transaction weights.
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 12) - 1),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=24,
)


def _pair(stream, weighted):
    recursive_counters = OperationCounters()
    native_counters = OperationCounters()
    recursive = PrefixTree(recursive_counters, batched=False)
    native = NativeRepository(native_counters)
    for mask, weight in stream:
        weight = weight if weighted else 1
        recursive.add_transaction(mask, weight)
        native.add_transaction(mask, weight)
        yield recursive, native, recursive_counters, native_counters


@pytest.mark.parametrize("backend", NATIVE)
class TestAgainstRecursion:
    @pytest.mark.parametrize("weighted", (False, True), ids=("plain", "weighted"))
    @settings(deadline=None, max_examples=60)
    @given(stream=streams)
    def test_reports_equal_after_every_transaction(self, backend, weighted, stream):
        n = len(stream)
        for recursive, native, _, _ in _pair(stream, weighted):
            for smin in (1, 2, max(1, n // 2)):
                assert dict(native.report(smin)) == dict(recursive.report(smin))
            assert native.n_nodes == recursive.n_nodes
            assert native.step == recursive.step

    @pytest.mark.parametrize("weighted", (False, True), ids=("plain", "weighted"))
    @settings(deadline=None, max_examples=60)
    @given(stream=streams)
    def test_counters_within_the_recursions(self, backend, weighted, stream):
        for _, _, recursive, native in _pair(stream, weighted):
            assert native.nodes_created == recursive.nodes_created
            assert native.intersections <= recursive.intersections
            assert native.support_updates <= recursive.support_updates
            assert native.repository_peak == recursive.repository_peak

    def test_deep_paths_splice_and_merge_like_the_recursion(self, backend):
        """4000-item chains: no C recursion, and the splice merges them."""
        depth = 4000
        chain = (1 << depth) - 1
        trees = (PrefixTree(batched=False), NativeRepository())
        remaining = [5] * depth + [0, 0]
        for tree in trees:
            for mask in (chain | 1 << depth, chain | 1 << (depth + 1), chain ^ 1):
                tree.add_transaction(mask)
            # Both heads are deficient: their equal chains merge under
            # the root, support maximum on every node.
            tree.prune(remaining, 3)
        recursive, native = trees
        assert native.n_nodes == recursive.n_nodes == depth
        assert dict(native.report(1)) == dict(recursive.report(1))
        assert recursive.counters.nodes_merged == native.counters.nodes_merged
        assert recursive.counters.nodes_pruned == native.counters.nodes_pruned == 2

    def test_report_counts_visits_and_reports(self, backend):
        counters = OperationCounters()
        native = NativeRepository(counters)
        for mask in (0b10101, 0b11011, 0b01111):
            native.add_transaction(mask)
        pairs = list(native.report(1))
        assert counters.reports == len(pairs) > 0
        with pytest.raises(ValueError):
            native.report(0)
        with pytest.raises(ValueError):
            native.add_transaction(0b1, weight=0)


@pytest.mark.parametrize("backend", NATIVE)
class TestMine:
    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=8), max_size=9),
            min_size=1,
            max_size=12,
        ),
        smin=st.integers(min_value=1, max_value=4),
        prune_interval=st.integers(min_value=1, max_value=4),
        dedup=st.booleans(),
    )
    def test_pruned_mine_equals_bitint_and_oracle(
        self, backend, rows, smin, prune_interval, dedup
    ):
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(9)))
        options = dict(prune=True, prune_interval=prune_interval, dedup=dedup)
        native = mine_ista(db, smin, backend=backend, **options)
        reference = mine_ista(db, smin, backend="bitint", **options)
        assert sorted(native.items()) == sorted(reference.items())
        assert sorted(native.items()) == sorted(
            closed_frequent_bruteforce(db, smin).items()
        )

    def test_counters_recorded_through_the_probe(self, backend, table1_db):
        counters = OperationCounters()
        probe = Probe()
        result = mine_ista(table1_db, 2, backend=backend, counters=counters, probe=probe)
        assert len(result) > 0
        assert counters.intersections > 0
        assert counters.nodes_created > 0
        assert counters.reports == len(result)
        snapshot = probe.metrics.snapshot()["counters"]
        assert snapshot["ops.intersections"] == counters.intersections

    def test_name_survives_the_probe_proxy(self, backend):
        kernel = Probe().wrap_kernel(get_backend(backend))
        assert isinstance(repository_for(kernel), NativeRepository)
        assert isinstance(repository_for(get_backend("bitint")), PrefixTree)

    def test_node_arrays_are_traced_allocations(self, backend):
        rng = random.Random(3)
        masks = [rng.getrandbits(48) for _ in range(40)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            native = NativeRepository()
            for mask in masks:
                native.add_transaction(mask)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # At least the 36 bytes per node of the six node arrays.
        assert grown >= 36 * native.n_nodes > 0


def _partial_db(seed=11, n=18, m=20):
    rng = random.Random(seed)
    rows = [[item for item in range(m) if rng.random() < 0.5] for _ in range(n)]
    return TransactionDatabase.from_iterable(rows, item_order=list(range(m)))


@pytest.mark.parametrize("backend", NATIVE)
@pytest.mark.parametrize("trip_at", (20, 45))
def test_fault_trip_lands_inside_a_transaction(backend, trip_at):
    """The C descent polls the guard, so a trip past the row count fires."""
    db = _partial_db()
    smin = 3
    assert trip_at > db.n_transactions
    guard = RunGuard(fault_plan=FaultPlan(timeout_at=trip_at), stride=1)
    with pytest.raises(MiningTimeout) as info:
        mine_ista(db, smin, backend=backend, guard=guard)
    assert info.value.processed < db.n_transactions
    partial = info.value.partial
    assert partial is not None
    for mask in partial:
        assert galois.is_closed(db, mask)
        true_support = itemset.size(galois.cover(db, mask))
        assert partial[mask] == true_support >= smin
