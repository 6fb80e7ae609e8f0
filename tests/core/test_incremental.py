"""Tests for the online/incremental miner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.verify import closed_frequent_bruteforce
from repro.core.incremental import IncrementalMiner
from repro.data.database import TransactionDatabase


class TestOnlineSemantics:
    def test_docstring_example(self):
        miner = IncrementalMiner()
        miner.add(["a", "b"])
        miner.add(["a", "b", "c"])
        miner.add(["b", "c"])
        assert miner.closed_sets(smin=2) == {
            ("a", "b"): 2,
            ("b",): 3,
            ("b", "c"): 2,
        }

    def test_answers_valid_after_every_step(self):
        rows = [["a", "b"], ["b", "c"], ["a", "b", "c"], ["c"], ["a", "b"]]
        miner = IncrementalMiner()
        for k in range(1, len(rows) + 1):
            miner = IncrementalMiner()
            miner.extend(rows[:k])
            db = TransactionDatabase.from_iterable(rows[:k])
            expected = {
                tuple(sorted(labels)): supp
                for labels, supp in closed_frequent_bruteforce(db, 1)
                .as_frozensets()
                .items()
            }
            got = {tuple(sorted(k2)): v for k2, v in miner.closed_sets(1).items()}
            assert got == expected, k

    def test_single_miner_reused_across_steps(self):
        """The same miner instance must stay consistent as it grows."""
        rows = [["x"], ["x", "y"], ["y", "z"], ["x", "z"]]
        miner = IncrementalMiner()
        for index, row in enumerate(rows):
            miner.add(row)
            db = TransactionDatabase.from_iterable(rows[: index + 1])
            expected = closed_frequent_bruteforce(db, 1).as_frozensets()
            got = {frozenset(k): v for k, v in miner.closed_sets(1).items()}
            assert got == expected

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_random_streams(self, rows, smin):
        miner = IncrementalMiner()
        miner.extend(rows)
        db = TransactionDatabase.from_iterable(rows, item_order=list(range(7)))
        expected = {
            tuple(sorted(labels)): supp
            for labels, supp in closed_frequent_bruteforce(db, smin)
            .as_frozensets()
            .items()
        }
        assert miner.closed_sets(smin) == expected


class TestQueries:
    @pytest.fixture
    def miner(self):
        miner = IncrementalMiner()
        miner.extend([["a", "b"], ["a", "b", "c"], ["a"]])
        return miner

    def test_counts(self, miner):
        assert miner.n_transactions == 3
        assert miner.n_items == 3
        assert miner.repository_size > 0

    def test_support_of(self, miner):
        assert miner.support_of(["a"]) == 3
        assert miner.support_of(["a", "b"]) == 2
        assert miner.support_of(["a", "b", "c"]) == 1

    def test_support_of_unseen_item(self, miner):
        assert miner.support_of(["zzz"]) == 0

    def test_support_of_unseen_item_skips_tree(self, miner):
        """The unknown-label short-circuit must answer before any descent."""
        before = miner._tree.counters.node_visits
        assert miner.support_of(["a", "zzz", "b"]) == 0
        assert miner._tree.counters.node_visits == before

    def test_support_of_empty_set_is_transaction_count(self, miner):
        assert miner.support_of([]) == 3
        miner.add([])
        assert miner.support_of([]) == 4

    def test_support_of_infrequent_combination(self):
        miner = IncrementalMiner()
        miner.extend([["a"], ["b"]])
        assert miner.support_of(["a", "b"]) == 0

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=5),
    )
    def test_support_of_matches_bruteforce(self, rows, query):
        miner = IncrementalMiner()
        miner.extend(rows)
        qset = set(query)
        expected = sum(1 for row in rows if qset <= set(row))
        assert miner.support_of(query) == expected

    def test_invalid_smin(self, miner):
        with pytest.raises(ValueError):
            miner.closed_sets(0)

    def test_empty_transaction_counted_but_silent(self):
        miner = IncrementalMiner()
        miner.add([])
        miner.add(["a"])
        assert miner.n_transactions == 2
        assert miner.closed_sets(1) == {("a",): 1}


class TestMemoBound:
    def test_distinct_top_k_queries_keep_a_bounded_memo(self):
        from repro.core.incremental import _MAX_MEMO_ANSWERS, _PACKED_KEY
        from repro.obs import Probe

        from repro.serving.snapshot import dumps_snapshot, loads_snapshot

        source = IncrementalMiner()
        source.extend([["a", "b"], ["a", "b", "c"], ["b", "c"], ["c", "d"]])
        probe = Probe()
        miner = loads_snapshot(dumps_snapshot(source), probe=probe)
        # A point query first: a loaded miner answers it from the packed
        # family, which then sits in the memo too.
        assert miner.support_of(["b"]) == 3
        generation = miner.generation
        for k in range(1, 401):
            miner.top_k(k)
        assert miner.generation == generation
        answers = [key for key in miner._memo if key != _PACKED_KEY]
        assert len(answers) <= _MAX_MEMO_ANSWERS == 32
        assert ("top_k", 400, 1) in miner._memo
        assert ("top_k", 1, 1) not in miner._memo
        assert _PACKED_KEY in miner._memo

        def hits():
            return probe.metrics.snapshot()["counters"].get("serving.memo.hits", 0)

        before = hits()
        miner.top_k(400)
        assert hits() == before + 1
