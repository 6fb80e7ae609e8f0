"""The flat-family read path of a snapshot-loaded miner.

A loaded snapshot answers every verb from the flat family whatever verb
comes first: no read builds the prefix tree, and the answers are
byte-identical to those of a miner whose tree is live.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalMiner
from repro.data.database import TransactionDatabase
from repro.obs import Probe
from repro.serving import dumps_snapshot, loads_snapshot
from repro.serving import queries
from repro.serving.queries import QUERY_VERBS, parse_items, query_lines

from ..conftest import backend_params

rows_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), max_size=6),
    min_size=1,
    max_size=10,
)

#: The first request of each verb, sent to a freshly loaded snapshot.
FIRST_REQUESTS = {
    "closed_sets": {"smin": 2},
    "top_k": {"k": 3, "smin": 1},
    "supersets_of": {"items": [0]},
    "support_of": {"items": [0, 1]},
}


def script(miner, labels):
    """Every verb over a fixed spread of parameters, as one text."""
    lines = []
    for smin in (1, 2, 3):
        lines += query_lines(miner, "closed_sets", smin=smin)
        lines += query_lines(miner, "top_k", k=4, smin=smin)
    probes = [[], ["unknown"]] + [[label] for label in labels]
    probes += [[a, b] for a in labels[:4] for b in labels[:4] if a != b]
    for items in probes:
        lines += query_lines(miner, "support_of", items=items)
        for smin in (1, 2):
            lines += query_lines(miner, "supersets_of", items=items, smin=smin)
    return "\n".join(lines)


def relabel(rows, as_str):
    return [[f"i{item}" if as_str else item for item in row] for row in rows]


class TestFirstVerbDifferential:
    @pytest.mark.parametrize("backend", backend_params())
    @settings(max_examples=25, deadline=None)
    @given(rows=rows_strategy, as_str=st.booleans())
    def test_every_first_verb_answers_like_a_live_tree(self, backend, rows, as_str):
        rows = relabel(rows, as_str)
        db = TransactionDatabase.from_iterable(rows)
        live = IncrementalMiner.from_database(db, backend=backend)
        assert live._tree is not None
        labels = sorted({item for row in rows for item in row}, key=str)
        expected = script(live, labels)
        blob = dumps_snapshot(live)
        for verb in QUERY_VERBS:
            loaded = loads_snapshot(blob, backend=backend)
            request = dict(FIRST_REQUESTS[verb])
            if "items" in request:
                request["items"] = relabel([request["items"]], as_str)[0]
            first = query_lines(loaded, verb, **request)
            assert first == query_lines(live, verb, **request)
            assert script(loaded, labels) == expected, verb
            assert loaded._tree is None, verb

    def test_family_first_then_point_queries_take_kernel_scans(self):
        miner = IncrementalMiner.from_database(
            TransactionDatabase.from_iterable([[1, 2, 3], [1, 2], [2, 3], [1]])
        )
        probe = Probe()
        loaded = loads_snapshot(dumps_snapshot(miner), probe=probe)
        query_lines(loaded, "closed_sets", smin=1)
        assert query_lines(loaded, "support_of", items=[1, 2]) == ["2"]
        query_lines(loaded, "supersets_of", items=[2])
        counters = probe.metrics.snapshot()["counters"]
        assert counters["serving.materialize.flat"] == 1
        assert counters.get("serving.materialize.tree", 0) == 0
        assert counters["kernel.superset_max_support_bounded.calls"] == 1
        assert counters["kernel.superset_rows.calls"] == 1

    def test_live_tree_keeps_guided_descent(self):
        probe = Probe()
        miner = IncrementalMiner(probe=probe)
        miner.extend([[1, 2, 3], [1, 2], [2, 3]])
        query_lines(miner, "top_k", k=2)
        assert query_lines(miner, "support_of", items=[1, 2]) == ["2"]
        counters = probe.metrics.snapshot()["counters"]
        assert counters.get("serving.materialize.flat", 0) == 0
        assert counters.get("kernel.superset_max_support_bounded.calls", 0) == 0


@pytest.fixture
def renders(monkeypatch):
    """Count the family renderings ``query_lines`` performs."""
    calls = []
    original = queries._ranked_lines

    def counting(ranked):
        lines = original(ranked)
        calls.append(len(lines))
        return lines

    monkeypatch.setattr(queries, "_ranked_lines", counting)
    return calls


def _loaded():
    miner = IncrementalMiner()
    miner.extend([["a", "b"], ["a", "b", "c"], ["a"], ["b", "c"], ["c", "d"]])
    return loads_snapshot(dumps_snapshot(miner))


class TestRenderedLines:
    """A family answer renders once per call, and only its own sets.

    Repeats are not re-rendered by the daemon, which keeps each encoded
    family body per generation (``tests/serving/test_server.py``).
    """

    def test_distinct_parameters_render_separately(self, renders):
        miner = _loaded()
        query_lines(miner, "closed_sets", smin=1)
        query_lines(miner, "closed_sets", smin=2)
        query_lines(miner, "top_k", k=2, smin=1)
        query_lines(miner, "top_k", k=2, smin=2)
        assert len(renders) == 4

    def test_returned_list_is_a_copy(self):
        miner = _loaded()
        lines = query_lines(miner, "closed_sets", smin=1)
        expected = list(lines)
        lines.append("junk")
        assert query_lines(miner, "closed_sets", smin=1) == expected

    def test_mutation_invalidates_the_lines(self, renders):
        miner = _loaded()
        before = query_lines(miner, "closed_sets", smin=2)
        top_before = query_lines(miner, "top_k", k=1)
        miner.add(["d"])
        after = query_lines(miner, "closed_sets", smin=2)
        assert len(renders) == 3
        assert "d (2)" not in before
        assert "d (2)" in after
        assert query_lines(miner, "top_k", k=1) == top_before
        assert len(renders) == 4

    def test_first_request_renders_only_its_answer(self, renders):
        miner = _loaded()
        labelized = []
        original = miner._labelize

        def counting(mask, ranks):
            labelized.append(mask)
            return original(mask, ranks)

        miner._labelize = counting
        family = miner.repository_size  # read from the snapshot header
        lines = query_lines(miner, "closed_sets", smin=3)
        assert renders == [len(lines)]
        assert len(labelized) == len(lines) < family


class TestParseItems:
    def test_coercion_rules(self):
        miner = IncrementalMiner()
        miner.extend([[1, 2, "x"], [2, "3"]])
        assert parse_items("1, 2,x,,3,9,y", miner) == [1, 2, "x", "3", "9", "y"]

    def test_int_labels_coerce_from_text(self):
        miner = IncrementalMiner()
        miner.extend([[10, 20], [20]])
        assert parse_items("10,20", miner) == [10, 20]
        assert query_lines(miner, "support_of", items=parse_items("20", miner)) == [
            "2"
        ]
