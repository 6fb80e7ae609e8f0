"""Incremental (online) closed item set mining and the warm query path.

The cumulative scheme has a property none of the enumeration miners
share: it processes the database *one transaction at a time* and its
repository is, after every step, exactly the closed-set family of the
transactions seen so far (recursive relation (1) of the paper).  This
module exposes that as an online API: feed transactions as they arrive,
query the closed frequent sets whenever you like.

Because future transactions are unknown, the support-based item
elimination of the batch miner cannot be applied — the repository holds
the *full* closed family (minimum support 1), which is the inherent
price of exact online answers.  For bounded-memory approximations the
batch miner with pruning is the right tool.

The miner is also the engine behind :mod:`repro.serving`.  Three design
points serve that role:

* **Dual repository representations.**  The closed family lives either
  as the IsTa prefix tree (the paper's structure: cheap per-transaction
  updates, guided descents for point queries) or as a flat
  ``mask -> support`` dictionary (Mielikäinen's cumulative form: cheap
  to decode from a snapshot, cheap for small delta batches).  Either is
  materialised on demand from the other — the tree's node set is
  exactly the union of the closed sets' paths, so the two forms are
  interconvertible without information loss — and a snapshot loads as a
  third, *pending* form that is decoded only when first touched.
  Reads never build the tree: a pending snapshot decodes to the flat
  form whatever the first query is, and point queries then run as
  packed kernel scans over it.  Only an ingest batch that dwarfs the
  history builds the tree; a miner whose tree is already live (grown by
  ingest) answers from it with guided descents.
* **Memoised queries.**  Every query result is cached under a
  generation counter; any mutation bumps the generation and drops the
  cache, so repeated queries against an unchanged repository are
  dictionary lookups.  Query results are therefore returned as
  read-only mappings.
* **Batched ingest.**  :meth:`extend` applies the paper's Section 3.4
  heuristics per batch — duplicate transactions collapse into one
  weighted update, and the batch is processed in size-ascending,
  lexicographically tie-broken order.  The final repository is
  identical (the closed family of a multiset does not depend on
  processing order); only the work to build it shrinks.  Guard polls
  are amortised to one per transaction, which also makes each
  transaction atomic: an interrupted batch leaves the repository equal
  to a fully-processed prefix of the (reordered) batch.

>>> miner = IncrementalMiner()
>>> miner.add(["a", "b"])
>>> miner.add(["a", "b", "c"])
>>> miner.add(["b", "c"])
>>> sorted(miner.closed_sets(smin=2).items())
[(('a', 'b'), 2), (('b',), 3), (('b', 'c'), 2)]
"""

from __future__ import annotations

from itertools import islice
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..data import itemset
from ..kernels import resolve_backend
from ..obs import SIZE_BUCKETS, resolve_probe
from ..runtime import RunGuard, checker
from ..stats import OperationCounters
from .prefix_tree import PrefixTree

__all__ = ["IncrementalMiner"]

#: Below this repository size the flat-vs-tree routing question is moot;
#: batches into a tiny repository take the tree path unconditionally.
_FLAT_DELTA_MAX = 16

#: Shared empty read-only mapping (returned for unknown-label queries).
_EMPTY_MAPPING: Mapping = MappingProxyType({})



#: Query answers the memo keeps per generation, the packed family aside.
#: Keys carry client-chosen parameters (``k``, ``smin``, item sets), so
#: past this many the oldest answer is dropped, as the daemon drops its
#: oldest encoded body: a client cycling ``k`` holds at most this many
#: answers until the next mutation.
_MAX_MEMO_ANSWERS = 32

#: The memo key of the resident packed family, which every point query
#: of a generation reuses and which never counts against the bound.
_PACKED_KEY = ("packed",)

class IncrementalMiner:
    """Online closed frequent item set miner over arbitrary item labels.

    Parameters
    ----------
    counters:
        Optional :class:`~repro.stats.OperationCounters` to accumulate
        the cost model into.
    guard:
        Optional :class:`~repro.runtime.RunGuard`.  The guard is polled
        once per ingested transaction (amortised, never mid-update), so
        a deadline or cancellation leaves the repository equal to the
        fully-processed prefix of the stream.
    backend:
        Kernel backend name or instance (``None`` = default); all
        batched set algebra of the flat representation and the queries
        is routed through it.
    probe:
        Optional :class:`repro.obs.Probe`; phases, memo hit/miss and
        ingest counters land in its registry, and the kernel backend is
        wrapped with the per-primitive counting proxy.
    """

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        guard: Optional[RunGuard] = None,
        backend=None,
        probe=None,
    ) -> None:
        self.counters = counters if counters is not None else OperationCounters()
        self._obs = resolve_probe(probe)
        self._kernel = self._obs.wrap_kernel(resolve_backend(backend))
        self._check = checker(guard, self.counters)
        # Repository representations; at least one is always present.
        self._tree: Optional[PrefixTree] = PrefixTree(
            self.counters, kernel=self._kernel
        )
        self._flat: Optional[Dict[int, int]] = None
        self._pending = None  # lazy snapshot records (repro.serving)
        self._label_to_code: Dict[Hashable, int] = {}
        self._labels: List[Hashable] = []
        self._n_transactions = 0
        self._generation = 0
        self._memo: Dict[tuple, object] = {}
        self._ranks: Optional[List[int]] = None
        # Resident packed mirror of the flat family's keys.  Flat keys
        # are append-only under the fold path, so across generations the
        # table is *grown* (kernel.append_rows over the key tail) rather
        # than repacked; it is dropped whenever the flat form itself is
        # rebuilt (tree/pending materialisation changes key order).
        self._packed_table = None
        self._packed_len = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Number of transactions processed so far."""
        return self._n_transactions

    @property
    def n_items(self) -> int:
        """Number of distinct items seen so far."""
        return len(self._labels)

    @property
    def generation(self) -> int:
        """Mutation counter; memoised query results are valid per value."""
        return self._generation

    @property
    def item_labels(self) -> Tuple[Hashable, ...]:
        """Item labels in code order (index = item code)."""
        return tuple(self._labels)

    @property
    def label_codes(self) -> Mapping[Hashable, int]:
        """Read-only live view of the ``label -> item code`` table."""
        return MappingProxyType(self._label_to_code)

    @property
    def kernel(self):
        """The resolved kernel backend executing the set algebra."""
        return self._kernel

    @property
    def repository_size(self) -> int:
        """Size of the current repository representation (memory gauge).

        Prefix tree nodes when the tree is materialised; otherwise the
        closed family size (flat or pending snapshot form).
        """
        if self._tree is not None:
            return self._tree.n_nodes
        if self._flat is not None:
            return len(self._flat)
        return self._pending.n_sets

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def add(self, transaction: Iterable[Hashable]) -> None:
        """Process one transaction; new items extend the item base."""
        mask = self._encode_transaction(transaction)
        self._apply_groups([(mask, 1)], 1)

    def extend(self, transactions: Iterable[Iterable[Hashable]]) -> None:
        """Process a batch of transactions (Section 3.4 heuristics).

        Duplicate transactions within the batch collapse into single
        weighted repository updates, and the distinct transactions are
        processed in size-ascending order with the paper's
        lexicographic (descending-item) tie-break.  The resulting
        repository is identical to one-by-one :meth:`add` calls — the
        closed family of a multiset is order-independent — but the
        update work is not: small sets first keeps intermediate trees
        small, and duplicates cost one update instead of many.
        """
        masks = [self._encode_transaction(t) for t in transactions]
        if not masks:
            return
        groups: Dict[int, int] = {}
        for mask in masks:
            groups[mask] = groups.get(mask, 0) + 1
        keys = list(groups)
        sizes = self._kernel.popcount_many(keys)
        order = sorted(range(len(keys)), key=lambda i: (sizes[i], keys[i]))
        self._obs.count("serving.ingest.batches")
        self._obs.count("serving.ingest.deduplicated", len(masks) - len(keys))
        self._apply_groups(
            [(keys[i], groups[keys[i]]) for i in order], len(masks)
        )

    def _encode_transaction(self, transaction: Iterable[Hashable]) -> int:
        mask = 0
        codes = self._label_to_code
        labels = self._labels
        for label in transaction:
            code = codes.get(label)
            if code is None:
                code = len(labels)
                codes[label] = code
                labels.append(label)
            mask |= 1 << code
        return mask

    def _apply_groups(self, groups: Sequence[Tuple[int, int]], n_rows: int) -> None:
        """Fold weighted transaction groups into the live representation.

        Routing: a materialised tree keeps the paper's per-transaction
        tree update.  When only the flat (or pending snapshot) form is
        live — the warm path after a snapshot load — small delta
        batches are folded into the flat dictionary directly, which
        skips the tree rebuild entirely; a batch that dwarfs the
        history (more new transactions than processed ones) rebuilds
        the tree first, since the tree update scales with the affected
        subtrees rather than the whole family.
        """
        self._obs.count("serving.ingest.transactions", n_rows)
        tree_path = self._tree is not None
        if not tree_path:
            n_new = sum(weight for _, weight in groups)
            if n_new > max(_FLAT_DELTA_MAX, self._n_transactions):
                self._ensure_tree()
                tree_path = True
        try:
            if tree_path:
                self._flat = None
                # The packed mirror follows the flat form's lifetime.
                self._packed_table = None
                self._packed_len = 0
                tree = self._tree
                for mask, weight in groups:
                    self._check()
                    tree.add_transaction(mask, weight)
                    self._n_transactions += weight
            else:
                self._fold_into_flat(self._ensure_flat(), groups)
        finally:
            # Invalidate memoised queries even when a guard trip unwinds
            # mid-batch; the fully-processed transactions are kept.
            self._generation += 1
            self._memo.clear()

    def _fold_into_flat(
        self, flat: Dict[int, int], groups: Sequence[Tuple[int, int]]
    ) -> None:
        """Weighted cumulative updates of the flat repository.

        ``C(T ∪ {t}) = C(T) ∪ {t} ∪ {s ∩ t}`` with the new support of a
        generated set being the maximum support over its generators
        plus the weight — the dictionary form of the Figure 2 rule.
        (For a set already in the family this reduces to ``+= weight``:
        the set generates itself, and support is antitone under
        inclusion, so no other generator beats it.)

        The max-over-generators is taken at C speed: the pre-batch
        family is sorted ascending by support *once*, so folding
        ``zip(joints, supports)`` into a dict keeps, per distinct
        joint, the last — i.e. maximum-support — generator.  Supports
        of sets touched earlier in the batch are stale in that static
        snapshot (stale ≤ current, supports only grow); a small overlay
        dict of current values for the touched sets restores exactness
        with one pass over the overlay per transaction.

        For multi-transaction batches the static family is first
        *projected* onto the union of the batch's items: every joint of
        every transaction is a subset of that union, and two stored
        sets with equal projections generate identical joints for the
        whole batch, so they collapse into one row carrying their
        support maximum.  On overlapping transactions (the serving
        workload) this shrinks the per-transaction scan well below the
        family size, at the cost of one extra batched intersection
        pass.
        """
        kernel = self._kernel
        counters = self.counters
        n_bits = len(self._labels)
        keys = list(flat.keys())
        supps = list(flat.values())
        # Index sort on the small supports, then gather: much cheaper
        # than comparing (wide-mask, support) pairs.
        order = sorted(range(len(keys)), key=supps.__getitem__)
        keys = [keys[i] for i in order]
        supps = [supps[i] for i in order]
        nonzero = sum(1 for mask, _ in groups if mask)
        if nonzero > 1:
            union = 0
            for mask, _ in groups:
                union |= mask
            projected = kernel.intersect_many(keys, union, n_bits)
            counters.intersections += len(keys)
            proj_max = dict(zip(projected, supps))
            proj_max.pop(0, None)
            keys = list(proj_max.keys())
            supps = list(proj_max.values())
            order = sorted(range(len(keys)), key=supps.__getitem__)
            keys = [keys[i] for i in order]
            supps = [supps[i] for i in order]
        # The static (projected) family is scanned once per transaction:
        # pack it into a resident table so every scan is one table-wide
        # AND against rows packed exactly once for the batch.
        base_table = kernel.pack(keys, n_bits)
        # Append-only overlay: sets touched by this batch, in update
        # order.  Per stored set later entries carry larger supports
        # (supports only grow), so the compare-and-set below takes the
        # batch-current maximum per joint.
        ov_keys: List[int] = []
        ov_supps: List[int] = []
        for mask, weight in groups:
            self._check()
            if mask:
                joints = kernel.intersect_rows(base_table, mask)
                agg = dict(zip(joints, supps))
                agg.pop(0, None)
                counters.intersections += len(keys) + len(ov_keys)
                get = agg.get
                if ov_keys:
                    ov_joints = kernel.intersect_many(ov_keys, mask, n_bits)
                    for joint, supp in zip(ov_joints, ov_supps):
                        if joint and supp > get(joint, 0):
                            agg[joint] = supp
                if mask not in agg:
                    agg[mask] = 0
                for joint, generator_max in agg.items():
                    flat[joint] = generator_max + weight
                ov_keys += agg.keys()
                ov_supps += [g + weight for g in agg.values()]
                counters.support_updates += len(agg)
                counters.observe_repository_size(len(flat))
            self._n_transactions += weight

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------

    def _ensure_tree(self) -> PrefixTree:
        """Materialise the prefix tree form (exact rebuild, see below).

        Rebuilding from the closed family is lossless: the organic
        tree's node set is the union of the closed sets' paths and
        every prefix node's support is the maximum over the closed sets
        below it (:meth:`PrefixTree.from_closed_family`), so the rebuilt
        tree continues to grow exactly like the original would have.
        """
        if self._tree is None:
            self._obs.count("serving.materialize.tree")
            with self._obs.phase("serve.materialize", form="tree"):
                if self._flat is not None:
                    self._tree = PrefixTree.from_closed_family(
                        iter(self._flat.items()),
                        self.counters,
                        step=self._n_transactions,
                        kernel=self._kernel,
                    )
                else:
                    pending = self._pending
                    self._tree = pending.build_tree(
                        self.counters, self._n_transactions, self._kernel
                    )
                    self._pending = None
                    # Lazy-decode audit: header-only queries must keep
                    # this histogram empty (tests/serving pin count 0).
                    self._obs.observe(
                        "serving.rows_decoded",
                        pending.n_sets,
                        buckets=SIZE_BUCKETS,
                    )
        return self._tree

    def _ensure_flat(self) -> Dict[int, int]:
        """Materialise the flat ``mask -> support`` closed family."""
        if self._flat is None:
            self._obs.count("serving.materialize.flat")
            with self._obs.phase("serve.materialize", form="flat"):
                if self._tree is not None:
                    self._flat = dict(self._tree.report(1))
                else:
                    pending = self._pending
                    self._flat = pending.build_flat()
                    self._pending = None
                    self._obs.observe(
                        "serving.rows_decoded",
                        pending.n_sets,
                        buckets=SIZE_BUCKETS,
                    )
                # Fresh key order: the packed mirror is stale.
                self._packed_table = None
                self._packed_len = 0
        return self._flat

    def _family_pairs(self, smin: int) -> List[Tuple[int, int]]:
        """The closed frequent family as ``(mask, support)`` pairs.

        Never builds the tree: a live tree reports its family, anything
        else (a pending snapshot included) is read from the flat form.
        """
        if self._flat is None and self._tree is not None:
            return list(self._tree.report(smin))
        flat = self._ensure_flat()
        if smin == 1:
            return list(flat.items())
        return [(m, s) for m, s in flat.items() if s >= smin]

    # ------------------------------------------------------------------
    # Label handling
    # ------------------------------------------------------------------

    def _label_ranks(self) -> List[int]:
        """Per-code rank in the canonical label sort order.

        Cached against the label count rather than the generation:
        ranks depend only on the registered labels, which mutations
        rarely extend, so the cache survives ordinary ingest.
        """
        cached = self._ranks
        if cached is not None and len(cached) == len(self._labels):
            return cached
        labels = self._labels
        order = sorted(
            range(len(labels)),
            key=lambda c: (str(type(labels[c])), str(labels[c])),
        )
        ranks = [0] * len(labels)
        for position, code in enumerate(order):
            ranks[code] = position
        self._ranks = ranks
        return ranks

    def _labelize(self, mask: int, ranks: List[int]) -> Tuple[Hashable, ...]:
        codes = sorted(itemset.to_indices(mask), key=ranks.__getitem__)
        return tuple(self._labels[c] for c in codes)

    # ------------------------------------------------------------------
    # Queries (memoised; generation-invalidated)
    # ------------------------------------------------------------------

    def closed_sets(self, smin: int = 1) -> Mapping[Tuple[Hashable, ...], int]:
        """Closed frequent item sets of everything seen so far.

        Returns a **read-only** mapping from sorted label tuples to
        supports.  Cheap relative to mining from scratch — one
        traversal of the current repository — and memoised: repeating
        the query against an unchanged repository returns the cached
        mapping without touching the repository at all.
        """
        if smin < 1:
            raise ValueError(f"smin must be at least 1, got {smin}")
        key = ("closed", smin)
        hit = self._memo.get(key)
        if hit is not None:
            self._obs.count("serving.memo.hits")
            return hit
        self._obs.count("serving.memo.misses")
        self._check()
        with self._obs.phase("serve.closed_sets", smin=smin):
            ranks = self._label_ranks()
            out = MappingProxyType(
                {
                    self._labelize(mask, ranks): support
                    for mask, support in self._family_pairs(smin)
                }
            )
        self._remember(key, out)
        return out

    def support_of(self, items: Iterable[Hashable]) -> int:
        """Exact support of an arbitrary item set seen so far.

        The support of any set equals the support of the smallest closed
        superset in the repository (Section 2.3).  A label never seen in
        any transaction short-circuits to support 0 before the
        repository is touched.  A miner whose tree is live answers by
        the guided descent (:meth:`PrefixTree.superset_support`); any
        other (a loaded snapshot, whatever its first query was) by a
        kernel ``superset_max_support_bounded`` scan over the resident
        packed family (grown in place across generations, not
        repacked).  The empty set is contained in every transaction, so
        its support is the transaction count.
        """
        mask = 0
        for label in items:
            code = self._label_to_code.get(label)
            if code is None:
                return 0
            mask |= 1 << code
        if mask == 0:
            return self._n_transactions
        key = ("support", mask)
        hit = self._memo.get(key)
        if hit is not None:
            self._obs.count("serving.memo.hits")
            return hit
        self._obs.count("serving.memo.misses")
        self._obs.count("serving.query.support")
        self._check()
        with self._obs.phase("serve.support_of"):
            if self._tree is not None:
                value = self._tree.superset_support(mask)
            else:
                table, supports = self._packed_family()
                # Bounded form with the trivial threshold: identical
                # answer, and the support prefilter short-circuits for
                # free when a caller-level threshold ever tightens it.
                value = self._kernel.superset_max_support_bounded(
                    table, supports, mask, 1
                )
        self._remember(key, value)
        return value

    def _remember(self, key: tuple, answer: object) -> None:
        """Memoise a query answer, dropping the oldest past the bound."""
        memo = self._memo
        if len(memo) - (_PACKED_KEY in memo) >= _MAX_MEMO_ANSWERS:
            del memo[next(old for old in memo if old != _PACKED_KEY)]
        memo[key] = answer

    def _packed_family(self):
        """The flat family as a resident packed kernel table (memoised).

        The table persists across generations: flat keys are append-only
        under :meth:`_fold_into_flat`, so a mutation only grows the
        table by the new key tail (one ``append_rows`` call) instead of
        repacking the whole family.  A full repack happens only when the
        flat form was rebuilt (key order changed) or the item base grew
        past the table's packed width.  The supports list is rebuilt per
        generation — supports change on every update.
        """
        packed = self._memo.get(_PACKED_KEY)
        if packed is None:
            flat = self._ensure_flat()
            kernel = self._kernel
            n_bits = len(self._labels)
            table = self._packed_table
            if (
                table is None
                or self._packed_len > len(flat)
                or getattr(table, "n_bits", None) != n_bits
            ):
                table = kernel.pack(list(flat.keys()), n_bits)
            elif self._packed_len < len(flat):
                kernel.append_rows(
                    table, list(islice(flat.keys(), self._packed_len, None))
                )
            self._packed_table = table
            self._packed_len = len(flat)
            packed = (table, list(flat.values()))
            self._memo[_PACKED_KEY] = packed
        return packed

    def top_k(self, k: int, smin: int = 1) -> Tuple[Tuple[Tuple[Hashable, ...], int], ...]:
        """The ``k`` closed frequent sets of largest support.

        Returns ``((labels, support), ...)`` ordered by descending
        support, ties broken by ascending set size and then by the
        repository's deterministic item coding — so the answer is a
        pure function of the ingested multiset of transactions.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if smin < 1:
            raise ValueError(f"smin must be at least 1, got {smin}")
        if k == 0:
            # Nothing to rank: answer from the header alone, without
            # materialising (or decoding) the repository.
            return ()
        key = ("top_k", k, smin)
        hit = self._memo.get(key)
        if hit is not None:
            self._obs.count("serving.memo.hits")
            return hit
        self._obs.count("serving.memo.misses")
        self._obs.count("serving.query.top_k")
        self._check()
        with self._obs.phase("serve.top_k", k=k, smin=smin):
            pairs = self._family_pairs(smin)
            sizes = self._kernel.popcount_many([mask for mask, _ in pairs])
            ranked = sorted(
                zip(pairs, sizes), key=lambda e: (-e[0][1], e[1], e[0][0])
            )[:k]
            ranks = self._label_ranks()
            out = tuple(
                (self._labelize(mask, ranks), support)
                for (mask, support), _ in ranked
            )
        self._remember(key, out)
        return out

    def supersets_of(
        self, items: Iterable[Hashable], smin: int = 1
    ) -> Mapping[Tuple[Hashable, ...], int]:
        """Closed frequent supersets of an item set, as a read-only mapping.

        Includes the queried set itself when it is closed and frequent.
        Unknown labels short-circuit to an empty mapping; the empty set
        is a subset of everything, so it returns
        ``closed_sets(smin)``.  Against a live tree this is the guided
        :meth:`PrefixTree.supersets` enumeration; otherwise a kernel
        ``superset_rows`` containment scan of the packed family.
        """
        if smin < 1:
            raise ValueError(f"smin must be at least 1, got {smin}")
        mask = 0
        for label in items:
            code = self._label_to_code.get(label)
            if code is None:
                return _EMPTY_MAPPING
            mask |= 1 << code
        if mask == 0:
            return self.closed_sets(smin)
        key = ("supersets", mask, smin)
        hit = self._memo.get(key)
        if hit is not None:
            self._obs.count("serving.memo.hits")
            return hit
        self._obs.count("serving.memo.misses")
        self._obs.count("serving.query.supersets")
        self._check()
        with self._obs.phase("serve.supersets", smin=smin):
            if self._tree is not None:
                pairs = list(self._tree.supersets(mask, smin))
            else:
                kernel = self._kernel
                table, supports = self._packed_family()
                pairs = [
                    (kernel.table_row(table, index), supports[index])
                    for index in kernel.superset_rows(table, mask)
                    if supports[index] >= smin
                ]
            ranks = self._label_ranks()
            out = MappingProxyType(
                {self._labelize(stored, ranks): supp for stored, supp in pairs}
            )
        self._remember(key, out)
        return out

    # ------------------------------------------------------------------
    # Bulk construction
    # ------------------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        db,
        item_order: str = "frequency-ascending",
        counters: Optional[OperationCounters] = None,
        guard: Optional[RunGuard] = None,
        backend=None,
        probe=None,
    ) -> "IncrementalMiner":
        """Build a miner from a whole :class:`TransactionDatabase`.

        Items are registered in the paper's frequency-ascending code
        order before any transaction is processed (Section 3.4: the
        item coding, not the arrival order, determines the tree shape,
        and ascending frequency keeps it small), then the transactions
        are folded in through the batched :meth:`extend` path with its
        dedup and size-ascending ordering.
        """
        from ..data.recode import recode_items

        recoded = recode_items(db, item_order)
        miner = cls(counters=counters, guard=guard, backend=backend, probe=probe)
        for code, label in enumerate(recoded.item_labels):
            miner._label_to_code[label] = code
            miner._labels.append(label)
        with miner._obs.phase("serve.build", transactions=db.n_transactions):
            groups: Dict[int, int] = {}
            for mask in recoded.transactions:
                groups[mask] = groups.get(mask, 0) + 1
            keys = list(groups)
            sizes = miner._kernel.popcount_many(keys)
            order = sorted(range(len(keys)), key=lambda i: (sizes[i], keys[i]))
            miner._obs.count("serving.ingest.batches")
            miner._obs.count(
                "serving.ingest.deduplicated", db.n_transactions - len(keys)
            )
            miner._apply_groups(
                [(keys[i], groups[keys[i]]) for i in order], db.n_transactions
            )
        return miner

    @classmethod
    def _restore(
        cls,
        labels: Sequence[Hashable],
        n_transactions: int,
        pending,
        counters: Optional[OperationCounters] = None,
        guard: Optional[RunGuard] = None,
        backend=None,
        probe=None,
    ) -> "IncrementalMiner":
        """Rehydrate a miner from decoded snapshot state (repro.serving).

        ``pending`` is a lazy record object exposing ``n_sets``,
        ``build_tree(counters, step, kernel)`` and ``build_flat()``; the
        repository is not decoded until a query or mutation needs it.
        """
        miner = cls(counters=counters, guard=guard, backend=backend, probe=probe)
        miner._tree = None
        miner._pending = pending
        miner._labels = list(labels)
        miner._label_to_code = {label: code for code, label in enumerate(labels)}
        miner._n_transactions = n_transactions
        return miner
