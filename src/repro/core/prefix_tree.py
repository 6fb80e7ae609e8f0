"""The IsTa repository prefix tree (Figures 1-4 of the paper), in two forms.

:class:`PrefixTree` holds Python node objects and is the reference: the
``bitint`` and ``numpy`` backends run it, and installs without a
compiler have only it.  :class:`NativeRepository` runs the same rules
over the C extension's struct-of-arrays tree
(``repro.kernels._native.Repository``), one native call per
transaction, pruning pass or report; the ``native`` backend runs it.
Both offer the driver the same surface — ``add_transaction``,
``prune``, ``report`` — and :func:`repository_for` picks one by the
backend's name.  The rest of this docstring describes
:class:`PrefixTree`; ``_native.c`` documents the C form.

The tree stores the family of closed item sets of the already-processed
part of the database.  A node holds the *last* (smallest) item of the
set it represents; the full set is the path from the root.  Items along
any root-to-leaf path are strictly decreasing, which is what makes the
``imin`` pruning of the intersection procedure sound: once the current
node's item is not larger than the smallest item of the transaction,
nothing deeper or further along the sibling list can intersect.

Differences from the C original (Figure 1/2), none of which change
behaviour:

* children are held in a dict keyed by item instead of an ordered
  sibling list — Python dicts give O(1) find-or-insert, which plays the
  role of the C code's ordered sibling scan;
* the intersection pass runs, by default, as a *level-batched bounded
  descent*: each tree level's frontier is tested against the
  transaction in one ``intersect_count_many_bounded`` kernel call over
  the nodes' subtree-item summaries, and subtrees whose summary is
  disjoint from the transaction are skipped wholesale via the
  ``BELOW_BOUND`` sentinel (``batched=False`` keeps the node-at-a-time
  recursion of the C original — the differential baseline);
* the ``step`` update flag works exactly as in Figure 2: it marks nodes
  whose support was already raised by the current transaction so that
  the maximum over all generating intersections is taken, without ever
  having to clear flags.

Why the two descents produce byte-identical trees: (a) a node is read
as an intersection *source* at most once per transaction, and the
step-flag merge rule (subtract the provisional contribution,
re-maximise, re-add) is idempotent in the iteration order, so supports
do not depend on whether siblings are processed depth- or
breadth-first; (b) insertion positions always sit at a strictly
smaller depth than the sources of the same level, so a level's child
enumerations are never mutated mid-level and the breadth-first frontier
sees exactly the snapshot the recursion sees; (c) the sentinel skip
only removes subtrees whose every path is disjoint from the
transaction — nodes that can contribute neither an intersection member
nor a descent.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..data import itemset
from ..kernels import BELOW_BOUND, resolve_backend
from ..kernels.native import _native
from ..runtime import RunGuard, checker
from ..stats import OperationCounters

__all__ = ["PrefixTreeNode", "PrefixTree", "NativeRepository", "repository_for"]

#: Stand-in flag stream once adaptive frontier testing has switched off:
#: every frame reads as a pass, no per-level list is materialised.
_ALWAYS_PASS = itertools.repeat(0)


class PrefixTreeNode:
    """One prefix tree node: ``(step, item, supp, children)`` as in Figure 1.

    Beyond the paper's four fields the node keeps its ``parent`` link
    and ``below``, the union (bit mask) of all items appearing in its
    subtree, itself included.  ``below`` may *over*-approximate after
    pruning splices (a stale bit only costs a missed skip, never a
    wrong one) but is never allowed to under-approximate: insertions
    propagate new bits up the parent chain immediately.
    """

    __slots__ = ("item", "supp", "step", "children", "parent", "below")

    def __init__(
        self,
        item: int,
        supp: int = 0,
        step: int = 0,
        parent: Optional["PrefixTreeNode"] = None,
    ) -> None:
        self.item = item
        self.supp = supp
        self.step = step
        self.children: Dict[int, "PrefixTreeNode"] = {}
        self.parent = parent
        self.below = 1 << item if item >= 0 else 0

    def __repr__(self) -> str:
        return f"PrefixTreeNode(item={self.item}, supp={self.supp})"


class PrefixTree:
    """Prefix tree over item codes, with in-place intersection merging."""

    __slots__ = (
        "_root",
        "_step",
        "_n_nodes",
        "_depth_bound",
        "_n_bits",
        "_kernel",
        "_batched",
        "counters",
        "_check",
        "_guarded",
    )

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        guard: Optional[RunGuard] = None,
        kernel=None,
        batched: bool = True,
    ) -> None:
        self._root = PrefixTreeNode(item=-1)
        self._step = 0
        self._n_nodes = 0
        self._depth_bound = 0
        self._n_bits = 0
        # Kernel executing the per-level bounded frontier test; resolved
        # lazily (environment/default) on first use when not supplied so
        # plain tree construction stays free of backend concerns.
        self._kernel = kernel
        self._batched = batched
        self.counters = counters if counters is not None else OperationCounters()
        # Guard poll, stride-sampled inside the guard; a no-op callable
        # when no guard is active so the hot loop stays branch-free.
        # The batched descent additionally keys its per-row polling on
        # ``_guarded`` so the unguarded hot path pays nothing at all.
        self._check = checker(guard, self.counters)
        self._guarded = guard is not None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes excluding the root."""
        return self._n_nodes

    @property
    def step(self) -> int:
        """Index (1-based) of the last processed transaction."""
        return self._step

    def find(self, mask: int) -> Optional[PrefixTreeNode]:
        """Node representing ``mask``, or ``None`` — items walked descending."""
        node = self._root
        for item in _descending_items(mask):
            node = node.children.get(item)
            if node is None:
                return None
        return node

    def superset_support(self, mask: int, strict: bool = False) -> int:
        """Largest support among stored sets that contain ``mask``.

        This is the repository form of the Section 2.3 support query:
        the support of an arbitrary item set equals the support of its
        smallest closed superset, which (supports being antitone under
        inclusion) is the largest support over *all* stored supersets.

        The descent is guided rather than exhaustive.  Items strictly
        decrease along every root-to-leaf path, so a subtree headed by
        item ``j`` can only cover query items ``<= j``: any subtree
        whose head item lies below the highest still-uncovered query
        item is pruned wholesale.  Once the query is fully covered the
        head node's support is the subtree maximum (deeper sets are
        supersets with no larger support), so the walk stops there; a
        branch whose head support cannot beat the best found so far is
        skipped for the same reason.  Returns 0 when no stored superset
        exists.

        With ``strict=True`` only *proper* supersets count: the node
        whose path equals ``mask`` itself is excluded (its children
        still qualify) — the closedness test of the merge machinery.
        """
        counters = self.counters
        best = 0
        if mask == 0:
            # Every stored (nonempty) set is a proper superset of the
            # empty set; the per-branch maximum sits at the root fringe.
            for child in self._root.children.values():
                counters.node_visits += 1
                if child.supp > best:
                    best = child.supp
            return best
        # Frames: (node, remaining query bits, path-has-extra-items).
        stack = [(self._root, mask, False)]
        while stack:
            node, remaining, extra = stack.pop()
            hi = remaining.bit_length() - 1
            for child in node.children.values():
                counters.node_visits += 1
                item = child.item
                if item < hi or child.supp <= best:
                    # Either the highest uncovered query item cannot
                    # appear at or below this child, or the subtree
                    # maximum (= child.supp) cannot improve the answer.
                    continue
                bit = 1 << item
                if remaining & bit:
                    rem2 = remaining ^ bit
                    extra2 = extra
                else:
                    rem2 = remaining
                    extra2 = True
                if rem2 == 0:
                    if extra2 or not strict:
                        best = child.supp
                    else:
                        # Path equals the query exactly; only deeper
                        # nodes are proper supersets.
                        for grand in child.children.values():
                            counters.node_visits += 1
                            if grand.supp > best:
                                best = grand.supp
                elif child.children:
                    stack.append((child, rem2, extra2))
        return best

    def supersets(self, mask: int, smin: int = 1) -> Iterator[Tuple[int, int]]:
        """Yield ``(stored mask, support)`` for closed frequent supersets.

        Enumerates exactly the subset of :meth:`report` whose sets
        contain ``mask`` (including ``mask`` itself when stored), but
        with the same guided pruning as :meth:`superset_support`:
        subtrees whose head item cannot cover the highest uncovered
        query bit, and subtrees whose head support is already below
        ``smin`` (supports are antitone downward), are never entered.
        Order of the yielded pairs is unspecified.
        """
        if smin < 1:
            raise ValueError(f"smin must be at least 1, got {smin}")
        counters = self.counters
        # Frames: (node, path mask, query bits not covered by the path).
        stack = []
        for child in self._root.children.values():
            counters.node_visits += 1
            remaining = mask & ~(1 << child.item)
            if child.supp >= smin and (
                not remaining or remaining.bit_length() - 1 <= child.item
            ):
                stack.append((child, 1 << child.item, remaining))
        while stack:
            node, path, remaining = stack.pop()
            max_child_supp = 0
            for child in node.children.values():
                counters.node_visits += 1
                if child.supp > max_child_supp:
                    max_child_supp = child.supp
                rem2 = remaining & ~(1 << child.item)
                if child.supp >= smin and (
                    not rem2 or rem2.bit_length() - 1 <= child.item
                ):
                    stack.append((child, path | (1 << child.item), rem2))
            if not remaining and node.supp >= smin and node.supp > max_child_supp:
                counters.reports += 1
                yield path, node.supp

    # ------------------------------------------------------------------
    # The cumulative update (recursive relation (1) + Figure 2)
    # ------------------------------------------------------------------

    def add_transaction(self, mask: int, weight: int = 1) -> None:
        """Process one transaction: insert its path, then merge intersections.

        Implements one step of the recursive relation
        ``C(T ∪ {t}) = C(T) ∪ {t} ∪ { s ∩ t : s ∈ C(T) }`` with supports
        maintained through the step-flagged maximum rule of Figure 2.
        Empty transactions are ignored (no empty sets are ever kept).

        ``weight`` processes the transaction as ``weight`` identical
        copies in one pass — the Section 3.4 duplicate-collapsing
        heuristic.  Duplicates generate exactly the same intersections,
        so the only change is that every support contribution counts
        ``weight`` instead of 1; the step-flag bookkeeping (subtract the
        provisional contribution, re-maximise, re-add) carries over with
        ``weight`` in place of 1.
        """
        if weight < 1:
            raise ValueError(f"weight must be at least 1, got {weight}")
        self._step += 1
        if not mask:
            return
        # The intersection recursion can go as deep as the longest
        # root-to-leaf path, which is bounded by the largest transaction
        # seen so far (intersections are never longer than that).
        size = itemset.size(mask)
        if size > self._depth_bound:
            self._depth_bound = size
        width = mask.bit_length()
        if width > self._n_bits:
            self._n_bits = width
        if self._depth_bound + 200 > sys.getrecursionlimit():
            sys.setrecursionlimit(self._depth_bound + 1200)
        self._insert_path(mask)
        if self._batched:
            self._intersect_batched(mask, weight)
        else:
            self._intersect(mask, weight)
        self.counters.observe_repository_size(self._n_nodes)

    def _insert_path(self, mask: int) -> None:
        """Add the transaction itself to the tree; new nodes get support 0.

        Support 0 is not a placeholder trick: the subsequent intersection
        pass finds the path via its self-intersection and raises it."""
        node = self._root
        remaining = mask
        while remaining:
            item = remaining.bit_length() - 1
            child = node.children.get(item)
            if child is None:
                child = PrefixTreeNode(item, parent=node)
                node.children[item] = child
                self._n_nodes += 1
                self.counters.nodes_created += 1
            # Every path node's subtree now (also) holds the path's tail.
            child.below |= remaining
            remaining ^= 1 << item
            node = child

    def _intersect(self, mask: int, weight: int = 1) -> None:
        """Figure 2: intersect every stored set with ``mask``, merge in place.

        Recursive like the C original; Python 3.11+ makes deep Python
        recursion safe once the recursion limit is raised (the caller's
        responsibility, see :meth:`add_transaction`).

        Mutation-safety note: a sibling family is only ever mutated
        while it is the *insertion position* of some frame, and the
        insertion chain consists exactly of the nodes whose whole path
        lies inside ``mask``.  A source node coincides with its
        insertion position only in the self-descend case (``target is
        node``), so only the root family and self-descend families need
        to be snapshotted — everything else iterates the live dict.
        """
        step = self._step
        imin = (mask & -mask).bit_length() - 1
        counters = self.counters
        check = self._check
        # Hot loop: operation counts are accumulated in a mutable cell
        # and flushed once per transaction (per-node attribute
        # increments would dominate the Python runtime).
        stats = [0, 0, 0, 0]  # visits, intersections, created, updates

        def isect(sources, target) -> None:
            check()
            for node in sources:
                item = node.item
                stats[0] += 1
                if item < imin:
                    # Nothing in this subtree can contribute: all items
                    # below are < imin, hence not in mask.
                    continue
                if mask >> item & 1:
                    # Item in the intersection: find or create the node
                    # for the extended set under the insertion position.
                    stats[1] += 1
                    existing = target.children.get(item)
                    if existing is None:
                        existing = PrefixTreeNode(item, node.supp + weight, step, target)
                        target.children[item] = existing
                        stats[2] += 1
                        bit = 1 << item
                        ancestor = target
                        while ancestor is not None and not ancestor.below & bit:
                            ancestor.below |= bit
                            ancestor = ancestor.parent
                    else:
                        if existing.step == step:
                            existing.supp -= weight
                        if existing.supp < node.supp:
                            existing.supp = node.supp
                        existing.supp += weight
                        existing.step = step
                        stats[3] += 1
                    if item > imin and node.children:
                        if existing is node:
                            isect(list(node.children.values()), existing)
                        else:
                            isect(node.children.values(), existing)
                elif item > imin and node.children:
                    # Item not in the transaction: descend with the
                    # insertion position unchanged.
                    isect(node.children.values(), target)

        root = self._root
        try:
            isect(list(root.children.values()), root)
        finally:
            # Flush even when a guard interruption unwinds mid-merge, so
            # the counters snapshot on the exception reflects real work.
            self._n_nodes += stats[2]
            counters.node_visits += stats[0]
            counters.intersections += stats[1]
            counters.nodes_created += stats[2]
            counters.support_updates += stats[3]

    def _intersect_batched(self, mask: int, weight: int = 1) -> None:
        """Level-batched bounded form of :meth:`_intersect`.

        Processes the tree breadth-first.  Each level's frontier is
        tested against the transaction in *one* bounded kernel call over
        the nodes' ``below`` summaries with the only sound pushed-down
        bound, 1: a sentinel answer proves the node's entire subtree
        shares no item with the transaction, so neither an intersection
        member nor a useful descent can come out of it and the subtree
        is skipped wholesale.  (A support-based bound would be unsound
        here — infrequent nodes still feed the maximum rule of later
        transactions' intersections.)  The per-node merge logic is the
        Figure 2 rule, verbatim; see the module docstring for why the
        result is byte-identical to the recursion.

        Snapshot safety without copying: a frame's insertion position is
        always strictly shallower than its source (``existing`` for the
        next level is one deeper than ``target``, and sources one deeper
        than that), so insertions during a level never mutate a child
        dict that the same level enumerates — the breadth-first order
        separates readers and writers by depth.
        """
        step = self._step
        imin = (mask & -mask).bit_length() - 1
        counters = self.counters
        row_check = self._check if self._guarded else None
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = resolve_backend(None)
        n_bits = self._n_bits
        bounded = kernel.intersect_count_many_bounded
        # Per-transaction membership table: a C-speed subscript per
        # visited node instead of a big-int shift (``mask >> item & 1``
        # allocates a fresh multi-word temporary on wide masks).
        in_mask = bytearray(n_bits)
        rem = mask
        while rem:
            low = rem & -rem
            in_mask[low.bit_length() - 1] = 1
            rem ^= low
        visits = isects = created = updates = 0

        def merge(node, target):
            # Figure 2 find-or-create + step-flag maximum rule.
            nonlocal created, updates
            item = node.item
            existing = target.children.get(item)
            if existing is None:
                existing = PrefixTreeNode(item, node.supp + weight, step, target)
                target.children[item] = existing
                created += 1
                bit = 1 << item
                ancestor = target
                while ancestor is not None and not ancestor.below & bit:
                    ancestor.below |= bit
                    ancestor = ancestor.parent
            else:
                if existing.step == step:
                    existing.supp -= weight
                if existing.supp < node.supp:
                    existing.supp = node.supp
                existing.supp += weight
                existing.step = step
                updates += 1
            return existing

        def classify(children, target, sources, targets, belows):
            # Triage one child family: leaves are merged inline (their
            # whole subtree is their own item — no frontier test or
            # descent needed), internal subtrees join the next level's
            # bounded frontier, children below ``imin`` are dropped (the
            # recursion's ``item < imin`` test, applied at enqueue).
            nonlocal visits, isects
            for child in children:
                visits += 1
                item = child.item
                if item < imin:
                    continue
                if child.children:
                    sources.append(child)
                    targets.append(target)
                    belows.append(child.below)
                elif in_mask[item]:
                    isects += 1
                    merge(child, target)

        root = self._root
        sources: list = []
        targets: list = []
        belows: list = []
        # Adaptive frontier testing: small levels are always tested (the
        # call is cheap and may catch late skips), large levels keep
        # being tested only while the previous large level yielded at
        # least 1/8 sentinels — once a wide frontier stops paying, the
        # rest of this transaction's descent runs untested (processing a
        # disjoint subtree is a no-op, so the output is unaffected).
        testing = True
        try:
            # Inline leaf merges insert into the family being walked
            # when the target is the enumerated node itself (the root
            # here, self-descents below) — snapshot exactly those, as
            # the recursion does.
            classify(list(root.children.values()), root, sources, targets, belows)
            while sources:
                if testing:
                    _, flags = bounded(belows, mask, n_bits, 1)
                    if len(flags) > 256 and flags.count(BELOW_BOUND) * 8 < len(flags):
                        testing = False
                else:
                    flags = _ALWAYS_PASS
                next_sources: list = []
                next_targets: list = []
                next_belows: list = []
                # Guard poll per frontier row, not per level: a level
                # can span an arbitrary slice of the tree, and the
                # interruption contract (docs/robustness.md) promises
                # responsiveness proportional to nodes processed — the
                # same granularity the recursive descent's per-group
                # poll gives.  Sentinel-skipped rows still poll (the
                # skip is work the guard should account), but only a
                # guarded tree pays the per-row call at all.
                for node, target, flag in zip(sources, targets, flags):
                    if row_check is not None:
                        row_check()
                    if flag < 0:
                        # Sentinel: the node's entire subtree is
                        # disjoint from the transaction — skip it
                        # wholesale.
                        continue
                    item = node.item
                    if in_mask[item]:
                        isects += 1
                        existing = merge(node, target)
                        if item > imin:
                            if existing is node:
                                classify(
                                    list(node.children.values()),
                                    existing,
                                    next_sources,
                                    next_targets,
                                    next_belows,
                                )
                            else:
                                classify(
                                    node.children.values(),
                                    existing,
                                    next_sources,
                                    next_targets,
                                    next_belows,
                                )
                    elif item > imin:
                        classify(
                            node.children.values(),
                            target,
                            next_sources,
                            next_targets,
                            next_belows,
                        )
                sources = next_sources
                targets = next_targets
                belows = next_belows
        finally:
            self._n_nodes += created
            counters.node_visits += visits
            counters.intersections += isects
            counters.nodes_created += created
            counters.support_updates += updates

    # ------------------------------------------------------------------
    # Item elimination pruning (Section 3.2)
    # ------------------------------------------------------------------

    def prune(self, remaining: Sequence[int], smin: int) -> None:
        """One pruning pass: splice out nodes whose item cannot keep the set alive.

        A node with support ``x`` whose own item ``i`` satisfies
        ``x + remaining[i] < smin`` heads a subtree in which every set
        contains ``i`` with even lower support, so none of those sets can
        become frequent *with* ``i``.  The node is spliced out: its children
        merge into its parent (support maximum on collisions).  The maximum
        keeps the crucial witness property: if one of the merged nodes
        carried the exact support of a set, the merged node still does,
        which is what guarantees that closed sets re-emerging from later
        intersections obtain their exact supports (see the module
        docstring of :mod:`repro.core.ista` and ``tests/core/test_ista.py``).
        """
        counters = self.counters
        stack = [self._root]
        while stack:
            parent = stack.pop()
            # Splice deficient children until none remain.  Spliced-in
            # grandchildren can themselves be deficient, hence the fixpoint
            # loop rather than a single sweep.
            changed = True
            while changed:
                changed = False
                for item, child in list(parent.children.items()):
                    if child.supp + remaining[item] >= smin:
                        continue
                    counters.items_eliminated += 1
                    counters.nodes_pruned += 1
                    del parent.children[item]
                    self._n_nodes -= 1
                    for grandchild in child.children.values():
                        existing = parent.children.get(grandchild.item)
                        if existing is None:
                            parent.children[grandchild.item] = grandchild
                            grandchild.parent = parent
                        else:
                            self._merge_nodes(existing, grandchild)
                    changed = True
            stack.extend(parent.children.values())

    def _merge_nodes(self, target: PrefixTreeNode, source: PrefixTreeNode) -> None:
        """Merge ``source`` into ``target`` (same item): supports max, children union.

        Both nodes now represent the same reduced item set; each stored
        support counts transactions that contained one of the original
        supersets, so the maximum remains a lower bound of the reduced
        set's true support.  Iterative, because subtrees can be as deep as
        the longest transaction.
        """
        stack = [(target, source)]
        counters = self.counters
        while stack:
            into, from_ = stack.pop()
            self._n_nodes -= 1
            counters.nodes_merged += 1
            if from_.supp > into.supp:
                into.supp = from_.supp
                into.step = from_.step
            # Keep the subtree-item summary a superset of the merged
            # subtree; splice ancestors retain stale bits, which only ever
            # costs a missed batched-descent skip, never a wrong one.
            into.below |= from_.below
            for grandchild in from_.children.values():
                existing = into.children.get(grandchild.item)
                if existing is None:
                    into.children[grandchild.item] = grandchild
                    grandchild.parent = into
                else:
                    stack.append((existing, grandchild))

    # ------------------------------------------------------------------
    # Reporting (Figure 4)
    # ------------------------------------------------------------------

    def report(self, smin: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(item set mask, support)`` for the closed frequent sets.

        A node is reported iff its support reaches ``smin`` and no child
        has the same support (a child with equal support witnesses a
        superset with equal support, i.e. non-closedness).  The empty
        set (root) is never reported.
        """
        if smin < 1:
            raise ValueError(f"smin must be at least 1, got {smin}")
        counters = self.counters
        # Frames: (node, mask-so-far). Post-order is not needed: a node's
        # closedness depends only on its direct children's supports.
        stack = [(child, 1 << child.item) for child in self._root.children.values()]
        while stack:
            node, mask = stack.pop()
            counters.node_visits += 1
            max_child_supp = 0
            for child in node.children.values():
                if child.supp > max_child_supp:
                    max_child_supp = child.supp
                stack.append((child, mask | (1 << child.item)))
            if node.supp >= smin and node.supp > max_child_supp:
                counters.reports += 1
                yield mask, node.supp

    # ------------------------------------------------------------------
    # Canonical serial form (the snapshot codec's view of the tree)
    # ------------------------------------------------------------------

    def preorder(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(item, supp, n_children)`` for every node, canonically.

        Depth-first preorder with the children of every node (including
        the root's) visited in *descending* item order.  Two trees
        holding the same node sets and supports produce identical
        record streams regardless of insertion history, which is what
        makes the snapshot encoding deterministic.
        """
        # Push in ascending item order so pops come out descending; a
        # node's subtree is fully emitted before its next sibling.
        stack = sorted(self._root.children.values(), key=lambda n: n.item)
        while stack:
            node = stack.pop()
            yield node.item, node.supp, len(node.children)
            stack.extend(sorted(node.children.values(), key=lambda n: n.item))

    @classmethod
    def from_closed_family(
        cls,
        pairs: Iterator[Tuple[int, int]],
        counters: Optional[OperationCounters] = None,
        step: int = 0,
        kernel=None,
    ) -> "PrefixTree":
        """Rebuild the repository tree from its closed family.

        The organic tree is exactly the union of the closed sets' paths:
        every node is a path prefix ``p`` of some stored set, and its
        closure ``cl(p)`` adds only items *smaller* than ``min(p)`` (the
        generating set's remaining items), so ``cl(p)`` lies in ``p``'s
        own subtree.  Hence each prefix node's exact support equals the
        maximum over the closed sets below it — recovered here by one
        bottom-up pass — and the rebuilt tree is node-for-node,
        support-for-support identical to the tree that grew organically.
        Subsequent :meth:`add_transaction` calls therefore behave
        exactly as if the tree had never been serialised.

        ``step`` seeds the transaction counter (pass the number of
        transactions already folded in) so step flags of later updates
        never collide with the rebuilt nodes' flag value 0.
        """
        tree = cls(counters, kernel=kernel)
        root = tree._root
        n_nodes = 0
        depth_bound = 0
        n_bits = 0
        for mask, supp in pairs:
            node = root
            size = 0
            width = mask.bit_length()
            if width > n_bits:
                n_bits = width
            remaining = mask
            while remaining:
                item = remaining.bit_length() - 1
                remaining ^= 1 << item
                size += 1
                child = node.children.get(item)
                if child is None:
                    child = PrefixTreeNode(item, parent=node)
                    node.children[item] = child
                    n_nodes += 1
                node = child
            node.supp = supp
            if size > depth_bound:
                depth_bound = size
        # Bottom-up support and subtree-summary fill: reversed preorder
        # sees every child before its parent.
        order = []
        stack = list(root.children.values())
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children.values())
        for node in reversed(order):
            for child in node.children.values():
                if child.supp > node.supp:
                    node.supp = child.supp
                node.below |= child.below
        tree._n_nodes = n_nodes
        tree._depth_bound = depth_bound
        tree._n_bits = n_bits
        tree._step = step
        tree.counters.nodes_created += n_nodes
        tree.counters.observe_repository_size(n_nodes)
        return tree

    # ------------------------------------------------------------------
    # Introspection (used by the Figure 3 tests and debugging)
    # ------------------------------------------------------------------

    def as_nested_dict(self) -> Dict[int, Tuple[int, dict]]:
        """Structure snapshot: ``{item: (supp, children-dict)}`` recursively."""

        def convert(node: PrefixTreeNode) -> Dict[int, Tuple[int, dict]]:
            return {
                child.item: (child.supp, convert(child))
                for child in node.children.values()
            }

        return convert(self._root)

    def depth(self) -> int:
        """Length of the longest root-to-leaf path."""
        best = 0
        stack = [(child, 1) for child in self._root.children.values()]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            stack.extend((child, level + 1) for child in node.children.values())
        return best


#: OperationCounters fields filled from ``Repository.drain()``, in its order.
_DRAINED = (
    "node_visits",
    "intersections",
    "nodes_created",
    "support_updates",
    "nodes_pruned",
    "items_eliminated",
    "nodes_merged",
    "reports",
)


class NativeRepository:
    """IsTa's repository in C: ``repro.kernels._native.Repository``.

    The same driver surface as :class:`PrefixTree` —
    :meth:`add_transaction`, :meth:`prune`, :meth:`report` — over the
    extension's struct-of-arrays tree (siblings in descending item
    order, as in the paper's C original).  Each call is one native call:
    a transaction's path insertion and its whole Figure 2 ``isect`` pass,
    one pruning splice pass, or the whole Figure 4 report.  The guard's
    check callable is passed into the descent, which polls it at the
    head of every ``isect`` sibling group, as the recursion does.

    The C side counts its work and :meth:`_drain` adds it to
    ``counters`` after every call, an interrupted one included.
    ``nodes_created`` equals the recursion's count; ``intersections``
    and ``support_updates`` never exceed it (see the comment above
    ``Repository`` in ``_native.c``).
    """

    __slots__ = ("_repo", "counters", "_check")

    def __init__(
        self,
        counters: Optional[OperationCounters] = None,
        guard: Optional[RunGuard] = None,
    ) -> None:
        if _native is None:
            raise RuntimeError("the native extension is not built")
        self._repo = _native.Repository()
        self.counters = counters if counters is not None else OperationCounters()
        self._check = checker(guard, self.counters) if guard is not None else None

    @property
    def n_nodes(self) -> int:
        """Number of nodes excluding the root."""
        return self._repo.n_nodes

    @property
    def step(self) -> int:
        """Index (1-based) of the last processed transaction."""
        return self._repo.step

    def add_transaction(self, mask: int, weight: int = 1) -> None:
        """:meth:`PrefixTree.add_transaction`, as one native call."""
        if weight < 1:
            raise ValueError(f"weight must be at least 1, got {weight}")
        try:
            self._repo.add(
                mask.to_bytes((mask.bit_length() + 7) // 8, "little"),
                weight,
                self._check,
            )
        finally:
            self._drain()
        self.counters.observe_repository_size(self._repo.n_nodes)

    def prune(self, remaining: Sequence[int], smin: int) -> None:
        """:meth:`PrefixTree.prune`'s splice-and-merge rule, as one native call."""
        try:
            self._repo.prune(remaining, smin)
        finally:
            self._drain()

    def report(self, smin: int) -> Iterator[Tuple[int, int]]:
        """:meth:`PrefixTree.report`'s ``(mask, support)`` pairs."""
        try:
            pairs = self._repo.report(smin)
        finally:
            self._drain()
        return iter(pairs)

    def _drain(self) -> None:
        counters = self.counters
        for field, amount in zip(_DRAINED, self._repo.drain()):
            if amount:
                setattr(counters, field, getattr(counters, field) + amount)


def repository_for(
    kernel,
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    batched: bool = True,
):
    """The IsTa repository the resolved backend runs.

    The ``native`` backend gets :class:`NativeRepository`; the others
    get :class:`PrefixTree` on ``kernel`` (``batched`` picks between its
    two Python descents).  The test is the backend's name, which
    survives the probe's kernel proxy and other forwarding wrappers.
    """
    if kernel.name == "native" and _native is not None:
        return NativeRepository(counters, guard)
    return PrefixTree(counters, guard, kernel=kernel, batched=batched)


def _descending_items(mask: int) -> Iterator[int]:
    """Items of ``mask`` from highest to lowest code (tree path order)."""
    while mask:
        item = mask.bit_length() - 1
        yield item
        mask ^= 1 << item
