"""IsTa — Intersecting Transactions (Sections 3.2 / 3.3 of the paper).

The cumulative intersection scheme: a prefix-tree repository holds the
closed item sets of the processed part of the database; each new
transaction is inserted and intersected with the whole repository in
one combined pass (:class:`repro.core.prefix_tree.PrefixTree`, or its
C form :class:`repro.core.prefix_tree.NativeRepository` on the
``native`` backend).

Beyond the plain scheme this implements the paper's two refinements:

* **Item/transaction ordering** (Section 3.4): items are coded by
  ascending frequency, transactions processed by increasing size, which
  keeps the repository small while the early transactions stream by.
* **Item elimination pruning** (Section 3.2): occurrence counters of
  the *unprocessed* transactions decay as mining progresses; a
  repository set with support ``x`` whose items include one with fewer
  than ``smin - x`` remaining occurrences can never become frequent, so
  the deficient items are removed from it ("we do not simply remove the
  item set, but selectively remove items from it").  On the prefix tree
  the removal is a splice: the deficient node disappears and its
  children merge into its parent (taking the support maximum on
  collisions, which stays a lower bound of the true support — the
  reduced set either re-emerges as an intersection of enough
  transactions, and then carries its exact support, or it dies at the
  threshold, exactly as the paper argues).
"""

from __future__ import annotations

from typing import Optional

from ..closure.verify import refine_anytime
from ..common import finalize, prepare_for_mining
from ..data.database import TransactionDatabase
from ..kernels import resolve_backend
from ..obs import resolve_probe
from ..result import MiningResult
from ..runtime import MiningInterrupted, RunGuard, checker
from ..stats import OperationCounters
from .prefix_tree import repository_for

__all__ = ["mine_ista"]


def mine_ista(
    db: TransactionDatabase,
    smin: int,
    item_order: str = "frequency-ascending",
    transaction_order: str = "size-ascending",
    prune: bool = True,
    prune_interval: int = 4,
    dedup: bool = False,
    batched: bool = True,
    counters: Optional[OperationCounters] = None,
    guard: Optional[RunGuard] = None,
    backend=None,
    probe=None,
) -> MiningResult:
    """Mine all closed frequent item sets with the IsTa algorithm.

    Parameters
    ----------
    db:
        The transaction database.
    smin:
        Absolute minimum support (at least 1).
    item_order, transaction_order:
        Preprocessing orders, see :mod:`repro.data.recode`.
    prune:
        Enable item elimination pruning (on by default, as in the
        paper's implementation).
    prune_interval:
        Run a repository pruning pass every this many transactions.
    dedup:
        Collapse duplicate transactions into one weighted repository
        update each (a weight-``w`` insertion is provably equivalent to
        ``w`` repeated insertions, see
        :meth:`~repro.core.prefix_tree.PrefixTree.add_transaction`).
        Off by default: the result is identical either way, but the
        per-transaction operation counts differ, and databases without
        duplicates pay a small grouping cost for nothing.
    batched:
        Picks between the two Python descents of
        :class:`~repro.core.prefix_tree.PrefixTree`, which the
        ``bitint`` and ``numpy`` backends run: the level-batched
        bounded descent (the default), where each tree level is tested
        against the transaction in one ``intersect_count_many_bounded``
        kernel call and sentinel-flagged subtrees are skipped wholesale,
        or, with ``batched=False``, the node-at-a-time recursion of the
        C original.  The ``native`` backend runs the repository in C
        (:class:`~repro.core.prefix_tree.NativeRepository`) and ignores
        it.  The mined family is byte-identical every way (see
        :mod:`repro.core.prefix_tree`).
    counters:
        Optional :class:`~repro.stats.OperationCounters` to fill in.
    guard:
        Optional :class:`~repro.runtime.RunGuard`, polled per processed
        transaction and inside the repository intersection descent (in
        C on ``native``, at the head of every ``isect`` sibling group).
        On interruption the current repository is salvaged through
        :func:`repro.closure.verify.refine_anytime` (only sets closed
        in the *full* database survive, with exact supports) and
        attached to the exception as an anytime result.
    backend:
        Set-algebra kernel selection (:mod:`repro.kernels`).  The
        backend executes the remaining-occurrence sweep that seeds the
        pruning counters and, on ``bitint`` and ``numpy``, the per-level
        bounded frontier test of the batched descent (sentinel skips are
        surfaced as ``ops.kernel.early_aborts`` when a probe is
        attached).  A backend named ``native`` (also behind the probe's
        kernel proxy) selects the C repository instead, which issues no
        kernel calls.
    probe:
        Optional :class:`repro.obs.Probe` for metrics and phase traces
        (``None``, the default, adds no instrumentation).

    Returns
    -------
    MiningResult
        All closed frequent item sets with their exact supports, in the
        original item coding of ``db``.
    """
    obs = resolve_probe(probe)
    kernel = obs.wrap_kernel(resolve_backend(backend))
    counters = obs.ensure_counters(counters)
    with obs.phase("recode", algorithm="ista"):
        prepared, code_map = prepare_for_mining(
            db, smin, item_order=item_order, transaction_order=transaction_order
        )
    if prune and prune_interval < 1:
        raise ValueError(f"prune_interval must be positive, got {prune_interval}")
    tree = repository_for(kernel, counters, guard, batched=batched)
    check = checker(guard, tree.counters)
    transactions = prepared.transactions
    n = len(transactions)
    if dedup:
        # Duplicates are adjacent-agnostic: a weighted insertion is
        # equivalent to repeating the plain one, so grouping in
        # first-occurrence order preserves the processing order of the
        # distinct transactions.
        grouped = {}
        for transaction in transactions:
            grouped[transaction] = grouped.get(transaction, 0) + 1
        groups = list(grouped.items())
        obs.count("ista.dedup.collapsed", n - len(groups))
    else:
        groups = [(transaction, 1) for transaction in transactions]
    processed = 0

    try:
        with obs.phase("mine", algorithm="ista", transactions=n):
            if not prune:
                for transaction, weight in groups:
                    check()
                    tree.add_transaction(transaction, weight)
                    processed += weight
            else:
                # Remaining-occurrence counters over the unprocessed
                # suffix, seeded by one batched column-count sweep; the
                # per-transaction decrements below keep them current
                # incrementally.
                remaining = kernel.column_counts(transactions, prepared.n_items)

                for index, (transaction, weight) in enumerate(groups):
                    check()
                    tree.add_transaction(transaction, weight)
                    processed += weight
                    mask = transaction
                    while mask:
                        low = mask & -mask
                        remaining[low.bit_length() - 1] -= weight
                        mask ^= low
                    if (index + 1) % prune_interval == 0 and processed < n:
                        tree.prune(remaining, smin)
        with obs.phase("report", algorithm="ista"):
            result = finalize(tree.report(smin), code_map, db, "ista", smin)
        obs.record_counters(tree.counters)
        return result
    except MiningInterrupted as exc:
        exc.attach_partial(
            lambda: refine_anytime(
                db, finalize(tree.report(smin), code_map, db, "ista", smin), smin
            ),
            algorithm="ista",
            processed=processed,
        )
        obs.record_counters(tree.counters)
        raise

