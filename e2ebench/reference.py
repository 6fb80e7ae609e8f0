"""Closed-set reference computed apart from the program under test.

Imports nothing from ``repro``.  The closed family is built with the
cumulative rule of the paper's relation (1),

    C(T + t) = C(T) | {t} | {s & t : s in C(T)},

over ``frozenset`` item sets, where the support of a generated set is
the largest support among its generators plus one.  Supports of
arbitrary item sets are counted directly over the raw transactions.

Every answer the benchmark checks is compared against these functions:
mined files, recovered and compacted stores, and served bodies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Family = Dict[FrozenSet[str], int]


def extend_family(family: Family, transaction: Iterable[str]) -> None:
    """Fold one transaction into a closed family, in place."""
    t = frozenset(transaction)
    if not t:
        return
    generated: Family = {}
    for stored, support in family.items():
        joint = stored & t
        if joint and generated.get(joint, 0) < support:
            generated[joint] = support
    generated.setdefault(t, 0)
    for joint, support in generated.items():
        family[joint] = support + 1


def prefix_families(rows: Sequence[Sequence[str]], cuts: Sequence[int]) -> List[Family]:
    """Full closed families (support >= 1) of ``rows[:cut]`` for each cut."""
    family: Family = {}
    out: List[Family] = []
    done = 0
    for cut in sorted(cuts):
        for row in rows[done:cut]:
            extend_family(family, row)
        done = cut
        out.append(dict(family))
    return out


def at_support(family: Family, smin: int) -> Family:
    return {s: v for s, v in family.items() if v >= smin}


def direct_support(rows: Sequence[FrozenSet[str]], items: Iterable[str]) -> int:
    query = frozenset(items)
    return sum(1 for row in rows if query <= row)


def parse_lines(lines: Iterable[str]) -> Family:
    """Read ``item item (support)`` lines into a family.

    Raises ``ValueError`` on a malformed line or a repeated set, so a
    broken output fails its check instead of passing as a subset.
    """
    family: Family = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        head, sep, tail = line.rpartition(" (")
        if not sep or not tail.endswith(")"):
            raise ValueError(f"malformed result line {line!r:.80}")
        items = frozenset(head.split())
        if items in family:
            raise ValueError(f"set repeated in output: {line!r:.80}")
        family[items] = int(tail[:-1])
    return family


def top_k_ok(answer: Sequence[Tuple[FrozenSet[str], int]], family: Family, k: int, smin: int) -> bool:
    """``top_k`` property: the k largest supports, each set with its own support."""
    expected = sorted((v for v in family.values() if v >= smin), reverse=True)[:k]
    if sorted((v for _, v in answer), reverse=True) != expected:
        return False
    return all(family.get(items) == support for items, support in answer)
