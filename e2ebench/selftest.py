"""Self-test of the reference against the program's brute-force oracle.

Small random databases (few enough transactions for the exponential
``repro.closure.verify.closed_frequent_bruteforce``) are mined by both;
the closed families and their supports must agree exactly, and the
reference's direct support counts must agree with the database's.
"""

from __future__ import annotations

import random

import reference


def run(seed: int, databases: int = 16) -> bool:
    from repro.closure.verify import closed_frequent_bruteforce
    from repro.data.database import TransactionDatabase

    rng = random.Random(f"e2ebench-selftest-{seed}")
    for _ in range(databases):
        n_rows = rng.randint(3, 9)
        n_items = rng.randint(3, 10)
        density = rng.uniform(0.2, 0.7)
        rows = [
            [f"i{j}" for j in range(n_items) if rng.random() < density]
            for _ in range(n_rows)
        ]
        db = TransactionDatabase.from_iterable(rows)
        (full,) = reference.prefix_families(rows, [n_rows])
        for smin in range(1, 4):
            oracle = {
                frozenset(labels): support
                for labels, support in closed_frequent_bruteforce(db, smin).labeled()
            }
            if reference.at_support(full, smin) != oracle:
                return False
        row_sets = [frozenset(row) for row in rows]
        labels = sorted(db.item_labels)
        for _ in range(8 if labels else 0):
            items = rng.sample(labels, min(len(labels), rng.randint(1, 3)))
            if reference.direct_support(row_sets, items) != db.support(db.encode(items)):
                return False
    return True
