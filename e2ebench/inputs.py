"""Seeded inputs: the yeast-compendium database, its splits, the request mix.

All data comes from ``repro.datasets.yeast_compendium`` (the paper's
Figure 5 regime): conditions are the transactions, gene x direction
pairs the items.  Items are written as ``<gene><sign>`` (``g48+``),
never as the generator's tuple labels: ``write_fimi`` renders a tuple
as ``('g48', '+')`` and ``read_fimi`` splits it on the space, so a
tuple-labelled file does not read back as the database it came from.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence
from urllib.parse import quote

#: Generator parameters of every workload's input.
GENERATOR = {"n_genes": 1000, "n_conditions": 150}

#: Workload name -> the serving daemon's first query, and per-operation
#: wall costs (seconds, checks included, on the reference machine in its
#: slow phase) used to size a run.  A snapshot-loaded miner builds the
#: form of the family its first query needs and keeps it: a family query
#: (``top_k``, ``closed_sets``) builds the prefix tree, after which
#: ``support_of`` and ``supersets_of`` descend the tree in Python; a
#: point query keeps the flat family, which answers point queries by
#: kernel scans over the packed table.  The two workloads differ in
#: nothing else.
WORKLOADS: Dict[str, Dict] = {
    "family-first": {"first": "top_k", "cost": {"mine_op": 0.48, "pass": 0.57, "block": 0.33}},
    "point-first": {"first": "support_of", "cost": {"mine_op": 0.48, "pass": 0.57, "block": 0.22}},
}

#: Minimum support of the mined files.
SMIN = 5
#: Stores set up per run (one per set-up repetition), each from its own row order.
STORES = 3
#: Rows left in the WAL, unfolded, when the base store is set up.
TAIL_ROWS = 16
#: Rows ingested per pass, in micro-batches of ``BATCH_RECORDS``.
STREAM_ROWS = 48
BATCH_RECORDS = 8

#: Share of the measured seconds given to each phase of a run.
PHASE_SHARE = {"mine": 0.32, "ingest": 0.20, "serve": 0.48}
#: Fewest operations a phase runs (serve: 26 blocks, 1040 requests, so at
#: least ten lie beyond p99), and the whole rounds a capped phase stops at
#: (ingest: one pass per store; serve: an untraced and a traced pair of blocks).
MIN_COUNTS = {"mine": 6, "ingest": 6, "serve": 26}
ROUND = {"mine": 1, "ingest": STORES, "serve": 4}
#: A phase that runs past this multiple of its share of the seconds (a
#: machine much slower than the reference) stops at its next whole round.
PHASE_CAP = 1.4

#: One block of requests: exact class counts, shuffled per block.  No
#: traffic log exists to weight the verbs, so each gets the same share
#: (an assumption), which also gives each verb's median the same number
#: of samples.
BLOCK_MIX = (("top_k", 10), ("support_of", 10), ("supersets_of", 10), ("closed_sets", 10))
#: (k, smin) of ``top_k``: the example in docs/serving.md and the pair
#: benchmarks/bench_serve.py gates.
TOP_K_PAIRS = ((10, 5), (20, 5))
#: Rotating smin of ``closed_sets``: the documented 5 and its neighbours
#: (an assumption), answers of ~0.6k-2.8k sets.
CLOSED_SMINS = (3, 4, 5, 6)
#: smin of ``supersets_of``, as in the docs/serving.md example.  Point
#: queries take 2 items, as in its examples, or 3 (an assumption).
SUPERSETS_SMIN = 2


def make_rows(seed: int) -> List[List[str]]:
    """The generated transactions, labels rendered without whitespace."""
    from repro.datasets import yeast_compendium

    db = yeast_compendium(seed=seed, **GENERATOR)
    rows = [sorted(f"{gene}{sign}" for gene, sign in row) for row in db.as_sets()]
    for row in rows:
        for item in row:
            if any(ch.isspace() for ch in item):
                raise ValueError(f"label {item!r} contains whitespace")
    return rows


def stores(rows: Sequence[Sequence[str]], seed: int) -> List[Dict[str, List]]:
    """``STORES`` seeded row orders, each split into base, WAL tail and pass stream.

    Every store holds the whole database once all three parts are in;
    the orders differ, so recovery and ingest costs are averaged over
    several prefixes of the same data instead of resting on one.
    """
    rng = random.Random(f"e2ebench-orders-{seed}")
    n = len(rows)
    base_end = n - TAIL_ROWS - STREAM_ROWS
    if base_end < TAIL_ROWS:
        raise ValueError("too few rows for the base/tail/stream split")
    out = []
    for _ in range(STORES):
        order = list(rows)
        rng.shuffle(order)
        out.append({
            "base": order[:base_end],
            "tail": order[base_end:n - STREAM_ROWS],
            "stream": order[n - STREAM_ROWS:],
        })
    return out


def counts(workload: str, seconds: float, trace: bool) -> Dict[str, int]:
    """Operations per phase: fixed by ``seconds`` and the workload, not by speed.

    A traced run performs every mine and ingest pass twice (plain and
    traced) and traces every other pair of serve blocks, so it runs half
    as many.
    """
    cost = WORKLOADS[workload]["cost"]
    per_op = {"mine": cost["mine_op"], "ingest": cost["pass"], "serve": cost["block"]}
    out = {}
    for phase, share in PHASE_SHARE.items():
        n = round(seconds * share / per_op[phase] / (2 if trace else 1))
        out[phase] = max(MIN_COUNTS[phase], n)
    for phase, size in ROUND.items():
        out[phase] = -(-out[phase] // size) * size
    return out


def phase_caps(seconds: float) -> Dict[str, float]:
    return {phase: seconds * share * PHASE_CAP for phase, share in PHASE_SHARE.items()}


def request_blocks(rows: Sequence[Sequence[str]], seed: int, n_blocks: int) -> List[List[Dict]]:
    """The served request sequence, in blocks of ``BLOCK_MIX``'s 40 requests."""
    rng = random.Random(f"e2ebench-requests-{seed}")
    sample_rows = [row for row in rows if len(row) >= 3]
    blocks: List[List[Dict]] = []
    n_topk = n_closed = 0
    for _ in range(n_blocks):
        verbs = [verb for verb, n in BLOCK_MIX for _ in range(n)]
        rng.shuffle(verbs)
        block = []
        for verb in verbs:
            if verb == "top_k":
                k, smin = TOP_K_PAIRS[n_topk % len(TOP_K_PAIRS)]
                n_topk += 1
                block.append({"verb": verb, "k": k, "smin": smin, "class": f"k{k}s{smin}"})
            elif verb == "closed_sets":
                smin = CLOSED_SMINS[n_closed % len(CLOSED_SMINS)]
                n_closed += 1
                block.append({"verb": verb, "smin": smin, "class": f"s{smin}"})
            else:
                row = rng.choice(sample_rows)
                items = sorted(rng.sample(list(row), rng.choice((2, 3))))
                request = {"verb": verb, "items": items, "class": f"n{len(items)}"}
                if verb == "supersets_of":
                    request["smin"] = SUPERSETS_SMIN
                block.append(request)
        blocks.append(block)
    return blocks


def warmup_requests(workload: str, rows: Sequence[Sequence[str]]) -> List[Dict]:
    """The workload's first query, then every memo-hit request once.

    The first query fixes the form of the daemon's family (see
    ``WORKLOADS``); the memo-hit requests make the measured ones hits.
    """
    reqs = []
    if WORKLOADS[workload]["first"] == "support_of":
        items = sorted(next(row for row in rows if len(row) >= 2)[:2])
        reqs.append({"verb": "support_of", "items": items, "class": "n2"})
    reqs += [{"verb": "top_k", "k": k, "smin": s, "class": f"k{k}s{s}"} for k, s in TOP_K_PAIRS]
    reqs += [{"verb": "closed_sets", "smin": s, "class": f"s{s}"} for s in CLOSED_SMINS]
    return reqs


def request_path(request: Dict) -> str:
    params = []
    if "k" in request:
        params.append(f"k={request['k']}")
    if "smin" in request:
        params.append(f"smin={request['smin']}")
    if "items" in request:
        params.append("items=" + quote(",".join(request["items"]), safe=","))
    return f"/{request['verb']}?" + "&".join(params)
