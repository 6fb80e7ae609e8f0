"""Kernel backend microbenchmarks with a regression gate.

Times the batched set-algebra primitives of every registered
:mod:`repro.kernels` backend on the dense gene-expression-style fixture
(wide transactions, >= 1k items — the regime the paper's intersection
miners target) and either records the result as a baseline or compares
a fresh run against a committed one.

Usage::

    # Record (refresh) the committed baseline: one fresh session, then
    # fold a few more so the file keeps per-case session minima — the
    # floor a tight-tolerance smoke gate needs.  --floor commits hard
    # per-case promises into the baseline's "floors" mapping; every
    # later --compare enforces them automatically
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --record benchmarks/BENCH_kernels.json --repeats 12 --runs 3 \
        --floor intersection_family@native:3.0
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --record benchmarks/BENCH_kernels.json --repeats 12 --runs 3 --fold  # x3

    # CI gate: compare a fresh run against the baseline by speedup
    # ratio (machine-independent) with a generous noise tolerance
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --compare benchmarks/BENCH_kernels.json --tolerance 0.5 \
        --require-speedup 2.0 --out fresh.json

    # Hard per-primitive promises, independent of the baseline.  A bare
    # NAME binds every backend's ratio of that case; NAME@BACKEND binds
    # exactly one backend's ratio (and is skipped when the install does
    # not carry that backend, e.g. native without a compiler)
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --compare benchmarks/BENCH_kernels.json \
        --require-case intersect_many@native:3.0 --require-case intersect_count_many:1.5

    # Fast smoke pass (same fixture, fewer repeats).  With --quick,
    # --require-case also *restricts* the timed cases to the named
    # subset, so a targeted smoke gate does not pay for the full suite
    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --compare benchmarks/BENCH_kernels.json --quick --tolerance 0.1

Exit codes: 0 = pass/recorded, 1 = regression detected.

``--mode speedup`` (default) gates on the per-backend-over-bitint
speedup ratios, which survive machine changes; ``--mode seconds``
gates on absolute per-case times and is only meaningful on the machine
that recorded the baseline.

Besides the synthetic dense fixture, the suite times one end-to-end
case, ``ista_descent``: IsTa's prefix-tree repository built over the
yeast gate fixture (``benchmarks/fixtures/yeast_gate.fimi`` at
``smin=5``).  Each row replays the stream through the repository that
backend's IsTa runs: the ``bitint`` row is the node-at-a-time
*recursive* descent, the ``numpy`` row the level-batched bounded
descent and the ``native`` row the C repository, so the ``speedup:``
ratios measure each form against the recursion — the gate that keeps
both an actual win.

One *derived* case, ``intersection_family``, carries per-backend
geometric means over the three ``intersect_*`` member cases.  It is a
regular case to the gate machinery — tolerance bands, ``@BACKEND``
floors and backend-absent skips all apply — and the headline native
promise lives there: a committed ``intersection_family@native`` floor
in the baseline's ``"floors"`` mapping.  In ``--quick`` restrictions
the family name expands to its members.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import compare_kernel_baselines, run_kernel_microbench

#: Derived gate cases: geometric mean of the member cases' speedup
#: ratios, per backend.  The intersection family is the paper's hot
#: path — the family geomean is the headline promise the native
#: backend commits to (a committed ``intersection_family@native``
#: floor in BENCH_kernels.json), while the per-member floors keep any
#: single primitive from silently regressing behind a strong sibling.
FAMILY_CASES = {
    "intersection_family": (
        "intersect_many",
        "intersect_count_many",
        "intersect_count_many_bounded",
    ),
}


def add_family_cases(record: dict) -> None:
    """Attach the derived family-geomean cases to a microbench record.

    A family case carries only ``speedup:<backend>`` keys (there is no
    meaningful combined wall-clock), each the geometric mean of the
    member cases' ratios for that backend — present only when every
    member was timed for the backend, so a restricted run that skips a
    member does not publish a half-family geomean.
    """
    import math

    for family, members in FAMILY_CASES.items():
        rows = [record["cases"].get(member) for member in members]
        if any(row is None for row in rows):
            record["cases"].pop(family, None)
            continue
        entry = {}
        for name in record.get("backends", []):
            key = f"speedup:{name}"
            ratios = [row.get(key) for row in rows]
            if all(ratio is not None and ratio > 0 for ratio in ratios):
                entry[key] = math.exp(
                    sum(math.log(ratio) for ratio in ratios) / len(ratios)
                )
        if entry:
            record["cases"][family] = entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--record", metavar="FILE", help="run the suite and write the baseline here"
    )
    parser.add_argument(
        "--fold",
        action="store_true",
        help="with --record, merge into an existing baseline by pointwise "
        "minimum instead of overwriting — repeat across a few sessions to "
        "record the floor the gate statistic has demonstrably cleared in "
        "every session (what a tight --tolerance needs)",
    )
    action.add_argument(
        "--compare", metavar="FILE", help="run the suite and gate against this baseline"
    )
    parser.add_argument(
        "--mode",
        choices=("speedup", "seconds"),
        default="speedup",
        help="comparison mode (default: speedup — machine-independent)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="relative regression tolerance (default: 0.5 = 50%%, noise-safe)",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="additionally require a fresh geomean speedup of at least FACTOR",
    )
    parser.add_argument(
        "--require-case",
        action="append",
        default=[],
        metavar="NAME[@BACKEND]:FACTOR",
        help=(
            "require fresh speedup ratios of case NAME to be at least "
            "FACTOR (repeatable; independent of the baseline values). "
            "NAME alone binds every backend's ratio; NAME@BACKEND binds "
            "only that backend's, and is skipped when the install lacks "
            "the backend. With --quick, the named cases also restrict "
            "which cases get timed at all"
        ),
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="NAME[@BACKEND]:FACTOR",
        help=(
            "with --record: commit this floor into the baseline's "
            "'floors' mapping (repeatable; same spec syntax as "
            "--require-case). Committed floors are then enforced "
            "automatically by every --compare against that baseline. "
            "With --fold, newly passed floors merge over the ones "
            "already committed"
        ),
    )
    parser.add_argument(
        "--out", metavar="FILE", help="also write the fresh measurements here"
    )
    parser.add_argument("--rows", type=int, default=256, help="fixture transactions")
    parser.add_argument("--bits", type=int, default=1536, help="fixture items")
    parser.add_argument(
        "--density", type=float, default=0.5, help="fixture density (default 0.5)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="full-suite passes to aggregate: the reported measurement "
        "keeps per-case minima (both seconds and speedup ratios), a "
        "conservative envelope that ambient machine load can only "
        "shrink, never inflate — use for recording baselines",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: same fixture at batched best-of-12 — stable "
        "speedup ratios for a tight tolerance at a fraction of the "
        "best-of-30 recording cost",
    )
    return parser


def merge_runs(runs) -> dict:
    """Fold several microbench passes into a peak-vs-peak envelope.

    Per case each backend keeps its minimum (fastest demonstrated)
    seconds, and the speedup ratios are *recomputed* from those merged
    minima.  A ratio of per-backend peaks converges to a machine
    constant as passes accumulate — unlike a single pass's ratio, where
    one noisy side skews the quotient — which is what lets the CI smoke
    gate hold a tight tolerance.  The geomean is recomputed to match.
    """
    import math

    merged = runs[0]
    backends = merged.get("backends", [])
    for fresh in runs[1:]:
        for case, timings in fresh["cases"].items():
            into = merged["cases"].setdefault(case, {})
            for key, value in timings.items():
                into[key] = min(into.get(key, value), value)
    for timings in merged["cases"].values():
        reference = timings.get("bitint")
        if reference:
            for name in backends:
                if name != "bitint" and timings.get(name):
                    timings[f"speedup:{name}"] = reference / timings[name]
    speedups = [
        value
        for case, timings in merged["cases"].items()
        if case not in FAMILY_CASES
        for key, value in timings.items()
        if key.startswith("speedup:") and value > 0
    ]
    merged["summary"]["geomean_speedup"] = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else None
    )
    merged["fixture"]["runs"] = len(runs)
    add_family_cases(merged)
    return merged


def fold_baselines(previous: dict, fresh: dict) -> dict:
    """Pointwise-minimum fold of a fresh session into a prior baseline.

    Unlike :func:`merge_runs`, the speedup ratios themselves take the
    minimum rather than being recomputed from merged seconds: folding
    across sessions must keep the worst ratio any *session* produced
    (the floor the gate statistic demonstrably clears every time), not
    the best-vs-best ratio across all of them, which only ever climbs.
    """
    import math

    for case, timings in fresh["cases"].items():
        into = previous["cases"].setdefault(case, {})
        for key, value in timings.items():
            into[key] = min(into.get(key, value), value)
    speedups = [
        value
        for case, timings in previous["cases"].items()
        if case not in FAMILY_CASES
        for key, value in timings.items()
        if key.startswith("speedup:") and value > 0
    ]
    previous["summary"]["geomean_speedup"] = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups
        else None
    )
    previous["fixture"]["sessions"] = previous["fixture"].get("sessions", 1) + 1
    return previous


def parse_case_floors(specs, flag="--require-case") -> dict:
    """``NAME[@BACKEND]:FACTOR`` argument strings -> ``{spec: factor}``.

    The ``NAME`` / ``NAME@BACKEND`` part is kept verbatim as the key;
    :func:`repro.bench.compare_kernel_baselines` interprets the
    optional ``@BACKEND`` qualifier.
    """
    floors = {}
    for spec in specs:
        name, separator, factor = spec.partition(":")
        if not separator or not name or name.endswith("@"):
            raise SystemExit(f"{flag} expects NAME[@BACKEND]:FACTOR, got {spec!r}")
        try:
            floors[name] = float(factor)
        except ValueError:
            raise SystemExit(f"{flag} factor must be a number, got {spec!r}")
    return floors


def descent_fixture_masks() -> list:
    """Prepared yeast transactions for the ``ista_descent`` case.

    The same fixture and threshold as the observability invariants gate
    (``benchmarks/fixtures/yeast_gate.fimi`` at ``smin=5``), recoded
    and ordered exactly as :func:`repro.core.ista.mine_ista` would feed
    them to the repository — so the timed descent matches the mining
    hot loop, not an arbitrary mask stream.
    """
    import os

    from repro.common import prepare_for_mining
    from repro.data.io import read_fimi

    path = os.path.join(os.path.dirname(__file__), "fixtures", "yeast_gate.fimi")
    db = read_fimi(path)
    prepared, _ = prepare_for_mining(db, 5)
    return list(prepared.transactions)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare and args.floor:
        raise SystemExit(
            "--floor commits floors at --record time; with --compare the "
            "baseline's committed floors already apply (use --require-case "
            "for one-off extras)"
        )
    case_floors = parse_case_floors(args.require_case)
    repeats = 12 if args.quick else args.repeats
    if args.runs < 1:
        raise SystemExit(f"--runs must be positive, got {args.runs}")
    # --quick + --require-case is the targeted smoke shape: time only
    # the cases the gate actually binds instead of the whole suite.  A
    # derived family name expands to its member cases (the family
    # geomean then re-emerges from the timed members).
    cases = None
    if args.quick and case_floors:
        named = {spec.partition("@")[0] for spec in case_floors}
        cases = sorted(
            {member for name in named for member in FAMILY_CASES.get(name, (name,))}
        )
    need_descent = cases is None or "ista_descent" in cases
    descent_masks = descent_fixture_masks() if need_descent else None
    try:
        fresh = merge_runs(
            [
                run_kernel_microbench(
                    n_rows=args.rows,
                    n_bits=args.bits,
                    density=args.density,
                    repeats=repeats,
                    cases=cases,
                    descent_masks=descent_masks,
                )
                for _ in range(args.runs)
            ]
        )
    except ValueError as exc:
        raise SystemExit(f"--require-case: {exc}")
    geomean = fresh["summary"]["geomean_speedup"]
    print(
        f"# fixture: {args.rows} rows x {args.bits} bits, "
        f"density {args.density}, best of {repeats}"
        + (" (quick)" if args.quick else "")
    )
    for case, timings in sorted(fresh["cases"].items()):
        parts = [
            f"{name}={timings[name] * 1e3:.3f}ms"
            for name in fresh["backends"]
            if name in timings
        ]
        parts += [
            f"{key.split(':', 1)[1]} speedup={value:.2f}x"
            for key, value in timings.items()
            if key.startswith("speedup:")
        ]
        print(f"{case:22s} {'  '.join(parts)}")
    if geomean is not None:
        print(f"# geomean speedup over bitint: {geomean:.2f}x")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.record:
        import os

        committed_floors = parse_case_floors(args.floor, flag="--floor")
        if args.fold and os.path.exists(args.record):
            with open(args.record, "r", encoding="utf-8") as handle:
                previous = json.load(handle)
            committed_floors = {**previous.get("floors", {}), **committed_floors}
            fresh = fold_baselines(previous, fresh)
        if committed_floors:
            fresh["floors"] = committed_floors
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# baseline written to {args.record}")
        return 0

    with open(args.compare, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    failures = compare_kernel_baselines(
        baseline,
        fresh,
        mode=args.mode,
        tolerance=args.tolerance,
        require_speedup=args.require_speedup,
        per_case_floors=case_floors,
    )
    if failures:
        print(f"# {len(failures)} regression(s) against {args.compare}:")
        for failure in failures:
            print(f"REGRESSION {failure}")
        return 1
    print(f"# no regressions against {args.compare} (mode={args.mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
