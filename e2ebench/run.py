"""End-to-end benchmark of the repro closed-set miner.

Usage (from the root of a source checkout)::

    python3 e2ebench/run.py --workload family-first --seed 1 --seconds 42 --trace 0

Builds the optional C extension in place (the same build CI runs),
generates the seeded inputs, computes the reference answers apart from
the program, runs one measured session (``session.py``) in a fresh
interpreter pinned to one CPU, checks every output the session saved,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, FrozenSet, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_build", "e2ebench")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import selftest  # noqa: E402

#: Fixed hash seed of every interpreter that runs the program.
HASH_SEED = "0"
#: Exit code for a benchmark that cannot run (no source, no build, no native).
EXIT_BROKEN = 2

def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BROKEN)


def build_extension() -> None:
    if not os.path.isfile(os.path.join(ROOT, "setup.py")) or not os.path.isdir(
        os.path.join(ROOT, "src", "repro")
    ):
        fail(f"no program source (setup.py, src/repro) under {ROOT}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", os.path.join(".bench_build", "ext")],
        cwd=ROOT, capture_output=True, text=True, timeout=800,
    )
    if proc.returncode != 0:
        fail("building the C extension failed:\n" + proc.stderr[-3000:])


def resolve_native() -> Dict:
    """Import the checkout's program and require the built C backend."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro
    from repro import kernels

    if os.path.commonpath([os.path.abspath(repro.__file__), ROOT]) != ROOT:
        fail(f"imported repro from {repro.__file__}, outside {ROOT}")
    selection = kernels.selection_report("native")
    if not kernels.HAVE_NATIVE or selection["resolved"] != "native":
        fail(f"'native' does not resolve to the C extension: {selection['reason']}")
    from repro.kernels import _native

    return {"native": selection["resolved"], "extension": os.path.relpath(_native.__file__, ROOT),
            "bitint": kernels.selection_report("bitint")["resolved"]}


class Checker:
    """Judges the outputs a session saved, each distinct one once."""

    def __init__(self, work: str, rows: List[List[str]], families: Dict[str, reference.Family]):
        self.out_dir = os.path.join(work, "outputs")
        self.row_sets = [frozenset(row) for row in rows]
        self.families = families
        self.mined = reference.at_support(families["all"], inputs.SMIN)
        self._by_item: Dict[str, List[FrozenSet[str]]] = {}
        for items in families["all"]:
            for item in items:
                self._by_item.setdefault(item, []).append(items)
        self._verdicts: Dict[str, bool] = {}
        self.failures: List[str] = []

    def _read(self, digest: str) -> bytes:
        with open(os.path.join(self.out_dir, digest), "rb") as handle:
            return handle.read()

    def verdict(self, checks: List[Dict]) -> str:
        """``ok``; ``error`` when the operation did not complete (an exit
        code, an HTTP status); ``wrong`` when it completed and an output
        disagrees with the reference or a checked property.  Both of the
        last two fail the operation; only ``wrong`` makes a run incorrect."""
        if not all(c["ok"] for c in checks if c["kind"] == "status"):
            return "error"
        if not all(c["status"] == 200 for c in checks if c["kind"] == "body"):
            return "error"
        ok = all(self.check(c) for c in checks if c["kind"] != "status")
        return "ok" if ok else "wrong"

    def check(self, check: Dict) -> bool:
        if check["kind"] == "property":
            return bool(check["ok"])
        key = json.dumps(check, sort_keys=True)
        verdict = self._verdicts.get(key)
        if verdict is None:
            try:
                verdict = self._judge(check)
            except (ValueError, KeyError, TypeError) as exc:
                verdict = False
                self.failures.append(f"{check['kind']}: {type(exc).__name__}: {exc}")
            else:
                if not verdict:
                    self.failures.append(f"{check['kind']}: disagrees with the reference: {key[:300]}")
            self._verdicts[key] = verdict
        return verdict

    def _judge(self, check: Dict) -> bool:
        data = self._read(check["digest"])
        kind = check["kind"]
        if kind == "mine":
            return reference.parse_lines(data.decode("utf-8").splitlines()) == self.mined
        if kind == "family":
            got = {frozenset(labels): support for labels, support in json.loads(data)}
            return got == self.families[check["stage"]]
        if kind == "body":
            return self._judge_body(check, json.loads(data))
        raise ValueError(f"unknown check kind {kind!r}")

    def _judge_body(self, check: Dict, body: Dict) -> bool:
        request = check["request"]
        verb = request["verb"]
        family = self.families[check["stage"]]
        lines = body["lines"]
        if body.get("verb") != verb:
            return False
        if verb == "support_of":
            return lines == [str(reference.direct_support(self.row_sets, request["items"]))]
        answer = reference.parse_lines(lines)
        smin = request.get("smin", 1)
        if verb == "closed_sets":
            return answer == reference.at_support(family, smin)
        if verb == "supersets_of":
            query = frozenset(request["items"])
            expected = {
                items: family[items]
                for items in self._by_item.get(request["items"][0], [])
                if query <= items and family[items] >= smin
            }
            return answer == expected
        if verb == "top_k":
            return len(answer) == len(lines) and reference.top_k_ok(
                list(answer.items()), family, request["k"], smin
            )
        raise ValueError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    build_extension()
    backends = resolve_native()
    trace = bool(args.trace)
    work = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    selftest_ok = selftest.run(args.seed)

    rows = inputs.make_rows(args.seed)
    stores = inputs.stores(rows, args.seed)
    fimi = os.path.join(work, "db.fimi")
    with open(fimi, "w", encoding="utf-8") as handle:
        handle.write("".join(" ".join(row) + "\n" for row in rows))
    families = {"all": reference.prefix_families(rows, [len(rows)])[0]}
    for index, parts in enumerate(stores):
        cuts = [len(parts["base"]), len(parts["base"]) + len(parts["tail"])]
        order = parts["base"] + parts["tail"]
        base_family, tail_family = reference.prefix_families(order, cuts)
        families[f"base/{index}"] = base_family
        families[f"base+tail/{index}"] = tail_family

    counts = inputs.counts(args.workload, args.seconds, trace)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.path.join(ROOT, "src"))
    cpu = max(os.sched_getaffinity(0))
    plan = {
        "root": ROOT, "work": work, "trace": trace, "cpu": cpu, "env": env,
        "fimi": fimi, "n_rows": len(rows),
        "stores": stores,
        "counts": counts, "caps": inputs.phase_caps(args.seconds),
        "warmup": inputs.warmup_requests(args.workload, rows),
        "blocks": inputs.request_blocks(rows, args.seed, counts["serve"]),
    }
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    remaining = 175.0 - (time.monotonic() - started)
    # Its own process group, so a timeout also ends the daemon it spawned.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "session.py"), plan_path],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(10.0, remaining))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("session did not finish in time")
    if proc.returncode != 0:
        fail(f"session failed (exit {proc.returncode}):\n{stderr[-3000:]}")
    with open(os.path.join(work, "session.json"), encoding="utf-8") as handle:
        session = json.load(handle)

    checker = Checker(work, rows, families)
    verdicts = [checker.verdict(op["checks"]) for op in session["ops"]]
    attempted = len(verdicts)
    failed = attempted - verdicts.count("ok")
    wrong = verdicts.count("wrong")
    report = session["report"]
    calibration = report["calibration"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "backends": backends, "cpu": cpu, "nproc": os.cpu_count(),
        "counts": counts, "reference_sets": {k: len(v) for k, v in families.items()},
        "selftest_ok": selftest_ok, "errors": failed - wrong, "wrong": wrong,
        "failures": checker.failures[:20],
        "calibration": calibration, "report": report,
        "metrics": session["metrics"], "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)

    print(f"# backends: {json.dumps(backends)}")
    print(
        f"# calibration loop: raw median {calibration['raw_median_ms']:.3f} ms, "
        f"slow/fast quartile ratio {calibration['slow_fast_ratio']:.3f} "
        f"over {calibration['samples']} loops"
    )
    print(f"# report: {os.path.relpath(os.path.join(work, 'report.json'), ROOT)}")
    # BENCHMARK.json names the metrics a run reports, with their units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    metrics = {
        entry["name"]: {"value": session["metrics"][entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    print(json.dumps({
        "correct": selftest_ok and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
