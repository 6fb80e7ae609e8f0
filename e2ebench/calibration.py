"""The fixed calibration loop that turns wall time into ``cal-ms``.

On small shared VMs a core switches between fast and slow phases that
last seconds, so the same interpreter-bound work can take 1.6x longer
from one second to the next.  Every timed operation, or block of short
operations, is bracketed on the same CPU by this loop, and its time is
reported as

    cal_ms = wall_ms * NOMINAL_MS / (mean loop time around the operation)

This loop is part of the measuring instrument: changing it changes
every calibrated number, so it never changes.  ``CHECKSUM`` guards
against an accidental edit (and against an interpreter that skips the
work).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional

LOOP_STEPS = 20_000
#: Fixed nominal duration of one loop, in ms (about its fast-phase time
#: on the reference machine).
NOMINAL_MS = 10.0
CHECKSUM = 11_226_514


def _mask_table():
    """512 fixed 2048-bit masks from a 64-bit LCG (no ``random`` state involved)."""
    state = 0x9E3779B97F4A7C15
    rows = []
    for _ in range(512):
        mask = 0
        for _ in range(32):
            state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            mask = (mask << 64) | state
        rows.append(mask)
    return rows


_MASKS = _mask_table()


def calibration_loop() -> int:
    """Big-int AND + popcount with tuple and dict churn, like the miners' inner loops.

    A dict/int loop that stays in L1 tracked IsTa's time across
    processes to only +-4% under neighbour contention; this mix of wide
    masks and short-lived objects tracked it to +-1.5%.
    """
    masks = _MASKS
    acc = 0
    batch = []
    for i in range(LOOP_STEPS):
        joint = masks[i & 511] & masks[(i * 7) & 511]
        acc = (acc + joint.bit_count()) & 0xFFFFFFFF
        batch.append((i, joint))
        if len(batch) > 200:
            index = {key: value for key, value in batch}
            acc ^= len(index)
            batch = []
    return acc


class Calibrator:
    """Brackets timed work with calibration loops.

    ``probe()`` runs the loop once and records its raw time.  For a
    sequence of back-to-back operations the probe after one operation
    is reused as the probe before the next; ``invalidate()`` drops it
    when untimed work ran in between.
    """

    def __init__(self) -> None:
        self.raw_ms: List[float] = []
        self._last: Optional[float] = None

    def probe(self) -> float:
        begin = time.perf_counter()
        value = calibration_loop()
        elapsed = (time.perf_counter() - begin) * 1000.0
        if value != CHECKSUM:
            raise RuntimeError(
                f"calibration loop checksum {value} != {CHECKSUM}: the loop changed"
            )
        self.raw_ms.append(elapsed)
        self._last = elapsed
        return elapsed

    def invalidate(self) -> None:
        self._last = None

    def before(self) -> float:
        return self._last if self._last is not None else self.probe()

    def factor(self, before: float, after: float) -> float:
        """Multiplier from raw ms to cal-ms for work between two probes."""
        return 2.0 * NOMINAL_MS / (before + after)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn``; return ``(result, wall_ms, factor)``."""
        before = self.before()
        begin = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = (time.perf_counter() - begin) * 1000.0
        after = self.probe()
        return result, wall, self.factor(before, after)

    def summary(self) -> Dict[str, float]:
        """Raw loop median and slow-quartile / fast-quartile ratio."""
        samples = self.raw_ms
        if len(samples) < 4:
            median = statistics.median(samples) if samples else float("nan")
            return {"raw_median_ms": median, "slow_fast_ratio": float("nan"), "samples": len(samples)}
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        return {"raw_median_ms": q2, "slow_fast_ratio": q3 / q1, "samples": len(samples)}
