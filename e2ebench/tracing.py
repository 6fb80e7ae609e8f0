"""Benchmark-side tracing: in-memory spans and a kernel timing proxy.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions; nothing inside the program is patched.  They
stay in memory and are written out as JSON lines when the run ends.

Kernel time comes from :class:`TimingBackend`, a
:class:`repro.kernels.base.KernelBackend` that forwards every primitive
to a real backend and adds up the time spent inside it.  It is passed
in through the public ``backend=`` parameter, so the miners use it the
way they use any backend.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.kernels.base import BELOW_BOUND, KernelBackend

#: Every public primitive of the kernel interface, read off the base
#: class so primitives added or removed later are covered as they are.
PRIMITIVES = tuple(
    name
    for name, value in vars(KernelBackend).items()
    if callable(value) and not name.startswith("_")
)


class SpanRecorder:
    """Spans as ``(name, start, end, parent, op)`` kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **attrs):
        index = len(self.spans)
        record = {
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float, op: Optional[str] = None, **attrs) -> None:
        """A span timed by the caller (one that must not pay for a context manager)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(dict(attrs, name=name, op=op, parent=parent, start=start, end=end))

    def ms(self, record: Dict) -> float:
        return (record["end"] - record["start"]) * 1000.0

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps(dict(record, id=index), sort_keys=True) + "\n")


class NullSpans:
    """A span recorder that records nothing: the untraced side of an overhead pair."""

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **attrs):
        yield None


NULL_SPANS = NullSpans()


def _forward(name: str):
    bounded = name.endswith("_bounded")

    def method(self, *args, **kwargs):
        inner = getattr(self._inner, name)
        begin = time.perf_counter()
        result = inner(*args, **kwargs)
        self.seconds += time.perf_counter() - begin
        self.calls += 1
        if bounded and isinstance(result, tuple):
            supports = result[1]
            try:
                skipped = supports.count(BELOW_BOUND)
            except AttributeError:
                skipped = int((supports == BELOW_BOUND).sum())
            self.rows_tested += len(supports)
            self.rows_skipped += skipped
        return result

    method.__name__ = name
    return method


class TimingBackend(KernelBackend):
    """Forwards every primitive to ``inner`` and accumulates its time."""

    def __init__(self, inner: KernelBackend) -> None:
        self._inner = inner
        self.name = inner.name
        self.vectorized = inner.vectorized
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.rows_tested = 0
        self.rows_skipped = 0

    def __getattr__(self, name):
        # Backend-specific helpers outside the interface pass through untimed.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)


for _name in PRIMITIVES:
    setattr(TimingBackend, _name, _forward(_name))
del _name
