"""Outside-in span tracing and the statistics the bench reports.

Spans are recorded by rebinding module attributes (``owner.attr``) to
wrappers, so the program under test is never edited.  Every span keeps a
name, start, end, parent span and operation id in memory; ``dump`` writes
them out once the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self.op = "setup"
        self.counts: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        # unwind to the span being closed, so a span left open by an
        # exception cannot become the parent of later spans
        while self._stack and self._stack.pop() != idx:
            pass

    def count(self, name: str, value: float) -> None:
        """One sample of a counter, attributed to the current operation."""
        self.counts[self.op][name].append(float(value))

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Rebind ``owner.attr`` so each call records a span ``name``.

        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result)`` runs once the span has closed.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": self.ops[i],
                    "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                }) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children of one parent may overlap (or be recorded out of order), so the
    covered part is the length of the union of their intervals, clipped to
    the parent.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda k: starts[k]):
            a, b = max(starts[c], cursor), min(ends[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


# ---------------------------------------------------------------------------
# statistics

TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples a reported percentile must have above it


def percentile(samples, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not samples:
        return math.nan
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_tail(n: int) -> float | None:
    """Highest percentile in ``TAIL_LADDER`` with at least ``TAIL_BEYOND``
    samples above it, or None when even the median lacks them."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_BEYOND:
            return p
    return None


def median(values) -> float:
    return percentile(list(values), 50.0)
