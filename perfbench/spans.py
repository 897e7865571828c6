"""Timing and tracing of calls into gramsim, made from the benchmark's side.

Every call into a layer goes through `Recorder.call`, which times it with
`perf_counter`. With tracing on, each call also leaves a span: an id, a
name `<module>.<function>`, start, end, the id of the enclosing span (a
round or a query) and a group id shared by one query. Spans stay in
memory and are written out once, when the run ends.

`reference_s` times a fixed loop that does not use gramsim; the
workloads use it to scale each phase's times to a nominal machine speed.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "compress", "grammar", "simulate", "baseline")
# the reference loop's time at the nominal machine speed
REFERENCE_S = 0.012


def reference_s() -> float:
    """Best of two timings of a fixed loop that fills, scans and frees a
    dict of 15,000 tuple keys and string values.

    A working set of a few MB tracks the program's speed changes better
    than a loop that fits in cache. Against a fixed query loop, over
    15-second chunks, a 2 ms in-cache loop left a spread of 8% and a
    larger version of this loop 5%.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        table = {}
        for i in range(15000):
            table[(i, i & 1023)] = str(i)
        values = set(table.values())
        total = 0
        for key in table:
            total += key[1]
        del table, values
        best = min(best, perf_counter() - start)
    return best


class Recorder:
    """Times calls; keeps spans only when `tracing` is true."""

    def __init__(self, tracing: bool):
        self.tracing = tracing
        # (id, name, start, end, parent id, group)
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self._ids = itertools.count(1)
        self._open: list[tuple[int, str]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); return (result, wall seconds)."""
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        if self.tracing:
            parent, group = self._open[-1] if self._open else (None, "")
            self.spans.append((next(self._ids), name, start, end, parent, group))
        return result, end - start

    @contextmanager
    def scope(self, name: str, group: str):
        """Enclose the calls made inside in one parent span."""
        if not self.tracing:
            yield
            return
        sid = next(self._ids)
        parent = self._open[-1][0] if self._open else None
        start = perf_counter()
        self._open.append((sid, group))
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append((sid, name, start, perf_counter(), parent, group))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time minus child coverage.

        Calls are sequential, so children never overlap and their
        coverage is the sum of their durations.
        """
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name.split(".", 1)[0]] += (end - start) - covered[sid]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for sid, name, start, end, parent, group in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                      "parent": parent, "group": group}) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Measured seconds that tracing adds to one call."""
    def loop(recorder: Recorder) -> float:
        start = perf_counter()
        for _ in range(samples):
            recorder.call("bench.noop", int)
        return perf_counter() - start

    plain = min(loop(Recorder(False)) for _ in range(3))
    traced = min(loop(Recorder(True)) for _ in range(3))
    return max(traced - plain, 0.0) / samples


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n
