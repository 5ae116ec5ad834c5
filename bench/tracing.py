"""In-memory spans and counters recorded around the benchmark's calls.

A span is one call from the benchmark into a public function of a
``lefschetz`` module: its name, start, end, parent span and job id.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct child spans cover; garbage-collector
pauses, read through ``gc.callbacks``, are recorded as child spans of
whatever span was open, so they are charged to ``python.gc`` and not to
the layer they interrupted.

``NullTracer`` has the same interface and records nothing; untraced
runs use it so that the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter


class NullTracer:
    enabled = False
    job = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        # (span id, name, start, end, parent span id, job id)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, float] = {}
        self._next_id = 0
        self._gc_open: tuple[int, int | None, float] | None = None

    def call(self, name, fn, *args, **kwargs):
        self._next_id += 1
        sid = self._next_id
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job))

    def count(self, name, value=1):
        self.counts[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self._gc_open = (self._next_id, parent, perf_counter())
        elif self._gc_open is not None:
            sid, parent, start = self._gc_open
            self._gc_open = None
            self.spans.append((sid, "python.gc", start, perf_counter(), parent, self.job))

    def watch_gc(self, on: bool) -> None:
        """Start or stop recording garbage-collector pauses."""
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)
            self._gc_open = None

    def self_ms(self) -> dict[str, float]:
        """Summed self time in milliseconds for each span name."""
        covered: dict[int, float] = defaultdict(float)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _job in self.spans:
            out[name] += (end - start - covered[sid]) * 1000.0
        return out
