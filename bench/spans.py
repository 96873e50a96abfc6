"""In-memory call spans for the benchmark's traced runs.

A span records one call the benchmark makes into a fliptet public
function: its layer name, start and end (perf_counter seconds), the span
that caused it, the instance it belongs to, and the work counters the
call returned.  With tracing off every method is a direct call, so the
untraced run times the engines and nothing else.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    instance: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._last: Span | None = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs), inside a span named after its layer."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1]
        span = Span(len(self.spans), name, parent.id, parent.instance, time.perf_counter())
        return self._run(span, fn, args, kwargs)

    def instance(self, instance_id: str, fn, *args):
        """Run one instance under a root span that its calls hang from."""
        if not self.enabled:
            return fn(*args)
        span = Span(len(self.spans), "instance", None, instance_id, time.perf_counter())
        return self._run(span, fn, args, {})

    def _run(self, span: Span, fn, args, kwargs):
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._last = span

    def count(self, **counts) -> None:
        """Attach work counters to the span of the call that just returned."""
        if self.enabled:
            self._last.counts.update(counts)

    @staticmethod
    def span_cost(calls: int = 20_000, batches: int = 5) -> float:
        """Seconds one traced call adds over a direct call, with a counter.

        Each batch times `calls` empty calls traced and untraced; the
        fastest batch of each counts, and the difference is never negative.
        """

        def batch(enabled: bool) -> float:
            tr = Tracer(enabled)
            began = time.perf_counter()
            tr.instance("cost", lambda: [(tr.call("cost", int), tr.count(n=1)) for _ in range(calls)])
            return time.perf_counter() - began

        traced = min(batch(True) for _ in range(batches))
        direct = min(batch(False) for _ in range(batches))
        return max(traced - direct, 0.0) / calls

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, self time, longest call, and summed counters.

        Self time is a span's duration minus the part its children cover;
        `frontier_peak` is a peak, so it takes the maximum instead of a sum.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for s in self.spans:
            layer = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "max_s": 0.0})
            layer["calls"] += 1
            layer["busy_s"] += (s.end - s.start) - child_time[s.id]
            layer["max_s"] = max(layer["max_s"], s.end - s.start)
            for key, value in s.counts.items():
                if key == "frontier_peak":
                    layer[key] = max(layer.get(key, 0), value)
                else:
                    layer[key] = layer.get(key, 0) + value
        return out

    def write(self, fh, **tags) -> None:
        """Append every span to an open file, one JSON object a line."""
        for s in self.spans:
            fh.write(json.dumps({**tags, **asdict(s)}) + "\n")
