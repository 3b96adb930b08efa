"""Spans recorded from the benchmark's own files around its calls into the
engine's public API. Kept in memory and summarised into the run's detail
record when the run ends. A run with tracing off uses ``NULL_TRACER``,
whose spans cost one no-op context manager."""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "t0": time.perf_counter(),
            **attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict:
        """Per span name: count, total time and self time (total minus the
        time its child spans cover)."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None and "t1" in s:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["t1"] - s["t0"]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if "t1" not in s:
                continue
            d = out.setdefault(s["name"], {"n": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["t1"] - s["t0"]
            d["n"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - child.get(i, 0.0)
        return out


class _NullTracer:
    def span(self, name: str, **attrs):
        return contextlib.nullcontext({})

    def summary(self) -> dict:
        return {}


NULL_TRACER = _NullTracer()
