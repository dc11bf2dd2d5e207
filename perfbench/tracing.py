"""Span tracing of calls into the program, installed from the benchmark.

The traced run replaces public entry points of the program's modules with
timing wrappers (``Tracer.patch*``) and puts the originals back afterwards
(``Tracer.restore``); the program itself carries no instrumentation.  Each
call becomes a span with a name, a group (the layer it is charged to), a
start, an end and the span that was open when it began.  Spans of one
request or stream carry its id.

Totals per span name are kept for every call; the spans themselves are kept
in memory up to ``max_spans`` and written out as Chrome Trace Event JSON,
which Perfetto and ``chrome://tracing`` open.  A span's self time is its
duration minus the time covered by the spans it caused, so the self times
of all spans inside the root span add up to the root span's duration.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

perf_counter = time.perf_counter


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self, max_spans: int = 60_000) -> None:
        self.max_spans = max_spans
        self.origin = perf_counter()
        #: name -> [calls, self seconds, inclusive seconds, group]
        self.totals: dict[str, list] = {}
        #: (parent span name, span name) -> calls
        self.parent_counts: dict[tuple[str, str], int] = {}
        #: name -> inclusive durations, for names registered by ``keep_durations``
        self.durations: dict[str, list[float]] = {}
        #: (name, group, start, end, span id, parent span id, request/stream id)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def keep_durations(self, name: str) -> None:
        self.durations.setdefault(name, [])

    def wrap(
        self,
        fn: Callable,
        name: str,
        group: str,
        ident: Callable | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records one span.

        ``ident(args, result)`` names the request or stream a span belongs
        to; ``on_result(result)`` sees every return value (for counts the
        program reports only through its results).
        """
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, group])
        stack = self._stack
        spans = self.spans
        parent_counts = self.parent_counts
        tracer = self

        def traced(*args, **kwargs):
            durations = tracer.durations.get(name)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id, name]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[0]
                totals[2] += duration
                parent_id = 0
                if parent is not None:
                    parent[0] += duration
                    parent_id = parent[1]
                    key = (parent[2], name)
                    parent_counts[key] = parent_counts.get(key, 0) + 1
                if durations is not None:
                    durations.append(duration)
                if on_result is not None and result is not None:
                    on_result(result)
                if len(spans) < tracer.max_spans:
                    spans.append((
                        name, group, start, end, span_id, parent_id,
                        ident(args, result) if ident is not None else None,
                    ))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, group: str, fn: Callable, *args, ident=None):
        """Run ``fn(*args)`` as one span (the benchmark's own calls)."""
        return self.wrap(fn, name, group, ident=ident)(*args)

    # -------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, group: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a wrapper."""
        self.replace(owner, attr, self.wrap(owner.__dict__[attr], name, group, **hooks))

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for ``restore``."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_overrides(self, base: type, attr: str, group: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass that overrides it."""
        pending, seen = [base], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch(cls, attr, f"{cls.__name__}.{attr}", group)

    def patch_function(self, function: Callable, name: str, group: str) -> None:
        """Wrap a module-level function everywhere the program imported it."""
        wrapper = self.wrap(function, name, group)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            if module.__dict__.get(function.__name__) is function:
                self.replace(module, function.__name__, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- results
    def count(self, *names: str) -> int:
        return sum(self.totals[name][0] for name in names if name in self.totals)

    def inclusive_s(self, name: str) -> float:
        return self.totals[name][2] if name in self.totals else 0.0

    def self_by_group(self) -> dict[str, float]:
        groups: dict[str, float] = {}
        for _, self_s, _, group in self.totals.values():
            groups[group] = groups.get(group, 0.0) + self_s
        return groups

    def chrome_trace(self, metadata: dict) -> dict:
        """The recorded spans as a Chrome Trace Event Format document."""
        events = []
        for name, group, start, end, span_id, parent_id, ident in self.spans:
            args = {"span": span_id, "parent": parent_id}
            if ident is not None:
                args["id"] = ident
            events.append({
                "name": name,
                "cat": group,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        events.sort(key=lambda event: event["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_spans=self.dropped),
        }
