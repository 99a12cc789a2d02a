"""Spans around calls into diffnb's layers, recorded from outside the package.

A :class:`Tracer` keeps spans in memory: name, start, end, parent span and
the request (one train/evaluate chain) they belong to. ``instrument``
swaps chosen layer functions for wrappers at the module attributes the
package calls them through, so calls made inside ``train`` or
``evaluate`` become child spans; ``restore`` puts the originals back.
Nothing under ``src/`` is modified on disk.
"""

import functools
import threading
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    request: str
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder; one parent stack per thread.

    ``muted`` stops the instrumented wrappers from recording, so the
    trainings a search runs on its own threads do not count as the
    workload's top-level layer work.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.request = ""
        self.muted = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def record(self, name: str, fn, *args, note=None, measure_memory=False, **kwargs):
        """Call ``fn`` inside a span; ``note(args, result)`` adds counts to it.

        ``measure_memory`` also records the peak of memory allocated during
        the call (tracemalloc, which numpy reports its buffers to).
        """
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, 0, 0, stack[-1] if stack else None, self.request)
            self.spans.append(span)
        stack.append(span.id)
        if measure_memory:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            if measure_memory:
                span.notes["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
        if note is not None:
            span.notes.update(note(args, result))
        return result

    def _wrapper(self, fn, name, note, measure_memory):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            return self.record(name, fn, *args, note=note, measure_memory=measure_memory, **kwargs)

        return traced

    def instrument(self, owner, attr: str, name: str, note=None, measure_memory=False) -> None:
        """Replace ``owner.attr`` with a recording wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, name, note, measure_memory))
        else:
            replacement = self._wrapper(original, name, note, measure_memory)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return {s.id: (s.end - s.start - child[s.id]) / 1e9 for s in self.spans}

    def spans_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start_ns": s.start,
                "end_ns": s.end,
                "parent": s.parent,
                "request": s.request,
                **({"notes": s.notes} if s.notes else {}),
            }
            for s in self.spans
        ]
