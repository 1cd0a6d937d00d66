"""Per-thread layer timers for the traced run.

The traced run wraps the public calls into each layer with
:class:`LayerClock` timers. Every thread keeps its own stack of open
calls, so a span opened on one pool worker is never nested inside
another thread's span. For each layer the clock records

* ``calls``: how many wrapped calls entered the layer;
* ``busy``: inclusive wall time, counted once per outermost entry (a
  layer that re-enters itself is not double-counted);
* ``self``: the layer's busy time minus the time of other layers'
  calls nested inside it.

Nothing here touches ``repro.obs``: the program keeps its default null
tracer, and the gap between a traced and an untraced run of the same
workload is the overhead of these wrappers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _Totals:
    __slots__ = ("calls", "busy", "self")

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self = defaultdict(float)


class LayerClock:
    """Per-thread call counts, busy time and self time per layer."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_Totals] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.totals = _Totals()
            with self._lock:
                self._threads.append(local.totals)
        return local.stack, local.totals

    def enter(self, layer: str) -> None:
        stack, totals = self._state()
        totals.calls[layer] += 1
        # frame: [layer, start, time of nested other-layer calls]
        stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost open call; return its wall time."""
        stack, totals = self._state()
        layer, start, nested = stack.pop()
        elapsed = time.perf_counter() - start
        totals.self[layer] += elapsed - nested
        if not any(frame[0] == layer for frame in stack):
            totals.busy[layer] += elapsed
        if stack:
            # The child's self time is already booked (to its own layer
            # or, when nested in itself, to this one), so the parent's
            # self time excludes the whole child call.
            stack[-1][2] += elapsed
        self._local.last = elapsed
        return elapsed

    def last_elapsed(self) -> float:
        """Wall time of the calling thread's most recently closed call."""
        return self._local.last

    def thread_busy(self, layer: str) -> float:
        """Busy time of ``layer`` on the calling thread so far."""
        return self._state()[1].busy[layer]

    def wrap(self, layer: str, fn):
        """``fn`` with every call timed under ``layer``."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return timed

    def wrap_iter(self, layer: str, fn):
        """A generator function whose every ``next()`` is timed."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                self.enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item
        return timed

    def totals(self) -> dict[str, dict[str, float]]:
        """Merged ``{layer: {calls, busy_s, self_s}}`` over all threads."""
        merged: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for layer, calls in totals.calls.items():
                entry = merged[layer]
                entry["calls"] += calls
                entry["busy_s"] += totals.busy[layer]
                entry["self_s"] += totals.self[layer]
        return dict(merged)

