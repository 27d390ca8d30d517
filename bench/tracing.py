"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module attributes through which one layer of
``diamondfwm`` calls another (``propagation._chi_arrays``,
``pulse._transfer_components``, ``cli.write_csv`` and so on) with
wrappers that record a span per call: name, start, end, parent span and
thread.  Spans stay in memory until the run ends.  Nothing in the
package is modified on disk, and ``restore`` puts every original back.

A worker thread has no open span of its own when a chunk starts, so its
spans are parented to the innermost open span of the main thread, which
is blocked in the call that handed out the chunks.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _patched: list = field(default_factory=list)
    _main: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        with self._lock:
            span = Span(id=len(self.spans), name=name,
                        parent=None if parent is None else parent.id,
                        thread=threading.get_ident(), start=time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def patch(self, module, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` by ``make(original)`` until ``restore``.

        A missing attribute raises AttributeError: a layer that silently
        read zero would look like a large gain.
        """
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def traced(self, name: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``counter(tracer, args, kwargs, result)``
        records exact counts after each call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.count(f"{name}.calls", 1)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return wrapper

    def wrap(self, module, attr: str, name: str, counter: Optional[Callable] = None) -> None:
        self.patch(module, attr, lambda fn: self.traced(name, fn, counter))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict:
        """Per span name, total duration minus the time its children cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        totals = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for lo, hi in sorted(children[s.id]):
                lo, hi = max(lo, reach), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] += (s.end - s.start) - covered
        return dict(totals)

    def write(self, path: Path) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [{**asdict(s), "start": s.start - t0, "end": s.end - t0} for s in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n",
                        encoding="utf-8")
