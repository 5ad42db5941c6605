"""Outside-in layer tracer: spans around calls into the program's layers.

The program under test carries no benchmark tracing of its own, so this
module wraps the public functions and methods of each layer from the
outside, for the length of one traced repetition, and restores the
originals afterwards.

Two rules keep the ledger honest:

* **Patch the name the caller looks up.**  ``from m import f`` binds
  ``f`` in the importing module, so replacing ``m.f`` alone misses every
  call made through that binding.  :meth:`LayerTracer.patch_function`
  therefore rebinds *every* loaded ``repro`` module attribute that holds
  the original function object, and reports how many bindings it
  replaced.
* **Self time is exclusive.**  Each thread keeps a stack of open spans;
  a span's self time is its duration minus the time its child spans
  cover.  The epoch span's self time is the unattributed residual.

Generators (``iter_journal``) are timed per ``next()`` call, so the
consumer's loop body is charged to the consumer, not to the reader.

Forked children (distributed agents) inherit the wrappers; a fork hook
turns every tracer off in the child, so only the parent's work is
recorded.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_live_tracers: List["LayerTracer"] = []
_fork_hook_installed = False


def _disable_in_child() -> None:
    for tracer in _live_tracers:
        tracer.active = False


class LayerTracer:
    """Per-layer inclusive/self seconds and counts, bucketed by epoch."""

    def __init__(self) -> None:
        global _fork_hook_installed
        if not _fork_hook_installed:
            os.register_at_fork(after_in_child=_disable_in_child)
            _fork_hook_installed = True
        self.active = True
        self.bucket: object = "setup"
        self._local = threading.local()
        self._tables: List[Dict[tuple, list]] = []
        self._counts: List[Dict[str, float]] = []
        self._registry_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        _live_tracers.append(self)

    # -- per-thread state ---------------------------------------------------------

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.table, local.counts
        except AttributeError:
            local.stack = []
            local.table = {}
            local.counts = {}
            with self._registry_lock:
                self._tables.append(local.table)
                self._counts.append(local.counts)
            return local.stack, local.table, local.counts

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add to a named count."""
        if not self.active:
            return
        __, __, counts = self._thread_state()
        counts[name] = counts.get(name, 0.0) + amount

    # -- spans ----------------------------------------------------------------------

    def _record(self, table, name: str, parent: Optional[str],
                elapsed: float, child: float, calls: int = 1,
                bucket: object = None) -> None:
        key = (self.bucket if bucket is None else bucket, name, parent)
        row = table.get(key)
        if row is None:
            row = table[key] = [0, 0.0, 0.0]
        row[0] += calls
        row[1] += elapsed
        row[2] += elapsed - child

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (fleet synthesis, lookups)."""
        if not self.active:
            yield
            return
        stack, table, __ = self._thread_state()
        parent = stack[-1][1] if stack else None
        frame = [0.0, name]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            self._record(table, name, parent, elapsed, frame[0])

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``count(args, kwargs, result)`` may
        return ``{count_name: amount}`` to add after each call."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack, table, __ = tracer._thread_state()
            parent = stack[-1][1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._record(table, name, parent, elapsed, frame[0])
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    tracer.add(key, amount)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time a generator function per ``next()``; one call per
        generator, one ``<name>.items`` count per item."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if not tracer.active:
                return generator
            return _TimedIterator(tracer, generator, name)

        return traced

    # -- installing -----------------------------------------------------------------

    def patch_function(self, module, attr: str, name: str,
                       count: Optional[Callable] = None,
                       generator: bool = False) -> List[str]:
        """Wrap ``module.attr`` at every ``repro`` binding of it.

        Returns the ``module.name`` bindings replaced (the defining
        module's own among them).
        """
        original = getattr(module, attr)
        wrapper = (self.wrap_generator(original, name) if generator
                   else self.wrap(original, name, count))
        bound: List[str] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound.append(f"{mod_name}.{key}")
        return sorted(bound)

    def patch_method(self, cls, attr: str, name: str,
                     count: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False
        if self in _live_tracers:
            _live_tracers.remove(self)

    # -- reading --------------------------------------------------------------------

    def rows(self) -> Dict[Tuple[object, str, Optional[str]], list]:
        """(bucket, span, parent span) → [calls, inclusive_s, self_s],
        summed over threads."""
        merged: Dict[Tuple[object, str, Optional[str]], list] = {}
        with self._registry_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, inclusive, own) in list(table.items()):
                row = merged.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += inclusive
                row[2] += own
        return merged

    def totals(self) -> Tuple[Dict[str, list], Dict[str, float]]:
        """Span rows summed over buckets and parents, and the counts."""
        spans: Dict[str, list] = {}
        for (__, name, __), (calls, inclusive, own) in self.rows().items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += inclusive
            row[2] += own
        counts: Dict[str, float] = {}
        with self._registry_lock:
            tables = list(self._counts)
        for table in tables:
            for name, amount in list(table.items()):
                counts[name] = counts.get(name, 0.0) + amount
        return spans, counts


class _TimedIterator:
    """Charges each ``next()`` of a wrapped generator to one span.

    Per item it only adds the elapsed time to its own total and to the
    consumer's open span (captured at creation); the row is written once,
    when the generator is exhausted, closed or dropped.
    """

    __slots__ = ("_tracer", "_generator", "_name", "_bucket", "_parent",
                 "_parent_frame", "_elapsed", "_items", "_done")

    def __init__(self, tracer: LayerTracer, generator, name: str):
        stack, __, __ = tracer._thread_state()
        self._tracer = tracer
        self._generator = generator
        self._name = name
        self._bucket = tracer.bucket
        self._parent_frame = stack[-1] if stack else None
        self._parent = stack[-1][1] if stack else None
        self._elapsed = 0.0
        self._items = 0
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter()
        try:
            item = next(self._generator)
        except StopIteration:
            self._charge(time.perf_counter() - start)
            self._flush()
            raise
        self._charge(time.perf_counter() - start)
        self._items += 1
        return item

    def _charge(self, elapsed: float) -> None:
        self._elapsed += elapsed
        if self._parent_frame is not None:
            self._parent_frame[0] += elapsed

    def _flush(self) -> None:
        if self._done:
            return
        self._done = True
        tracer = self._tracer
        __, table, counts = tracer._thread_state()
        tracer._record(table, self._name, self._parent, self._elapsed, 0.0,
                       bucket=self._bucket)
        key = self._name + ".items"
        counts[key] = counts.get(key, 0.0) + self._items

    def close(self) -> None:
        self._generator.close()
        self._flush()

    def __del__(self) -> None:
        self._flush()
