"""Hierarchical scan tracing.

A :class:`Tracer` produces a tree of :class:`Span` objects — one span per
unit of scan work (a whole GhostBuster run, one per-layer enumeration,
one raw parse, one diff).  Every span carries *two* time axes:

* **wall clock** (``time.perf_counter``) — what the host actually spent,
  the number a fleet operator uses to find the slow machine;
* **simulated clock** (:class:`~repro.clock.SimClock`) — what the scan
  charged to the machine's cost model, the number the paper reports.

Spans nest per *thread*: each scanning thread builds its own stack,
so concurrent machines never interleave into one another's trees.
Finished root spans are collected under a lock.

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns a shared no-op handle — uninstrumented hot paths pay one method
call and nothing else (tier-1 counts those calls per unit of work).

Exports: :meth:`Tracer.to_jsonl` (one span per line, parent-linked) and
:meth:`Tracer.render` (a human-readable tree).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, List, Optional

_ids = itertools.count(1)


class Span:
    """One timed unit of work, with wall and simulated timestamps."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "wall_start",
                 "wall_end", "sim_start", "sim_end", "children", "thread")

    def __init__(self, name: str, parent_id: Optional[int],
                 sim_start: Optional[float], attrs: Dict):
        self.span_id = next(_ids)
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None
        self.children: List["Span"] = []
        self.thread = threading.get_ident()

    # -- timing ----------------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        end = self.wall_end if self.wall_end is not None \
            else time.perf_counter()
        return end - self.wall_start

    @property
    def sim_seconds(self) -> float:
        if self.sim_start is None or self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    def set(self, **attrs) -> "Span":
        """Attach attributes after the span is open."""
        self.attrs.update(attrs)
        return self

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "wall_s": round(self.wall_seconds, 6),
            "sim_s": round(self.sim_seconds, 3),
            "attrs": dict(self.attrs),
        }

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        attrs = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        sim = f" sim={self.sim_seconds:.1f}s" if self.sim_seconds else ""
        line = (f"{pad}{self.name}  wall={self.wall_seconds * 1000:.2f}ms"
                f"{sim}{'  ' + attrs if attrs else ''}")
        return "\n".join([line] + [child.render(indent + 1)
                                   for child in self.children])


class _NullSpan:
    """Shared do-nothing span handle (the no-op fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """Default tracer: every span is the shared no-op handle."""

    enabled = False

    def span(self, name: str, clock=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def roots(self) -> List[Span]:
        return []

    def to_jsonl(self) -> str:
        return ""

    def render(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager that opens/closes one real span on the tracer."""

    __slots__ = ("_tracer", "_span", "_clock")

    def __init__(self, tracer: "Tracer", span: Span, clock):
        self._tracer = tracer
        self._span = span
        self._clock = clock

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        span = self._span
        span.wall_end = time.perf_counter()
        if self._clock is not None:
            span.sim_end = self._clock.now()
        self._tracer._pop(span)


class Tracer:
    """Collects hierarchical spans, one stack per thread.

    ``clock`` is the default :class:`~repro.clock.SimClock` spans read
    simulated timestamps from; individual spans may override it (a fleet
    sweep traces machines that own distinct clocks).
    """

    enabled = True

    def __init__(self, clock=None):
        self.clock = clock
        self._tls = threading.local()
        self._roots: List[Span] = []
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, clock=None, **attrs) -> _SpanContext:
        """Open a child span of this thread's current span."""
        clock = clock if clock is not None else self.clock
        stack = self._stack()
        parent = stack[-1] if stack else None
        sim_start = clock.now() if clock is not None else None
        span = Span(name, parent.span_id if parent else None,
                    sim_start, attrs)
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)
        return _SpanContext(self, span, clock)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:       # exception unwound past inner spans
            del stack[stack.index(span):]

    # -- access & export ----------------------------------------------------------

    def roots(self) -> List[Span]:
        """Finished (and still-open) top-level spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def spans(self) -> List[Span]:
        """Every span recorded so far, depth-first across roots."""
        return [span for root in self.roots() for span in root.walk()]

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()

    def to_jsonl(self) -> str:
        """One JSON object per span, parent-linked via ``parent_id``."""
        return "\n".join(json.dumps(span.to_dict(), sort_keys=True)
                         for span in self.spans())

    def render(self) -> str:
        """The whole trace as an indented human-readable tree."""
        roots = self.roots()
        if not roots:
            return "(no spans recorded)"
        return "\n".join(root.render() for root in roots)
