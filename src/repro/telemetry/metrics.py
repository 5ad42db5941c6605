"""Zero-dependency metrics: counters, gauges, fixed-bucket histograms.

One process-wide :func:`global_metrics` registry serves the substrate
layers (MFT parser, hive parser, scanners) that have no scan context to
hang per-run metrics on; scan-scoped code may also carry its own
:class:`MetricsRegistry`.  All operations are lock-guarded — the
distributed controller's per-agent session threads hammer the same
counters.

Well-known names (see docs/observability.md for the full list):

* ``mft.parse.cache_hit`` / ``mft.parse.cache_miss`` — raw-namespace
  memoization in :mod:`repro.ntfs.mft_parser`;
* ``hive.parse.memo_hit`` / ``hive.parse.memo_miss`` — the
  content-addressed hive memo in :mod:`repro.registry.hive_parser`;
* ``scan.files.enumerated`` / ``scan.asep.enumerated`` /
  ``scan.processes.enumerated`` / ``scan.modules.enumerated``;
* ``diff.hidden.found`` / ``diff.noise.filtered``;
* ``audit.interpositions`` — events the audit log recorded.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Sequence

# Seconds-oriented default: sub-millisecond cache hits up to multi-minute
# outside-the-box scans all land in a meaningful bucket.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)


class CounterHandle:
    """A pre-resolved counter: the cheapest possible hot-path increment.

    Hot paths that fire per cache lookup (sub-microsecond work) resolve
    the handle once and call :meth:`add` — a single attribute add, no
    dict lookup, no lock.  The in-place float add runs a handful of
    bytecodes under the GIL; a parallel race can in principle drop an
    increment, which is the standard best-effort trade every low-cost
    stats client makes.  Exact counts go through
    :meth:`MetricsRegistry.incr` instead.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class MetricsRegistry:
    """Thread-safe counters, gauges, and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, dict] = {}
        self._handles: Dict[str, CounterHandle] = {}

    # -- instruments -------------------------------------------------------------

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add to a monotonic counter (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter_handle(self, name: str) -> CounterHandle:
        """A reusable handle whose :meth:`~CounterHandle.add` skips the
        registry entirely; its running value folds into ``counter()``
        and ``snapshot()`` alongside ``incr`` contributions."""
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                handle = self._handles[name] = CounterHandle()
            return handle

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Record one histogram sample into fixed upper-bound buckets."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = {
                    "buckets": tuple(buckets),
                    "counts": [0] * (len(buckets) + 1),   # +inf overflow
                    "count": 0, "sum": 0.0,
                }
            for index, upper in enumerate(hist["buckets"]):
                if value <= upper:
                    hist["counts"][index] += 1
                    break
            else:
                hist["counts"][-1] += 1
            hist["count"] += 1
            hist["sum"] += value

    # -- reads -------------------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            total = self._counters.get(name, 0.0)
            handle = self._handles.get(name)
            return total + (handle.value if handle is not None else 0.0)

    def _merged_counters(self) -> Dict[str, float]:
        merged = dict(self._counters)
        for name, handle in self._handles.items():
            if handle.value:
                merged[name] = merged.get(name, 0.0) + handle.value
        return merged

    def snapshot(self) -> Dict[str, dict]:
        """A deep-copied point-in-time view of every instrument."""
        with self._lock:
            return {
                "counters": self._merged_counters(),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {"buckets": list(hist["buckets"]),
                           "counts": list(hist["counts"]),
                           "count": hist["count"],
                           "sum": hist["sum"]}
                    for name, hist in self._histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            # Zero handles in place: holders keep their references live.
            for handle in self._handles.values():
                handle.value = 0.0

    # -- export ------------------------------------------------------------------

    def dump_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def dump_text(self) -> str:
        """Prometheus-flavoured plain text, one instrument per line."""
        snap = self.snapshot()
        lines: List[str] = []
        for name in sorted(snap["counters"]):
            lines.append(f"{name} {snap['counters'][name]:g}")
        for name in sorted(snap["gauges"]):
            lines.append(f"{name} {snap['gauges'][name]:g}")
        for name in sorted(snap["histograms"]):
            hist = snap["histograms"][name]
            for upper, count in zip(hist["buckets"], hist["counts"]):
                lines.append(f"{name}{{le=\"{upper:g}\"}} {count}")
            lines.append(f"{name}{{le=\"+Inf\"}} {hist['counts'][-1]}")
            lines.append(f"{name}_count {hist['count']}")
            lines.append(f"{name}_sum {hist['sum']:g}")
        return "\n".join(lines)


_global = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-wide registry the substrate layers report into."""
    return _global


def set_global_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (test isolation); returns the previous."""
    global _global
    previous, _global = _global, registry
    return previous


def reset_global_metrics() -> None:
    """Zero every global instrument (test isolation)."""
    _global.reset()
