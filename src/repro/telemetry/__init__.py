"""``repro.telemetry`` — scan tracing, metrics, and interception audit.

Zero-dependency observability for the whole scan stack:

* :class:`Tracer` / :class:`Span` — hierarchical spans (scan → per-layer
  enumeration → parse → diff) with wall-clock *and* simulated-clock
  timestamps, exportable as JSONL or a rendered tree;
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms (``mft.parse.cache_hit``, ``hive.parse.memo_hit``,
  ``scan.files.enumerated``, ``diff.hidden.found``, ...), with a
  process-wide default registry the substrate layers report into;
* :class:`AuditLog` — every SSDT hook, filter driver, CM callback, IAT
  redirection, inline patch, and raw-port filter observed *firing*
  during a scan, attributable to findings via
  :func:`attribute_findings`.

Everything defaults off: the no-op tracer, a ``None`` audit log, and
plain counter increments cost almost nothing on uninstrumented paths
(``scripts/bench.py`` gates the overhead at <= 5 %).  A scan opts in by
constructing ``Telemetry.enabled()`` and handing it to
:class:`~repro.core.ghostbuster.GhostBuster`; a whole fleet epoch opts
in by running :meth:`~repro.fleet.FleetCoordinator.run_epoch` under
``telemetry.activate()``.
"""

from __future__ import annotations

from repro.telemetry import context
from repro.telemetry.audit import (AuditLog, FindingAttribution,
                                   InterpositionEvent, NO_INTERPOSITION,
                                   attribute_findings, resource_of)
from repro.telemetry.metrics import (MetricsRegistry, NullMetrics,
                                     global_metrics, reset_global_metrics,
                                     set_global_metrics)
from repro.telemetry.tracer import (NULL_TRACER, NullTracer, Span, Tracer)


class Telemetry:
    """One scan's observability bundle: tracer + audit log.

    Counters are process-wide, in :func:`global_metrics`.
    """

    def __init__(self, tracer=None, audit=None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.audit = audit

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The default: no-op tracer, no audit log."""
        return cls()

    @classmethod
    def enabled(cls, clock=None) -> "Telemetry":
        """Full observability: real tracer and audit log."""
        return cls(tracer=Tracer(clock=clock), audit=AuditLog())

    @property
    def is_enabled(self) -> bool:
        return self.tracer.enabled or self.audit is not None

    def activate(self):
        """Context manager binding this bundle to the current thread."""
        return context.activated(self)

    def attribute(self, report):
        """Attribute a report's findings to the audited interpositions."""
        if self.audit is None:
            return []
        return attribute_findings(report, self.audit)


__all__ = [
    "Telemetry",
    "Tracer", "NullTracer", "Span", "NULL_TRACER",
    "MetricsRegistry", "NullMetrics", "global_metrics",
    "set_global_metrics", "reset_global_metrics",
    "AuditLog", "InterpositionEvent", "FindingAttribution",
    "attribute_findings", "resource_of", "NO_INTERPOSITION",
    "context",
]
