"""``repro.faults`` — deterministic fault injection and recovery policies.

GhostBuster's premise is reading *hostile* state: raw MFT records and
hive files that malware may be actively corrupting, over devices and
transports that fail.  This package provides the two halves of staying
correct under that pressure:

* **Injection** — a :class:`FaultPlan` holds seeded per-site fault
  specs; instrumented sites (the :class:`~repro.disk.Disk` read path,
  the hive reader, the WinAPI enumeration walks, the RIS transport, and
  the parser entry points) draw from it and fail in controlled,
  *reproducible* ways.  Per-``(site, scope)`` RNG streams make the fault
  sequence independent of scheduling, so a fleet epoch injects
  byte-identical faults run after run, whether one process or forked
  scan agents draw them.
* **Recovery** — :class:`RetryPolicy` (capped exponential backoff with
  deterministic jitter, charged to the :class:`~repro.clock.SimClock`),
  :class:`CircuitBreaker` (the fleet coordinator's per-machine
  quarantine), scan-until-stable
  rounds in :class:`~repro.core.ghostbuster.GhostBuster`, and per-layer
  graceful degradation (:class:`~repro.core.diff.ScanConfidence`).

Everything is zero-dependency and inert by default: with no plan active
the instrumented sites pay one attribute lookup.  Activate per scan via
``faults.context.scoped(plan, ...)`` / ``FaultPlan.attach(machine)``,
or process-wide via ``faults.context.install_global_plan(plan)`` (the
CI chaos job does this through the ``REPRO_CHAOS_SEED`` env var).

See ``docs/robustness.md`` for the site/kind catalog and the
determinism guarantees.
"""

from __future__ import annotations

from repro.faults import context
from repro.faults.context import (active_plan, filter_blob,
                                  install_global_plan, maybe_inject, scoped)
from repro.faults.injectors import DiskFaultInjector, corrupt_blob
from repro.faults.plan import (FaultPlan, FaultSpec, InjectedFault,
                               SITE_DISK_READ, SITE_HIVE_PARSE,
                               SITE_HIVE_READ, SITE_MFT_PARSE,
                               SITE_RIS_TRANSPORT, SITE_WINAPI_ENUM)
from repro.faults.retry import (CircuitBreaker, RetryPolicy,
                                construct_with_retry)

__all__ = [
    "FaultPlan", "FaultSpec", "InjectedFault",
    "SITE_DISK_READ", "SITE_HIVE_READ", "SITE_WINAPI_ENUM",
    "SITE_RIS_TRANSPORT", "SITE_MFT_PARSE", "SITE_HIVE_PARSE",
    "RetryPolicy", "CircuitBreaker", "construct_with_retry",
    "DiskFaultInjector", "corrupt_blob",
    "context", "scoped", "maybe_inject", "filter_blob",
    "install_global_plan", "active_plan",
]
