"""Thread-local fault activation, mirroring the telemetry context.

The instrumented sites (scanner walks, parser entry points, the RIS
transport) cannot take a :class:`~repro.faults.plan.FaultPlan` as a
parameter without threading it through every signature in the system.
A scan *activates* a plan on the current thread instead — with the
machine name as the draw scope and the machine's clock for delay
charging — and the sites look it up here via :func:`maybe_inject`.

Two activation levels exist: a per-thread scope (set by
:func:`scoped`, used by ``GhostBuster`` so every scan draws from its
machine's own streams) and a process-wide
plan (set by :func:`install_global_plan`, used by the CI chaos job via
``REPRO_CHAOS_SEED``).  The thread scope wins.  With neither active the
fast path is one ``getattr`` plus one global check.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.errors import ApiError, MachineUnavailable, TransientIoError
from repro.faults.plan import FaultPlan

_tls = threading.local()

_global_plan: Optional[FaultPlan] = None
_global_active: Optional["ActiveFaults"] = None


@dataclass(frozen=True)
class ActiveFaults:
    """What an instrumented site needs: the plan, scope, and clock."""

    plan: FaultPlan
    scope: str = "global"
    clock: object = None


def install_global_plan(plan: Optional[FaultPlan]
                        ) -> Optional[FaultPlan]:
    """Set (or clear, with None) the process-wide fallback plan."""
    global _global_plan, _global_active
    previous = _global_plan
    _global_plan = plan
    _global_active = ActiveFaults(plan) if plan is not None else None
    return previous


def global_plan() -> Optional[FaultPlan]:
    """The process-wide fallback plan, or None when chaos is off."""
    return _global_plan


def active() -> Optional[ActiveFaults]:
    """The thread's fault activation, falling back to the global plan."""
    scope = getattr(_tls, "scope", None)
    if scope is not None:
        return scope
    return _global_active


def active_plan() -> Optional[FaultPlan]:
    """The plan behind :func:`active`, or None with no chaos active."""
    ctx = active()
    return None if ctx is None else ctx.plan


@contextmanager
def scoped(plan: FaultPlan, scope: str = "global", clock=None):
    """Activate ``plan`` on this thread for the duration (re-entrant)."""
    previous = getattr(_tls, "scope", None)
    _tls.scope = ActiveFaults(plan, scope, clock)
    try:
        yield
    finally:
        _tls.scope = previous


def maybe_inject(site: str, clock=None, scope: Optional[str] = None):
    """Draw at ``site``; translate a fired fault into its failure mode.

    * ``transient`` / ``io_error`` / ``timeout`` → :class:`TransientIoError`
      (timeout additionally charges its delay to the clock first);
    * ``status_failure`` → :class:`ApiError` (a spurious ``STATUS_*``);
    * ``drop`` / ``machine_death`` → :class:`MachineUnavailable`, with
      the fired fault attached as ``exc.fault`` (the RIS transport
      powers the client off on it);
    * ``slow_read`` / ``hang`` → the delay is charged to the clock and
      the fault is returned (the operation proceeds, late).

    Returns None when nothing fired.
    """
    ctx = active()
    if ctx is None:
        return None
    fault = ctx.plan.draw(site, scope if scope is not None else ctx.scope)
    if fault is None:
        return None
    clock = clock if clock is not None else ctx.clock
    if fault.delay_s and clock is not None:
        clock.advance(fault.delay_s)
    kind = fault.kind
    if kind in ("transient", "io_error", "timeout"):
        raise TransientIoError(
            f"injected {kind} at {site} ({fault.detail})")
    if kind == "status_failure":
        raise ApiError(
            f"STATUS_DEVICE_NOT_READY: injected at {site} ({fault.detail})")
    if kind in ("drop", "machine_death"):
        error = MachineUnavailable(
            f"injected {kind} at {site} ({fault.detail})")
        error.fault = fault
        raise error
    return fault


def filter_blob(site: str, blob: bytes,
                scope: Optional[str] = None) -> bytes:
    """Draw at a blob-filtering site; corrupt the blob if a fault fired.

    Used by the hive readers: a fired ``truncate``/``corrupt`` fault
    damages the just-read hive bytes, which the (validating) hive parser
    then rejects, driving the caller's re-read-and-retry path.
    """
    ctx = active()
    if ctx is None:
        return blob
    fault = ctx.plan.draw(site, scope if scope is not None else ctx.scope)
    if fault is None:
        return blob
    from repro.faults.injectors import corrupt_blob
    return corrupt_blob(blob, fault)
