"""Thread-local telemetry activation.

The substrate layers (code sites, the syscall gateway, the I/O manager,
the raw parsers) cannot take a telemetry handle as a parameter without
threading it through every call signature in the system.  Instead, a
scan *activates* its :class:`~repro.telemetry.Telemetry` bundle on the
current thread; instrumented call sites look it up here.

The lookup is deliberately the cheapest thing Python can do — one
``getattr`` on a ``threading.local`` — and every accessor degrades to a
no-op object (or ``None``) when nothing is active, so the default,
untraced configuration pays ~nothing.  Activation nests: a tool built
inside a traced scope (``GhostBuster`` and ``RisServer`` default to
:func:`current`) records into the enclosing bundle, which is how one
traced fleet epoch collects every machine's scan spans under its
``fleet.scan`` / ``fleet.escalate`` spans.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.telemetry.tracer import NULL_TRACER

_tls = threading.local()


def current():
    """The Telemetry bundle active on this thread, or ``None``."""
    return getattr(_tls, "ctx", None)


def current_tracer():
    """The active tracer, or the shared no-op tracer."""
    ctx = getattr(_tls, "ctx", None)
    return NULL_TRACER if ctx is None else ctx.tracer


def current_audit():
    """The active audit log, or ``None`` (the common fast path)."""
    ctx = getattr(_tls, "ctx", None)
    return None if ctx is None else ctx.audit


@contextmanager
def activated(ctx):
    """Make ``ctx`` the thread's telemetry for the duration (re-entrant)."""
    previous = getattr(_tls, "ctx", None)
    _tls.ctx = ctx
    try:
        yield ctx
    finally:
        _tls.ctx = previous
