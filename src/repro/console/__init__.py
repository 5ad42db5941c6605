"""Operator console: indexed journal store + fleet dashboard/query API.

The fleet's durable state is three append-only JSONL journals —
``epochs.jsonl`` (verdicts, summaries, outbreaks), ``queue.jsonl``
(the work-queue WAL), ``baselines.jsonl`` (stored reports) — all
write-optimized: until this subsystem, every read replayed the world.
The console adds the read path:

* :class:`~repro.console.index.JournalIndex` — one in-memory fold of
  the three journals (per-machine offset maps, epoch extents, alert
  log, queue state), replayed once at open and then tailed, so point
  lookups seek one record instead of replaying history; it never
  writes a file;
* :class:`~repro.console.server.ConsoleServer` — a zero-dependency
  read-only HTTP service (stdlib ``http.server``, token auth) serving
  live epoch progress, per-machine drill-down, outbreak timelines, a
  ``/metrics`` snapshot, and a JSON query API;
* :mod:`~repro.console.dashboard` — the HTML view, rendered
  server-side from the same index queries.
"""

from repro.console.index import JournalIndex
from repro.console.server import (ConsoleAuthError, ConsoleServer,
                                  generate_token)

__all__ = [
    "ConsoleAuthError", "ConsoleServer", "JournalIndex", "generate_token",
]
