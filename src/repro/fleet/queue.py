"""WAL-backed durable work queue with lease/ack semantics.

Every state transition — epoch opened, machine leased or requeued,
machine acked — is one appended JSONL line, in the same
torn-tail-tolerant style as :class:`~repro.core.baseline.BaselineStore`:
a writer killed mid-line loses at most that line, and replay rebuilds
the exact queue state from the survivors.  That makes the queue the
epoch's checkpoint: a coordinator killed at any ack boundary restarts,
replays the WAL, and finds every acked machine still acked and every
unfinished machine still pending.  :class:`QueueState` is the one fold
of those records; the console index folds the same WAL through it.

Lease semantics follow the standard at-least-once work-queue contract:

* :meth:`WorkQueue.lease` hands a machine to a worker; the draw passes
  through the ``fleet.lease`` fault site, so a chaos plan can fail the
  exchange (the machine stays pending — a failed lease never loses
  work).
* :meth:`WorkQueue.ack` commits the machine as done — exactly once per
  epoch: an ack bearing a superseded token, or for a machine already
  acked, raises :class:`~repro.errors.StaleLease` instead of
  double-counting.
* A lease is a claim, not a timer: it has no deadline, and ends only
  when its holder acks it or the holder's host declares the holder
  dead.  :meth:`WorkQueue.expire_leases` requeues every outstanding
  lease when a coordinator resumes (its in-process workers died with
  it); :meth:`WorkQueue.requeue` returns one dead agent's leases when
  the controller's heartbeat reaper declares it dead.

Dispatch is sharded: the epoch opener assigns every machine a
deterministic shard, a worker leases from its own shard first, and a
worker whose shard has drained *steals* from the deepest remaining
shard (``fleet.queue.steals``), so one slow shard never idles the rest
of the fleet.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import FleetError, StaleLease
from repro.faults import context as faults_context
from repro.faults.plan import SITE_FLEET_LEASE
from repro.telemetry.journal_io import (append_journal, iter_journal,
                                       replace_journal)
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)

QUEUE_FILE = "queue.jsonl"


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one machine, held until acked or requeued."""

    machine: str
    epoch: int
    worker: int
    token: int
    shard: int
    stolen: bool = False


class QueueState:
    """The queue WAL's meaning: the one fold of its records.

    :class:`WorkQueue` replays and appends through it (under its lock,
    stamping records on its clock); the console's
    :class:`~repro.console.index.JournalIndex` tails the WAL into one.
    Records an older writer left behind still fold: a ``lease``
    record's deadline is ignored, an ``expire`` requeues like a
    ``requeue``, and a deadline extension is skipped like any unknown
    op.
    """

    def __init__(self) -> None:
        self.epoch: Optional[int] = None        # currently open epoch
        self.machines: List[str] = []           # epoch roster, queue order
        self.shards: Dict[str, int] = {}
        self.pending: Dict[int, List[str]] = {}
        self.leases: Dict[str, Lease] = {}      # machine -> live lease
        self.acked: Dict[str, dict] = {}        # machine -> ack payload
        self.token = 0                          # last lease token issued
        self.at = 0.0                           # latest WAL timestamp

    def apply(self, record: dict) -> None:
        """Fold one WAL record; a malformed one raises ``KeyError``,
        ``TypeError`` or ``ValueError`` before changing anything."""
        at = float(record.get("at", 0.0))
        op = record["op"]
        if op == "epoch-open":
            epoch, machines = int(record["epoch"]), list(record["machines"])
            shards = {name: int(shard) for name, shard
                      in record["shards"].items()}
            self.epoch, self.machines, self.shards = epoch, machines, shards
            self.pending = {}
            for name in machines:
                self.pending.setdefault(shards.get(name, 0), []).append(name)
            self.leases, self.acked = {}, {}
        elif op == "lease":
            lease = Lease(machine=record["machine"],
                          epoch=int(record["epoch"]),
                          worker=int(record["worker"]),
                          token=int(record["token"]),
                          shard=int(record["shard"]),
                          stolen=bool(record.get("stolen", False)))
            self._drop_pending(lease.machine)
            self.leases[lease.machine] = lease
            self.token = max(self.token, lease.token)
        elif op in ("requeue", "expire"):
            machine = record["machine"]
            self.leases.pop(machine, None)
            if machine not in self.acked:
                queue = self.pending.setdefault(self.shards.get(machine, 0),
                                                [])
                if machine not in queue:
                    queue.append(machine)
        elif op == "ack":
            machine = record["machine"]
            self.leases.pop(machine, None)
            self._drop_pending(machine)
            self.acked[machine] = {key: value
                                   for key, value in record.items()
                                   if key not in ("op", "machine")}
        elif op == "epoch-close":
            self.epoch = None
            self.machines, self.shards, self.pending = [], {}, {}
            self.leases, self.acked = {}, {}
        # Unknown ops are ignored: a newer writer's records must not
        # brick an older reader (same stance as the telemetry loader).
        self.at = max(self.at, at)

    def _drop_pending(self, machine: str) -> None:
        queue = self.pending.get(self.shards.get(machine, 0), [])
        if machine in queue:
            queue.remove(machine)

    def pending_count(self) -> int:
        return sum(len(queue) for queue in self.pending.values())

    def pending_machines(self) -> List[str]:
        return sorted(machine for queue in self.pending.values()
                      for machine in queue)


class WorkQueue:
    """Durable machine queue for one fleet directory.

    The WAL records each transition's simulated timestamp on the
    supplied :class:`SimClock`, so a restarted queue resumes at the time
    the dead coordinator last recorded rather than back at the epoch
    start.
    """

    def __init__(self, directory: str, clock: Optional[SimClock] = None,
                 durable: bool = False):
        self.directory = directory
        self.path = os.path.join(directory, QUEUE_FILE)
        self.durable = bool(durable)
        self._lock = threading.RLock()
        self._state = QueueState()
        for line in iter_journal(self.path, on_torn=self._warn_torn):
            try:
                self._state.apply(line.record)
            except (ValueError, KeyError, TypeError) as exc:
                # The torn tail of a killed writer: one lost
                # transition, re-done by the resumed epoch.
                self._warn_torn(line.line_no, str(exc))
        recorded_at = self._state.at
        self.clock = clock or SimClock(start=recorded_at)
        if self.clock.now() < recorded_at:
            # A restarted coordinator's fresh clock must not run behind
            # the WAL, or its timestamps would run backwards.
            self.clock.advance(recorded_at - self.clock.now())

    @property
    def epoch(self) -> Optional[int]:
        """The currently open epoch, or None between epochs."""
        return self._state.epoch

    # -- WAL ---------------------------------------------------------------------

    # Epoch boundaries are always forced to stable storage; the other
    # transitions only when the queue is durable.
    _FSYNC_OPS = frozenset({"epoch-open", "epoch-close"})

    def _append(self, record: dict) -> None:
        """Stamp, append and fold one transition."""
        record = dict(record, at=round(self.clock.now(), 6))
        append_journal(self.path, record, fsync=(
            self.durable or record["op"] in self._FSYNC_OPS))
        self._state.apply(record)

    def _warn_torn(self, line_no: int, reason: str) -> None:
        logger.warning("skipping torn queue line %d in %s: %s",
                       line_no, self.path, reason)

    # -- epoch lifecycle ---------------------------------------------------------

    def open_epoch(self, epoch: int,
                   assignments: Dict[str, int]) -> None:
        """Start an epoch over ``assignments`` (machine → shard, in
        dispatch-priority order)."""
        with self._lock:
            if self._state.epoch is not None:
                raise FleetError(
                    f"epoch {self._state.epoch} is still open; close or "
                    f"resume it before opening epoch {epoch}")
            self._append({"op": "epoch-open", "epoch": int(epoch),
                          "machines": list(assignments),
                          "shards": {name: int(shard) for name, shard
                                     in assignments.items()}})

    def close_epoch(self) -> None:
        with self._lock:
            state = self._state
            if state.epoch is None:
                raise FleetError("no epoch is open")
            if state.pending_count() or state.leases:
                raise FleetError(
                    f"epoch {state.epoch} still has "
                    f"{state.pending_count()} pending and "
                    f"{len(state.leases)} leased machine(s)")
            self._append({"op": "epoch-close", "epoch": state.epoch})

    def expire_leases(self) -> List[str]:
        """Requeue every outstanding lease (coordinator restart).

        A lease has no deadline; it expires when its holder is known
        dead.  The in-process workers that held these leases died with
        the coordinator that ran them, so a resuming coordinator
        requeues them all.  Returns the requeued machine names.
        """
        return self._requeue(self._state.leases, "fleet.queue.recovered")

    def requeue(self, machines: Iterable[str]) -> List[str]:
        """Return specific leased machines to their shards.

        The controller's liveness reaper calls this when an agent's
        heartbeats stop: only *that agent's* leases go back to pending,
        while every other agent's work stays leased.  Machines that are
        not currently leased (already acked, already requeued) are
        skipped.  Returns the machines actually requeued.
        """
        return self._requeue(machines, "fleet.queue.reclaimed")

    def _requeue(self, machines: Iterable[str], counter: str) -> List[str]:
        with self._lock:
            requeued = [machine for machine in sorted(machines)
                        if machine in self._state.leases]
            for machine in requeued:
                self._append({"op": "requeue", "machine": machine,
                              "epoch": self._state.epoch})
            if requeued:
                global_metrics().incr(counter, len(requeued))
            return requeued

    # -- lease / ack -------------------------------------------------------------

    def lease(self, worker: int) -> Optional[Lease]:
        """Claim the next machine for ``worker``; None when none pending.

        The worker's own shard is served first; a drained shard steals
        the head of the deepest other shard.  The exchange draws at the
        ``fleet.lease`` fault site (scoped to the machine being leased)
        — a fired fault raises before anything is written, leaving the
        machine pending for the retry.
        """
        with self._lock:
            if self._state.epoch is None:
                raise FleetError("no epoch is open")
            picked = self._pick(worker)
            if picked is None:
                return None
            machine, shard, stolen = picked
            # The lease exchange itself can fail (the chaos plan's
            # fleet.lease site).  Drawing before the WAL append means a
            # fault leaves no trace: the machine is still pending.
            faults_context.maybe_inject(SITE_FLEET_LEASE,
                                        clock=self.clock, scope=machine)
            self._append({"op": "lease", "machine": machine,
                          "epoch": self._state.epoch, "worker": worker,
                          "token": self._state.token + 1,
                          "shard": shard, "stolen": stolen})
            metrics = global_metrics()
            metrics.incr("fleet.queue.leases")
            if stolen:
                metrics.incr("fleet.queue.steals")
            return self._state.leases[machine]

    def _pick(self, worker: int) -> Optional[Tuple[str, int, bool]]:
        """(machine, shard, stolen) for the next claim, or None."""
        pending = self._state.pending
        own = worker % (max(self._state.shards.values(), default=0) + 1)
        queue = pending.get(own, [])
        if queue:
            return queue[0], own, False
        # Work stealing: the deepest backlog donates its head; ties go
        # to the lowest shard id so the choice is deterministic.
        candidates = [(len(queue), -shard) for shard, queue
                      in pending.items() if queue]
        if not candidates:
            return None
        __, negative_shard = max(candidates)
        shard = -negative_shard
        return pending[shard][0], shard, True

    def ack(self, lease: Lease, **payload) -> None:
        """Commit the leased machine as done — exactly once per epoch."""
        with self._lock:
            if lease.machine in self._state.acked:
                raise StaleLease(lease.machine, lease.token,
                                 "machine already acked this epoch; "
                                 "late ack dropped")
            current = self._state.leases.get(lease.machine)
            if current is None or current.token != lease.token:
                raise StaleLease(lease.machine, lease.token,
                                 f"lease superseded by "
                                 f"#{current.token if current else '?'}; "
                                 f"late ack dropped")
            self._append({"op": "ack", "machine": lease.machine,
                          "epoch": lease.epoch, "token": lease.token,
                          **payload})
            global_metrics().incr("fleet.queue.acks")

    # -- inspection --------------------------------------------------------------

    def pending_count(self) -> int:
        with self._lock:
            return self._state.pending_count()

    def pending_machines(self) -> List[str]:
        with self._lock:
            return self._state.pending_machines()

    def leased_machines(self) -> Dict[str, Lease]:
        with self._lock:
            return dict(self._state.leases)

    def acked_machines(self) -> Dict[str, dict]:
        with self._lock:
            return dict(self._state.acked)

    def epoch_drained(self) -> bool:
        """True when every rostered machine has been acked."""
        with self._lock:
            state = self._state
            return (state.epoch is not None and not state.pending_count()
                    and not state.leases)

    # -- compaction --------------------------------------------------------------

    def compact(self) -> Dict[str, int]:
        """Rewrite the WAL down to the minimal equivalent state.

        Between epochs the whole history collapses to nothing (the
        epochs journal, not the queue, is the system of record for
        finished epochs); mid-epoch the roster and acks survive and any
        outstanding leases are conservatively requeued — the same
        treatment a crash restart gives them.  Crash-safe via
        :func:`~repro.telemetry.journal_io.replace_journal`.
        """
        with self._lock:
            before = 0
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8") as handle:
                    before = sum(1 for line in handle if line.strip())
            state = self._state
            lines: List[str] = []
            if state.epoch is not None:
                for machine in sorted(state.leases):
                    state.apply({"op": "requeue", "machine": machine})
                now = round(self.clock.now(), 6)
                lines.append(json.dumps(
                    {"op": "epoch-open", "epoch": state.epoch,
                     "machines": list(state.machines),
                     "shards": dict(state.shards), "at": now},
                    sort_keys=True))
                for machine, payload in sorted(state.acked.items()):
                    lines.append(json.dumps(
                        {"op": "ack", "machine": machine, **payload},
                        sort_keys=True))
            replace_journal(self.path, lines)
        global_metrics().incr("fleet.queue.compactions")
        return {"records_before": before, "records_after": len(lines)}
