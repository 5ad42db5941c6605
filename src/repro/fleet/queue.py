"""WAL-backed durable work queue with lease/ack/renew semantics.

Every state transition — epoch opened, machine leased, lease renewed or
expired, machine acked — is one appended JSONL line, in the same
torn-tail-tolerant style as :class:`~repro.core.baseline.BaselineStore`:
a writer killed mid-line loses at most that line, and replay rebuilds
the exact queue state from the survivors.  That makes the queue the
epoch's checkpoint: a coordinator killed at any ack boundary restarts,
replays the WAL, and finds every acked machine still acked and every
unfinished machine still pending.

Lease semantics follow the standard at-least-once work-queue contract:

* :meth:`WorkQueue.lease` hands a machine to a worker with an expiry on
  the fleet's :class:`~repro.clock.SimClock`; the draw passes through
  the ``fleet.lease`` fault site, so a chaos plan can fail the exchange
  (the machine stays pending — a failed lease never loses work).
* :meth:`WorkQueue.renew` extends a live lease (long scans heartbeat).
* :meth:`WorkQueue.ack` commits the machine as done — exactly once per
  epoch: an ack bearing an expired or superseded token raises
  :class:`~repro.errors.StaleLease` instead of double-counting.
* :meth:`WorkQueue.expire_leases` returns timed-out machines to their
  shard (``fleet.lease_expired`` metric) — a dead worker's machines are
  re-leased, not lost.

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
from typing import Dict, List, Optional, Tuple

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
    """One worker's claim on one machine, valid until ``expires_at``."""

    machine: str
    epoch: int
    worker: int
    token: int
    expires_at: float
    shard: int
    stolen: bool = False


class WorkQueue:
    """Durable machine queue for one fleet directory.

    All simulated-time comparisons (lease expiry) run on the supplied
    :class:`SimClock`; the WAL records each transition's simulated
    timestamp so a restarted queue resumes at the time the dead
    coordinator last recorded rather than back at the epoch start.
    """

    def __init__(self, directory: str, clock: Optional[SimClock] = None,
                 lease_seconds: float = 300.0, durable: bool = False):
        if lease_seconds <= 0:
            raise FleetError("lease_seconds must be positive")
        self.directory = directory
        self.path = os.path.join(directory, QUEUE_FILE)
        self.lease_seconds = lease_seconds
        self.durable = bool(durable)
        self._lock = threading.RLock()
        self.epoch: Optional[int] = None        # currently open epoch
        self._machines: List[str] = []          # epoch roster, queue order
        self._shards: Dict[str, int] = {}
        self._pending: Dict[int, List[str]] = {}
        self._leases: Dict[str, Lease] = {}     # machine -> live lease
        self._acked: Dict[str, dict] = {}       # machine -> ack payload
        self._token = 0
        self._recorded_at = 0.0                 # latest WAL timestamp
        self._replay()
        self.clock = clock or SimClock(start=self._recorded_at)
        if self.clock.now() < self._recorded_at:
            # A restarted coordinator's fresh clock must not run behind
            # the WAL, or durable leases would outlive their writers.
            self.clock.advance(self._recorded_at - self.clock.now())

    # -- WAL ---------------------------------------------------------------------

    # Epoch boundaries are always forced to stable storage: the console
    # index pins its cursors against the WAL prefix, and a host crash
    # that tore an epoch-open/epoch-close out from under those pins
    # would invalidate every byte offset the index recorded after it.
    _FSYNC_OPS = frozenset({"epoch-open", "epoch-close"})

    def _append(self, record: dict) -> None:
        record = dict(record, at=round(self.clock.now(), 6))
        append_journal(self.path, record, fsync=(
            self.durable or record.get("op") in self._FSYNC_OPS))
        self._recorded_at = max(self._recorded_at, record["at"])

    def _replay(self) -> None:
        for line in iter_journal(self.path, on_torn=self._warn_torn):
            try:
                self._apply(line.record)
            except (ValueError, KeyError, TypeError) as exc:
                # The torn tail of a killed writer: one lost
                # transition, re-done by the resumed epoch.
                self._warn_torn(line.line_no, str(exc))
                continue

    def _warn_torn(self, line_no: int, reason: str) -> None:
        logger.warning("skipping torn queue line %d in %s: %s",
                       line_no, self.path, reason)

    def _apply(self, record: dict) -> None:
        """One WAL record onto the in-memory state (replay path)."""
        self._recorded_at = max(self._recorded_at,
                                float(record.get("at", 0.0)))
        op = record["op"]
        if op == "epoch-open":
            self.epoch = int(record["epoch"])
            self._machines = list(record["machines"])
            self._shards = {name: int(shard) for name, shard
                            in record["shards"].items()}
            self._pending = {}
            for name in self._machines:
                shard = self._shards.get(name, 0)
                self._pending.setdefault(shard, []).append(name)
            self._leases = {}
            self._acked = {}
        elif op == "lease":
            machine = record["machine"]
            self._drop_pending(machine)
            self._leases[machine] = Lease(
                machine=machine, epoch=int(record["epoch"]),
                worker=int(record["worker"]), token=int(record["token"]),
                expires_at=float(record["expires_at"]),
                shard=int(record["shard"]),
                stolen=bool(record.get("stolen", False)))
            self._token = max(self._token, int(record["token"]))
        elif op == "renew":
            machine = record["machine"]
            lease = self._leases.get(machine)
            if lease is not None and lease.token == int(record["token"]):
                self._leases[machine] = Lease(
                    machine=lease.machine, epoch=lease.epoch,
                    worker=lease.worker, token=lease.token,
                    expires_at=float(record["expires_at"]),
                    shard=lease.shard, stolen=lease.stolen)
        elif op in ("expire", "requeue"):
            machine = record["machine"]
            self._leases.pop(machine, None)
            if machine not in self._acked:
                self._push_pending(machine)
        elif op == "ack":
            machine = record["machine"]
            self._leases.pop(machine, None)
            self._drop_pending(machine)
            self._acked[machine] = {key: value
                                    for key, value in record.items()
                                    if key not in ("op", "machine")}
        elif op == "epoch-close":
            self.epoch = None
            self._machines = []
            self._shards = {}
            self._pending = {}
            self._leases = {}
            self._acked = {}
        # Unknown ops are ignored: a newer writer's records must not
        # brick an older reader (same stance as the telemetry loader).

    def _drop_pending(self, machine: str) -> None:
        shard = self._shards.get(machine, 0)
        queue = self._pending.get(shard, [])
        if machine in queue:
            queue.remove(machine)

    def _push_pending(self, machine: str) -> None:
        shard = self._shards.get(machine, 0)
        queue = self._pending.setdefault(shard, [])
        if machine not in queue:
            queue.append(machine)

    # -- epoch lifecycle ---------------------------------------------------------

    def open_epoch(self, epoch: int,
                   assignments: Dict[str, int]) -> None:
        """Start an epoch over ``assignments`` (machine → shard, in
        dispatch-priority order)."""
        with self._lock:
            if self.epoch is not None:
                raise FleetError(
                    f"epoch {self.epoch} is still open; close or resume "
                    f"it before opening epoch {epoch}")
            record = {"op": "epoch-open", "epoch": int(epoch),
                      "machines": list(assignments),
                      "shards": {name: int(shard)
                                 for name, shard in assignments.items()}}
            self._append(record)
            self._apply(record)

    def close_epoch(self) -> None:
        with self._lock:
            if self.epoch is None:
                raise FleetError("no epoch is open")
            if self.pending_count() or self._leases:
                raise FleetError(
                    f"epoch {self.epoch} still has "
                    f"{self.pending_count()} pending and "
                    f"{len(self._leases)} leased machine(s)")
            record = {"op": "epoch-close", "epoch": self.epoch}
            self._append(record)
            self._apply(record)

    def recover_leases(self) -> List[str]:
        """Requeue every outstanding lease (coordinator restart).

        The workers that held these leases died with the coordinator
        that spawned them, so waiting out the expiry would only stall
        the resumed epoch.  Returns the requeued machine names.
        """
        with self._lock:
            recovered = sorted(self._leases)
            for machine in recovered:
                record = {"op": "requeue", "machine": machine,
                          "epoch": self.epoch}
                self._append(record)
                self._apply(record)
            if recovered:
                global_metrics().incr("fleet.queue.recovered",
                                      len(recovered))
            return recovered

    def requeue(self, machines) -> List[str]:
        """Return specific leased machines to their shards.

        The controller's liveness reaper calls this when an agent's
        heartbeats stop: only *that agent's* leases go back to pending,
        while every other agent's work stays leased.  Machines that are
        not currently leased (already acked, already requeued) are
        skipped.  Returns the machines actually requeued.
        """
        with self._lock:
            requeued = []
            for machine in sorted(machines):
                if machine not in self._leases:
                    continue
                record = {"op": "requeue", "machine": machine,
                          "epoch": self.epoch}
                self._append(record)
                self._apply(record)
                requeued.append(machine)
            if requeued:
                global_metrics().incr("fleet.queue.reclaimed",
                                      len(requeued))
            return requeued

    # -- lease / ack / renew -----------------------------------------------------

    def lease(self, worker: int) -> Optional[Lease]:
        """Claim the next machine for ``worker``; None when none pending.

        The worker's own shard is served first; a drained shard steals
        the head of the deepest other shard.  The exchange draws at the
        ``fleet.lease`` fault site (scoped to the machine being leased)
        — a fired fault raises before anything is written, leaving the
        machine pending for the retry.
        """
        with self._lock:
            if self.epoch is None:
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
            self._token += 1
            lease = Lease(machine=machine, epoch=self.epoch,
                          worker=worker, token=self._token,
                          expires_at=self.clock.now() + self.lease_seconds,
                          shard=shard, stolen=stolen)
            record = {"op": "lease", "machine": machine,
                      "epoch": lease.epoch, "worker": worker,
                      "token": lease.token,
                      "expires_at": round(lease.expires_at, 6),
                      "shard": shard, "stolen": stolen}
            self._append(record)
            self._apply(record)
            metrics = global_metrics()
            metrics.incr("fleet.queue.leases")
            if stolen:
                metrics.incr("fleet.queue.steals")
            return lease

    def _pick(self, worker: int) -> Optional[Tuple[str, int, bool]]:
        """(machine, shard, stolen) for the next claim, or None."""
        own = worker % max(1, self._shard_count())
        queue = self._pending.get(own, [])
        if queue:
            return queue[0], own, False
        # Work stealing: the deepest backlog donates its head; ties go
        # to the lowest shard id so the choice is deterministic.
        candidates = [(len(queue), -shard) for shard, queue
                      in self._pending.items() if queue]
        if not candidates:
            return None
        __, negative_shard = max(candidates)
        shard = -negative_shard
        return self._pending[shard][0], shard, True

    def _shard_count(self) -> int:
        return max(self._shards.values(), default=0) + 1

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: push a live lease's expiry out by ``lease_seconds``."""
        with self._lock:
            self._check_live(lease, "renew")
            renewed = Lease(machine=lease.machine, epoch=lease.epoch,
                            worker=lease.worker, token=lease.token,
                            expires_at=self.clock.now() + self.lease_seconds,
                            shard=lease.shard, stolen=lease.stolen)
            record = {"op": "renew", "machine": lease.machine,
                      "token": lease.token,
                      "expires_at": round(renewed.expires_at, 6)}
            self._append(record)
            self._apply(record)
            global_metrics().incr("fleet.queue.renewals")
            return renewed

    def ack(self, lease: Lease, **payload) -> None:
        """Commit the leased machine as done — exactly once per epoch."""
        with self._lock:
            self._check_live(lease, "ack")
            record = {"op": "ack", "machine": lease.machine,
                      "epoch": lease.epoch, "token": lease.token,
                      **payload}
            self._append(record)
            self._apply(record)
            global_metrics().incr("fleet.queue.acks")

    def _check_live(self, lease: Lease, action: str) -> None:
        if lease.machine in self._acked:
            raise StaleLease(lease.machine, lease.token,
                             f"machine already acked this epoch; "
                             f"late {action} dropped")
        current = self._leases.get(lease.machine)
        if current is None or current.token != lease.token:
            raise StaleLease(lease.machine, lease.token,
                             f"lease superseded by "
                             f"#{current.token if current else '?'}; "
                             f"late {action} dropped")
        if self.clock.now() >= current.expires_at:
            raise StaleLease(lease.machine, lease.token,
                             f"lease expired at {current.expires_at:.1f}s "
                             f"(now {self.clock.now():.1f}s)")

    def expire_leases(self) -> List[str]:
        """Requeue every lease whose expiry has passed on the clock."""
        with self._lock:
            now = self.clock.now()
            expired = sorted(machine for machine, lease
                             in self._leases.items()
                             if now >= lease.expires_at)
            for machine in expired:
                record = {"op": "expire", "machine": machine,
                          "epoch": self.epoch,
                          "token": self._leases[machine].token}
                self._append(record)
                self._apply(record)
            if expired:
                global_metrics().incr("fleet.lease_expired", len(expired))
            return expired

    def next_expiry(self) -> Optional[float]:
        """The earliest live-lease deadline, or None with no leases out."""
        with self._lock:
            if not self._leases:
                return None
            return min(lease.expires_at for lease in self._leases.values())

    # -- inspection --------------------------------------------------------------

    def pending_count(self) -> int:
        with self._lock:
            return sum(len(queue) for queue in self._pending.values())

    def pending_machines(self) -> List[str]:
        with self._lock:
            return sorted(machine for queue in self._pending.values()
                          for machine in queue)

    def leased_machines(self) -> Dict[str, Lease]:
        with self._lock:
            return dict(self._leases)

    def acked_machines(self) -> Dict[str, dict]:
        with self._lock:
            return dict(self._acked)

    def epoch_drained(self) -> bool:
        """True when every rostered machine has been acked."""
        with self._lock:
            return (self.epoch is not None and not self.pending_count()
                    and not self._leases)

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
            lines: List[str] = []
            if self.epoch is not None:
                for machine in sorted(self._leases):
                    self._leases.pop(machine)
                    self._push_pending(machine)
                now = round(self.clock.now(), 6)
                lines.append(json.dumps(
                    {"op": "epoch-open", "epoch": self.epoch,
                     "machines": list(self._machines),
                     "shards": dict(self._shards), "at": now},
                    sort_keys=True))
                for machine, payload in sorted(self._acked.items()):
                    lines.append(json.dumps(
                        {"op": "ack", "machine": machine, **payload},
                        sort_keys=True))
            replace_journal(self.path, lines)
        global_metrics().incr("fleet.queue.compactions")
        return {"records_before": before, "records_after": len(lines)}
