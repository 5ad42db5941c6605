"""Priority scheduling for continuous fleet epochs.

MIMOSA-style covering logic for the paper's enterprise proposal: with a
bounded scan budget per epoch, *which* machine should a worker boot
next?  The scheduler ranks the roster by a composite score:

* **staleness** — epochs since the machine last produced a verdict; a
  machine nobody has looked at in ten epochs outranks one verified last
  epoch (so the continuous service converges on full coverage instead
  of starving quiet shards);
* **risk** — prior detections, escalations that confirmed, and the
  sweep-level failure/quarantine history the
  :class:`~repro.faults.retry.CircuitBreaker` accumulated; a machine
  that was infected once is re-checked eagerly forever after;
* **cost (LPT)** — within a score tie, the historically slowest scan
  (from :class:`~repro.core.baseline.BaselineStore` timings) dispatches
  first — classic longest-processing-time list scheduling, the same
  rule the delta sweep uses, so slow machines never tail the epoch.

Machines are then dealt to *shards*: the shard index is a stable hash
of the machine name (never Python's randomized ``hash``), so the same
fleet maps to the same shards in every process, and a resumed
coordinator agrees with the dead one about who owned what.  Workers
serve their own shard and steal from the deepest backlog when it
drains (implemented by :class:`~repro.fleet.queue.WorkQueue`).
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

logger = logging.getLogger(__name__)

# Score = STALENESS_WEIGHT * staleness + RISK_WEIGHT * risk.
STALENESS_WEIGHT = 1.0
RISK_WEIGHT = 10.0
# A machine with no verdict at all is the stalest thing in the fleet: it
# beats any risk score so first contact happens fast.
NEVER_SCANNED_STALENESS = 1000.0


def stable_shard(machine: str, shards: int) -> int:
    """Deterministic shard index for a machine name.

    sha256-based so the assignment survives interpreter restarts and
    ``PYTHONHASHSEED`` — a resumed epoch must deal the same cards.
    """
    if shards <= 1:
        return 0
    digest = hashlib.sha256(machine.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class FleetHistory:
    """What past epochs taught us about each machine.

    Replayed from the epochs journal once, when a coordinator opens (see
    :func:`repro.fleet.scheduler.load_history`), then kept current by
    folding every record the coordinator appends through
    :meth:`note_record`; the scheduler only reads it.
    """

    last_epoch: Dict[str, int] = field(default_factory=dict)
    detections: Dict[str, int] = field(default_factory=dict)
    confirmations: Dict[str, int] = field(default_factory=dict)
    failures: Dict[str, int] = field(default_factory=dict)
    last_epoch_no: int = 0

    def note_verdict(self, epoch: int, machine: str, infected: bool,
                     confirmed: bool, errored: bool) -> None:
        self.last_epoch[machine] = epoch
        self.last_epoch_no = max(self.last_epoch_no, epoch)
        if infected:
            self.detections[machine] = self.detections.get(machine, 0) + 1
        if confirmed:
            self.confirmations[machine] = \
                self.confirmations.get(machine, 0) + 1
        if errored:
            self.failures[machine] = self.failures.get(machine, 0) + 1

    def note_record(self, record: Dict) -> None:
        """Fold one epochs-journal record; other record types are no-ops."""
        if record.get("type") == "fleet-machine":
            self.note_verdict(
                epoch=int(record.get("epoch", 0)),
                machine=record.get("machine", "?"),
                infected=record.get("verdict") == "infected",
                confirmed=bool(record.get("confirmed")),
                errored=record.get("error") is not None)
        elif record.get("type") == "epoch-end":
            self.last_epoch_no = max(self.last_epoch_no,
                                     int(record.get("epoch", 0)))


def recent_write_probe(machine, horizon_seconds: float = 3600.0,
                       roots: Sequence[str] = ("\\Windows",),
                       skip: Sequence[str] = (
                           "\\Windows\\Temp",
                           "\\Windows\\System32\\config")) -> bool:
    """Cheap triage: has anything under the system roots changed lately?

    A raw-volume mtime sweep — no process, no API chain, so no ghostware
    hook can filter it.  Fresh writes under ``\\Windows`` are how an
    infection *lands*.  The probe exists to measure the adversary
    counter-move: a timestamp cloak that backdates its artifacts drops
    the machine right back below the horizon, so the probe is a measured
    triage signal, never a verdict, and the scheduler does not read it.
    ``skip`` prunes known churn directories whose legitimate writes
    would drown the signal — ``Temp`` and the registry hives, which the
    OS flushes constantly.
    """
    now = machine.clock.now()
    volume = machine.volume
    skip_folded = tuple(prefix.casefold() for prefix in skip)
    for root in roots:
        if not volume.exists(root):
            continue
        for stat in volume.walk(root):
            if stat.is_directory:
                continue
            folded = stat.path.casefold()
            if any(folded.startswith(prefix) for prefix in skip_folded):
                continue
            if now - stat.modified <= horizon_seconds:
                return True
    return False


@dataclass(frozen=True)
class ScheduledMachine:
    """One roster entry with its computed priority components."""

    machine: str
    staleness: float
    risk: float
    cost: float
    score: float
    shard: int


class FleetScheduler:
    """Ranks a roster and deals it into shards for one epoch."""

    def __init__(self, shards: int = 1):
        self.shards = max(1, int(shards))

    def priority(self, machine: str, epoch: int,
                 history: FleetHistory,
                 scan_seconds: Optional[float] = None,
                 quarantined: bool = False) -> ScheduledMachine:
        last = history.last_epoch.get(machine)
        staleness = (NEVER_SCANNED_STALENESS if last is None
                     else float(epoch - last))
        risk = (history.detections.get(machine, 0)
                + 2.0 * history.confirmations.get(machine, 0)
                + history.failures.get(machine, 0))
        if quarantined:
            # The breaker gave up on this machine recently; whatever
            # was wrong deserves priority attention now that it gets
            # another chance.
            risk += 3.0
        score = STALENESS_WEIGHT * staleness + RISK_WEIGHT * risk
        cost = float("inf") if scan_seconds is None else float(scan_seconds)
        return ScheduledMachine(machine=machine, staleness=staleness,
                                risk=risk, cost=cost, score=score,
                                shard=stable_shard(machine, self.shards))

    def plan(self, machines: Sequence[str], epoch: int,
             history: FleetHistory,
             scan_seconds: Optional[Dict[str, float]] = None,
             quarantined: Sequence[str] = ()
             ) -> List[ScheduledMachine]:
        """The epoch's dispatch order: score desc, then LPT, then name.

        ``sorted`` is stable and every key component is deterministic,
        so two coordinators planning the same inputs emit the same
        order — which the queue then persists as the epoch roster.
        """
        timings = scan_seconds or {}
        quarantine_set = set(quarantined)
        ranked = [self.priority(machine, epoch, history,
                                scan_seconds=timings.get(machine),
                                quarantined=machine in quarantine_set)
                  for machine in machines]
        ranked.sort(key=lambda entry: (-entry.score,
                                       -entry.cost,
                                       entry.machine))
        return ranked

    def assignments(self, plan: Sequence[ScheduledMachine]
                    ) -> Dict[str, int]:
        """machine → shard, in dispatch-priority order (dict is ordered)."""
        return {entry.machine: entry.shard for entry in plan}


def load_history(path: str) -> FleetHistory:
    """Rebuild scheduler history from an epochs journal.

    A coordinator calls this when it opens and after retention compaction
    rewrites the journal, never per epoch.  Torn or half-written lines
    are skipped with a warning, like every other JSONL reader in the
    system — history is advisory, and losing one line costs at most one
    slightly-misranked machine.
    """
    from repro.telemetry.journal_io import iter_journal

    history = FleetHistory()
    for line in iter_journal(path):
        history.note_record(line.record)
    return history
