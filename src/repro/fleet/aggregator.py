"""Streaming fleet aggregation and outbreak detection.

One :class:`FleetAggregator` per epoch.  The coordinator feeds it one
:class:`MachineVerdict` per ack, so at any instant — including the
instant the coordinator dies — the summary on disk reflects exactly the
machines acked so far, and nothing has to re-walk the epoch to compute
it.

Outbreak detection lifts Section 5's per-machine mass-hiding anomaly to
the fleet axis: a single HackerDefender install on one box is an
incident, but the *same ghost identity* (``resource:identity`` finding
fingerprint) surfacing on ``outbreak_threshold`` machines in one epoch
is an outbreak — self-propagating ghostware or a compromised golden
image — and is flagged as a fleet-level anomaly the moment the K-th
machine acks, not at epoch end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.telemetry.metrics import global_metrics

DEFAULT_OUTBREAK_THRESHOLD = 3


@dataclass(frozen=True)
class MachineVerdict:
    """One machine's outcome within one epoch — the unit of checkpoint."""

    machine: str
    epoch: int
    verdict: str                    # "clean" | "infected" | "error"
    findings: int = 0
    noise: int = 0
    scanned: bool = False           # False → baseline rehydration (skip)
    skipped: bool = False
    escalated: bool = False
    confirmed: bool = False
    confirmed_by: Optional[str] = None
    baseline_id: Optional[str] = None
    scan_seconds: float = 0.0
    error: Optional[str] = None
    finding_ids: List[str] = field(default_factory=list)
    mass_hiding: bool = False
    # Sampled scanning (repro.workloads.sampling): whether this verdict
    # came from the cheap stratified pass, what share of the machine's
    # entities it actually cross-view checked, and whether a sampled
    # discrepancy is what bought the machine its full scan.
    sampled: bool = False
    coverage: float = 1.0
    sampling_escalated: bool = False
    # Fuzzy technique+layer fingerprints (repro.fleet.policy
    # .campaign_fingerprints): stable when an adversary rotates exact
    # identities across epochs, so cross-epoch campaign correlation
    # keys on these instead of finding_ids.
    campaign_fingerprints: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        # Field by field in declaration order: the same dict asdict()
        # builds, without its recursive deepcopy (this runs for every
        # journaled verdict and every distributed lease reply).
        return {"machine": self.machine, "epoch": self.epoch,
                "verdict": self.verdict, "findings": self.findings,
                "noise": self.noise, "scanned": self.scanned,
                "skipped": self.skipped, "escalated": self.escalated,
                "confirmed": self.confirmed,
                "confirmed_by": self.confirmed_by,
                "baseline_id": self.baseline_id,
                "scan_seconds": self.scan_seconds, "error": self.error,
                "finding_ids": list(self.finding_ids),
                "mass_hiding": self.mass_hiding, "sampled": self.sampled,
                "coverage": self.coverage,
                "sampling_escalated": self.sampling_escalated,
                "campaign_fingerprints": list(self.campaign_fingerprints),
                "type": "fleet-machine"}

    @classmethod
    def from_dict(cls, record: Dict) -> "MachineVerdict":
        return cls(machine=record["machine"],
                   epoch=int(record.get("epoch", 0)),
                   verdict=record.get("verdict", "error"),
                   findings=int(record.get("findings", 0)),
                   noise=int(record.get("noise", 0)),
                   scanned=bool(record.get("scanned")),
                   skipped=bool(record.get("skipped")),
                   escalated=bool(record.get("escalated")),
                   confirmed=bool(record.get("confirmed")),
                   confirmed_by=record.get("confirmed_by"),
                   baseline_id=record.get("baseline_id"),
                   scan_seconds=float(record.get("scan_seconds", 0.0)),
                   error=record.get("error"),
                   finding_ids=list(record.get("finding_ids", [])),
                   mass_hiding=bool(record.get("mass_hiding")),
                   sampled=bool(record.get("sampled")),
                   coverage=float(record.get("coverage", 1.0)),
                   sampling_escalated=bool(
                       record.get("sampling_escalated")),
                   campaign_fingerprints=list(
                       record.get("campaign_fingerprints", [])))


@dataclass(frozen=True)
class OutbreakAlert:
    """The same ghost fingerprint on too many machines in one epoch."""

    epoch: int
    identity: str                   # "resource:identity" fingerprint
    machines: List[str]
    threshold: int

    def describe(self) -> str:
        return (f"OUTBREAK epoch {self.epoch}: {self.identity!r} on "
                f"{len(self.machines)} machines "
                f"(threshold {self.threshold}): "
                + ", ".join(self.machines))

    def to_dict(self) -> Dict:
        return {"type": "fleet-outbreak", "epoch": self.epoch,
                "identity": self.identity, "machines": self.machines,
                "threshold": self.threshold}


@dataclass(frozen=True)
class CampaignAlert:
    """One underlying campaign tracked across epochs and rotations.

    The satellite fix for exact-identity outbreak alerting: an adversary
    that renames its artifacts every epoch presents a fresh
    ``finding_ids`` set each time, so per-identity alerts would fire
    once per rotation.  Campaign alerts key on the fuzzy fingerprint and
    fire exactly once per campaign, with the rotated identities listed
    as evidence.
    """

    fingerprint: str
    first_epoch: int
    epoch: int                      # epoch the threshold was crossed
    machines: List[str]
    identities: List[str]           # exact rotated identities subsumed
    threshold: int

    def describe(self) -> str:
        return (f"CAMPAIGN {self.fingerprint!r}: "
                f"{len(self.machines)} machines since epoch "
                f"{self.first_epoch} ({len(self.identities)} rotated "
                f"identities, threshold {self.threshold}): "
                + ", ".join(self.machines))

    def to_dict(self) -> Dict:
        return {"type": "fleet-campaign", "fingerprint": self.fingerprint,
                "first_epoch": self.first_epoch, "epoch": self.epoch,
                "machines": self.machines, "identities": self.identities,
                "threshold": self.threshold}


class CampaignTracker:
    """Cross-epoch, rotation-tolerant campaign correlation.

    Unlike the per-epoch :class:`FleetAggregator` this object lives for
    the coordinator's lifetime; on resume it is rebuilt by re-folding
    the journal (verdicts first, then already-journaled campaign records
    to suppress duplicate alerts).
    """

    def __init__(self, threshold: int = DEFAULT_OUTBREAK_THRESHOLD):
        self.threshold = max(2, int(threshold))
        self._machines: Dict[str, List[str]] = {}    # fp → machines
        self._identities: Dict[str, List[str]] = {}  # fp → exact ids
        self._first_epoch: Dict[str, int] = {}
        self._alerted: Dict[str, CampaignAlert] = {}

    def mark_alerted(self, record: Dict) -> None:
        """Re-fold a journaled fleet-campaign record (resume path)."""
        fingerprint = record["fingerprint"]
        self._alerted.setdefault(fingerprint, CampaignAlert(
            fingerprint=fingerprint,
            first_epoch=int(record.get("first_epoch", 0)),
            epoch=int(record.get("epoch", 0)),
            machines=list(record.get("machines", [])),
            identities=list(record.get("identities", [])),
            threshold=int(record.get("threshold", self.threshold))))

    def observe(self, verdict: MachineVerdict) -> List["CampaignAlert"]:
        """Fold one verdict; returns campaigns it just pushed over K."""
        fresh: List[CampaignAlert] = []
        for fingerprint in verdict.campaign_fingerprints:
            machines = self._machines.setdefault(fingerprint, [])
            if verdict.machine not in machines:
                machines.append(verdict.machine)
            identities = self._identities.setdefault(fingerprint, [])
            for identity in verdict.finding_ids:
                if identity not in identities:
                    identities.append(identity)
            self._first_epoch.setdefault(fingerprint, verdict.epoch)
            if (len(machines) >= self.threshold
                    and fingerprint not in self._alerted):
                alert = CampaignAlert(
                    fingerprint=fingerprint,
                    first_epoch=self._first_epoch[fingerprint],
                    epoch=verdict.epoch,
                    machines=sorted(machines),
                    identities=sorted(identities),
                    threshold=self.threshold)
                self._alerted[fingerprint] = alert
                global_metrics().incr("fleet.campaigns")
                fresh.append(alert)
        return fresh

    def campaigns(self) -> List[CampaignAlert]:
        return [self._alerted[fp] for fp in sorted(self._alerted)]


@dataclass
class EpochSummary:
    """Fleet-level rollup of one epoch, updated per ack."""

    epoch: int
    machines: int = 0
    scanned: int = 0
    skipped: int = 0
    infected: int = 0
    clean: int = 0
    errors: int = 0
    escalated: int = 0
    confirmed: int = 0
    mass_hiding: int = 0
    outbreaks: int = 0
    scan_seconds: float = 0.0
    # Acks that arrived after their lease expired or was superseded.
    # Each one means a machine was scanned more than once this epoch —
    # wasted work worth alarming on, even though the verdict that
    # landed is still correct (last valid lease wins).
    late_acks: int = 0
    # Sampled scanning: how many verdicts came from the cheap pass, how
    # many machines a sampled discrepancy escalated to a full scan, and
    # the coverage-weighted recall estimate (mean share of entities
    # cross-view checked per machine; error verdicts count as 0).
    sampled: int = 0
    sampling_escalations: int = 0
    estimated_recall: float = 1.0

    def to_dict(self) -> Dict:
        record = asdict(self)
        record["type"] = "epoch-summary"
        record["scan_seconds"] = round(record["scan_seconds"], 6)
        return record


class FleetAggregator:
    """Folds per-machine verdicts into a live epoch summary."""

    def __init__(self, epoch: int,
                 outbreak_threshold: int = DEFAULT_OUTBREAK_THRESHOLD):
        self.summary = EpochSummary(epoch=epoch)
        self.outbreak_threshold = max(2, int(outbreak_threshold))
        # identity → sorted machine set; alerts fire once per identity,
        # the moment membership crosses the threshold.
        self._sightings: Dict[str, List[str]] = {}
        self._alerted: Dict[str, OutbreakAlert] = {}
        self.verdicts: List[MachineVerdict] = []
        self._coverage_sum = 0.0

    def observe(self, verdict: MachineVerdict) -> List[OutbreakAlert]:
        """Fold one verdict in; returns any outbreaks it just triggered."""
        self.verdicts.append(verdict)
        summary = self.summary
        summary.machines += 1
        summary.scan_seconds += verdict.scan_seconds
        if verdict.scanned:
            summary.scanned += 1
        if verdict.skipped:
            summary.skipped += 1
        if verdict.verdict == "infected":
            summary.infected += 1
        elif verdict.verdict == "clean":
            summary.clean += 1
        else:
            summary.errors += 1
        if verdict.escalated:
            summary.escalated += 1
        if verdict.confirmed:
            summary.confirmed += 1
        if verdict.mass_hiding:
            summary.mass_hiding += 1
        if verdict.sampled:
            summary.sampled += 1
        if verdict.sampling_escalated:
            summary.sampling_escalations += 1
        # An errored machine contributed no evidence at all, so it
        # drags the epoch's estimated recall down rather than hiding
        # behind its default coverage of 1.0.
        self._coverage_sum += (0.0 if verdict.verdict == "error"
                               else verdict.coverage)
        summary.estimated_recall = round(
            self._coverage_sum / summary.machines, 6)

        fresh: List[OutbreakAlert] = []
        for identity in verdict.finding_ids:
            machines = self._sightings.setdefault(identity, [])
            if verdict.machine not in machines:
                machines.append(verdict.machine)
            if (len(machines) >= self.outbreak_threshold
                    and identity not in self._alerted):
                alert = OutbreakAlert(epoch=verdict.epoch,
                                      identity=identity,
                                      machines=sorted(machines),
                                      threshold=self.outbreak_threshold)
                self._alerted[identity] = alert
                summary.outbreaks += 1
                global_metrics().incr("fleet.outbreaks")
                fresh.append(alert)
        return fresh

    def outbreaks(self) -> List[OutbreakAlert]:
        return [self._alerted[identity]
                for identity in sorted(self._alerted)]

    def infected_machines(self) -> List[str]:
        return sorted(v.machine for v in self.verdicts
                      if v.verdict == "infected")
