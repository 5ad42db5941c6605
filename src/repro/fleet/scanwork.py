"""The per-machine scan body, shared by coordinator workers and agents.

One epoch's unit of work is the same whether it runs on a thread inside
the coordinator process or inside a remote scan agent: boot if needed,
run the cross-view inside scan, escalate the machines the
:class:`~repro.fleet.policy.EscalationPolicy` picks, and capture
the disk generation *after* the scans: the escalation's reboot writes
the disk, so a generation captured before the scans would never match
the disk again and a confirmed machine would be rescanned every epoch
instead of skipping on its stored verdict.

Extracting the body here is what makes the distributed mode's
element-identical-verdicts guarantee checkable: the agent executes
byte-for-byte the same scan sequence the in-process worker would, with
the same :class:`ScanSettings` (the coordinator's one copy, which a
forked agent inherits).  Because fault streams are seeded per
``(site, machine)`` — independent of which process draws them — a
machine's first scan in a process draws the same faults wherever it
runs, so a machine scanned by agent 3 after a kill -9 produces the
same verdict the uninterrupted single-process sweep records.  The
position in each stream lives in the process's own copy of the plan:
the single-process plan carries it on across epochs, while a machine
that moves to another (or a respawned) agent starts again at draw
zero, so later epochs under a fault plan can differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.anomaly import check_mass_hiding
from repro.core.baseline import MachineBaseline
from repro.core.diff import DetectionReport
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.faults.plan import FaultPlan
from repro.fleet.aggregator import MachineVerdict
from repro.fleet.policy import (EscalationPolicy, campaign_fingerprints,
                                finding_ids)
from repro.machine import Machine
from repro.telemetry import context as telemetry_context

if TYPE_CHECKING:
    from repro.workloads.sampling import SamplingPolicy


@dataclass(frozen=True)
class ScanSettings:
    """Everything a worker scans with, owned by the coordinator.

    The coordinator builds the one copy from its own arguments and every
    worker scans with it: the in-process drain directly, a forked agent
    through the fork (inherited, never pickled or re-described), so
    what a scan is configured with never depends on the process model.
    """

    policy: EscalationPolicy = field(default_factory=EscalationPolicy)
    noise_filter: NoiseFilter = field(default_factory=NoiseFilter)
    resources: Tuple[str, ...] = ("files", "registry")
    fault_plan: Optional[FaultPlan] = None
    # The sample tier's cheap stratified pass (repro.workloads.sampling).
    sampling: Optional["SamplingPolicy"] = None
    # Scan-until-stable and the stealth counter-moves (docs/adversary.md).
    stabilize_rounds: int = 1
    flag_unstable: bool = False
    scan_order_jitter: Optional[int] = None


@dataclass
class ScanOutcome:
    """Everything one fresh scan produced, before the checkpoint.

    The caller owns the checkpoint: the coordinator's worker loop hands
    the outcome to ``FleetCoordinator._checkpoint`` directly, while an
    agent ships it over the wire and the controller hands it to the
    same checkpoint — either way the write order (put → journal → ack)
    is enforced in exactly one process.
    """

    report: DetectionReport
    scan_seconds: float
    disk_generation: int
    escalated: bool
    confirmed: bool
    confirmed_by: Optional[str]
    finding_ids: List[str] = field(default_factory=list)
    mass_hiding: bool = False
    sampled: bool = False
    coverage: float = 1.0
    sampling_escalated: bool = False
    # Fuzzy technique+layer fingerprints (rotation-stable); derived from
    # the report, so baseline riders need not store them.
    campaign_fingerprints: List[str] = field(default_factory=list)

    def extra(self, epoch: int) -> Dict:
        """The baseline rider that lets a later skip rehydrate verdicts."""
        return {"escalated": self.escalated, "confirmed": self.confirmed,
                "confirmed_by": self.confirmed_by,
                "finding_ids": list(self.finding_ids),
                "mass_hiding": self.mass_hiding, "epoch": epoch,
                "sampled": self.sampled, "coverage": self.coverage,
                "sampling_escalated": self.sampling_escalated}

    def verdict(self, machine: str, epoch: int) -> MachineVerdict:
        """The scan's verdict; the checkpoint sets its baseline id."""
        report = self.report
        return MachineVerdict(
            machine=machine, epoch=epoch,
            verdict="clean" if report.is_clean else "infected",
            findings=sum(1 for f in report.findings if not f.is_noise),
            noise=sum(1 for f in report.findings if f.is_noise),
            scanned=True, skipped=False,
            escalated=self.escalated, confirmed=self.confirmed,
            confirmed_by=self.confirmed_by,
            scan_seconds=self.scan_seconds,
            finding_ids=list(self.finding_ids),
            mass_hiding=self.mass_hiding,
            sampled=self.sampled, coverage=self.coverage,
            sampling_escalated=self.sampling_escalated,
            campaign_fingerprints=list(self.campaign_fingerprints))


def perform_machine_scan(machine: Machine, epoch: int,
                         settings: ScanSettings,
                         span_clock=None) -> ScanOutcome:
    """Boot-if-needed, inside scan, optional escalation; no writes.

    ``span_clock`` picks which clock the telemetry span charges (the
    coordinator passes the fleet clock; an agent has only the
    machine's own).  The confirmation runs under the scan's own noise
    filter and fault plan.
    """
    if not machine.powered_on:
        machine.boot()
    stopwatch = machine.clock.stopwatch()
    with telemetry_context.current_tracer().span(
            "fleet.scan", clock=span_clock or machine.clock,
            machine=machine.name, epoch=epoch):
        report = GhostBuster(machine, advanced=True,
                             noise_filter=settings.noise_filter,
                             fault_plan=settings.fault_plan,
                             stabilize_rounds=settings.stabilize_rounds,
                             flag_unstable=settings.flag_unstable,
                             scan_order_jitter=settings.scan_order_jitter
                             ).inside_scan(resources=settings.resources)
    escalated = confirmed = False
    confirmed_by = None
    policy = settings.policy
    if policy.should_escalate(report):
        outcome = policy.confirm(machine, report, settings.noise_filter,
                                 settings.fault_plan)
        escalated = True
        confirmed = outcome.confirmed
        confirmed_by = outcome.confirmed_by
        if confirmed and report.is_clean:
            # Only the RIS sweep boots a clean machine: the inside view
            # was blinded, so the outside report carries the verdict.
            report = outcome.outside_report
    # Generation is captured *after* the scans; see module docstring.
    scan_seconds = stopwatch.elapsed()
    return ScanOutcome(report=report, scan_seconds=scan_seconds,
                       disk_generation=machine.disk.generation,
                       escalated=escalated, confirmed=confirmed,
                       confirmed_by=confirmed_by,
                       finding_ids=finding_ids(report),
                       mass_hiding=check_mass_hiding(report) is not None,
                       campaign_fingerprints=campaign_fingerprints(report))


def perform_sampled_machine_scan(machine: Machine, epoch: int,
                                 settings: ScanSettings,
                                 span_clock=None) -> ScanOutcome:
    """The cheap stratified pass, escalating discrepancies to a full scan.

    A clean sampled pass yields a sampled verdict carrying its honest
    coverage; any non-noise discrepancy buys the machine the exact same
    full scan body the full tier runs (plus the
    :class:`EscalationPolicy`), with the sampled pass's scan-seconds
    added on top — escalation is never cheaper than having scanned
    fully in the first place.
    """
    # Lazy: repro.workloads imports repro.fleet (traces drive the
    # coordinator), so the fleet layer must never import workloads at
    # module scope.
    from repro.workloads.sampling import perform_sampled_scan

    sampled = perform_sampled_scan(machine, epoch, settings.sampling,
                                   noise_filter=settings.noise_filter,
                                   resources=settings.resources,
                                   fault_plan=settings.fault_plan,
                                   span_clock=span_clock)
    if sampled.escalate:
        full = perform_machine_scan(machine, epoch, settings,
                                    span_clock=span_clock)
        return replace(full,
                       scan_seconds=full.scan_seconds + sampled.scan_seconds,
                       sampling_escalated=True)
    return ScanOutcome(report=sampled.report,
                       scan_seconds=sampled.scan_seconds,
                       disk_generation=machine.disk.generation,
                       escalated=False, confirmed=False, confirmed_by=None,
                       finding_ids=[], mass_hiding=False,
                       sampled=True, coverage=sampled.coverage)


def skip_verdict(baseline: MachineBaseline, epoch: int) -> MachineVerdict:
    """Rehydrate a stored verdict for a generation-matched machine."""
    report = baseline.rehydrate(mode="fleet-skip")
    extra = baseline.extra
    return MachineVerdict(
        machine=baseline.machine, epoch=epoch,
        verdict="clean" if report.is_clean else "infected",
        findings=sum(1 for f in report.findings if not f.is_noise),
        noise=sum(1 for f in report.findings if f.is_noise),
        scanned=False, skipped=True,
        escalated=bool(extra.get("escalated")),
        confirmed=bool(extra.get("confirmed")),
        confirmed_by=extra.get("confirmed_by"),
        baseline_id=baseline.baseline_id,
        scan_seconds=0.0,
        finding_ids=list(extra.get("finding_ids", [])),
        mass_hiding=bool(extra.get("mass_hiding")),
        sampled=bool(extra.get("sampled")),
        coverage=float(extra.get("coverage", 1.0)),
        sampling_escalated=bool(extra.get("sampling_escalated")),
        campaign_fingerprints=campaign_fingerprints(report))
