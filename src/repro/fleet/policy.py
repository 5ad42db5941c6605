r"""Two-tier scan policy: cheap inside scans, escalated confirmation.

Section 5's enterprise cost model in code.  The steady state is the
cheapest scan that can possibly clear a machine: if its disk generation
still matches the stored baseline the verdict is *rehydrated* without
touching the box, and otherwise a (delta, cache-repaired) inside-the-box
scan runs.  Only a machine whose inside scan shows findings pays for
the expensive second tier — an outside-the-box confirmation pass over
the resources the inside scan covered, via the WinPE clean boot
(``confirmed_by="winpe"``) or the powered-down virtual-disk scan
(``confirmed_by="vmscan"``).  A clean machine never reboots, which is
exactly the paper's "run the inside scan frequently, the outside scan
on demand" deployment shape.

The RIS network boot that replaces the CD in an enterprise
(``confirmed_by="ris"``) needs nobody at the console, so with it every
machine the epoch scans is booted from outside — a fleet-wide
outside-the-box sweep.  That is the only tier that sees ghostware which
blinds the inside scan itself (ablation A3): a clean inside report
whose network boot finds hidden resources becomes the machine's
verdict-bearing report.

The confirmation verdict carries provenance: the escalated report is
stamped with ``confirmed_by`` so a fleet operator can distinguish
"the inside scan said so" from "a clean boot agreed".  An escalation
whose outside pass comes back clean is *unconfirmed* — the inside
finding was noise, a race, or ghostware tampering with the raw scan
path (itself diagnostic), and the machine stays flagged for the next
epoch rather than silently cleared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.diff import DetectionReport
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.core.risboot import RisServer
from repro.core.vmscan import vm_outside_scan
from repro.errors import FleetError
from repro.faults.plan import FaultPlan
from repro.machine import Machine
from repro.telemetry import context as telemetry_context
from repro.telemetry.metrics import global_metrics

CONFIRM_WINPE = "winpe"
CONFIRM_VMSCAN = "vmscan"
CONFIRM_RIS = "ris"
CONFIRM_METHODS = (CONFIRM_WINPE, CONFIRM_VMSCAN, CONFIRM_RIS)


@dataclass
class EscalationOutcome:
    """What the second tier said about one flagged machine."""

    escalated: bool = False
    confirmed: bool = False
    confirmed_by: Optional[str] = None
    outside_findings: int = 0
    outside_report: Optional[DetectionReport] = None
    finding_ids: List[str] = field(default_factory=list)


def finding_ids(report: DetectionReport) -> List[str]:
    """Canonical non-noise finding identities, sorted — the ghost's
    fleet-wide fingerprint (what outbreak detection correlates on)."""
    return sorted(f"{f.resource_type.value}:{f.entry.identity}"
                  for f in report.findings if not f.is_noise)


def campaign_fingerprint(finding) -> Optional[str]:
    """Fuzzy technique+layer fingerprint, stable under identity rotation.

    Exact identities break the moment an adversary renames its artifacts
    each epoch; what rotation *cannot* cheaply change is where in the
    namespace the technique plants things.  Files collapse to
    parent-directory + extension, registry hooks to their ASEP location
    (masking the rotating final segment under ``Services``), processes
    to their name, modules to their file name.  Collisions between
    same-directory strains are acceptable — this keys cross-epoch
    *campaign* correlation, not per-epoch exact outbreak counting.
    """
    from repro.core.snapshot import ResourceType
    entry = finding.entry
    if finding.resource_type is ResourceType.FILE:
        parent, __, name = entry.path.rpartition("\\")
        ext = name.rsplit(".", 1)[-1] if "." in name else ""
        return f"file:{parent.casefold()}\\*.{ext.casefold()}"
    if finding.resource_type is ResourceType.REGISTRY:
        location, key_path = entry.location, str(entry.key_path)
        folded = key_path.casefold()
        if folded.endswith("\\services") or "\\services\\" in folded:
            head = folded.split("\\services")[0]
            return f"registry:{location}:{head}\\services\\*"
        return f"registry:{location}:{folded}"
    if finding.resource_type is ResourceType.PROCESS:
        return f"process:{entry.name.casefold()}"
    if finding.resource_type is ResourceType.MODULE:
        path = getattr(entry, "module_path", getattr(entry, "path", ""))
        return f"module:{str(path).rsplit(chr(92), 1)[-1].casefold()}"
    return None


def campaign_fingerprints(report: DetectionReport) -> List[str]:
    """Sorted unique fuzzy fingerprints of a report's non-noise findings."""
    prints = {campaign_fingerprint(f)
              for f in report.findings if not f.is_noise}
    prints.discard(None)
    return sorted(prints)


class EscalationPolicy:
    """Decides when and how a machine pays for the outside-the-box tier."""

    def __init__(self, confirm_with: str = CONFIRM_WINPE,
                 escalate: bool = True):
        if confirm_with not in CONFIRM_METHODS:
            raise FleetError(
                f"unknown confirmation method {confirm_with!r}; "
                f"expected one of {CONFIRM_METHODS}")
        self.confirm_with = confirm_with
        self.escalate = escalate

    def should_escalate(self, report: DetectionReport) -> bool:
        """Any non-noise inside finding buys a confirmation boot; with
        ``ris`` every scanned machine is network-booted."""
        return self.escalate and (self.confirm_with == CONFIRM_RIS
                                  or not report.is_clean)

    def confirm(self, machine: Machine, inside_report: DetectionReport,
                noise_filter: Optional[NoiseFilter],
                fault_plan: Optional[FaultPlan],
                resources: Sequence[str]) -> EscalationOutcome:
        """Run the outside-the-box pass and stamp the provenance.

        The pass scans the inside scan's own ``resources`` under its
        own ``noise_filter`` and ``fault_plan``: the policy decides only
        whether and how a machine is confirmed.  Every method scans
        with ``advanced=True``, so a DKOM-hidden process the inside
        scan found is in the crash dump's thread-table walk too.  The
        outcome's ``confirmed_by`` is also attached to the outside
        report (``report.confirmed_by``) so the verdict document itself
        carries the provenance, not just the epoch record.
        """
        metrics = global_metrics()
        metrics.incr("fleet.escalations")
        with telemetry_context.current_tracer().span(
                "fleet.escalate", clock=machine.clock,
                machine=machine.name, method=self.confirm_with):
            if self.confirm_with == CONFIRM_WINPE:
                outside = GhostBuster(
                    machine, advanced=True, noise_filter=noise_filter,
                    fault_plan=fault_plan).outside_scan(resources=resources)
            elif self.confirm_with == CONFIRM_RIS:
                outside = RisServer(
                    noise_filter, fault_plan).network_boot_scan(
                        machine, resources=resources)
            else:
                outside = vm_outside_scan(
                    machine, resources=resources,
                    noise_filter=noise_filter, fault_plan=fault_plan)
        confirmed = not outside.is_clean
        outside.confirmed_by = self.confirm_with
        if confirmed:
            metrics.incr("fleet.escalations.confirmed")
        else:
            metrics.incr("fleet.escalations.unconfirmed")
        return EscalationOutcome(
            escalated=True, confirmed=confirmed,
            confirmed_by=self.confirm_with if confirmed else None,
            outside_findings=sum(1 for f in outside.findings
                                 if not f.is_noise),
            outside_report=outside,
            finding_ids=finding_ids(outside))
