r"""RIS network-boot automation (Section 5).

"In an enterprise environment, the CD boot can be replaced by a network
boot through the Remote Installation Service (RIS): upon a reboot, a
client machine contacts the RIS server to obtain a network boot loader,
which then performs the outside-the-box scan and diff."

:class:`RisServer` models the server side of one client's network boot:
the same outside-the-box scan as the WinPE CD boot
(:meth:`GhostBuster.outside_scan <repro.core.ghostbuster.GhostBuster.outside_scan>`),
with the CD replaced by a PXE boot that no operator has to attend.
Fleets reach it through the coordinator:
``EscalationPolicy(confirm_with="ris")`` confirms every flagged machine
with a network boot (see :mod:`repro.fleet.policy`).

Under a :class:`~repro.faults.plan.FaultPlan` the client draws at
``ris.transport`` twice — when it first contacts the server and when it
pulls the boot loader.  A timed-out exchange is retried with backoff
charged to the client's clock (:class:`~repro.faults.retry.RetryPolicy`).
A dropped exchange powers the client off and raises
:class:`~repro.errors.MachineUnavailable`; the coordinator records an
error verdict and boots the client again next epoch.
"""

from __future__ import annotations

from typing import Optional

from repro.core.diff import DetectionReport
from repro.core.ghostbuster import GhostBuster
from repro.core.noise import NoiseFilter
from repro.core.winpe import WinPEEnvironment
from repro.errors import MachineUnavailable
from repro.faults import context as faults_context
from repro.faults.plan import SITE_RIS_TRANSPORT, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.machine import Machine
from repro.telemetry import Telemetry
from repro.telemetry import context as telemetry_context

NETWORK_BOOT_SECONDS = 75.0   # PXE + loader download: faster than a CD
_TRANSPORT_RETRY = RetryPolicy()


def _transport(machine: Machine) -> None:
    """One RIS transport exchange.

    A timeout is retried; a drop powers the client off.
    """
    try:
        _TRANSPORT_RETRY.run(
            SITE_RIS_TRANSPORT,
            lambda: faults_context.maybe_inject(
                SITE_RIS_TRANSPORT, clock=machine.clock,
                scope=machine.name),
            clock=machine.clock)
    except MachineUnavailable:
        if machine.powered_on:
            machine.shutdown()
        raise


class _NetbootGhostBuster(GhostBuster):
    """The outside-the-box scan with the CD boot swapped for PXE."""

    def _clean_boot(self, report: DetectionReport) -> WinPEEnvironment:
        # Pulling the boot loader is itself a transport exchange.
        _transport(self.machine)
        seconds = NETWORK_BOOT_SECONDS / max(self.machine.perf.cpu_scale,
                                             0.8)
        self.machine.clock.advance(seconds)
        report.durations["network-boot"] = seconds
        environment = WinPEEnvironment(self.machine)
        environment.booted = True   # RIS delivered the clean environment
        return environment


class RisServer:
    """The Remote Installation Service scan orchestrator."""

    def __init__(self, noise_filter: Optional[NoiseFilter] = None,
                 fault_plan: Optional[FaultPlan] = None):
        self.noise_filter = noise_filter or NoiseFilter()
        self.fault_plan = fault_plan

    def network_boot_scan(self, machine: Machine,
                          resources=("files", "registry"),
                          background_gap: float = 0.0,
                          reboot_after: bool = True,
                          telemetry: Optional[Telemetry] = None
                          ) -> DetectionReport:
        """One client's outside-the-box scan via PXE network boot.

        Runs under a ``ris.netboot_scan`` span in ``telemetry`` — by
        default the bundle already active on this thread (a traced
        fleet epoch), so the scan's spans and audit events join it.
        """
        telemetry = (telemetry or telemetry_context.current()
                     or Telemetry.disabled())
        ghostbuster = _NetbootGhostBuster(machine,
                                          noise_filter=self.noise_filter,
                                          telemetry=telemetry,
                                          fault_plan=self.fault_plan)
        with telemetry.activate():
            with telemetry.tracer.span("ris.netboot_scan",
                                       clock=machine.clock,
                                       machine=machine.name):
                # The client contacts the RIS server before anything else.
                with ghostbuster._fault_scope():
                    _transport(machine)
                report = ghostbuster.outside_scan(
                    resources=resources, background_gap=background_gap,
                    reboot_after=reboot_after)
        report.mode = "ris-netboot"
        return report
