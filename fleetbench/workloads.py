"""The four seeded fleetgen workloads the benchmark runs.

Every workload drives the production :class:`FleetCoordinator` with the
settings ``repro sweep --epochs`` uses — 2 workers (or 2 agents),
``compact_every=4``, the console index on and the default 300 s lease —
as a closed loop: one process runs its epochs back to back.  The
``--seed`` argument becomes the :class:`FleetProfile` seed; the program
only ever sees the generated machines and epoch events.

Why each workload exists, which layers it loads and which it bypasses
is recorded in ``design.json`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Callable[[int], object]
    epochs: int
    coordinator_kwargs: Callable[[], Dict] = field(default=dict)
    # distributed_sweep: apply this many epochs of events before the
    # agents fork, then run every epoch over the wire.
    distributed: bool = False
    events_before_fork: int = 0
    # Exact repeat of scan/skip/late-ack/confirmation counts across
    # repetitions of one seed (single-process only: distributed work
    # stealing may rebuild a machine on the other agent).
    exact_counts: bool = True


def _churn_profile(seed: int):
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="churn", size=60, seed=seed,
        file_count=(240, 340), virtual_files=(80_000, 200_000),
        registry_kb=(40, 80), churn_files=(2, 5), churn_registry=(0, 1),
        disk_mb=64, max_records=1024,
        waves=(InfectionWave("hackerdefender", onset_epoch=2, initial=2,
                             spread=0.5),))


def _steady_profile(seed: int):
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="steady", size=200, seed=seed,
        file_count=(30, 60), virtual_files=(20_000, 60_000),
        registry_kb=(40, 80), churn_files=(0, 0), churn_registry=(0, 0),
        disk_mb=32, max_records=1024,
        waves=(InfectionWave("urbin", onset_epoch=1, initial=3,
                             spread=0.0),))


def _stealth_profile(seed: int):
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="adv", size=60, seed=seed,
        file_count=(40, 80), virtual_files=(2_000, 8_000),
        registry_kb=(40, 80), churn_files=(1, 3), churn_registry=(0, 1),
        disk_mb=32, max_records=1024,
        waves=(InfectionWave("urbin", onset_epoch=1, initial=4, spread=0.5,
                             level="high"),
               InfectionWave("hackerdefender", onset_epoch=2, initial=2,
                             spread=0.4, level="high", conceal_budget=2)))


def _no_escalation() -> Dict:
    # `repro sweep --epochs` escalates only when --escalate is given.
    from repro.fleet import EscalationPolicy

    return {"policy": EscalationPolicy(escalate=False)}


def _defended() -> Dict:
    from repro.fleet import EscalationPolicy

    return {"policy": EscalationPolicy(confirm_with="winpe"),
            "stabilize_rounds": 2, "flag_unstable": True,
            "scan_order_jitter": 11}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("churn_sweep", _churn_profile, epochs=8,
                 coordinator_kwargs=_no_escalation),
        Workload("steady_fleet", _steady_profile, epochs=24,
                 coordinator_kwargs=_no_escalation),
        Workload("stealth_defended", _stealth_profile, epochs=5,
                 coordinator_kwargs=_defended),
        Workload("distributed_sweep", _churn_profile, epochs=12,
                 coordinator_kwargs=_no_escalation, distributed=True,
                 events_before_fork=2, exact_counts=False),
    )
}
