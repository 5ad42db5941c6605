"""Continuous fleet scan orchestration (the paper's Section 5 service).

The subsystem turns one-shot sweeps into a durable, resumable,
policy-driven service: a WAL-backed work queue with leases
(:mod:`repro.fleet.queue`), a staleness/risk/LPT scheduler
(:mod:`repro.fleet.scheduler`), an epoch coordinator that checkpoints
after every ack (:mod:`repro.fleet.coordinator`), a two-tier
inside→outside escalation policy (:mod:`repro.fleet.policy`), and a
streaming aggregator with outbreak detection
(:mod:`repro.fleet.aggregator`).

Distributed mode splits the coordinator across processes: a
:class:`~repro.fleet.controller.ScanController` serves the
coordinator's lease draw and checkpoint, in the coordinator's process,
while crash-tolerant :class:`~repro.fleet.agent.ScanAgent` processes
lease, scan, and ack over the wire protocol of
:mod:`repro.fleet.transport`.
"""

from repro.fleet.aggregator import (EpochSummary, FleetAggregator,
                                    MachineVerdict, OutbreakAlert)
from repro.fleet.agent import ScanAgent, run_agent_process
from repro.fleet.controller import (AGENT_ALIVE, AGENT_DEAD, AGENT_DONE,
                                    AGENT_FLAPPING, AgentSession,
                                    ScanController, fold_agent_records)
from repro.fleet.coordinator import (EPOCHS_FILE, FleetCoordinator,
                                     fleet_status)
from repro.fleet.policy import (CONFIRM_METHODS, CONFIRM_VMSCAN,
                                CONFIRM_WINPE, EscalationOutcome,
                                EscalationPolicy)
from repro.fleet.provision import clone_fleet, fleet_storage_stats
from repro.fleet.queue import QUEUE_FILE, Lease, WorkQueue
from repro.fleet.scanwork import (ScanOutcome, perform_machine_scan,
                                  skip_verdict)
from repro.fleet.scheduler import (FleetHistory, FleetScheduler,
                                   ScheduledMachine, load_history,
                                   stable_shard)
from repro.fleet.transport import (PROTOCOL_VERSION, FrameChannel,
                                   chaos_plan, new_secret)

__all__ = [
    "AGENT_ALIVE", "AGENT_DEAD", "AGENT_DONE", "AGENT_FLAPPING",
    "EPOCHS_FILE", "PROTOCOL_VERSION", "QUEUE_FILE",
    "CONFIRM_METHODS", "CONFIRM_VMSCAN", "CONFIRM_WINPE",
    "AgentSession", "EpochSummary", "EscalationOutcome",
    "EscalationPolicy", "FleetAggregator", "FleetCoordinator",
    "FleetHistory", "FleetScheduler", "FrameChannel", "Lease",
    "MachineVerdict", "OutbreakAlert", "ScanAgent", "ScanController",
    "ScanOutcome", "ScheduledMachine", "WorkQueue",
    "chaos_plan", "clone_fleet", "fleet_status", "fleet_storage_stats",
    "fold_agent_records", "load_history", "new_secret",
    "perform_machine_scan", "run_agent_process", "skip_verdict",
    "stable_shard",
]
