"""Workloads: machine profiles, populations, and false-positive sources.

These modules recreate the paper's experimental conditions — the 8 test
machines (Section 2's timing spread), realistic file/registry populations,
the always-running services whose churn causes the outside-the-box false
positives, and a signature scanner for the Section-5 eTrust dilemma.
"""

from repro.workloads.machines import (MachineProfile, PAPER_MACHINES,
                                      build_machine)
from repro.workloads.population import populate_machine, PopulationStats
from repro.workloads.background import (AntiVirusRealtimeService,
                                        BackgroundService, BrowserTempService,
                                        CcmService, PrefetchService,
                                        SystemRestoreService,
                                        attach_standard_services)
from repro.workloads.signatures import SignatureScanner, KNOWN_SIGNATURES
from repro.workloads.scenarios import (Scenario, build_fleet, build_home_pc,
                                       build_kitchen_sink, infect)
from repro.workloads.fleetgen import (FleetProfile, FleetWorkload,
                                      InfectionWave, STRAINS,
                                      apply_infections, apply_ops,
                                      apply_stealth,
                                      build_profiled_machine)
from repro.workloads.sampling import SamplingPolicy
from repro.workloads.traces import (TraceResult, journal_digest, load_trace,
                                    record_sweep, replay_sweep, trace_digest,
                                    verdict_key)

__all__ = [
    "MachineProfile", "PAPER_MACHINES", "build_machine",
    "populate_machine", "PopulationStats",
    "BackgroundService", "AntiVirusRealtimeService", "CcmService",
    "SystemRestoreService", "PrefetchService", "BrowserTempService",
    "attach_standard_services",
    "SignatureScanner", "KNOWN_SIGNATURES",
    "Scenario", "build_home_pc", "build_kitchen_sink", "build_fleet",
    "infect",
    "FleetProfile", "FleetWorkload", "InfectionWave", "STRAINS",
    "apply_ops", "apply_infections", "apply_stealth",
    "build_profiled_machine",
    "SamplingPolicy",
    "TraceResult", "record_sweep", "replay_sweep", "load_trace",
    "trace_digest", "journal_digest", "verdict_key",
]
