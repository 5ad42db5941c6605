"""Which calls the traced run wraps, and the per-layer metrics they give.

:data:`FUNCTIONS` and :data:`METHODS` name every layer boundary the
ledger times.  Module functions are patched at every ``repro`` binding
(see :meth:`tracer.LayerTracer.patch_function`) — the coordinator
imports ``append_journal``, ``iter_journal``, ``load_history``,
``skip_verdict`` and ``perform_machine_scan`` by name, and the
ghostbuster imports ``cross_view_diff`` by name.  Methods are patched on
their class, which every caller shares.

:func:`layer_metrics` turns one traced repetition's spans, counts and
program counters into the ``per_layer`` metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
from typing import Dict, List, Tuple

from tracer import LayerTracer


def _events(args, kwargs, result) -> Dict[str, float]:
    return {"workloads.events": float(
        len(result.get("ops", ())) + len(result.get("infections", ()))
        + len(result.get("stealth", ())))}


def _leases(args, kwargs, result) -> Dict[str, float]:
    return {"queue.leases": 1.0} if result is not None else {}


def _appends(args, kwargs, result) -> Dict[str, float]:
    return {"journal.appends": 1.0}


def _diff_entries(args, kwargs, result) -> Dict[str, float]:
    lie, truth = args[0], args[1]
    return {"diff.entries": float(len(lie) + len(truth))}


def _confirms(args, kwargs, result) -> Dict[str, float]:
    return {"policy.confirms": 1.0,
            "policy.confirmed": 1.0 if result.confirmed else 0.0}


def _frame_sent(args, kwargs, result) -> Dict[str, float]:
    # Re-encodes the message (the frame itself never leaves send());
    # only the traced run pays for it.
    payload = json.dumps(args[1], sort_keys=True)
    return {"transport.frames": 1.0, "transport.bytes": float(len(payload) + 4)}


def _frame_received(args, kwargs, result) -> Dict[str, float]:
    return {"transport.frames": 1.0}


def _bytes_read(args, kwargs, result) -> Dict[str, float]:
    return {"transport.bytes": float(len(result))}


# (module, function, span, count, is_generator)
FUNCTIONS: List[Tuple[str, str, str, object, bool]] = [
    ("repro.fleet.scheduler", "load_history", "scheduler.load_history",
     None, False),
    ("repro.core.costmodel", "estimate_scan_seconds", "costmodel.estimate",
     None, False),
    ("repro.telemetry.journal_io", "append_journal", "journal.append",
     _appends, False),
    ("repro.telemetry.journal_io", "iter_journal", "journal.iter",
     None, True),
    ("repro.fleet.scanwork", "perform_machine_scan", "scanwork.scan",
     None, False),
    ("repro.fleet.scanwork", "skip_verdict", "scanwork.skip", None, False),
    ("repro.core.diff", "cross_view_diff", "diff", _diff_entries, False),
    ("repro.core.scanners.files", "high_level_file_scan",
     "files.high_level", None, False),
    ("repro.core.scanners.files", "low_level_file_scan",
     "files.low_level", None, False),
    ("repro.core.scanners.files", "outside_file_scan", "files.outside",
     None, False),
    ("repro.core.scanners.registry", "high_level_asep_scan",
     "registry.high_level", None, False),
    ("repro.core.scanners.registry", "low_level_asep_scan",
     "registry.low_level", None, False),
    ("repro.core.scanners.registry", "outside_asep_scan",
     "registry.outside", None, False),
]

# (module, class, method, span, count)
METHODS: List[Tuple[str, str, str, str, object]] = [
    ("repro.workloads.fleetgen", "FleetWorkload", "apply_epoch",
     "workloads.apply_epoch", _events),
    ("repro.fleet.coordinator", "FleetCoordinator", "__init__",
     "coordinator.open", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "run_epoch",
     "fleet.epoch", None),
    ("repro.fleet.coordinator", "FleetCoordinator", "run_distributed",
     "fleet.run_distributed", None),
    ("repro.fleet.scheduler", "FleetScheduler", "plan", "scheduler.plan",
     None),
    ("repro.fleet.queue", "WorkQueue", "lease", "queue.lease", _leases),
    ("repro.fleet.queue", "WorkQueue", "ack", "queue.ack", None),
    ("repro.fleet.queue", "WorkQueue", "open_epoch", "queue.open_close",
     None),
    ("repro.fleet.queue", "WorkQueue", "close_epoch", "queue.open_close",
     None),
    ("repro.fleet.queue", "WorkQueue", "expire_leases", "queue.expire",
     None),
    ("repro.fleet.queue", "WorkQueue", "requeue", "queue.expire", None),
    ("repro.fleet.queue", "WorkQueue", "compact", "queue.compact", None),
    ("repro.core.baseline", "BaselineStore", "get", "baseline.get", None),
    ("repro.core.baseline", "BaselineStore", "scan_seconds", "baseline.get",
     None),
    ("repro.core.baseline", "BaselineStore", "put", "baseline.put", None),
    ("repro.core.baseline", "BaselineStore", "compact", "baseline.compact",
     None),
    ("repro.core.baseline", "MachineBaseline", "rehydrate",
     "baseline.rehydrate", None),
    ("repro.console.index", "JournalIndex", "__init__", "index.open", None),
    ("repro.console.index", "JournalIndex", "note_epoch_record",
     "index.note", None),
    ("repro.console.index", "JournalIndex", "update", "index.update", None),
    ("repro.console.index", "JournalIndex", "machine_history",
     "index.lookup", None),
    ("repro.console.index", "JournalIndex", "machine_record",
     "index.lookup", None),
    ("repro.console.index", "JournalIndex", "baseline_record",
     "index.lookup", None),
    ("repro.console.index", "JournalIndex", "status", "index.lookup", None),
    ("repro.fleet.aggregator", "FleetAggregator", "observe",
     "aggregator.observe", None),
    ("repro.fleet.aggregator", "CampaignTracker", "observe",
     "campaign.observe", None),
    ("repro.fleet.aggregator", "MachineVerdict", "to_dict",
     "aggregator.verdict_to_dict", None),
    ("repro.core.ghostbuster", "GhostBuster", "inside_scan",
     "ghostbuster.inside_scan", None),
    ("repro.core.ghostbuster", "GhostBuster", "outside_scan",
     "ghostbuster.outside_scan", None),
    ("repro.core.ghostbuster", "GhostBuster", "_scan_round",
     "ghostbuster.round", None),
    ("repro.fleet.policy", "EscalationPolicy", "confirm", "policy.confirm",
     _confirms),
    ("repro.machine", "Machine", "boot", "machine.power", None),
    ("repro.machine", "Machine", "shutdown", "machine.power", None),
    ("repro.fleet.transport", "FrameChannel", "send", "transport.send",
     _frame_sent),
    ("repro.fleet.transport", "FrameChannel", "recv", "transport.recv",
     _frame_received),
    ("repro.fleet.transport", "FrameChannel", "_read_exact",
     "transport.wait", _bytes_read),
    ("repro.fleet.controller", "ScanController", "reap", "controller.reap",
     None),
]


# The by-name imports on the hot paths: each must be wrapped where the
# caller looks it up, or its calls silently vanish from the ledger.
CALLER_BINDINGS = (
    "repro.fleet.coordinator.append_journal",
    "repro.fleet.coordinator.iter_journal",
    "repro.fleet.coordinator.load_history",
    "repro.fleet.coordinator.skip_verdict",
    "repro.fleet.coordinator.perform_machine_scan",
    "repro.fleet.controller.skip_verdict",
    "repro.core.ghostbuster.cross_view_diff",
)


def install_layers(tracer: LayerTracer) -> Dict[str, List[str]]:
    """Wrap every boundary; returns span name → module bindings patched.

    Raises ``RuntimeError`` if a caller binding in
    :data:`CALLER_BINDINGS` was not among them.
    """
    bindings: Dict[str, List[str]] = {}
    for module_name, attr, span, count, generator in FUNCTIONS:
        module = importlib.import_module(module_name)
        bindings[span] = tracer.patch_function(module, attr, span, count,
                                               generator=generator)
    for module_name, cls_name, attr, span, count in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        tracer.patch_method(cls, attr, span, count)
    patched = {name for names in bindings.values() for name in names}
    missing = [name for name in CALLER_BINDINGS if name not in patched]
    if missing:
        tracer.uninstall()
        raise RuntimeError(f"tracer missed caller bindings: {missing}")
    return bindings


# -- deriving the per-layer metrics ----------------------------------------------


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Dict[str, list], counts: Dict[str, float],
                  program: Dict[str, float], facts: Dict[str, float]
                  ) -> Dict[str, float]:
    """One traced repetition → ``per_layer`` metric values.

    ``spans`` maps a span to [calls, inclusive_s, self_s]; ``counts`` are
    the tracer's counts; ``program`` the change in the program's own
    counters over the repetition; ``facts`` what the benchmark measured
    itself (epoch walls, summaries, file sizes, probe figures).
    """
    def inclusive(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return float(spans.get(name, [0, 0.0, 0.0])[0])

    scans, skips = calls("scanwork.scan"), calls("scanwork.skip")
    leases = counts.get("queue.leases", 0.0)
    mft_hits = program.get("mft.parse.cache_hit", 0.0)
    mft_misses = program.get("mft.parse.cache_miss", 0.0)
    hive_hits = program.get("hive.parse.memo_hit", 0.0)
    hive_misses = program.get("hive.parse.memo_miss", 0.0)
    epoch_wall = facts["epoch_wall_s"]
    unattributed = own("fleet.epoch")
    return {
        "workloads.build_s": inclusive("workloads.build"),
        "workloads.apply_epoch_s": inclusive("workloads.apply_epoch"),
        "workloads.events": counts.get("workloads.events", 0.0),
        "coordinator.open_s": inclusive("coordinator.open"),
        "scheduler.plan_s": inclusive("scheduler.plan"),
        "scheduler.load_history_s": inclusive("scheduler.load_history"),
        "scheduler.load_history.self_s": own("scheduler.load_history"),
        "scheduler.load_history.calls": calls("scheduler.load_history"),
        "costmodel.estimate_s": inclusive("costmodel.estimate"),
        "queue.lease_s": inclusive("queue.lease"),
        "queue.ack_s": inclusive("queue.ack"),
        "queue.open_close_s": inclusive("queue.open_close"),
        "queue.compact_s": inclusive("queue.compact"),
        "queue.leases": leases,
        "queue.late_acks": facts["late_acks"],
        "queue.late_ack_ratio": _ratio(facts["late_acks"], leases),
        "queue.wal_bytes": facts["queue_wal_bytes"],
        "baseline.put_s": inclusive("baseline.put"),
        "baseline.get_s": inclusive("baseline.get"),
        "baseline.rehydrate_s": inclusive("baseline.rehydrate"),
        "baseline.compact_s": inclusive("baseline.compact"),
        "baseline.store_bytes": facts["baseline_store_bytes"],
        "journal.append_s": inclusive("journal.append"),
        "journal.appends": counts.get("journal.appends", 0.0),
        "journal.iter_s": inclusive("journal.iter"),
        "journal.iter_records": counts.get("journal.iter.items", 0.0),
        "journal.epochs_bytes": facts["epochs_journal_bytes"],
        "index.note_s": inclusive("index.note"),
        "index.update_s": inclusive("index.update"),
        "index.open_s": inclusive("index.open"),
        "index.lookup_s": inclusive("index.lookup"),
        "aggregator.observe_s": inclusive("aggregator.observe"),
        "aggregator.verdict_to_dict_s": inclusive("aggregator.verdict_to_dict"),
        "campaign.observe_s": inclusive("campaign.observe"),
        "scanwork.scans": scans,
        "scanwork.skips": skips,
        "scanwork.skip_ratio": _ratio(skips, scans + skips),
        "scanwork.scan_s": inclusive("scanwork.scan"),
        "scanwork.scan.self_s": own("scanwork.scan"),
        "scanwork.skip_s": inclusive("scanwork.skip"),
        "epochs.scanned": facts["summary_scanned"],
        "ghostbuster.inside_scan_s": inclusive("ghostbuster.inside_scan"),
        "ghostbuster.inside_scan.self_s": own("ghostbuster.inside_scan"),
        "ghostbuster.outside_scan_s": inclusive("ghostbuster.outside_scan"),
        "ghostbuster.rounds": calls("ghostbuster.round"),
        "machine.power_s": inclusive("machine.power"),
        "files.high_level_s": inclusive("files.high_level"),
        "files.low_level_s": inclusive("files.low_level"),
        "files.outside_s": inclusive("files.outside"),
        "registry.high_level_s": inclusive("registry.high_level"),
        "registry.low_level_s": inclusive("registry.low_level"),
        "registry.outside_s": inclusive("registry.outside"),
        "mft.cache_hit_ratio": _ratio(mft_hits, mft_hits + mft_misses),
        "hive.memo_hit_ratio": _ratio(hive_hits, hive_hits + hive_misses),
        "ntfs.records_patched": program.get("journal.records_patched", 0.0),
        "ntfs.patch_fallbacks": program.get("journal.patch_fallback", 0.0),
        "hive.bins_reparsed": program.get("hive.delta.bins_reparsed", 0.0),
        "diff.s": inclusive("diff"),
        "diff.entries": counts.get("diff.entries", 0.0),
        "policy.confirm_s": inclusive("policy.confirm"),
        "policy.confirms": counts.get("policy.confirms", 0.0),
        "policy.confirmed_ratio": _ratio(counts.get("policy.confirmed", 0.0),
                                         counts.get("policy.confirms", 0.0)),
        "sim.scan_s": facts["sim_scan_s"],
        "transport.send_s": inclusive("transport.send"),
        "transport.recv_s": own("transport.recv"),
        "transport.wait_s": inclusive("transport.wait"),
        "transport.frames": counts.get("transport.frames", 0.0),
        "transport.bytes": counts.get("transport.bytes", 0.0),
        "controller.reap_s": inclusive("controller.reap"),
        "controller.drain_lag_ms": facts["drain_lag_ms"],
        "agent.spawn_s": facts["agent_spawn_s"],
        "agent.peak_rss_mb": facts["agent_peak_rss_mb"],
        "fleet.unattributed_s": unattributed,
        "fleet.unattributed_pct": 100.0 * _ratio(unattributed, epoch_wall),
    }
