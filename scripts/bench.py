#!/usr/bin/env python3
"""The research-claim bench: one table of experiments over one harness.

``fleetbench/`` times the production fleet paths end to end.  This
bench gates the paper's claims fleetbench does not cover: cross-view
detection survives injected faults, the outside-the-box confirmation
never boots a clean machine, delta rescans convict on the same evidence
as full ones, and sampling keeps recall because persistent ghostware
must hook an ASEP and ASEPs are never sampled.

Each :class:`Experiment` row in :data:`EXPERIMENTS` is one claim; its
run function's docstring says why the experiment exists.

Run:  PYTHONPATH=src python scripts/bench.py [--smoke] [--out FILE]
                                             [--telemetry-out DIR]

Without a mode flag every row with smoke sizes runs; a mode flag
(``--fleet-soak``, ``--distributed-soak``, ``--workload-replay``,
``--stealth-campaign``) runs its one row at full size.  JSON is written
only with ``--out``: one key per row, the mode and the failed gates.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from repro.core import GhostBuster                          # noqa: E402
from repro.core.baseline import BaselineStore               # noqa: E402
from repro.disk import Disk, DiskGeometry                   # noqa: E402
from repro.faults import context as faults_context          # noqa: E402
from repro.faults.plan import SITE_DISK_READ, FaultPlan     # noqa: E402
from repro.fleet import (AGENT_DEAD, EscalationPolicy,      # noqa: E402
                         FleetCoordinator, fleet_status,
                         fleet_storage_stats, load_history)
from repro.fleet.scheduler import recent_write_probe        # noqa: E402
from repro.ghostware import (AdsGhost, FuRootkit,           # noqa: E402
                             HackerDefender)
from repro.machine import HIVE_FILES, Machine               # noqa: E402
from repro.ntfs import MftParser, NtfsVolume                # noqa: E402
from repro.ntfs.constants import MFT_RECORD_SIZE            # noqa: E402
from repro.registry import hive_parser                      # noqa: E402
from repro.telemetry import Telemetry                       # noqa: E402
from repro.telemetry.metrics import (NullMetrics,           # noqa: E402
                                     global_metrics,
                                     reset_global_metrics,
                                     set_global_metrics)
from repro.workloads import (STRAINS, FleetProfile,         # noqa: E402
                             FleetWorkload, InfectionWave, SamplingPolicy,
                             populate_machine, record_sweep, replay_sweep,
                             verdict_key)
from scan_report import render_stealth_curve                # noqa: E402

# Seed and rate of every injected-fault plan: disk, parser and wire.
FAULT_SEED = 2026
FAULT_RATE = 0.05


def clear_caches(*disks) -> None:
    hive_parser.clear_hive_cache()
    for disk in disks:
        disk.raw_cache.clear()


def clocked(action):
    """``action()``'s result and its wall-clock seconds."""
    started = time.perf_counter()
    return action(), time.perf_counter() - started


def timed(action, repeat: int = 3) -> float:
    """Best-of-N wall-clock seconds for ``action()``."""
    return min(clocked(action)[1] for __ in range(repeat))


def paired_ratio(first, second, pairs: int, settle=None):
    """Median over adjacent pairs of ``first() / second()`` timings, and
    each arm's fastest sample.

    Adjacent samples see the same machine-wide drift (page cache, CPU
    frequency, growing journals), so their ratio cancels it; the lead
    alternates, so each pair's leftovers penalize both arms alike; the
    median drops spike-corrupted pairs that a min-of-N cannot.
    ``settle`` runs after every pair.
    """
    samples = ([], [])
    for pair in range(pairs):
        arms = [(samples[0], first), (samples[1], second)]
        for bucket, measure in (arms[::-1] if pair % 2 else arms):
            bucket.append(measure())
        if settle is not None:
            settle()
    ratio = statistics.median(a / b for a, b in zip(*samples))
    return ratio, min(samples[0]), min(samples[1])


@contextlib.contextmanager
def temp_coordinator(machines, **kwargs):
    """A :class:`FleetCoordinator` over a throwaway fleet directory."""
    with tempfile.TemporaryDirectory(prefix="gb-bench-") as tmp:
        yield FleetCoordinator(tmp, machines, **kwargs)


def finding_identities(report) -> str:
    """Canonical JSON of a report's non-noise findings, for byte equality."""
    return json.dumps(sorted(
        (f.resource_type.value, str(f.entry.identity))
        for f in report.findings if not f.is_noise))


def golden_machine(file_count: int) -> Machine:
    machine = Machine("golden", disk_mb=512, max_records=8192)
    populate_machine(machine, file_count=file_count, registry_scale=200,
                     seed=7)
    return machine


def private_copy(disk: Disk) -> Disk:
    """A full private copy of ``disk``: a fresh disk holding every
    written sector, sharing no copy-on-write base."""
    copy = Disk(disk.geometry)
    for index, data in disk.written_sectors():
        copy.write_sector(index, data)
    return copy


def clone_factory(golden: Machine, count: int, infected=None,
                  image=Disk.clone):
    """A by-name factory of booted ``golden`` clones, and its roster.

    ``fleet-NN`` is clone NN, imaged by ``image(golden.disk)``, with
    HackerDefender if NN is ``infected`` (default: three, spread out).
    The distributed arms ship names and each forked agent rebuilds the
    clone the single-process arm holds (``fork`` shares the golden image
    copy-on-write, so clones are cheap).
    """
    if infected is None:
        infected = range(0, count, max(1, count // 3))[:3]
    infected = frozenset(infected)

    def factory(name):
        machine = Machine(name, disk=image(golden.disk), max_records=8192)
        machine.boot()
        if int(name.rsplit("-", 1)[1]) in infected:
            HackerDefender().install(machine)
        return machine

    return factory, [f"fleet-{index:02d}" for index in range(count)]


def cloned_fleet(golden: Machine, count: int, infected=None,
                 image=Disk.clone) -> list:
    factory, roster = clone_factory(golden, count, infected, image)
    return [factory(name) for name in roster]


class OutsideRecorder(EscalationPolicy):
    """A RIS policy that keeps each machine's latest network-boot
    outcome, for the identity gates."""

    def __init__(self):
        super().__init__("ris")
        self.outside = {}

    def confirm(self, machine, inside_report, noise_filter, fault_plan):
        outcome = super().confirm(machine, inside_report, noise_filter,
                                  fault_plan)
        self.outside[machine.name] = outcome
        return outcome

    def identities(self, aggregate) -> list:
        """Per machine: verdict, confirmation, inside finding ids, and
        the network boot's outside finding ids and completeness."""
        def outside(name):
            outcome = self.outside.get(name)
            return (None if outcome is None else
                    (outcome.finding_ids, outcome.outside_report.is_complete))

        return sorted((v.machine, v.verdict, v.confirmed_by, v.finding_ids,
                       outside(v.machine)) for v in aggregate.verdicts)


def ris_epoch(fleet, workers: int, fault_plan=None):
    """One RIS coordinator epoch in a throwaway fleet dir: its aggregate,
    its wall-clock seconds and the :class:`OutsideRecorder` that ran it."""
    policy = OutsideRecorder()
    with temp_coordinator(fleet, workers=workers, fault_plan=fault_plan,
                          policy=policy) as coordinator:
        return (*clocked(coordinator.run_epoch), policy)


def fleet_verdict_key(aggregate) -> dict:
    """Element identity for a fleet epoch, finding identities included."""
    return {v.machine: (v.verdict, v.findings, v.confirmed,
                        v.confirmed_by, tuple(sorted(v.finding_ids)))
            for v in aggregate.verdicts}


def checkpoint_on_disk(coordinator, aggregate) -> list:
    """Failures of the checkpoint read back from the fleet directory.

    Every non-error verdict of ``aggregate`` must name the baseline the
    reopened store holds for its machine, and a replay of the epochs
    journal must plan from the live coordinator's history.
    """
    store = BaselineStore(coordinator.fleet_dir)
    failures = []
    for verdict in aggregate.verdicts:
        if verdict.verdict == "error":
            continue
        stored_id = getattr(store.get(verdict.machine), "baseline_id", None)
        if stored_id != verdict.baseline_id:
            failures.append(f"{verdict.machine}: verdict names baseline "
                            f"{verdict.baseline_id}, store holds "
                            f"{stored_id}")
    if load_history(coordinator.epochs_path) != coordinator.history:
        failures.append("epochs.jsonl replays to a different scheduler "
                        "history than the live coordinator's")
    return failures


def bench_telemetry_overhead(file_count: int, reads: int) -> dict:
    """Cost of inactive instrumentation on a repeated-reads loop.

    The default arm is the shipped configuration: no telemetry context
    active, the real global metrics registry taking counter increments.
    The nulled arm swaps in :class:`NullMetrics`.  The loop (one cold
    namespace parse, then N reads) is a scan's real work, which must
    amortize the counters to <= 5%.
    """
    disk = Disk(DiskGeometry.from_megabytes(256))
    volume = NtfsVolume.format(disk, max_records=file_count * 2 + 64)
    volume.create_directories("\\data")
    for index in range(file_count):
        volume.create_file(f"\\data\\file{index:05d}.bin", b"x" * 100)
    paths = [f"\\data\\file{i % file_count:05d}.bin" for i in range(reads)]

    def loop():
        clear_caches(disk)
        parser = MftParser(disk.read_bytes)
        for path in paths:
            assert parser.read_file_content(path)

    def nulled_loop_s():
        previous = set_global_metrics(NullMetrics())
        try:
            return timed(loop, repeat=1)
        finally:
            set_global_metrics(previous)

    loop()   # first call primes interpreter-level state for both arms
    gc_was_enabled = gc.isenabled()
    gc.disable()   # collector pauses dwarf the per-read delta under test
    try:
        ratio, default_s, nulled_s = paired_ratio(
            lambda: timed(loop, repeat=1), nulled_loop_s, pairs=10,
            settle=gc.collect)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {"default_s": default_s, "nulled_s": nulled_s,
            "overhead_pct": round((ratio - 1.0) * 100.0, 3)}


def bench_chaos_sweep(fleet_size: int, workers: int,
                      file_count: int) -> dict:
    """Recall under chaos: two identically cloned fleets each run one RIS
    coordinator epoch, network-booting every machine, fault-free and
    then under a deterministic 5% :class:`FaultPlan` at every
    instrumented site.  Both must convict the same machines on the same
    inside and outside evidence, with zero error verdicts (a quarantine
    is one).
    """
    golden = golden_machine(file_count)
    baseline, baseline_s, baseline_policy = ris_epoch(
        cloned_fleet(golden, fleet_size), workers)
    plan = FaultPlan.default(seed=FAULT_SEED, rate=FAULT_RATE)
    chaotic, chaos_s, chaos_policy = ris_epoch(
        cloned_fleet(golden, fleet_size), workers, fault_plan=plan)
    return {
        "faults_fired": plan.fired_count(),
        "disk_read_faults": plan.fired_count(SITE_DISK_READ),
        "fault_sites": sorted({f.site for f in plan.fired()}),
        "sequence_digest": plan.sequence_digest(),
        "infected": chaotic.infected_machines(),
        "recall_unchanged": (baseline_policy.identities(baseline)
                             == chaos_policy.identities(chaotic)),
        "errors": {v.machine: v.error for v in chaotic.verdicts
                   if v.verdict == "error"},
        "baseline_wall_s": baseline_s,
        "chaos_wall_s": chaos_s,
    }


def bench_delta_rescan(file_count: int, mutations: int) -> dict:
    """Warm journal-patched rescan vs cold full scan after K mutations.

    The cold arm is what every rescan paid before the change journal: a
    full MFT namespace parse plus a cold parse of every registry hive.
    The warm arm applies ``mutations`` small changes per round and
    re-derives the same truth through the journal-patch / bin-delta
    path.  Both arms then run a full inside detection at the same disk
    state and their findings must serialize identically.
    """
    machine = golden_machine(file_count)
    machine.boot()
    HackerDefender().install(machine)
    machine.registry.create_key("HKLM\\SOFTWARE\\BenchDelta")
    port = machine.kernel.disk_port

    def derive_truth():
        # The low-level truth re-derivation a scan's cache miss pays:
        # the full MFT namespace plus every raw hive parse off it.
        parser = MftParser(port.read_bytes)
        parser.parse()
        for hive_file in HIVE_FILES.values():
            hive_parser.parse_hive(parser.read_file_content(hive_file))

    def mutate(round_no: int) -> None:
        volume = machine.volume
        base = f"\\Temp\\delta{round_no:02d}"
        volume.create_file(f"{base}-new.bin", b"fresh")
        volume.write_file(f"{base}-new.bin", b"rewritten")
        volume.write_stream(f"{base}-new.bin", "marker", b"ads")
        machine.registry.set_value("HKLM\\SOFTWARE\\BenchDelta",
                                   "round", str(round_no))
        for extra in range(max(0, mutations - 4)):
            volume.create_file(f"{base}-extra{extra}.bin", b"x")

    cold_s = timed(lambda: (clear_caches(machine.disk), derive_truth()))
    reset_global_metrics()
    derive_truth()              # warm the caches at the current generation
    warm_samples = []
    for round_no in range(3):
        mutate(round_no)
        warm_samples.append(timed(derive_truth, repeat=1))
    warm_s = min(warm_samples)
    warm_report = GhostBuster(machine).detect()
    clear_caches(machine.disk)
    cold_report = GhostBuster(machine).detect()
    counters = global_metrics().snapshot()["counters"]
    return {
        "cold_s": cold_s,
        "warm_delta_s": warm_s,
        "speedup": cold_s / warm_s,
        "findings_identical": (finding_identities(warm_report)
                               == finding_identities(cold_report)),
        # The journal / bin-delta repair counters: why warm is fast.
        "delta_counters": {name: counters[name] for name in sorted(counters)
                           if name.startswith(("journal.", "hive.delta."))},
    }


def bench_delta_sweep(fleet_size: int, workers: int, file_count: int,
                      changed: int) -> dict:
    """Delta epoch against seeded baselines vs a full rescan.

    A golden-image fleet runs a seed epoch (one baseline per machine),
    ``changed`` machines then receive one small write each, and the
    next epoch — which must skip every unchanged machine — is timed
    against a full rescan of the same fleet by a fresh coordinator with
    no baselines.  Both network-boot every machine they scan (RIS), so
    at smoke size (3 of 6 machines changed) the ratio is only ~2.6x;
    the >= 5x floor is for the 50-machine fleet.
    """
    fleet = cloned_fleet(golden_machine(file_count), fleet_size)
    policy = OutsideRecorder()
    with temp_coordinator(fleet, workers=workers,
                          policy=policy) as coordinator:
        __, seed_s = clocked(coordinator.run_epoch)
        step = max(1, fleet_size // max(1, changed))
        changed_names = []
        for index in range(changed):
            machine = fleet[(index * step + 1) % fleet_size]
            machine.volume.create_file(
                f"\\Temp\\delta-{machine.name}.bin", b"delta payload")
            changed_names.append(machine.name)
        patched_before = global_metrics().counter("journal.records_patched")
        delta, delta_s = clocked(coordinator.run_epoch)
        patched = (global_metrics().counter("journal.records_patched")
                   - patched_before)
    full, full_s, full_policy = ris_epoch(fleet, workers)
    return {
        "changed_machines": changed_names,
        "seed_epoch_s": seed_s,
        "delta_s": delta_s,
        "full_s": full_s,
        "speedup": full_s / delta_s,
        "skipped": delta.summary.skipped,
        "findings_identical": (policy.identities(delta)
                               == full_policy.identities(full)),
        "infected": delta.infected_machines(),
        "records_patched": patched,
    }


def bench_fleet_escalation(file_count: int, strains: int) -> dict:
    """Escalation precision over the twelve-strain corpus.

    One corpus member per machine, plus four uninfected machines.
    Every machine whose inside scan finds something pays for an
    outside-the-box confirmation; precision 1.0 means no clean machine
    ever escalated (the paper's cost model only works if the expensive
    tier is reserved for real suspects).
    """
    corpus = (*STRAINS.values(), AdsGhost, FuRootkit)[:max(1, strains)]
    fleet = cloned_fleet(golden_machine(file_count), len(corpus) + 4,
                         infected=())
    infected = []
    for machine, ghost_cls in zip(fleet, corpus):
        ghost = ghost_cls()
        ghost.install(machine)
        if isinstance(ghost, FuRootkit):
            victim = machine.start_process("\\Windows\\explorer.exe",
                                           name="dkom_victim.exe")
            ghost.hide_process(machine, victim.pid)
        infected.append(machine.name)

    with temp_coordinator(
            fleet, workers=2,
            policy=EscalationPolicy(confirm_with="winpe"),
            resources=("files", "registry", "processes")) as coordinator:
        aggregate = coordinator.run_epoch()
    escalated = sorted(v.machine for v in aggregate.verdicts
                       if v.escalated)
    true_escalations = [name for name in escalated if name in infected]
    return {
        "infected": infected,
        "escalated": escalated,
        "confirmed": sorted(v.machine for v in aggregate.verdicts
                            if v.confirmed),
        "precision": (len(true_escalations) / len(escalated)
                      if escalated else 0.0),
        "recall": len(true_escalations) / len(infected),
        "confirmed_by_provenance_ok": all(
            v.confirmed_by == "winpe"
            for v in aggregate.verdicts if v.confirmed),
        "summary": aggregate.summary.to_dict(),
    }


def per_slot_reader(volume):
    """A bare read callable over ``volume``'s disk that serves the MFT
    region request as one ``read_bytes`` per 1,024-byte slot, the reads
    the parser's retired per-slot walk issued; other reads pass
    through."""
    disk = volume.disk

    def read(offset: int, length: int) -> bytes:
        if offset != volume.mft_offset or length <= MFT_RECORD_SIZE:
            return disk.read_bytes(offset, length)
        return b"".join(disk.read_bytes(at, MFT_RECORD_SIZE)
                        for at in range(offset, offset + length,
                                        MFT_RECORD_SIZE))
    return read


def bench_cold_parse_zero_copy(file_count: int) -> dict:
    """Batched zero-copy cold parse vs a per-slot read strawman.

    One machine is built at Machine defaults (65536 MFT record slots).
    The per-slot arm parses it through :func:`per_slot_reader`, a bare
    callable that serves the parser's one region request as one
    ``read_bytes`` round-trip per record slot — what the parser's
    retired per-slot walk issued.  The zero-copy arm parses it through
    the disk itself: one batched region view, ``struct.unpack_from`` all
    the way down.  The "namespace identical" gate checks that both arms
    parse one namespace.  Both arms finish with cold parses of every
    registry hive, so the figure is the full truth re-derivation a cache
    miss pays.
    """
    machine = Machine("zc", disk_mb=512)
    populate_machine(machine, file_count=file_count, registry_scale=200,
                     seed=7)

    def parser(legacy: bool) -> MftParser:
        return MftParser(per_slot_reader(machine.volume) if legacy
                         else machine.disk.read_bytes)

    def cold_derivation(legacy: bool) -> None:
        clear_caches(machine.disk)
        cold = parser(legacy)
        cold.parse()
        for hive_file in HIVE_FILES.values():
            hive_parser.parse_hive(cold.read_file_content(hive_file))

    # Best-of-7: the zero-copy arm is tens of milliseconds, so scheduler
    # jitter dominates best-of-3 on a busy runner.
    legacy_s = timed(lambda: cold_derivation(True), repeat=7)
    zero_s = timed(lambda: cold_derivation(False), repeat=7)
    namespace_identical = (
        sorted(parser(True).parse(), key=lambda item: item.record_no)
        == sorted(parser(False).parse(), key=lambda item: item.record_no))
    return {
        "mft_slots": machine.volume.max_records,
        "legacy_cold_s": legacy_s,
        "zero_copy_cold_s": zero_s,
        "speedup": legacy_s / zero_s,
        "namespace_identical": namespace_identical,
    }


def bench_memory_ceiling(fleet_size: int, file_count: int) -> dict:
    """Machines-per-GB: COW fleet vs deep-copied clones, same verdicts.

    Both fleets are imaged from one golden and diverge the same two
    clean clones with private writes.  Every COW clone shares the sealed
    golden extent and pays only its divergence; every deep-copied clone
    is a :func:`private_copy` of the golden disk.  One coordinator epoch
    over each fleet must convict the same machines on the same evidence.
    """
    golden = Machine("ceil", disk_mb=512, max_records=8192)
    # A content-heavy golden image and modest hives: every clone's
    # unavoidable divergence is its registry remount, so the density a
    # COW fleet can reach is golden footprint over hive churn.
    populate_machine(golden, file_count=file_count, registry_scale=20,
                     seed=7)
    for index in range(file_count):
        golden.volume.create_file(f"\\Program Files\\image{index:04d}.bin",
                                  bytes([index % 251]) * 4096)

    def provision(image):
        fleet = cloned_fleet(golden, fleet_size, image=image)
        for machine in fleet[1:3]:
            machine.volume.create_file(
                f"\\Temp\\diverge-{machine.name}.bin", b"D" * 4096)
        return fleet

    cow_fleet = provision(Disk.clone)
    cow = fleet_storage_stats(cow_fleet)
    deep_fleet = provision(private_copy)
    deep = fleet_storage_stats(deep_fleet)
    cow_per_gb = fleet_size / (cow["total_bytes"] / float(1 << 30))
    deep_per_gb = fleet_size / (deep["total_bytes"] / float(1 << 30))
    cow_epoch, __, cow_policy = ris_epoch(cow_fleet, workers=4)
    deep_epoch, __, deep_policy = ris_epoch(deep_fleet, workers=4)
    return {
        "cow_stats": cow,
        "deep_copy_stats": deep,
        "cow_machines_per_gb": cow_per_gb,
        "deep_copy_machines_per_gb": deep_per_gb,
        "density_ratio": cow_per_gb / deep_per_gb,
        "infected": cow_epoch.infected_machines(),
        "verdicts_identical": (cow_policy.identities(cow_epoch)
                               == deep_policy.identities(deep_epoch)),
    }


def bench_distributed_sweep(fleet_size: int, file_count: int,
                            agents: int) -> dict:
    """Forked scan agents vs the same coordinator's in-process threads.

    Both arms start from the same pre-built golden image and time
    clone + boot + scan of the whole fleet (one seed epoch).  The
    single-process arm runs ``agents`` worker *threads*, which the GIL
    serializes on the parse-heavy corpus; the distributed arm runs
    ``agents`` forked processes against the wire controller.  A third
    arm repeats the distributed run under 5% transport chaos and must
    change nothing.  ``cpu_count`` rides in the result, because the
    >= 2x floor needs cores to parallelize onto.
    """
    golden = golden_machine(file_count)
    factory, roster = clone_factory(golden, fleet_size)
    started = time.perf_counter()
    with temp_coordinator(cloned_fleet(golden, fleet_size),
                          workers=agents) as coordinator:
        single = coordinator.run_epoch()
        single_s = time.perf_counter() - started
    started = time.perf_counter()
    with temp_coordinator(roster, workers=agents) as coordinator:
        distributed = coordinator.run_distributed(
            1, factory, agents=agents)[0]
        distributed_s = time.perf_counter() - started
    with temp_coordinator(roster, workers=agents) as coordinator:
        chaotic = coordinator.run_distributed(
            1, factory, agents=agents, agent_timeout_seconds=10.0,
            transport_seed=FAULT_SEED, transport_rate=FAULT_RATE)[0]
    distributed_key = fleet_verdict_key(distributed)
    chaos_key = fleet_verdict_key(chaotic)
    return {
        "cpu_count": os.cpu_count() or 1,
        "single_process_s": single_s,
        "distributed_s": distributed_s,
        "speedup": single_s / distributed_s,
        "verdicts_identical": distributed_key == fleet_verdict_key(single),
        "chaos_zero_lost": set(chaos_key) == set(roster),
        "chaos_verdicts_identical": chaos_key == distributed_key,
    }


def bench_fleet_soak(epochs: int, fleet_size: int) -> dict:
    """The CI soak: epochs under a 5% fault plan lose no machine, and
    the last epoch's checkpoint reads back from disk."""
    fleet = cloned_fleet(golden_machine(120), fleet_size)
    plan = FaultPlan.default(seed=FAULT_SEED, rate=FAULT_RATE)
    summaries = []
    with temp_coordinator(fleet, workers=4, fault_plan=plan,
                          compact_every=2) as coordinator:
        previous = faults_context.install_global_plan(plan)
        try:
            for __ in range(epochs):
                aggregate = coordinator.run_epoch()
                summaries.append(aggregate.summary.to_dict())
        finally:
            faults_context.install_global_plan(previous)
        checkpoint = checkpoint_on_disk(coordinator, aggregate)
    return {"summaries": summaries,
            "faults_fired": plan.fired_count(),
            "disk_read_faults": plan.fired_count(SITE_DISK_READ),
            "fault_sites": len({f.site for f in plan.fired()}),
            "checkpoint_failures": checkpoint}


def bench_distributed_soak(epochs: int, fleet_size: int, agents: int) -> dict:
    """The distributed CI soak: kill -9 an agent mid-lease, lose nothing.

    Agent 0 kills itself after its third lease in epoch 1 (a yanked
    power cord); the liveness reaper reclaims the lease and the other
    agents finish.  Every epoch must equal an uninterrupted
    single-process reference over the same golden image, and the last
    checkpoint must read back from disk.
    """
    golden = golden_machine(120)
    factory, roster = clone_factory(golden, fleet_size)
    with temp_coordinator(cloned_fleet(golden, fleet_size),
                          workers=4) as reference:
        reference_keys = [fleet_verdict_key(aggregate)
                          for aggregate in reference.run(epochs)]
    lost, differing = {}, {}
    with temp_coordinator(roster, workers=agents,
                          compact_every=0) as coordinator:
        aggregates = coordinator.run_distributed(
            epochs, factory, agents=agents, agent_timeout_seconds=2.0,
            kill_after_leases={0: 3})
        for aggregate, reference_key in zip(aggregates, reference_keys):
            epoch = aggregate.summary.epoch
            key = fleet_verdict_key(aggregate)
            if set(key) != set(roster):
                lost[epoch] = sorted(set(roster) - set(key))
            if key != reference_key:
                differing[epoch] = sorted(
                    machine for machine in key
                    if key.get(machine) != reference_key.get(machine))
        agents_status = fleet_status(coordinator.fleet_dir)["agents"]
        checkpoint = checkpoint_on_disk(coordinator, aggregates[-1])
    return {
        "summaries": [aggregate.summary.to_dict()
                      for aggregate in aggregates],
        "lost": lost,
        "differing": differing,
        "agents": {agent: {"state": info["state"], "acks": info["acks"]}
                   for agent, info in sorted(agents_status.items())},
        "checkpoint_failures": checkpoint,
    }


def bench_sampled_sweep(fleet_size: int, epochs: int, rates,
                        workers: int) -> dict:
    """The recall-vs-cost curve: full sweep vs sampled at several rates.

    The fleet is file-heavy (small hives, many virtual files), so the
    sampled pass's floor — the always-full registry stratum — stays
    cheap relative to the full file scan it avoids.  The wave is
    HackerDefender: a persistent ghost that must hook ASEPs to survive
    reboot, which is exactly the stratum sampling never skips — the
    paper's persistence argument is what holds recall up while the
    file-sampling rate drops.  The operating point is the largest
    steady-state reduction at recall >= 0.95.
    """
    profile = FleetProfile(
        name="swp", size=fleet_size, seed=97,
        file_count=(240, 340), virtual_files=(80_000, 200_000),
        registry_kb=(6, 12), churn_files=(2, 5), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2,
                             initial=2, spread=0.4),))

    def sweep(sampling) -> dict:
        workload = FleetWorkload(profile)
        summaries, reported = [], set()
        with temp_coordinator(workload.machines.values(),
                              workers=workers, sampling=sampling,
                              console_index=False) as coordinator:
            for epoch in range(1, epochs + 1):
                workload.apply_epoch(epoch)
                aggregate = coordinator.run_epoch()
                summaries.append(aggregate.summary)
                reported.update(v.machine for v in aggregate.verdicts
                                if v.verdict == "infected")
        truth = workload.infected_machines(epochs)
        return {
            "per_epoch_scan_s": [round(s.scan_seconds, 3)
                                 for s in summaries],
            # Epoch 1 is the cold start: never-scanned staleness forces
            # a full scan in BOTH arms, so the comparison is steady state.
            "steady_scan_s": round(sum(s.scan_seconds
                                       for s in summaries[1:]), 3),
            "recall": (len(reported & truth) / len(truth)) if truth else 1.0,
            "false_positives": sorted(reported - truth),
            "sampled_scans": sum(s.sampled for s in summaries),
            "sampling_escalations": sum(s.sampling_escalations
                                        for s in summaries),
            "estimated_recall_last": summaries[-1].estimated_recall,
        }

    full = sweep(None)
    curve = []
    for rate in rates:
        point = sweep(SamplingPolicy(seed=5, file_rate=rate, full_every=64))
        point["file_rate"] = rate
        point["reduction"] = (full["steady_scan_s"]
                              / max(point["steady_scan_s"], 1e-9))
        curve.append(point)
    eligible = [point for point in curve if point["recall"] >= 0.95]
    operating = max(eligible, key=lambda point: point["reduction"],
                    default={"file_rate": None, "reduction": 0.0,
                             "recall": 0.0})
    return {
        "full": full, "curve": curve,
        "full_recall": full["recall"],
        "operating_rate": operating["file_rate"],
        "operating_reduction": operating["reduction"],
        "operating_recall": operating["recall"],
        "false_positive_free": not any(point["false_positives"]
                                       for point in curve),
    }


def record_trace(trace_path: Path, fleet_size: int, epochs: int):
    """Record the reference workload's sweep trace to ``trace_path``."""
    profile = FleetProfile(
        name="trb", size=fleet_size, seed=53,
        file_count=(40, 80), virtual_files=(5_000, 20_000),
        registry_kb=(20, 40), churn_files=(1, 4), churn_registry=(0, 2),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2,
                             initial=1, spread=0.0),))
    sampling = SamplingPolicy(seed=3, file_rate=0.25, full_every=4)
    with tempfile.TemporaryDirectory(prefix="gb-bench-") as tmp:
        return record_sweep(str(trace_path), profile, tmp, epochs,
                            sampling=sampling, workers=2)


def replay_trace(trace_path: Path):
    """Replay a recorded sweep trace against a fresh fleet."""
    with tempfile.TemporaryDirectory(prefix="gb-bench-") as tmp:
        return replay_sweep(str(trace_path), tmp)


def bench_trace_replay(fleet_size: int, epochs: int) -> dict:
    """Record a sweep trace once and replay it twice.

    A trace is the operator's one-command reproduction of a sweep, so
    every replay must convict the same machines and write a
    byte-identical epochs journal.
    """
    with tempfile.TemporaryDirectory(prefix="gb-bench-") as tdir:
        trace_path = Path(tdir) / "sweep.trace.jsonl"
        recorded = record_trace(trace_path, fleet_size, epochs)
        runs = [recorded] + [replay_trace(trace_path) for __ in range(2)]
    return {
        "trace_digest": recorded.trace_digest,
        "trace_digests_identical":
            len({run.trace_digest for run in runs}) == 1,
        "verdicts_identical":
            all(run.verdicts == recorded.verdicts for run in runs),
        "journal_digests_identical":
            len({run.journal_digest for run in runs}) == 1,
        "infected": recorded.infected,
        "infected_identical":
            all(run.infected == recorded.infected for run in runs),
        "detected": any(
            epoch_verdicts.get(machine, ("",))[0] == "infected"
            for machine in recorded.infected
            for epoch_verdicts in recorded.verdicts),
    }


def _campaign_run(fleet_size: int, level: str, epochs: int,
                  defended: bool, workers: int) -> dict:
    """One campaign arm: naive single-pass or the defended configuration.

    Two fully-capable strains run at one stealth level, so every level
    of the ladder changes behavior: Urbin (AppInit IAT hooks) from epoch
    1, HackerDefender (NtDll detours) from epoch 2.  The defended arm is
    scan-until-stable + flag-unstable + scan-order jitter with the
    default inside→outside escalation; the naive arm is one inside pass
    without escalation, the seed-era scanner the adversary engine
    exists to defeat.
    """
    workload = FleetWorkload(FleetProfile(
        name="adv", size=fleet_size, seed=31,
        file_count=(24, 48), virtual_files=(4_000, 12_000),
        registry_kb=(20, 40), churn_files=(1, 3), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("urbin", onset_epoch=1,
                             initial=max(2, fleet_size // 12),
                             spread=0.5, level=level),
               InfectionWave("hackerdefender", onset_epoch=2,
                             initial=max(1, fleet_size // 25),
                             spread=0.4, level=level, conceal_budget=2))))
    kwargs = (dict(stabilize_rounds=2, flag_unstable=True,
                   scan_order_jitter=11) if defended
              else dict(policy=EscalationPolicy(escalate=False)))
    probe_hits = probe_total = 0
    reported, previous, verdict_maps = set(), set(), []
    horizon = 60.0
    with temp_coordinator(workload.machines.values(), workers=workers,
                          outbreak_threshold=3, console_index=False,
                          **kwargs) as coordinator:
        for epoch in range(1, epochs + 1):
            workload.apply_epoch(epoch)
            truth_now = workload.infected_machines(epoch)
            # Triage probe, measured at infection time: a machine only
            # counts once its own clock has moved well past the horizon
            # (epoch 1 machines are wholly "fresh" and prove nothing).
            for name in sorted(truth_now - previous):
                machine = workload.machines[name]
                if machine.clock.now() <= 2 * horizon:
                    continue
                probe_total += 1
                probe_hits += bool(recent_write_probe(
                    machine, horizon_seconds=horizon))
            previous = truth_now
            aggregate = coordinator.run_epoch()
            verdict_maps.append({v.machine: verdict_key(v)
                                 for v in aggregate.verdicts})
            reported.update(v.machine for v in aggregate.verdicts
                            if v.verdict == "infected")
        status = fleet_status(coordinator.fleet_dir)
    truth = workload.infected_machines(epochs)
    campaign_fps = [record["fingerprint"]
                    for record in status["campaigns"]]
    return {
        "recall": round(len(reported & truth) / len(truth), 4)
        if truth else 1.0,
        "precision": round(len(reported & truth) / len(reported), 4)
        if reported else 1.0,
        "false_positives": sorted(reported - truth),
        "outbreak_alerts": len(status["outbreaks"]),
        "campaign_alerts": len(campaign_fps),
        "campaign_fingerprints_unique":
            len(campaign_fps) == len(set(campaign_fps)),
        "probe_hit_rate": (round(probe_hits / probe_total, 4)
                           if probe_total else None),
        "verdict_maps": verdict_maps,
    }


def bench_stealth_campaign(fleet_size: int, epochs: int,
                           workers: int) -> dict:
    """The headline curve: precision/recall per stealth level, two arms.

    Also re-runs the defended ``high`` arm to gate campaign determinism.
    """
    def arm(level, defended=True):
        return _campaign_run(fleet_size, level, epochs, defended, workers)

    curve = [{"level": level, "naive": arm(level, defended=False),
              "defended": arm(level)}
             for level in ("off", "low", "medium", "high", "maximum")]
    by_level = {point["level"]: point for point in curve}
    rerun = arm("high")
    reference = by_level["high"]["defended"]["verdict_maps"]
    for point in curve:   # the maps did their job; keep the JSON small
        for side in ("naive", "defended"):
            point[side].pop("verdict_maps", None)

    return {
        "curve": curve,
        "defended_precision_all_1": all(
            point["defended"]["precision"] == 1.0 for point in curve),
        "defended_recall_min_through_high": min(
            by_level[level]["defended"]["recall"]
            for level in ("off", "low", "medium", "high")),
        "naive_recall_max_when_aware": max(
            by_level[level]["naive"]["recall"]
            for level in ("medium", "high", "maximum")),
        "campaign_alerts_deduped": all(
            by_level[level]["defended"]["campaign_fingerprints_unique"]
            and by_level[level]["defended"]["campaign_alerts"] >= 1
            for level in ("high", "maximum")),
        "determinism": {
            "runs_identical": reference == rerun["verdict_maps"],
        },
    }


def write_telemetry_artifacts(directory: Path) -> None:
    """A traced 3-machine coordinator epoch for the CI artifact upload:
    its epochs journal, span JSONL and metrics snapshot."""
    reset_global_metrics()
    fleet = cloned_fleet(golden_machine(120), 3, infected=(1,))
    telemetry = Telemetry.enabled()
    directory.mkdir(parents=True, exist_ok=True)
    with temp_coordinator(
            fleet, policy=EscalationPolicy("ris")) as coordinator:
        with telemetry.activate():
            coordinator.run_epoch()
        shutil.copy(coordinator.epochs_path, directory / "epochs.jsonl")
    (directory / "spans.jsonl").write_text(
        telemetry.tracer.to_jsonl() + "\n")
    (directory / "metrics_snapshot.json").write_text(
        global_metrics().dump_json() + "\n")
    print(f"wrote telemetry artifacts to {directory}")


# A gate is a label and either a result key that must be true or a
# predicate over the result.
Gate = Tuple[str, Union[str, Callable[[dict], bool]]]


@dataclass(frozen=True)
class Experiment:
    """One bench row: what runs, at which sizes, and what must hold.

    ``gates`` hold on every run; ``floors`` are speed-up gates, checked
    only at full size, which smoke sizes are too small to clear.  A row
    with a ``flag`` runs alone at full size under that flag, and a row
    without ``smoke`` sizes runs only so.  ``render`` prints extra lines.
    """

    name: str
    run: Callable[..., dict]
    smoke: Optional[dict]
    full: dict
    gates: Tuple[Gate, ...] = ()
    floors: Tuple[Gate, ...] = ()
    flag: Optional[str] = None
    render: Optional[Callable[[dict], str]] = None


EXPERIMENTS = (
    Experiment(
        "telemetry_overhead", bench_telemetry_overhead,
        smoke=dict(file_count=120, reads=500),
        full=dict(file_count=1000, reads=10_000),
        gates=(("telemetry overhead <= 5%",
                lambda r: r["overhead_pct"] <= 5.0),)),
    Experiment(
        "delta_rescan", bench_delta_rescan,
        smoke=dict(file_count=120, mutations=4),
        full=dict(file_count=1000, mutations=10),
        gates=(("delta rescan findings identical", "findings_identical"),),
        floors=(("delta rescan speedup >= 10x",
                 lambda r: r["speedup"] >= 10),)),
    Experiment(
        "delta_sweep", bench_delta_sweep,
        smoke=dict(fleet_size=6, workers=2, file_count=120, changed=3),
        full=dict(fleet_size=50, workers=8, file_count=120, changed=3),
        gates=(("delta sweep findings identical", "findings_identical"),
               ("delta sweep skipped every unchanged machine",
                lambda r: r["skipped"]
                == r["fleet_size"] - len(r["changed_machines"]))),
        floors=(("delta sweep speedup >= 5x", lambda r: r["speedup"] >= 5),)),
    Experiment(
        "fleet_escalation", bench_fleet_escalation,
        smoke=dict(file_count=120, strains=5),
        full=dict(file_count=120, strains=12),
        gates=(("fleet escalation precision 1.0",
                lambda r: r["precision"] == 1.0 and bool(r["escalated"])),
               ("fleet escalation confirmed_by provenance",
                "confirmed_by_provenance_ok"))),
    Experiment(
        "cold_parse_zero_copy", bench_cold_parse_zero_copy,
        smoke=dict(file_count=120), full=dict(file_count=1000),
        gates=(("zero-copy parse namespace identical",
                "namespace_identical"),),
        floors=(("cold zero-copy parse >= 5x",
                 lambda r: r["speedup"] >= 5),)),
    Experiment(
        "memory_ceiling", bench_memory_ceiling,
        smoke=dict(fleet_size=6, file_count=120),
        full=dict(fleet_size=16, file_count=200),
        gates=(("memory ceiling verdicts identical", "verdicts_identical"),),
        floors=(("memory ceiling >= 4x machines per GB",
                 lambda r: r["density_ratio"] >= 4),)),
    Experiment(
        "distributed_sweep", bench_distributed_sweep,
        smoke=dict(fleet_size=4, file_count=120, agents=2),
        full=dict(fleet_size=8, file_count=1000, agents=4),
        gates=(("distributed sweep verdicts identical",
                "verdicts_identical"),
               ("distributed chaos zero lost machines", "chaos_zero_lost"),
               ("distributed chaos verdicts identical",
                "chaos_verdicts_identical")),
        # Forked agents need cores to beat GIL-serialized threads; with
        # fewer than 4 they can only time-slice, so there the floor is
        # that the wire + fork overhead stays bounded.
        floors=(("distributed sweep >= 2x single process "
                 "(overhead <= 3x below 4 cores)",
                 lambda r: r["speedup"] >= 2 if r["cpu_count"] >= 4
                 else r["distributed_s"] <= 3 * r["single_process_s"]),)),
    Experiment(
        "sampled_sweep", bench_sampled_sweep,
        smoke=dict(fleet_size=20, epochs=3, rates=(0.05, 0.35), workers=2),
        full=dict(fleet_size=200, epochs=4, rates=(0.05, 0.15, 0.35),
                  workers=8),
        gates=(("sampled sweep full recall 1.0",
                lambda r: r["full_recall"] == 1.0),
               ("sampled sweep no false positives", "false_positive_free"),
               ("sampled sweep actually sampled",
                lambda r: all(point["sampled_scans"] > 0
                              for point in r["curve"]))),
        floors=(("sampled sweep >= 5x reduction at recall >= 0.95",
                 lambda r: r["operating_reduction"] >= 5
                 and r["operating_recall"] >= 0.95),)),
    Experiment(
        "trace_replay", bench_trace_replay,
        smoke=dict(fleet_size=8, epochs=2),
        full=dict(fleet_size=20, epochs=2),
        gates=(("trace replay verdicts element-identical",
                "verdicts_identical"),
               ("trace replay journals byte-identical across replays",
                "journal_digests_identical"),
               ("trace replay digests identical", "trace_digests_identical"),
               ("trace replay infection detected and identical",
                lambda r: r["infected_identical"] and r["detected"])),
        flag="--workload-replay"),
    Experiment(
        "stealth_campaign", bench_stealth_campaign,
        smoke=dict(fleet_size=12, epochs=3, workers=2),
        full=dict(fleet_size=50, epochs=3, workers=4),
        gates=(("stealth defended precision 1.0 at every level",
                "defended_precision_all_1"),
               ("stealth defended recall >= 0.95 through high",
                lambda r: r["defended_recall_min_through_high"] >= 0.95),
               ("stealth naive recall measurably degraded when aware",
                lambda r: r["naive_recall_max_when_aware"]
                <= r["defended_recall_min_through_high"] - 0.5),
               ("stealth campaign alerts deduped across rotated "
                "identities", "campaign_alerts_deduped"),
               ("stealth campaigns deterministic across runs",
                lambda r: r["determinism"]["runs_identical"]),),
        flag="--stealth-campaign",
        render=lambda r: render_stealth_curve({"stealth_campaign": r})),
    Experiment(
        "chaos", bench_chaos_sweep,
        smoke=dict(fleet_size=6, workers=2, file_count=120),
        full=dict(fleet_size=12, workers=8, file_count=120),
        gates=(("chaos sweep recall unchanged", "recall_unchanged"),
               ("chaos sweep zero errors", lambda r: not r["errors"]),
               ("chaos sweep faults actually fired",
                lambda r: r["faults_fired"] > 0),
               ("chaos sweep faults fired at disk.read",
                lambda r: r["disk_read_faults"] > 0))),
    Experiment(
        "fleet_soak", bench_fleet_soak,
        smoke=None, full=dict(epochs=3, fleet_size=50),
        gates=(("fleet soak zero lost machines",
                lambda r: all(s["machines"] == r["fleet_size"]
                              for s in r["summaries"])),
               ("fleet soak checkpoint read back from disk",
                lambda r: not r["checkpoint_failures"]),
               ("fleet soak faults actually fired",
                lambda r: r["faults_fired"] > 0),
               ("fleet soak faults fired at disk.read",
                lambda r: r["disk_read_faults"] > 0)),
        flag="--fleet-soak"),
    Experiment(
        "distributed_soak", bench_distributed_soak,
        smoke=None, full=dict(epochs=3, fleet_size=50, agents=2),
        gates=(("distributed soak zero lost machines",
                lambda r: not r["lost"]),
               ("distributed soak element-identical to the "
                "single-process reference", lambda r: not r["differing"]),
               ("distributed soak killed agent-0 declared dead",
                lambda r: r["agents"].get("agent-0", {}).get("state")
                == AGENT_DEAD),
               ("distributed soak checkpoint read back from disk",
                lambda r: not r["checkpoint_failures"])),
        flag="--distributed-soak"),
)


def run_rows(rows, full: bool) -> Tuple[dict, list]:
    """Run ``rows``, printing headlines and gate verdicts; return each
    row's result (sizes included) by name and the failed gate labels."""
    results, failed = {}, []
    for row in rows:
        sizes = row.full if full else row.smoke
        result = results[row.name] = {**sizes, **row.run(**sizes)}
        # The headline: every top-level number the run measured.
        print(f"{row.name} {sizes}: " + ", ".join(
            f"{key} {value:g}" for key, value in result.items()
            if key not in sizes and type(value) in (int, float)))
        if row.render is not None:
            print(row.render(result))
        for label, check in row.gates + (row.floors if full else ()):
            passed = bool(result[check] if isinstance(check, str)
                          else check(result))
            print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
            if not passed:
                failed.append(label)
    return results, failed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="every row at its smoke size, no floors (CI)")
    parser.add_argument("--out", type=Path, metavar="FILE",
                        help="write the results JSON to FILE")
    parser.add_argument("--telemetry-out", type=Path, metavar="DIR",
                        help="write a traced epoch's artifacts to DIR")
    for row in EXPERIMENTS:
        if row.flag:
            parser.add_argument(row.flag, dest="mode", action="store_const",
                                const=row.name, help=f"run only the "
                                f"{row.name} row, at its full size")
    parser.add_argument("--trace", type=Path, metavar="FILE",
                        help="record the trace_replay workload to FILE")
    parser.add_argument("--replay", type=Path, metavar="FILE",
                        help="replay a recorded sweep trace")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    by_name = {row.name: row for row in EXPERIMENTS}
    if args.trace or args.replay:
        trace = (record_trace(args.trace, **by_name["trace_replay"].full)
                 if args.trace else replay_trace(args.replay))
        print(f"{trace.trace_path}: trace digest {trace.trace_digest}, "
              f"journal digest {trace.journal_digest}")
        for epoch, verdicts in enumerate(trace.verdicts, start=1):
            infected = [name for name, key in sorted(verdicts.items())
                        if key[0] == "infected"]
            print(f"  epoch {epoch}: {len(verdicts)} verdict(s), infected: "
                  f"{', '.join(infected) or 'none'}")
        return 0
    if args.mode is not None:
        rows, full = [by_name[args.mode]], True
    else:
        rows = [row for row in EXPERIMENTS if row.smoke is not None]
        full = not args.smoke
    results, failed = run_rows(rows, full)
    if args.telemetry_out is not None:
        write_telemetry_artifacts(args.telemetry_out)
    if args.out is not None:
        payload = {"mode": args.mode or ("full" if full else "smoke"),
                   "failed": failed, **results}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if failed:
        print(f"FAILED gates: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
