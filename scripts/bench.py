#!/usr/bin/env python3
"""Substrate hot-path benchmark: the trajectory future PRs must beat.

Measures the hot paths and writes the timings to ``BENCH_PR6.json``:

1. **raw MFT parse (cold)** — one full namespace parse of a 1000-file
   disk with every cache cleared;
2. **repeated ``read_file_content``** — N content reads through one
   parser, against a faithful emulation of the pre-caching code (a full
   MFT re-parse per lookup);
3. **raw ASEP scan (multi-hive)** — repeated low-level registry scans,
   against the pre-caching behaviour (full MFT re-parse per hive file
   plus an unmemoized hive parse per scan);
4. **RIS fleet sweep** — 50 clients cloned from one golden image, serial
   vs 8 workers, with a per-client wait modelling the PXE/TFTP transfer
   and client-side I/O the server spends its time on in a real
   deployment (the simulated scan itself is in-process compute, which
   the GIL serializes; the latency-dominated regime is where a real RIS
   server lives and where parallel sweeps pay off);
5. **10k-entry cross-view diff** — the detection engine's inner loop;
6. **telemetry overhead** — the repeated-read loop with the default
   no-op telemetry vs a fully nulled-out registry, gating the cost of
   the (inactive) instrumentation at <= 5%;
7. **chaos sweep** — the same fleet swept fault-free and then under a
   5% deterministic fault plan, gating that recall is unchanged (same
   infected machines, same finding identities), nothing errors or
   quarantines, and the plan actually fired faults;
8. **delta rescan** — the low-level truth re-derivation (full MFT
   namespace plus every raw hive parse) on a 1000-file machine, cold vs
   warm after K small mutations, where the warm arm repairs its caches
   through the change journal instead of re-walking the volume — gated
   at >= 10x with byte-identical findings;
9. **delta fleet sweep** — the 50-machine fleet swept ``mode="delta"``
   against a seeded :class:`BaselineStore` with 3 machines changed,
   vs a full re-sweep — gated at >= 5x with identical
   ``infected_machines``;
10. **fleet epoch** — a checkpointed :mod:`repro.fleet` coordinator
    epoch over the 50-machine fleet: the seed epoch scans everything,
    the steady-state epoch rides the baselines — gated at >= 5x over a
    naive serial full sweep;
11. **fleet escalation** — a twelve-strain fleet (one corpus member per
    machine plus clean controls) run through the inside→outside
    escalation policy — gated at precision 1.0 (no clean machine ever
    pays for a confirmation boot) with ``confirmed_by`` provenance on
    every confirmed detection;
12. **cold zero-copy parse** — one cold MFT+hive truth derivation at
    Machine-default scale (65536 MFT slots) through the flat backend's
    batched ``memoryview`` walk, against the seed's per-record read
    loop — gated at >= 5x with an identical parsed namespace and
    byte-identical detection reports;
13. **memory ceiling** — machines-per-GB of a copy-on-write fleet
    (every clone sharing one sealed golden extent) vs deep-copied
    clones — gated at >= 4x density with element-identical sweep
    verdicts after clone-divergence writes;
14. **console query** — per-machine point lookups against a
    50-machine x 20-epoch journal, answered through the console's
    sidecar :class:`~repro.console.index.JournalIndex` (p50/p95) vs a
    full journal replay per lookup — gated at >= 10x on the median
    with record-identical answers and an index ``fleet_status`` that
    matches the replayed one;
15. **index overhead** — the steady-state fleet epoch re-run with the
    coordinator's write-time index hooks enabled vs disabled — gated
    at <= 5% added wall clock (the console must be free to leave on);
16. **distributed sweep** — the parse-heavy corpus swept by
    ``run_distributed`` (a controller plus forked scan-agent
    processes) vs the single-process coordinator at equal worker
    count: the GIL serializes in-process parse workers, the agent
    processes do not — gated at >= 2x on hosts with >= 4 cores (a
    single-core host can only time-slice the agents, so there the gate
    is bounded overhead instead), always with element-identical
    verdicts and finding identities, plus a partition-chaos arm (5% of
    wire frames dropped/delayed/duplicated/torn) that must lose zero
    machines and change zero verdicts.

17. **sampled sweep** — a 200-machine profiled fleet under a seeded
    HackerDefender infection wave, swept in full and then with the
    stratified :class:`~repro.workloads.sampling.SamplingPolicy` at
    three file-sampling rates; steady-state (post-cold-start)
    simulated scan-seconds and measured recall against the planted
    ground truth form the recall-vs-cost curve — gated at an
    operating point with >= 5x reduction at recall >= 0.95 (the ASEP
    stratum is never sampled, which is the paper's persistence
    argument doing the recall work);
18. **trace replay** — a recorded 20-machine sweep trace replayed on
    both disk backends — gated on element-identical verdicts and
    byte-identical ``epochs.jsonl`` journals across the backends.

``--fleet-soak`` ignores the benchmarks and instead runs the CI soak:
N epochs over a fleet under a deterministic fault plan, gating that no
machine is ever lost (every epoch yields a verdict for every machine).

``--distributed-soak`` is the distributed-mode counterpart: N epochs
over the fleet with forked agents, one of which ``kill -9``s itself
mid-lease in the first epoch — gated on element-identical verdicts vs
an uninterrupted single-process reference and zero lost machines.

Every cached benchmark also reports the cache hit/miss counters the
telemetry registry recorded while it ran, so the JSON shows *why* the
cached numbers are fast, not just that they are.

Run:  PYTHONPATH=src python scripts/bench.py [--smoke] [--out FILE]
                                             [--telemetry-out DIR]

``--telemetry-out DIR`` additionally runs a tiny telemetry-collecting
sweep and writes ``sweep_telemetry.jsonl`` + ``metrics_snapshot.json``
there (CI uploads them as artifacts).

``--workload-replay`` runs only the CI workload-replay smoke: record a
2-epoch x 20-machine trace, replay it twice, and gate element-identical
verdicts plus identical trace and journal digests.  ``--trace FILE``
records that reference workload's trace to FILE and exits;
``--replay FILE`` replays an existing trace and prints its digests and
verdict summary.

``--smoke`` shrinks every profile for CI (no speedup gates, no default
output file); the full run enforces the PR-1 acceptance floors and
fails loudly if a regression drops below them.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import BaselineStore, GhostBuster, RisServer  # noqa: E402
from repro.core.diff import DetectionReport, cross_view_diff  # noqa: E402
from repro.core.scanners.registry import low_level_asep_scan  # noqa: E402
from repro.core.snapshot import (FileEntry, ResourceType,     # noqa: E402
                                 ScanSnapshot)
from repro.disk import Disk, DiskGeometry                   # noqa: E402
from repro.fleet import clone_fleet, fleet_storage_stats    # noqa: E402
from repro.ghostware import HackerDefender                  # noqa: E402
from repro.machine import HIVE_FILES, Machine               # noqa: E402
from repro.ntfs import MftParser, NtfsVolume                # noqa: E402
from repro.registry import hive_parser                      # noqa: E402
from repro.telemetry.metrics import (NullMetrics,           # noqa: E402
                                     global_metrics,
                                     reset_global_metrics,
                                     set_global_metrics)
from repro.workloads import populate_machine                # noqa: E402

OUT_DEFAULT = Path(__file__).resolve().parent.parent / "BENCH_PR10.json"


def clear_caches(*disks) -> None:
    hive_parser.clear_hive_cache()
    for disk in disks:
        disk.raw_cache.clear()


def timed(action, repeat: int = 3) -> float:
    """Best-of-N wall-clock seconds for ``action()``."""
    samples = []
    for __ in range(repeat):
        start = time.perf_counter()
        action()
        samples.append(time.perf_counter() - start)
    return min(samples)


def cache_counters() -> dict:
    """The registry's cache hit/miss counters, for bench attribution."""
    counters = global_metrics().snapshot()["counters"]
    return {name: counters[name] for name in sorted(counters)
            if "cache" in name or "memo" in name}


def delta_counters() -> dict:
    """The journal / bin-delta repair counters, for bench attribution."""
    counters = global_metrics().snapshot()["counters"]
    return {name: counters[name] for name in sorted(counters)
            if name.startswith(("journal.", "hive.delta.", "ris.delta."))}


def finding_identities(report) -> str:
    """Canonical JSON of a report's non-noise findings, for byte equality."""
    return json.dumps(sorted(
        (f.resource_type.value, str(f.entry.identity))
        for f in report.findings if not f.is_noise))


# -- profiles -----------------------------------------------------------------


def populated_disk(file_count: int) -> Disk:
    disk = Disk(DiskGeometry.from_megabytes(256))
    volume = NtfsVolume.format(disk, max_records=file_count * 2 + 64)
    volume.create_directories("\\data")
    for index in range(file_count):
        volume.create_file(f"\\data\\file{index:05d}.bin", b"x" * 100)
    return disk


def golden_machine(file_count: int) -> Machine:
    machine = Machine("golden", disk_mb=512, max_records=8192)
    populate_machine(machine, file_count=file_count, registry_scale=200,
                     seed=7)
    return machine


def cloned_fleet(golden: Machine, count: int, infected=()):
    return clone_fleet(golden, count, infected=infected,
                       infect=lambda machine:
                       HackerDefender().install(machine),
                       max_records=8192)


# -- hot paths ----------------------------------------------------------------


def bench_raw_mft_parse(file_count: int) -> float:
    disk = populated_disk(file_count)

    def cold_parse():
        clear_caches(disk)
        entries = MftParser(disk.read_bytes).parse()
        assert len(entries) == file_count + 1

    return timed(cold_parse)


def bench_read_file_content(file_count: int, reads: int) -> dict:
    disk = populated_disk(file_count)
    paths = [f"\\data\\file{i:05d}.bin" for i in range(reads)]

    def legacy():
        # Pre-caching behaviour: find_by_path fully re-parsed the MFT on
        # every call; emulated with a cache-cleared fresh parser per read.
        for path in paths:
            clear_caches(disk)
            assert MftParser(disk.read_bytes).read_file_content(path)

    def cached():
        clear_caches(disk)
        parser = MftParser(disk.read_bytes)
        for path in paths:
            assert parser.read_file_content(path)

    legacy_s = timed(legacy, repeat=1)
    reset_global_metrics()
    cached_s = timed(cached)
    return {"legacy_s": legacy_s, "cached_s": cached_s,
            "speedup": legacy_s / cached_s,
            "cache_counters": cache_counters()}


def bench_raw_asep_scan(file_count: int, scans: int) -> dict:
    machine = golden_machine(file_count)
    machine.boot()
    port = machine.kernel.disk_port

    def legacy_once():
        # Pre-caching RawHiveReader: one full MFT parse per hive file
        # (find_by_path scanned the whole namespace) and an unmemoized
        # hive parse per scan.
        for hive_file in HIVE_FILES.values():
            clear_caches(machine.disk)
            blob = MftParser(port.read_bytes).read_file_content(hive_file)
            hive_parser.HiveParser(blob).parse()

    def legacy():
        for __ in range(scans):
            legacy_once()

    def cached():
        clear_caches(machine.disk)
        for __ in range(scans):
            low_level_asep_scan(machine)

    legacy_s = timed(legacy, repeat=1)
    reset_global_metrics()
    cached_s = timed(cached)
    return {"legacy_s": legacy_s, "cached_s": cached_s,
            "speedup": legacy_s / cached_s,
            "cache_counters": cache_counters()}


def bench_ris_sweep(fleet_size: int, workers: int, client_wait: float,
                    file_count: int) -> dict:
    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]
    server = RisServer(client_wait_seconds=client_wait)

    def finding_key(result):
        return sorted(
            (name, sorted((f.resource_type.value, str(f.entry.identity))
                          for f in report.findings if not f.is_noise))
            for name, report in result.reports.items())

    serial_fleet = cloned_fleet(golden, fleet_size, infected)
    serial = server.sweep(serial_fleet, max_workers=1)
    parallel_fleet = cloned_fleet(golden, fleet_size, infected)
    parallel = server.sweep(parallel_fleet, max_workers=workers)

    identical = finding_key(serial) == finding_key(parallel)
    return {
        "fleet_size": fleet_size,
        "workers": workers,
        "client_wait_s": client_wait,
        "serial_s": serial.wall_seconds,
        "parallel_s": parallel.wall_seconds,
        "speedup": serial.wall_seconds / parallel.wall_seconds,
        "findings_identical": identical,
        "infected_machines": parallel.infected_machines,
        "simulated_seconds": parallel.simulated_seconds,
    }


def bench_diff_10k(entry_count: int) -> float:
    def snapshot(view, count, offset=0):
        entries = [FileEntry(f"\\f{i + offset}", f"f{i + offset}", False, 0)
                   for i in range(count)]
        return ScanSnapshot(ResourceType.FILE, view=view, entries=entries)

    lie = snapshot("lie", entry_count)
    truth = snapshot("truth", entry_count, offset=5)

    def diff_and_merge():
        report = DetectionReport("bench", mode="inside")
        for __ in range(5):
            report.add_findings(cross_view_diff(lie, truth))
        assert len(report.findings) == 5

    return timed(diff_and_merge)


def bench_telemetry_overhead(file_count: int, reads: int) -> dict:
    """Cost of inactive instrumentation on the repeated-reads benchmark.

    ``default``: the shipped configuration — no-op tracer (no telemetry
    context activated) and the real global :class:`MetricsRegistry`
    taking counter increments.  ``nulled``: every telemetry call swapped
    for a pure no-op via :class:`NullMetrics`.  The measured loop is the
    same shape as the ``read_file_content`` benchmark's cached arm: one
    cold namespace parse, then N reads through the same parser.

    ``warm_read_overhead_ns`` additionally reports the absolute per-read
    cost on an already-warm parser (a counter increment plus a memo
    lookup; sub-microsecond).  That synthetic worst case is
    informational — the gate applies to the benchmark loop, where a
    single scan's real work amortizes it.

    Samples for the two arms are interleaved (default, nulled, default,
    ...) so that slow drift on a shared CI runner biases both arms
    equally instead of landing wholly on whichever ran second; each
    arm's figure is the min of its samples.
    """
    disk = populated_disk(file_count)
    paths = [f"\\data\\file{i % file_count:05d}.bin" for i in range(reads)]

    def loop():
        clear_caches(disk)
        parser = MftParser(disk.read_bytes)
        for path in paths:
            assert parser.read_file_content(path)

    def warm_loop(parser):
        for path in paths:
            assert parser.read_file_content(path)

    def nulled(action):
        previous = set_global_metrics(NullMetrics())
        try:
            return action()
        finally:
            set_global_metrics(previous)

    loop()   # first call primes interpreter-level state for both arms
    # The warm parsers resolve their counter handles at construction, so
    # each arm needs one built under its own registry.
    default_warm = MftParser(disk.read_bytes)
    default_warm.read_file_content(paths[0])
    nulled_warm = nulled(lambda: MftParser(disk.read_bytes))
    nulled_warm.read_file_content(paths[0])
    default_samples, nulled_samples = [], []
    default_warm_samples, nulled_warm_samples = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()   # collector pauses dwarf the per-read delta under test
    try:
        for round_no in range(10):
            arms = [
                (default_samples, lambda: timed(loop, repeat=1)),
                (nulled_samples, lambda: nulled(
                    lambda: timed(loop, repeat=1))),
                (default_warm_samples,
                 lambda: timed(lambda: warm_loop(default_warm), repeat=1)),
                (nulled_warm_samples, lambda: nulled(
                    lambda: timed(lambda: warm_loop(nulled_warm),
                                  repeat=1))),
            ]
            # Alternate which arm leads so any state left by the
            # preceding collect() penalizes both arms equally.
            if round_no % 2:
                arms.reverse()
            for samples, measure in arms:
                samples.append(measure())
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    default_s = min(default_samples)
    nulled_s = min(nulled_samples)
    # Each round's two arm samples are adjacent in time, so their ratio
    # cancels drift; the median across rounds discards spike-corrupted
    # pairs that a min-of-N over independent arms cannot.
    overhead = statistics.median(
        d / n - 1.0 for d, n in zip(default_samples, nulled_samples))
    warm_delta_ns = statistics.median(
        d - n for d, n in zip(default_warm_samples,
                              nulled_warm_samples)) / len(paths) * 1e9
    return {"default_s": default_s, "nulled_s": nulled_s,
            "overhead_pct": round(overhead * 100.0, 3),
            "warm_read_overhead_ns": round(warm_delta_ns, 1)}


def bench_chaos_sweep(fleet_size: int, workers: int, file_count: int,
                      rate: float = 0.05, seed: int = 2026) -> dict:
    """Recall under chaos: the PR-3 acceptance sweep.

    The same cloned fleet is swept twice — fault-free, then with a
    deterministic :class:`FaultPlan` firing at ``rate`` across every
    instrumented site — and the two sweeps must convict exactly the
    same machines on exactly the same evidence, with zero unhandled
    errors and zero quarantines.
    """
    from repro.faults.plan import FaultPlan

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]

    def identities(result):
        return sorted(
            (name, sorted((f.resource_type.value, str(f.entry.identity))
                          for f in report.findings if not f.is_noise))
            for name, report in result.reports.items())

    baseline_fleet = cloned_fleet(golden, fleet_size, infected)
    baseline = RisServer().sweep(baseline_fleet, max_workers=workers)

    plan = FaultPlan.default(seed=seed, rate=rate)
    chaos_fleet = cloned_fleet(golden, fleet_size, infected)
    started = time.perf_counter()
    chaotic = RisServer(fault_plan=plan).sweep(chaos_fleet,
                                               max_workers=workers)
    chaos_wall = time.perf_counter() - started

    return {
        "fleet_size": fleet_size,
        "fault_rate": rate,
        "seed": seed,
        "faults_fired": plan.fired_count(),
        "fault_sites": sorted({f.site for f in plan.fired()}),
        "sequence_digest": plan.sequence_digest(),
        "baseline_infected": baseline.infected_machines,
        "chaos_infected": chaotic.infected_machines,
        "recall_unchanged": identities(baseline) == identities(chaotic),
        "errors": dict(chaotic.errors),
        "quarantined": dict(chaotic.quarantined),
        "retries": dict(chaotic.retry_counts),
        "baseline_wall_s": baseline.wall_seconds,
        "chaos_wall_s": chaos_wall,
    }


def bench_delta_rescan(file_count: int, mutations: int) -> dict:
    """Warm journal-patched rescan vs cold full scan after K mutations.

    The cold arm is what every rescan paid before the change journal: a
    full MFT namespace parse plus a cold parse of every registry hive.
    The warm arm applies ``mutations`` small changes per round (file
    create, content rewrite, ADS add, one registry value edit, filler
    creates) and re-derives the same truth through the journal-patch /
    bin-delta path.  Both arms then run a full inside detection at the
    same disk state and their findings must serialize identically.
    """
    machine = golden_machine(file_count)
    machine.boot()
    HackerDefender().install(machine)
    machine.registry.create_key("HKLM\\SOFTWARE\\BenchDelta")
    disk = machine.disk
    port = machine.kernel.disk_port

    def derive_truth():
        # The low-level truth re-derivation a scan's cache miss pays:
        # the full MFT namespace plus every raw hive parse off it.
        parser = MftParser(port.read_bytes)
        entries = parser.parse()
        for hive_file in HIVE_FILES.values():
            hive_parser.parse_hive(parser.read_file_content(hive_file))
        return entries

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

    def cold():
        clear_caches(disk)
        derive_truth()

    cold_s = timed(cold)

    reset_global_metrics()
    derive_truth()              # warm the caches at the current generation
    warm_samples = []
    for round_no in range(3):
        mutate(round_no)
        warm_samples.append(timed(derive_truth, repeat=1))
    warm_s = min(warm_samples)

    warm_report = GhostBuster(machine).detect()
    clear_caches(disk)
    cold_report = GhostBuster(machine).detect()
    identical = (finding_identities(warm_report)
                 == finding_identities(cold_report))
    return {
        "file_count": file_count,
        "mutations_per_round": mutations,
        "cold_s": cold_s,
        "warm_delta_s": warm_s,
        "speedup": cold_s / warm_s,
        "findings_identical": identical,
        "delta_counters": delta_counters(),
    }


def bench_delta_sweep(fleet_size: int, workers: int, client_wait: float,
                      file_count: int, changed: int) -> dict:
    """Delta sweep against seeded baselines vs a full re-sweep.

    A golden-image fleet is swept once in full with a
    :class:`BaselineStore` attached (seeding one baseline per machine),
    ``changed`` machines then receive one small write each, and the
    fleet is swept again in ``mode="delta"`` — which must skip every
    unchanged machine — and once more in full for the reference wall
    clock and verdict.
    """
    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]
    fleet = cloned_fleet(golden, fleet_size, infected)
    server = RisServer(client_wait_seconds=client_wait)

    def identities(result):
        return sorted((name, finding_identities(report))
                      for name, report in result.reports.items())

    with tempfile.TemporaryDirectory(prefix="gb-bench-baselines-") as tmp:
        store = BaselineStore(tmp)
        seed = server.sweep(fleet, max_workers=workers, mode="full",
                            baseline_store=store)
        step = max(1, fleet_size // max(1, changed))
        changed_names = []
        for index in range(changed):
            machine = fleet[(index * step + 1) % fleet_size]
            machine.volume.create_file(
                f"\\Temp\\delta-{machine.name}.bin", b"delta payload")
            changed_names.append(machine.name)
        delta = server.sweep(fleet, max_workers=workers, mode="delta",
                             baseline_store=store)
        full = server.sweep(fleet, max_workers=workers)

    return {
        "fleet_size": fleet_size,
        "workers": workers,
        "client_wait_s": client_wait,
        "changed_machines": changed_names,
        "seed_full_s": seed.wall_seconds,
        "delta_s": delta.wall_seconds,
        "full_s": full.wall_seconds,
        "speedup": full.wall_seconds / delta.wall_seconds,
        "skipped": len(delta.delta_skipped),
        "rescanned": fleet_size - len(delta.delta_skipped),
        "infected_identical":
            delta.infected_machines == full.infected_machines,
        "findings_identical": identities(delta) == identities(full),
        "infected_machines": delta.infected_machines,
        "delta_stats": delta.delta_stats,
    }


def bench_fleet_epoch(fleet_size: int, file_count: int,
                      workers: int) -> dict:
    """Checkpointed fleet epochs vs a naive serial full sweep.

    The naive arm scans every machine with a fresh
    :class:`GhostBuster`, serially, every time — the cost an epoch
    would pay with no baselines, no delta skips, no queue.  The
    coordinator arm seeds its baselines in epoch 1 and then runs a
    steady-state epoch 2 in which every unchanged machine rides its
    stored verdict.  The steady-state epoch is the service's recurring
    cost and must be >= 5x cheaper than the naive sweep.
    """
    from repro.fleet import FleetCoordinator

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]

    naive_fleet = cloned_fleet(golden, fleet_size, infected)

    def naive_sweep():
        for machine in naive_fleet:
            GhostBuster(machine, advanced=True).inside_scan(
                resources=("files", "registry"))

    naive_s = timed(naive_sweep, repeat=1)

    fleet = cloned_fleet(golden, fleet_size, infected)
    with tempfile.TemporaryDirectory(prefix="gb-bench-fleet-") as tmp:
        coordinator = FleetCoordinator(tmp, fleet, workers=workers,
                                       compact_every=2)
        started = time.perf_counter()
        seeded = coordinator.run_epoch()
        seed_s = time.perf_counter() - started
        started = time.perf_counter()
        steady = coordinator.run_epoch()
        steady_s = time.perf_counter() - started

    return {
        "fleet_size": fleet_size,
        "workers": workers,
        "naive_serial_s": naive_s,
        "seed_epoch_s": seed_s,
        "steady_epoch_s": steady_s,
        "speedup": naive_s / steady_s,
        "seed_summary": seeded.summary.to_dict(),
        "steady_summary": steady.summary.to_dict(),
        "steady_all_skipped":
            steady.summary.skipped == steady.summary.machines,
        "verdicts_stable": ({v.machine: v.verdict for v in seeded.verdicts}
                            == {v.machine: v.verdict
                                for v in steady.verdicts}),
    }


def bench_fleet_escalation(file_count: int, clean_controls: int = 4,
                           strains: int = 12) -> dict:
    """Escalation precision over the twelve-strain corpus.

    One corpus member per machine, plus ``clean_controls`` uninfected
    machines.  Every machine whose inside scan finds something pays for
    an outside-the-box confirmation; precision 1.0 means no clean
    machine ever escalated (the paper's cost model only works if the
    expensive tier is reserved for real suspects).
    """
    from repro.fleet import EscalationPolicy, FleetCoordinator
    from repro.ghostware import (AdsGhost, Aphex, Berbew, CmCallbackGhost,
                                 FuRootkit, Mersting, NamingExploitGhost,
                                 ProBotSE, RegistryNamingGhost, Urbin,
                                 Vanquish)

    corpus = (HackerDefender, Urbin, Mersting, Vanquish, Aphex, ProBotSE,
              Berbew, NamingExploitGhost, RegistryNamingGhost,
              CmCallbackGhost, AdsGhost, FuRootkit)[:max(1, strains)]
    golden = golden_machine(file_count)
    fleet = cloned_fleet(golden, len(corpus) + clean_controls)
    infected_names = []
    for machine, ghost_cls in zip(fleet, corpus):
        ghost = ghost_cls()
        ghost.install(machine)
        if isinstance(ghost, FuRootkit):
            victim = machine.start_process("\\Windows\\explorer.exe",
                                           name="dkom_victim.exe")
            ghost.hide_process(machine, victim.pid)
        infected_names.append(machine.name)

    with tempfile.TemporaryDirectory(prefix="gb-bench-escal-") as tmp:
        coordinator = FleetCoordinator(
            tmp, fleet, workers=2,
            policy=EscalationPolicy(confirm_with="winpe"),
            resources=("files", "registry", "processes"))
        aggregate = coordinator.run_epoch()

    escalated = sorted(v.machine for v in aggregate.verdicts
                       if v.escalated)
    confirmed = sorted(v.machine for v in aggregate.verdicts
                       if v.confirmed)
    true_escalations = [name for name in escalated
                        if name in infected_names]
    precision = (len(true_escalations) / len(escalated)
                 if escalated else 0.0)
    provenance_ok = all(v.confirmed_by == "winpe"
                        for v in aggregate.verdicts if v.confirmed)
    return {
        "strains": len(corpus),
        "clean_controls": clean_controls,
        "infected": infected_names,
        "escalated": escalated,
        "confirmed": confirmed,
        "precision": precision,
        "recall": len(true_escalations) / len(infected_names),
        "confirmed_by_provenance_ok": provenance_ok,
        "summary": aggregate.summary.to_dict(),
    }


def bench_cold_parse_zero_copy(file_count: int) -> dict:
    """Batched zero-copy cold parse vs the seed's per-record read loop.

    Two machines are built identically at Machine defaults — a 512 MB
    disk whose MFT zone holds 65536 record slots — one on each backend.
    The legacy arm parses through a bare read callable, which the parser
    cannot resolve to a disk, so it issues one ``read_bytes`` round-trip
    per record slot (the seed behaviour on the seed backend).  The
    zero-copy arm parses the flat-backed twin through the disk itself:
    one batched region view, ``struct.unpack_from`` all the way down.
    Both arms finish with cold parses of every registry hive, so the
    figure is the full truth re-derivation a cache miss pays.
    """
    def build(backend: str) -> Machine:
        machine = Machine("zc-" + backend,
                          disk=Disk(DiskGeometry.from_megabytes(512),
                                    backend=backend))
        populate_machine(machine, file_count=file_count,
                         registry_scale=200, seed=7)
        return machine

    legacy_machine = build("sparse")
    zero_machine = build("flat")
    legacy_disk = legacy_machine.disk
    zero_disk = zero_machine.disk

    def cold_derivation(parser) -> None:
        parser.parse()
        for hive_file in HIVE_FILES.values():
            hive_parser.parse_hive(parser.read_file_content(hive_file))

    def legacy_cold():
        clear_caches(legacy_disk)
        cold_derivation(MftParser(
            lambda offset, length: legacy_disk.read_bytes(offset, length)))

    def zero_copy_cold():
        clear_caches(zero_disk)
        cold_derivation(MftParser(zero_disk.read_bytes))

    # Best-of-7: the zero-copy arm is tens of milliseconds, so scheduler
    # jitter dominates best-of-3 on a busy runner.
    legacy_s = timed(legacy_cold, repeat=7)
    zero_s = timed(zero_copy_cold, repeat=7)

    by_record = (lambda item: item.record_no)
    legacy_parsed = sorted(MftParser(
        lambda offset, length: legacy_disk.read_bytes(offset, length)
    ).parse(), key=by_record)
    zero_parsed = sorted(MftParser(zero_disk.read_bytes).parse(),
                         key=by_record)
    namespace_identical = legacy_parsed == zero_parsed

    for machine in (legacy_machine, zero_machine):
        machine.boot()
        HackerDefender().install(machine)
    reports_identical = (
        finding_identities(GhostBuster(legacy_machine).detect())
        == finding_identities(GhostBuster(zero_machine).detect()))

    return {
        "file_count": file_count,
        "mft_slots": zero_machine.volume.max_records,
        "legacy_cold_s": legacy_s,
        "zero_copy_cold_s": zero_s,
        "speedup": legacy_s / zero_s,
        "namespace_identical": namespace_identical,
        "reports_identical": reports_identical,
    }


def bench_memory_ceiling(fleet_size: int, file_count: int) -> dict:
    """Machines-per-GB: COW fleet vs deep-copied clones, same verdicts.

    Both fleets are imaged from identically built goldens (one per
    backend), infect the same indices, and diverge the same two clean
    clones with private writes.  Physical cost is
    :func:`fleet_storage_stats` — on the flat backend every clone
    shares one sealed golden extent and pays only its divergence, on
    the sparse backend every clone deep-copies the sector dict.  The
    sweeps over the two fleets must convict the same machines on the
    same evidence.
    """
    def build(backend: str) -> Machine:
        machine = Machine("ceil-" + backend,
                          disk=Disk(DiskGeometry.from_megabytes(512),
                                    backend=backend),
                          max_records=8192)
        # A content-heavy golden image and modest hives: every clone's
        # unavoidable divergence is its registry remount, so the density
        # a COW fleet can reach is golden footprint over hive churn.
        populate_machine(machine, file_count=file_count,
                         registry_scale=20, seed=7)
        for index in range(file_count):
            machine.volume.create_file(
                f"\\Program Files\\image{index:04d}.bin",
                bytes([index % 251]) * 4096)
        return machine

    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]

    def provision(golden: Machine):
        fleet = clone_fleet(golden, fleet_size, infected=infected,
                            infect=lambda machine:
                            HackerDefender().install(machine))
        for machine in fleet[1:3]:
            machine.volume.create_file(
                f"\\Temp\\diverge-{machine.name}.bin", b"D" * 4096)
        return fleet

    cow_fleet = provision(build("flat"))
    cow = fleet_storage_stats(cow_fleet)
    deep_fleet = provision(build("sparse"))
    deep = fleet_storage_stats(deep_fleet)

    gb = float(1 << 30)
    cow_per_gb = fleet_size / (cow["total_bytes"] / gb)
    deep_per_gb = fleet_size / (deep["total_bytes"] / gb)

    def verdict_key(result):
        return (result.infected_machines,
                sorted((name, finding_identities(report))
                       for name, report in result.reports.items()))

    server = RisServer()
    cow_sweep = server.sweep(cow_fleet, max_workers=4)
    deep_sweep = server.sweep(deep_fleet, max_workers=4)

    return {
        "fleet_size": fleet_size,
        "file_count": file_count,
        "cow_stats": cow,
        "deep_copy_stats": deep,
        "cow_machines_per_gb": cow_per_gb,
        "deep_copy_machines_per_gb": deep_per_gb,
        "density_ratio": cow_per_gb / deep_per_gb,
        "infected_machines": cow_sweep.infected_machines,
        "verdicts_identical": verdict_key(cow_sweep)
        == verdict_key(deep_sweep),
    }


def bench_console_query(fleet_size: int, epochs: int,
                        lookups: int) -> dict:
    """Console point lookups: sidecar index vs full journal replay.

    A synthetic coordinator-shaped journal (``fleet_size`` machines x
    ``epochs`` epochs of verdicts, summaries, and a few outbreaks) is
    queried for "machine X's latest full verdict record".  The indexed
    arm pays one no-op :meth:`JournalIndex.update` (the O(changes)
    staleness check a live console pays per request) plus an in-memory
    map hit plus one ``seek`` for the record bytes; the replay arm
    re-reads the whole journal per lookup, which is what
    ``fleet_status`` and every pre-console reader did.  Both arms must
    return byte-identical records, and the indexed ``fleet_status``
    document must equal the replayed one.
    """
    from repro.console import JournalIndex, fleet_status_from_index
    from repro.fleet import fleet_status
    from repro.telemetry.journal_io import append_journal, iter_journal

    def percentile(samples, fraction):
        ranked = sorted(samples)
        return ranked[min(len(ranked) - 1,
                          int(fraction * (len(ranked) - 1)))]

    machines = [f"cq-{index:03d}" for index in range(fleet_size)]
    with tempfile.TemporaryDirectory(prefix="gb-bench-console-") as tmp:
        epochs_path = str(Path(tmp) / "epochs.jsonl")
        clock = 0.0
        for epoch in range(1, epochs + 1):
            clock += 1.0
            append_journal(epochs_path, {
                "type": "epoch-start", "epoch": epoch, "at": clock,
                "machines": machines})
            for number, name in enumerate(machines):
                clock += 0.01
                infected = (number + epoch) % 7 == 0
                append_journal(epochs_path, {
                    "type": "fleet-machine", "epoch": epoch,
                    "machine": name,
                    "verdict": "infected" if infected else "clean",
                    "findings": 2 if infected else 0,
                    "scanned": True, "skipped": False,
                    "escalated": infected,
                    "finding_ids": (["file:hxdef100.exe"]
                                    if infected else []),
                    "scan_seconds": 0.25, "at": clock})
            if epoch % 5 == 0:
                append_journal(epochs_path, {
                    "type": "fleet-outbreak", "epoch": epoch,
                    "identity": "file:hxdef100.exe",
                    "machines": machines[:3], "threshold": 3,
                    "at": clock})
            append_journal(epochs_path, {
                "type": "epoch-end", "epoch": epoch, "at": clock,
                "machines": fleet_size, "infected": fleet_size // 7})

        journal_bytes = Path(epochs_path).stat().st_size
        index = JournalIndex(tmp)
        started = time.perf_counter()
        index.update()
        build_s = time.perf_counter() - started

        def indexed_lookup(name):
            index.update()   # the per-request staleness check, no-op
            history = index.machine_history(name)
            return index.machine_record(history[-1])

        def replay_lookup(name):
            latest = None
            for line in iter_journal(epochs_path):
                if (line.record.get("type") == "fleet-machine"
                        and line.record.get("machine") == name):
                    latest = line.record
            return latest

        targets = [machines[i % fleet_size] for i in range(lookups)]
        identical = True
        indexed_samples, replay_samples = [], []
        for name in targets:
            started = time.perf_counter()
            indexed = indexed_lookup(name)
            indexed_samples.append(time.perf_counter() - started)
            started = time.perf_counter()
            replayed = replay_lookup(name)
            replay_samples.append(time.perf_counter() - started)
            identical = identical and indexed == replayed

        status_identical = (fleet_status_from_index(tmp, index=index)
                            == fleet_status(tmp))

    indexed_p50 = percentile(indexed_samples, 0.50)
    replay_p50 = percentile(replay_samples, 0.50)
    return {
        "fleet_size": fleet_size,
        "epochs": epochs,
        "lookups": lookups,
        "journal_bytes": journal_bytes,
        "index_build_s": build_s,
        "indexed_p50_us": indexed_p50 * 1e6,
        "indexed_p95_us": percentile(indexed_samples, 0.95) * 1e6,
        "replay_p50_us": replay_p50 * 1e6,
        "replay_p95_us": percentile(replay_samples, 0.95) * 1e6,
        "speedup": replay_p50 / indexed_p50,
        "answers_identical": identical,
        "status_identical": status_identical,
    }


def bench_index_overhead(fleet_size: int, file_count: int,
                         workers: int) -> dict:
    """Write-time index maintenance cost on the steady fleet epoch.

    Two identical fleets run a seed epoch each (hooks on / hooks off),
    then their steady-state epochs — the service's recurring cost — are
    sampled in *paired interleaved rounds* (off then on, repeatedly)
    and the overhead is the **median of the per-round ratios**: pairing
    cancels machine-wide drift (page cache, CPU frequency, growing
    journals slow both arms alike), and the median resists the rare
    epochs where the index flushes its batched sidecar lines.  The
    hooks fold one in-memory entry per journal record, which must stay
    within 5% of the epoch's wall clock or the console stops being
    free to leave enabled.
    """
    from repro.fleet import FleetCoordinator

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]

    def steady_epoch_s(coordinator) -> float:
        started = time.perf_counter()
        coordinator.run_epoch()
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="gb-bench-idx-off-") as off_dir, \
            tempfile.TemporaryDirectory(prefix="gb-bench-idx-on-") as on_dir:
        off = FleetCoordinator(off_dir,
                               cloned_fleet(golden, fleet_size, infected),
                               workers=workers, console_index=False)
        on = FleetCoordinator(on_dir,
                              cloned_fleet(golden, fleet_size, infected),
                              workers=workers, console_index=True)
        for __ in range(2):       # seed epoch, then one warm-up each
            off.run_epoch()
            on.run_epoch()
        without_samples, with_samples, ratios = [], [], []
        for __ in range(11):
            without_s = steady_epoch_s(off)
            with_s = steady_epoch_s(on)
            without_samples.append(without_s)
            with_samples.append(with_s)
            ratios.append(with_s / without_s)

    median_ratio = sorted(ratios)[len(ratios) // 2]
    return {
        "fleet_size": fleet_size,
        "rounds": len(ratios),
        "steady_without_index_s": min(without_samples),
        "steady_with_index_s": min(with_samples),
        "overhead_pct": round((median_ratio - 1.0) * 100.0, 2),
    }


def _fleet_clone_factory(golden, infected, max_records=8192):
    """A by-name machine factory matching :func:`cloned_fleet`'s output.

    Used by the distributed arms: the roster travels as ``fleet-NN``
    names and each forked agent rebuilds exactly the clone the
    single-process arm holds (``fork`` shares the golden image
    copy-on-write, so per-agent clones stay cheap).
    """
    infected = frozenset(infected)

    def factory(name):
        index = int(name.rsplit("-", 1)[1])
        machine = Machine(name, disk=golden.disk.clone(),
                          max_records=max_records)
        machine.boot()
        if index in infected:
            HackerDefender().install(machine)
        return machine

    return factory


def _fleet_verdict_key(aggregate) -> dict:
    """Element identity for a fleet epoch, finding identities included."""
    return {v.machine: (v.verdict, v.findings, v.confirmed,
                        v.confirmed_by, tuple(sorted(v.finding_ids)))
            for v in aggregate.verdicts}


def bench_distributed_sweep(fleet_size: int, file_count: int,
                            agents: int) -> dict:
    """Forked scan agents vs the same coordinator's in-process threads.

    Both arms start from the same pre-built golden image and time
    clone + boot + scan of the whole fleet (one seed epoch).  The
    single-process arm runs ``agents`` worker *threads*, which the GIL
    serializes on the parse-heavy corpus; the distributed arm runs
    ``agents`` forked processes against the wire controller.  A third
    arm repeats the distributed run under 5% transport chaos and must
    change nothing.

    The >= 2x speedup gate only makes sense with cores to parallelize
    onto: on a single-core host (CI containers, typically) forked
    agents time-slice one CPU and the wire is pure overhead, so the
    gate degrades to a bounded-overhead check.  ``cpu_count`` rides in
    the result so the report stays honest about which was applied.
    """
    import os as _os

    from repro.fleet import FleetCoordinator

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]
    factory = _fleet_clone_factory(golden, infected)
    roster = [f"fleet-{index:02d}" for index in range(fleet_size)]

    with tempfile.TemporaryDirectory(prefix="gb-bench-dist-sp-") as tmp:
        started = time.perf_counter()
        single = FleetCoordinator(
            tmp, cloned_fleet(golden, fleet_size, infected),
            workers=agents).run_epoch()
        single_s = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="gb-bench-dist-mp-") as tmp:
        started = time.perf_counter()
        distributed = FleetCoordinator(
            tmp, roster, workers=agents).run_distributed(
                1, factory, agents=agents)[0]
        distributed_s = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="gb-bench-dist-ch-") as tmp:
        chaotic = FleetCoordinator(
            tmp, roster, workers=agents).run_distributed(
                1, factory, agents=agents, agent_timeout_seconds=10.0,
                transport_seed=2026, transport_rate=0.05)[0]

    single_key = _fleet_verdict_key(single)
    distributed_key = _fleet_verdict_key(distributed)
    chaos_key = _fleet_verdict_key(chaotic)
    return {
        "fleet_size": fleet_size,
        "file_count": file_count,
        "agents": agents,
        "cpu_count": _os.cpu_count() or 1,
        "single_process_s": single_s,
        "distributed_s": distributed_s,
        "speedup": single_s / distributed_s,
        "verdicts_identical": distributed_key == single_key,
        "chaos_fault_rate": 0.05,
        "chaos_zero_lost": set(chaos_key) == set(roster),
        "chaos_verdicts_identical": chaos_key == distributed_key,
    }


def checkpoint_on_disk(fleet_dir: str, coordinator, aggregate) -> list:
    """Failures of the checkpoint read back from the fleet directory.

    Every non-error verdict of ``aggregate`` must name the baseline the
    reopened store holds for its machine, and a replay of the epochs
    journal must plan from the live coordinator's history.
    """
    from repro.core.baseline import BaselineStore
    from repro.fleet import load_history

    store = BaselineStore(fleet_dir)
    failures = []
    for verdict in aggregate.verdicts:
        if verdict.verdict == "error":
            continue
        stored = store.get(verdict.machine)
        stored_id = stored.baseline_id if stored is not None else None
        if stored_id != verdict.baseline_id:
            failures.append(f"{verdict.machine}: verdict names baseline "
                            f"{verdict.baseline_id}, store holds "
                            f"{stored_id}")
    if load_history(coordinator.epochs_path) != coordinator.history:
        failures.append("epochs.jsonl replays to a different scheduler "
                        "history than the live coordinator's")
    return failures


def run_distributed_soak(epochs: int, fleet_size: int, agents: int,
                         file_count: int = 120,
                         kill_after_leases: int = 3) -> int:
    """The distributed CI soak: kill -9 an agent mid-lease, lose nothing.

    Epoch 1 murders agent 0 right after it takes its
    ``kill_after_leases``-th lease (the in-process analogue of yanking
    a worker's power cord); the controller's liveness reaper reclaims
    the orphaned lease and the surviving agents finish the fleet.
    Every epoch is gated element-identical against an uninterrupted
    single-process reference over the same golden image, and the last
    epoch's checkpoint is read back from disk.
    """
    from repro.fleet import FleetCoordinator, fleet_status
    from repro.fleet.controller import AGENT_DEAD

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]
    factory = _fleet_clone_factory(golden, infected)
    roster = [f"fleet-{index:02d}" for index in range(fleet_size)]

    with tempfile.TemporaryDirectory(prefix="gb-dist-soak-ref-") as tmp:
        reference = FleetCoordinator(
            tmp, cloned_fleet(golden, fleet_size, infected),
            workers=4).run(epochs)
    reference_keys = [_fleet_verdict_key(agg) for agg in reference]

    failures = []
    with tempfile.TemporaryDirectory(prefix="gb-dist-soak-") as tmp:
        coordinator = FleetCoordinator(tmp, roster, workers=agents,
                                       compact_every=0)
        aggregates = coordinator.run_distributed(
            epochs, factory, agents=agents, agent_timeout_seconds=2.0,
            kill_after_leases={0: kill_after_leases})
        for aggregate, reference_key in zip(aggregates, reference_keys):
            summary = aggregate.summary
            key = _fleet_verdict_key(aggregate)
            print(f"soak epoch {summary.epoch}: "
                  f"{summary.machines}/{fleet_size} machines "
                  f"({summary.scanned} scanned, {summary.skipped} "
                  f"skipped), {summary.infected} infected, "
                  f"{summary.errors} error(s), "
                  f"{summary.late_acks} late ack(s)")
            if set(key) != set(roster):
                failures.append(f"epoch {summary.epoch} lost machines: "
                                f"{sorted(set(roster) - set(key))}")
            if key != reference_key:
                differing = sorted(machine for machine in key
                                   if key.get(machine)
                                   != reference_key.get(machine))
                failures.append(f"epoch {summary.epoch} verdicts differ "
                                f"from reference on {differing}")
        agents_status = fleet_status(tmp)["agents"]
        dead = sorted(agent for agent, info in agents_status.items()
                      if info["state"] == AGENT_DEAD)
        print(f"soak agents: " + ", ".join(
            f"{agent}={info['state']}(acks={info['acks']})"
            for agent, info in sorted(agents_status.items())))
        if "agent-0" not in dead:
            failures.append("murdered agent-0 was never declared dead")
        failures.extend(checkpoint_on_disk(tmp, coordinator, aggregates[-1]))
    for failure in failures:
        print(f"  [FAIL] {failure}", file=sys.stderr)
    if not failures:
        print(f"  [PASS] {epochs} epochs x {fleet_size} machines "
              f"element-identical to the single-process reference "
              f"with agent-0 killed mid-lease")
    return 1 if failures else 0


def run_fleet_soak(epochs: int, fleet_size: int, rate: float,
                   seed: int, file_count: int = 120) -> int:
    """The CI soak: epochs under chaos, gated on zero lost machines
    and on the last epoch's checkpoint read back from disk."""
    from repro.faults import context as faults_context
    from repro.faults.plan import FaultPlan
    from repro.fleet import FleetCoordinator

    golden = golden_machine(file_count)
    infected = tuple(range(0, fleet_size, max(1, fleet_size // 3)))[:3]
    fleet = cloned_fleet(golden, fleet_size, infected)
    plan = FaultPlan.default(seed=seed, rate=rate)
    failures = []
    with tempfile.TemporaryDirectory(prefix="gb-fleet-soak-") as tmp:
        coordinator = FleetCoordinator(tmp, fleet, workers=4,
                                       fault_plan=plan, compact_every=2)
        previous = faults_context.install_global_plan(plan)
        try:
            for __ in range(epochs):
                aggregate = coordinator.run_epoch()
                summary = aggregate.summary
                print(f"soak epoch {summary.epoch}: "
                      f"{summary.machines}/{fleet_size} machines "
                      f"({summary.scanned} scanned, "
                      f"{summary.skipped} skipped), "
                      f"{summary.infected} infected, "
                      f"{summary.errors} error(s)")
                if summary.machines != fleet_size:
                    failures.append(
                        f"epoch {summary.epoch} lost machines: "
                        f"{summary.machines}/{fleet_size}")
        finally:
            faults_context.install_global_plan(previous)
        failures.extend(checkpoint_on_disk(tmp, coordinator, aggregate))
    fired = plan.fired_count()
    print(f"soak: {fired} fault(s) fired across "
          f"{len({f.site for f in plan.fired()})} site(s)")
    if fired == 0 and rate > 0:
        failures.append("soak fired no faults (plan not wired?)")
    for failure in failures:
        print(f"  [FAIL] {failure}", file=sys.stderr)
    if not failures:
        print(f"  [PASS] zero lost machines across {epochs} epochs "
              f"@ {rate:.0%} faults")
    return 1 if failures else 0


def _sweep_profile(fleet_size: int, epochs: int):
    """The recall-vs-cost fleet: file-heavy machines, ASEP-hooking wave.

    File costs dominate registry costs here (small hives, many virtual
    files), so the sampled pass's floor — the always-full registry
    stratum — stays cheap relative to the full file scan it avoids.
    The wave is HackerDefender: a persistent ghost that must hook ASEPs
    to survive reboot, which is exactly the stratum sampling never
    skips — the paper's persistence argument is what holds recall up
    while the file-sampling rate drops.
    """
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="swp", size=fleet_size, seed=97,
        file_count=(240, 340), virtual_files=(80_000, 200_000),
        registry_kb=(6, 12), churn_files=(2, 5), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2,
                             initial=2, spread=0.4),))


def _sweep_run(profile, epochs: int, sampling, workers: int = 4) -> dict:
    """Run one sweep arm (full or sampled) and account it honestly."""
    from repro.fleet import FleetCoordinator
    from repro.workloads import FleetWorkload

    workload = FleetWorkload(profile)
    summaries = []
    reported = set()
    with tempfile.TemporaryDirectory(prefix="gb-bench-sweep-") as tmp:
        coordinator = FleetCoordinator(tmp, workload.machines.values(),
                                       workers=workers, sampling=sampling,
                                       console_index=False,
                                       lease_seconds=1e6)
        for epoch in range(1, epochs + 1):
            workload.apply_epoch(epoch)
            aggregate = coordinator.run_epoch()
            summaries.append(aggregate.summary)
            reported.update(v.machine for v in aggregate.verdicts
                            if v.verdict == "infected")
    truth = workload.infected_machines(epochs)
    recall = (len(reported & truth) / len(truth)) if truth else 1.0
    return {
        "per_epoch_scan_s": [round(s.scan_seconds, 3) for s in summaries],
        # Epoch 1 is the cold start: never-scanned staleness forces a
        # full scan in BOTH arms, so the comparison is steady state.
        "steady_scan_s": round(sum(s.scan_seconds
                                   for s in summaries[1:]), 3),
        "recall": recall,
        "truth": sorted(truth),
        "false_positives": sorted(reported - truth),
        "sampled_scans": sum(s.sampled for s in summaries),
        "sampling_escalations": sum(s.sampling_escalations
                                    for s in summaries),
        "estimated_recall_last": summaries[-1].estimated_recall,
    }


def bench_sampled_sweep(fleet_size: int, epochs: int,
                        rates=(0.05, 0.15, 0.35),
                        workers: int = 4) -> dict:
    """The recall-vs-cost curve: full sweep vs sampled at several rates."""
    from repro.workloads import SamplingPolicy

    profile = _sweep_profile(fleet_size, epochs)
    full = _sweep_run(profile, epochs, None, workers=workers)
    curve = []
    for rate in rates:
        sampling = SamplingPolicy(seed=5, file_rate=rate, full_every=64)
        point = _sweep_run(profile, epochs, sampling, workers=workers)
        point["file_rate"] = rate
        point["reduction"] = (full["steady_scan_s"]
                              / max(point["steady_scan_s"], 1e-9))
        curve.append(point)
    eligible = [point for point in curve if point["recall"] >= 0.95]
    operating = (max(eligible, key=lambda point: point["reduction"])
                 if eligible else None)
    return {
        "fleet_size": fleet_size, "epochs": epochs,
        "full": full, "curve": curve,
        "full_recall": full["recall"],
        "operating_rate": operating["file_rate"] if operating else None,
        "operating_reduction": (operating["reduction"]
                                if operating else 0.0),
        "operating_recall": operating["recall"] if operating else 0.0,
        "false_positive_free": not any(point["false_positives"]
                                       for point in curve),
    }


def _trace_profile(fleet_size: int):
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="trb", size=fleet_size, seed=53,
        file_count=(40, 80), virtual_files=(5_000, 20_000),
        registry_kb=(20, 40), churn_files=(1, 4), churn_registry=(0, 2),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2,
                             initial=1, spread=0.0),))


def _traced_sweep(action) -> object:
    """Run a record/replay under a scratch fleet dir."""
    with tempfile.TemporaryDirectory(prefix="gb-bench-trace-") as tmp:
        return action(tmp)


def bench_trace_replay(fleet_size: int, epochs: int) -> dict:
    """Record a sweep trace, replay it on both disk backends, compare."""
    import os

    from repro.workloads import (SamplingPolicy, record_sweep,
                                 replay_sweep)

    profile = _trace_profile(fleet_size)
    sampling = SamplingPolicy(seed=3, file_rate=0.25, full_every=4)
    with tempfile.TemporaryDirectory(prefix="gb-bench-tracedir-") as tdir:
        trace_path = str(Path(tdir) / "sweep.trace.jsonl")
        recorded = _traced_sweep(
            lambda tmp: record_sweep(trace_path, profile, tmp, epochs,
                                     sampling=sampling, workers=2))
        replays = {}
        saved = os.environ.get("REPRO_DISK_BACKEND")
        try:
            for backend in ("flat", "sparse"):
                os.environ["REPRO_DISK_BACKEND"] = backend
                replays[backend] = _traced_sweep(
                    lambda tmp: replay_sweep(trace_path, tmp))
        finally:
            if saved is None:
                os.environ.pop("REPRO_DISK_BACKEND", None)
            else:
                os.environ["REPRO_DISK_BACKEND"] = saved
    flat, sparse = replays["flat"], replays["sparse"]
    return {
        "fleet_size": fleet_size, "epochs": epochs,
        "trace_digest": recorded.trace_digest,
        "trace_digests_identical": (
            recorded.trace_digest == flat.trace_digest
            == sparse.trace_digest),
        "verdicts_identical": (
            recorded.verdicts == flat.verdicts == sparse.verdicts),
        "journal_digests_identical": (
            recorded.journal_digest == flat.journal_digest
            == sparse.journal_digest),
        "infected": recorded.infected,
        "infected_identical": (
            recorded.infected == flat.infected == sparse.infected),
    }


# -- adversary engine: leveled stealth campaigns ------------------------------


STEALTH_LEVELS = ("off", "low", "medium", "high", "maximum")


def _stealth_profile(fleet_size: int, level: str):
    """The campaign fleet: two fully-capable strains at one stealth level.

    Urbin (AppInit IAT hooks) spreads from epoch 1, HackerDefender
    (NtDll detours) joins at epoch 2 — both declare the full capability
    set, so every level of the ladder actually changes behavior.
    """
    from repro.workloads import FleetProfile, InfectionWave

    return FleetProfile(
        name="adv", size=fleet_size, seed=31,
        file_count=(24, 48), virtual_files=(4_000, 12_000),
        registry_kb=(20, 40), churn_files=(1, 3), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("urbin", onset_epoch=1,
                             initial=max(2, fleet_size // 12),
                             spread=0.5, level=level),
               InfectionWave("hackerdefender", onset_epoch=2,
                             initial=max(1, fleet_size // 25),
                             spread=0.4, level=level, conceal_budget=2)))


def _campaign_run(profile, epochs: int, defended: bool,
                  workers: int = 4) -> dict:
    """One campaign arm: naive single-pass or the defended configuration.

    The defended arm is scan-until-stable + flag-unstable + scan-order
    jitter with the default inside→outside escalation; the naive arm is
    a single inside pass with escalation disabled — the seed-era
    scanner the adversary engine exists to defeat.
    """
    from repro.fleet import FleetCoordinator
    from repro.fleet.coordinator import fleet_status
    from repro.fleet.policy import EscalationPolicy
    from repro.fleet.scheduler import recent_write_probe
    from repro.workloads import FleetWorkload, verdict_key

    workload = FleetWorkload(profile)
    kwargs = (dict(stabilize_rounds=2, flag_unstable=True,
                   scan_order_jitter=11) if defended
              else dict(policy=EscalationPolicy(escalate=False)))
    probe_hits = probe_total = 0
    reported = set()
    verdict_maps = []
    with tempfile.TemporaryDirectory(prefix="gb-bench-adv-") as tmp:
        coordinator = FleetCoordinator(tmp, workload.machines.values(),
                                       workers=workers,
                                       outbreak_threshold=3,
                                       console_index=False,
                                       lease_seconds=1e6, **kwargs)
        horizon = 60.0
        previous = set()
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
        status = fleet_status(tmp)
    truth = workload.infected_machines(epochs)
    recall = (len(reported & truth) / len(truth)) if truth else 1.0
    precision = (len(reported & truth) / len(reported)) if reported else 1.0
    campaign_fps = [record["fingerprint"]
                    for record in status["campaigns"]]
    return {
        "recall": round(recall, 4),
        "precision": round(precision, 4),
        "truth_count": len(truth),
        "reported_count": len(reported),
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
                           workers: int = 4,
                           levels=STEALTH_LEVELS) -> dict:
    """The headline curve: precision/recall per stealth level, two arms.

    Also re-runs the defended ``high`` arm twice and once on the other
    disk backend to gate campaign determinism.
    """
    import os

    curve = []
    for level in levels:
        profile = _stealth_profile(fleet_size, level)
        naive = _campaign_run(profile, epochs, defended=False,
                              workers=workers)
        defended = _campaign_run(profile, epochs, defended=True,
                                 workers=workers)
        point = {"level": level, "naive": naive, "defended": defended}
        curve.append(point)
    by_level = {point["level"]: point for point in curve}

    high = _stealth_profile(fleet_size, "high")
    rerun = _campaign_run(high, epochs, defended=True, workers=workers)
    saved = os.environ.get("REPRO_DISK_BACKEND")
    other = "sparse" if (saved or "flat") == "flat" else "flat"
    try:
        os.environ["REPRO_DISK_BACKEND"] = other
        cross = _campaign_run(high, epochs, defended=True,
                              workers=workers)
    finally:
        if saved is None:
            os.environ.pop("REPRO_DISK_BACKEND", None)
        else:
            os.environ["REPRO_DISK_BACKEND"] = saved
    reference = by_level["high"]["defended"]["verdict_maps"]
    determinism = {
        "runs_identical": reference == rerun["verdict_maps"],
        "backends_identical": reference == cross["verdict_maps"],
        "other_backend": other,
    }
    for point in curve:   # the maps did their job; keep the JSON small
        for arm in ("naive", "defended"):
            point[arm].pop("verdict_maps", None)

    aware_levels = ("medium", "high", "maximum")
    rotate_levels = ("high", "maximum")
    return {
        "fleet_size": fleet_size, "epochs": epochs, "curve": curve,
        "defended_precision_all_1": all(
            point["defended"]["precision"] == 1.0 for point in curve),
        "defended_recall_min_through_high": min(
            by_level[level]["defended"]["recall"]
            for level in ("off", "low", "medium", "high")),
        "naive_recall_max_when_aware": max(
            by_level[level]["naive"]["recall"]
            for level in aware_levels),
        "evasion_gap_at_high": round(
            by_level["high"]["defended"]["recall"]
            - by_level["high"]["naive"]["recall"], 4),
        "campaign_alerts_deduped": all(
            by_level[level]["defended"]["campaign_fingerprints_unique"]
            and by_level[level]["defended"]["campaign_alerts"] >= 1
            for level in rotate_levels),
        "probe_hit_rate_off": by_level["off"]["defended"][
            "probe_hit_rate"],
        "probe_hit_rate_cloaked": by_level["high"]["defended"][
            "probe_hit_rate"],
        "determinism": determinism,
    }


def print_stealth_campaign(stealth: dict) -> None:
    """Render the per-level curve the way the other benches print."""
    print(f"stealth campaign ({stealth['fleet_size']} machines x "
          f"{stealth['epochs']} epochs, naive vs defended):")
    for point in stealth["curve"]:
        naive, defended = point["naive"], point["defended"]
        probe = defended["probe_hit_rate"]
        print(f"  {point['level']:>8}: naive P {naive['precision']:.2f} "
              f"R {naive['recall']:.2f} | defended "
              f"P {defended['precision']:.2f} R {defended['recall']:.2f} "
              f"| outbreaks {defended['outbreak_alerts']}, "
              f"campaigns {defended['campaign_alerts']}, "
              f"probe {'n/a' if probe is None else f'{probe:.2f}'}")
    determinism = stealth["determinism"]
    print(f"  determinism: reruns identical "
          f"{determinism['runs_identical']}, "
          f"{determinism['other_backend']} backend identical "
          f"{determinism['backends_identical']}")


def stealth_campaign_gates(stealth: dict):
    """The ISSUE's acceptance gates for the per-level curve."""
    return (
        ("stealth defended precision 1.0 at every level",
         stealth["defended_precision_all_1"]),
        ("stealth defended recall >= 0.95 through high",
         stealth["defended_recall_min_through_high"] >= 0.95),
        ("stealth naive recall measurably degraded when aware",
         stealth["naive_recall_max_when_aware"]
         <= stealth["defended_recall_min_through_high"] - 0.5),
        ("stealth campaign alerts deduped across rotated identities",
         stealth["campaign_alerts_deduped"]),
        ("stealth campaigns deterministic across runs",
         stealth["determinism"]["runs_identical"]),
        ("stealth campaigns deterministic across disk backends",
         stealth["determinism"]["backends_identical"]),
    )


def run_stealth_campaign(out, fleet_size: int = 50,
                         epochs: int = 3) -> int:
    """``--stealth-campaign``: the CI job — curve, gates, artifact."""
    stealth = bench_stealth_campaign(fleet_size, epochs, workers=4)
    print_stealth_campaign(stealth)
    failures = []
    for label, passed in stealth_campaign_gates(stealth):
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        if not passed:
            failures.append(label)
    if out is not None:
        payload = {"pr": 10, "mode": "stealth-campaign",
                   "stealth_campaign": stealth}
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}")
    if failures:
        print(f"FAILED gates: {failures}", file=sys.stderr)
        return 1
    return 0


def run_workload_replay(fleet_size: int = 20, epochs: int = 2) -> int:
    """The CI workload-replay smoke: record once, replay twice, compare."""
    from repro.workloads import SamplingPolicy, record_sweep, replay_sweep

    profile = _trace_profile(fleet_size)
    sampling = SamplingPolicy(seed=3, file_rate=0.25, full_every=4)
    with tempfile.TemporaryDirectory(prefix="gb-replay-") as tdir:
        trace_path = str(Path(tdir) / "sweep.trace.jsonl")
        recorded = _traced_sweep(
            lambda tmp: record_sweep(trace_path, profile, tmp, epochs,
                                     sampling=sampling, workers=2))
        first = _traced_sweep(lambda tmp: replay_sweep(trace_path, tmp))
        second = _traced_sweep(lambda tmp: replay_sweep(trace_path, tmp))
    print(f"workload replay: {fleet_size} machines x {epochs} epochs, "
          f"trace digest {recorded.trace_digest[:16]}..., "
          f"{len(recorded.infected)} machine(s) infected by trace")
    checks = (
        ("recorded and replayed verdicts element-identical",
         recorded.verdicts == first.verdicts == second.verdicts),
        ("trace digests identical across replays",
         recorded.trace_digest == first.trace_digest
         == second.trace_digest),
        ("replay journals byte-identical",
         first.journal_digest == second.journal_digest),
        ("trace detected its planted infection",
         any(machine in epoch_verdicts
             and epoch_verdicts[machine][0] == "infected"
             for machine in recorded.infected
             for epoch_verdicts in recorded.verdicts)),
    )
    failures = [label for label, passed in checks if not passed]
    for label, passed in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
    return 1 if failures else 0


def run_trace_record(trace_path: Path, fleet_size: int,
                     epochs: int) -> int:
    """``--trace FILE``: record the reference workload's trace to FILE."""
    from repro.workloads import SamplingPolicy, record_sweep

    profile = _trace_profile(fleet_size)
    sampling = SamplingPolicy(seed=3, file_rate=0.25, full_every=4)
    recorded = _traced_sweep(
        lambda tmp: record_sweep(str(trace_path), profile, tmp, epochs,
                                 sampling=sampling, workers=2))
    print(f"recorded {epochs} epoch(s) x {fleet_size} machine(s) "
          f"to {trace_path}")
    print(f"  trace digest   {recorded.trace_digest}")
    print(f"  journal digest {recorded.journal_digest}")
    print(f"  infected       {', '.join(recorded.infected) or '(none)'}")
    return 0


def run_trace_replay(trace_path: Path) -> int:
    """``--replay FILE``: replay an existing trace and report digests."""
    from repro.workloads import replay_sweep

    replayed = _traced_sweep(
        lambda tmp: replay_sweep(str(trace_path), tmp))
    print(f"replayed {trace_path}")
    print(f"  trace digest   {replayed.trace_digest}")
    print(f"  journal digest {replayed.journal_digest}")
    for index, epoch_verdicts in enumerate(replayed.verdicts, start=1):
        infected = sorted(machine
                          for machine, key in epoch_verdicts.items()
                          if key[0] == "infected")
        print(f"  epoch {index}: {len(epoch_verdicts)} verdict(s), "
              f"{len(infected)} infected"
              + (f" ({', '.join(infected)})" if infected else ""))
    return 0


def write_telemetry_artifacts(directory: Path) -> None:
    """A tiny telemetry-collecting sweep for the CI artifact upload."""
    from repro.core.risboot import RisServer as _RisServer

    reset_global_metrics()
    golden = golden_machine(120)
    fleet = cloned_fleet(golden, 3, infected=(1,))
    result = _RisServer().sweep(fleet, max_workers=3,
                                collect_telemetry=True)
    directory.mkdir(parents=True, exist_ok=True)
    result.health.write_jsonl(directory / "sweep_telemetry.jsonl")
    (directory / "metrics_snapshot.json").write_text(
        global_metrics().dump_json() + "\n")
    print(f"wrote telemetry artifacts to {directory}")


# -- driver -------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profiles, no perf gates (CI)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: BENCH_PR6.json "
                             "for full runs, none for --smoke)")
    parser.add_argument("--telemetry-out", type=Path, default=None,
                        help="directory for sweep telemetry JSONL + "
                             "metrics snapshot (CI artifacts)")
    parser.add_argument("--fleet-soak", action="store_true",
                        help="run only the fleet soak (epochs under "
                             "chaos, zero-lost-machines gate) and exit")
    parser.add_argument("--distributed-soak", action="store_true",
                        help="run only the distributed soak (forked "
                             "agents, kill -9 mid-lease, element-"
                             "identical gate) and exit")
    parser.add_argument("--stealth-campaign", action="store_true",
                        help="run only the stealth-campaign curve "
                             "(50 machines x 3 epochs per level, naive "
                             "vs defended, precision/recall gates) and "
                             "exit")
    parser.add_argument("--stealth-fleet", type=int, default=50)
    parser.add_argument("--stealth-epochs", type=int, default=3)
    parser.add_argument("--workload-replay", action="store_true",
                        help="run only the workload-replay smoke "
                             "(record a trace, replay twice, element-"
                             "identical gate) and exit")
    parser.add_argument("--trace", type=Path, default=None,
                        metavar="FILE",
                        help="record the reference workload's sweep "
                             "trace to FILE and exit")
    parser.add_argument("--replay", type=Path, default=None,
                        metavar="FILE",
                        help="replay an existing sweep trace and print "
                             "its digests and verdicts, then exit")
    parser.add_argument("--soak-epochs", type=int, default=3)
    parser.add_argument("--soak-fleet", type=int, default=50)
    parser.add_argument("--soak-rate", type=float, default=0.05)
    parser.add_argument("--soak-seed", type=int, default=2026)
    parser.add_argument("--soak-agents", type=int, default=2)
    args = parser.parse_args()

    if args.fleet_soak:
        return run_fleet_soak(args.soak_epochs, args.soak_fleet,
                              args.soak_rate, args.soak_seed)

    if args.distributed_soak:
        return run_distributed_soak(args.soak_epochs, args.soak_fleet,
                                    args.soak_agents)

    if args.stealth_campaign:
        return run_stealth_campaign(args.out or OUT_DEFAULT,
                                    fleet_size=args.stealth_fleet,
                                    epochs=args.stealth_epochs)

    if args.workload_replay:
        return run_workload_replay()

    if args.trace is not None:
        return run_trace_record(args.trace, fleet_size=20, epochs=2)

    if args.replay is not None:
        return run_trace_replay(args.replay)

    if args.smoke:
        profile = dict(files=120, reads=10, scans=3, fleet=6, workers=2,
                       client_wait=0.02, diff_entries=2_000,
                       overhead_reads=500, delta_mutations=4,
                       delta_changed=3, strains=5, zc_files=120,
                       ceiling_fleet=6, ceiling_files=120,
                       console_fleet=10, console_epochs=5,
                       console_lookups=40, dist_fleet=4, dist_agents=2,
                       sweep_fleet=20, sweep_epochs=3,
                       sweep_rates=(0.05, 0.35),
                       trace_fleet=8, trace_epochs=2,
                       stealth_fleet=12, stealth_epochs=3)
    else:
        profile = dict(files=1000, reads=40, scans=5, fleet=50, workers=8,
                       client_wait=0.25, diff_entries=10_000,
                       overhead_reads=10_000, delta_mutations=10,
                       delta_changed=3, strains=12, zc_files=1000,
                       ceiling_fleet=16, ceiling_files=200,
                       console_fleet=50, console_epochs=20,
                       console_lookups=200, dist_fleet=8, dist_agents=4,
                       sweep_fleet=200, sweep_epochs=4,
                       sweep_rates=(0.05, 0.15, 0.35),
                       trace_fleet=20, trace_epochs=2,
                       stealth_fleet=50, stealth_epochs=3)

    print(f"profile: {profile}")
    results = {"pr": 10, "mode": "smoke" if args.smoke else "full",
               "profile": profile, "timings": {}}
    timings = results["timings"]

    timings["raw_mft_parse_cold_s"] = bench_raw_mft_parse(profile["files"])
    print(f"raw MFT parse (cold, {profile['files']} files): "
          f"{timings['raw_mft_parse_cold_s'] * 1000:.1f} ms")

    timings["read_file_content"] = bench_read_file_content(
        profile["files"], profile["reads"])
    print(f"repeated read_file_content ({profile['reads']} reads): "
          f"{timings['read_file_content']['speedup']:.1f}x vs seed")

    timings["raw_asep_scan"] = bench_raw_asep_scan(
        profile["files"], profile["scans"])
    print(f"raw ASEP scan ({profile['scans']} scans x "
          f"{len(HIVE_FILES)} hives): "
          f"{timings['raw_asep_scan']['speedup']:.1f}x vs seed")

    timings["ris_sweep"] = bench_ris_sweep(
        profile["fleet"], profile["workers"], profile["client_wait"],
        file_count=min(profile["files"], 120))
    sweep = timings["ris_sweep"]
    print(f"RIS sweep ({sweep['fleet_size']} machines): "
          f"serial {sweep['serial_s']:.2f}s, "
          f"{sweep['workers']} workers {sweep['parallel_s']:.2f}s "
          f"({sweep['speedup']:.1f}x), findings identical: "
          f"{sweep['findings_identical']}")

    timings["diff_10k_s"] = bench_diff_10k(profile["diff_entries"])
    print(f"cross-view diff + merge ({profile['diff_entries']} entries "
          f"x5): {timings['diff_10k_s'] * 1000:.1f} ms")

    timings["telemetry_overhead"] = bench_telemetry_overhead(
        profile["files"], profile["overhead_reads"])
    overhead = timings["telemetry_overhead"]
    print(f"telemetry overhead ({profile['overhead_reads']} warm reads): "
          f"default {overhead['default_s'] * 1000:.1f} ms, "
          f"nulled {overhead['nulled_s'] * 1000:.1f} ms "
          f"({overhead['overhead_pct']:+.1f}%)")

    timings["delta_rescan"] = bench_delta_rescan(
        profile["files"], profile["delta_mutations"])
    rescan = timings["delta_rescan"]
    print(f"delta rescan ({profile['files']} files, "
          f"{rescan['mutations_per_round']} mutations/round): "
          f"cold {rescan['cold_s'] * 1000:.1f} ms, "
          f"warm {rescan['warm_delta_s'] * 1000:.2f} ms "
          f"({rescan['speedup']:.1f}x), findings identical: "
          f"{rescan['findings_identical']}")

    timings["delta_sweep"] = bench_delta_sweep(
        profile["fleet"], profile["workers"], profile["client_wait"],
        file_count=min(profile["files"], 120),
        changed=profile["delta_changed"])
    dsweep = timings["delta_sweep"]
    print(f"delta sweep ({dsweep['fleet_size']} machines, "
          f"{len(dsweep['changed_machines'])} changed): "
          f"full {dsweep['full_s']:.2f}s, delta {dsweep['delta_s']:.2f}s "
          f"({dsweep['speedup']:.1f}x), {dsweep['skipped']} skipped, "
          f"infected identical: {dsweep['infected_identical']}")

    timings["fleet_epoch"] = bench_fleet_epoch(
        profile["fleet"], file_count=min(profile["files"], 120),
        workers=profile["workers"])
    fleet_epoch = timings["fleet_epoch"]
    print(f"fleet epoch ({fleet_epoch['fleet_size']} machines): "
          f"naive serial {fleet_epoch['naive_serial_s']:.2f}s, "
          f"seed epoch {fleet_epoch['seed_epoch_s']:.2f}s, "
          f"steady epoch {fleet_epoch['steady_epoch_s']:.3f}s "
          f"({fleet_epoch['speedup']:.1f}x), all skipped: "
          f"{fleet_epoch['steady_all_skipped']}")

    results["fleet_escalation"] = bench_fleet_escalation(
        file_count=min(profile["files"], 120),
        strains=profile["strains"])
    escalation = results["fleet_escalation"]
    print(f"fleet escalation ({escalation['strains']} strains + "
          f"{escalation['clean_controls']} clean): "
          f"{len(escalation['escalated'])} escalated, "
          f"{len(escalation['confirmed'])} confirmed, "
          f"precision {escalation['precision']:.2f}, "
          f"recall {escalation['recall']:.2f}")

    timings["cold_parse_zero_copy"] = bench_cold_parse_zero_copy(
        profile["zc_files"])
    zero_copy = timings["cold_parse_zero_copy"]
    print(f"cold zero-copy parse ({zero_copy['mft_slots']} MFT slots, "
          f"{zero_copy['file_count']} files): "
          f"legacy {zero_copy['legacy_cold_s'] * 1000:.1f} ms, "
          f"zero-copy {zero_copy['zero_copy_cold_s'] * 1000:.1f} ms "
          f"({zero_copy['speedup']:.1f}x), namespace identical: "
          f"{zero_copy['namespace_identical']}, reports identical: "
          f"{zero_copy['reports_identical']}")

    timings["memory_ceiling"] = bench_memory_ceiling(
        profile["ceiling_fleet"], profile["ceiling_files"])
    ceiling = timings["memory_ceiling"]
    print(f"memory ceiling ({ceiling['fleet_size']} machines): "
          f"COW {ceiling['cow_machines_per_gb']:.0f}/GB vs deep-copy "
          f"{ceiling['deep_copy_machines_per_gb']:.0f}/GB "
          f"({ceiling['density_ratio']:.1f}x), verdicts identical: "
          f"{ceiling['verdicts_identical']}")

    timings["console_query"] = bench_console_query(
        profile["console_fleet"], profile["console_epochs"],
        profile["console_lookups"])
    console = timings["console_query"]
    print(f"console query ({console['fleet_size']} machines x "
          f"{console['epochs']} epochs, {console['lookups']} lookups): "
          f"indexed p50 {console['indexed_p50_us']:.0f} us / "
          f"p95 {console['indexed_p95_us']:.0f} us, replay p50 "
          f"{console['replay_p50_us']:.0f} us ({console['speedup']:.1f}x), "
          f"answers identical: {console['answers_identical']}")

    timings["index_overhead"] = bench_index_overhead(
        profile["console_fleet"], file_count=min(profile["files"], 120),
        workers=profile["workers"])
    index_overhead = timings["index_overhead"]
    print(f"index overhead ({index_overhead['fleet_size']} machines): "
          f"steady epoch {index_overhead['steady_without_index_s']:.3f}s "
          f"off vs {index_overhead['steady_with_index_s']:.3f}s on "
          f"({index_overhead['overhead_pct']:+.1f}%)")

    timings["distributed_sweep"] = bench_distributed_sweep(
        profile["dist_fleet"], profile["files"], profile["dist_agents"])
    dist = timings["distributed_sweep"]
    print(f"distributed sweep ({dist['fleet_size']} machines x "
          f"{dist['file_count']} files, {dist['agents']} agents): "
          f"single-process {dist['single_process_s']:.2f}s, "
          f"distributed {dist['distributed_s']:.2f}s "
          f"({dist['speedup']:.1f}x), verdicts identical: "
          f"{dist['verdicts_identical']}, chaos @ "
          f"{dist['chaos_fault_rate']:.0%}: zero lost "
          f"{dist['chaos_zero_lost']}, identical "
          f"{dist['chaos_verdicts_identical']}")

    timings["sampled_sweep"] = bench_sampled_sweep(
        profile["sweep_fleet"], profile["sweep_epochs"],
        rates=profile["sweep_rates"], workers=profile["workers"])
    sampled = timings["sampled_sweep"]
    print(f"sampled sweep ({sampled['fleet_size']} machines x "
          f"{sampled['epochs']} epochs): full steady "
          f"{sampled['full']['steady_scan_s']:.0f} sim-s, "
          f"recall {sampled['full_recall']:.2f}")
    for point in sampled["curve"]:
        print(f"  rate {point['file_rate']:.2f}: "
              f"{point['steady_scan_s']:.0f} sim-s "
              f"({point['reduction']:.1f}x less), "
              f"recall {point['recall']:.2f}, "
              f"est. recall {point['estimated_recall_last']:.2f}, "
              f"{point['sampling_escalations']} escalated by sampling")
    if sampled["operating_rate"] is not None:
        print(f"  operating point: rate "
              f"{sampled['operating_rate']:.2f} -> "
              f"{sampled['operating_reduction']:.1f}x reduction @ "
              f"recall {sampled['operating_recall']:.2f}")

    timings["trace_replay"] = bench_trace_replay(
        profile["trace_fleet"], profile["trace_epochs"])
    trace = timings["trace_replay"]
    print(f"trace replay ({trace['fleet_size']} machines x "
          f"{trace['epochs']} epochs, flat + sparse backends): "
          f"verdicts identical: {trace['verdicts_identical']}, "
          f"journals identical: {trace['journal_digests_identical']}, "
          f"trace digests identical: "
          f"{trace['trace_digests_identical']}")

    results["stealth_campaign"] = bench_stealth_campaign(
        profile["stealth_fleet"], profile["stealth_epochs"],
        workers=profile["workers"])
    print_stealth_campaign(results["stealth_campaign"])

    results["chaos"] = bench_chaos_sweep(
        min(profile["fleet"], 12), profile["workers"],
        file_count=min(profile["files"], 120))
    chaos = results["chaos"]
    print(f"chaos sweep ({chaos['fleet_size']} machines @ "
          f"{chaos['fault_rate']:.0%} faults): "
          f"{chaos['faults_fired']} faults fired, "
          f"recall unchanged: {chaos['recall_unchanged']}, "
          f"errors: {len(chaos['errors'])}, "
          f"quarantined: {len(chaos['quarantined'])}")

    failures = []
    chaos_gates = (
        ("chaos sweep recall unchanged", chaos["recall_unchanged"]),
        ("chaos sweep zero errors", not chaos["errors"]),
        ("chaos sweep zero quarantines", not chaos["quarantined"]),
        ("chaos sweep faults actually fired", chaos["faults_fired"] > 0),
        ("delta rescan findings identical", rescan["findings_identical"]),
        ("delta sweep infected identical", dsweep["infected_identical"]),
        ("delta sweep findings identical", dsweep["findings_identical"]),
        ("delta sweep skipped every unchanged machine",
         dsweep["skipped"] == dsweep["fleet_size"]
         - len(dsweep["changed_machines"])),
        ("fleet steady epoch all skipped",
         fleet_epoch["steady_all_skipped"]),
        ("fleet steady verdicts stable", fleet_epoch["verdicts_stable"]),
        ("fleet escalation precision 1.0",
         escalation["precision"] == 1.0 and escalation["escalated"]),
        ("fleet escalation confirmed_by provenance",
         escalation["confirmed_by_provenance_ok"]),
        ("zero-copy parse namespace identical",
         zero_copy["namespace_identical"]),
        ("zero-copy parse reports identical",
         zero_copy["reports_identical"]),
        ("memory ceiling verdicts identical",
         ceiling["verdicts_identical"]),
        ("console query answers identical",
         console["answers_identical"]),
        ("console fleet_status matches replay",
         console["status_identical"]),
        ("distributed sweep verdicts identical",
         dist["verdicts_identical"]),
        ("distributed chaos zero lost machines",
         dist["chaos_zero_lost"]),
        ("distributed chaos verdicts identical",
         dist["chaos_verdicts_identical"]),
        ("sampled sweep full recall 1.0", sampled["full_recall"] == 1.0),
        ("sampled sweep no false positives",
         sampled["false_positive_free"]),
        ("sampled sweep actually sampled",
         all(point["sampled_scans"] > 0
             for point in sampled["curve"])),
        ("trace replay verdicts element-identical",
         trace["verdicts_identical"]),
        ("trace replay journals byte-identical across backends",
         trace["journal_digests_identical"]),
        ("trace replay digests identical", trace["trace_digests_identical"]),
        ("trace replay infection detected and identical",
         trace["infected_identical"] and trace["infected"]),
    ) + stealth_campaign_gates(results["stealth_campaign"])
    for label, passed in chaos_gates:
        print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
        if not passed:
            failures.append(label)
    overhead_ok = overhead["overhead_pct"] <= 5.0
    print(f"  [{'PASS' if overhead_ok else 'FAIL'}] "
          f"telemetry overhead <= 5%")
    if not overhead_ok:
        failures.append("telemetry overhead <= 5%")
    if not args.smoke:
        gates = (
            ("read_file_content speedup >= 5x",
             timings["read_file_content"]["speedup"] >= 5),
            ("raw ASEP scan speedup >= 5x",
             timings["raw_asep_scan"]["speedup"] >= 5),
            ("RIS sweep speedup >= 3x", sweep["speedup"] >= 3),
            ("RIS sweep findings identical", sweep["findings_identical"]),
            ("delta rescan speedup >= 10x", rescan["speedup"] >= 10),
            ("delta sweep speedup >= 5x", dsweep["speedup"] >= 5),
            ("fleet steady epoch >= 5x naive serial",
             fleet_epoch["speedup"] >= 5),
            ("cold zero-copy parse >= 5x",
             zero_copy["speedup"] >= 5),
            ("memory ceiling >= 4x machines per GB",
             ceiling["density_ratio"] >= 4),
            ("console query p50 >= 10x replay",
             console["speedup"] >= 10),
            ("index maintenance overhead <= 5%",
             index_overhead["overhead_pct"] <= 5.0),
            # Forked agents need cores to beat GIL-serialized threads;
            # a single-core host can only time-slice them, so there the
            # gate is that the wire + fork overhead stays bounded.
            ("distributed sweep >= 2x single process"
             if dist["cpu_count"] >= 4 else
             "distributed sweep overhead <= 3x (single-core host)",
             dist["speedup"] >= 2 if dist["cpu_count"] >= 4
             else dist["distributed_s"] <= 3 * dist["single_process_s"]),
            ("sampled sweep >= 5x reduction at recall >= 0.95",
             sampled["operating_reduction"] >= 5
             and sampled["operating_recall"] >= 0.95),
        )
        for label, passed in gates:
            print(f"  [{'PASS' if passed else 'FAIL'}] {label}")
            if not passed:
                failures.append(label)
    elif not sweep["findings_identical"]:
        failures.append("RIS sweep findings identical")

    if args.telemetry_out is not None:
        write_telemetry_artifacts(args.telemetry_out)

    out = args.out or (None if args.smoke else OUT_DEFAULT)
    if out is not None:
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        print(f"FAILED gates: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
