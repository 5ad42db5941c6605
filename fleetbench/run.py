#!/usr/bin/env python3
"""Fleet benchmark: seeded fleetgen workloads through the FleetCoordinator.

Usage (from the repository root)::

    python3 fleetbench/run.py --workload churn_sweep --seed 1 \\
        --seconds 30 --trace 0
    python3 fleetbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: churn_sweep, steady_fleet, stealth_defended,
distributed_sweep (see workloads.py and design.json).  One run builds
the workload's fleet from ``--seed``, runs its epochs, answers a batch
of console machine drill-downs, checks every verdict, and repeats that
whole cycle until ``--seconds`` are used (at least twice).
The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics from untraced repetitions,
timings scaled to nominal host speed (see ``hostspeed.py``; the report
prints them as timed too).  distributed_sweep's epoch timings are
reported as timed: their work runs in the forked agents, whose speed
the reference samples in this process do not follow (see ``probe.py``).
``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer ledger of the traced ones (see
``layers.py``), the tracing overhead measured against the untraced ones,
and the console lookup percentiles.

Each repetition's output check: per-epoch verdict maps
(``repro.workloads.verdict_key``) must hash to the digest recorded in
``digests.json`` for the workload and seed (when one is recorded) and
must repeat across repetitions; no machine may be lost or errored;
recall and precision against ``FleetWorkload.infected_machines`` must
be 1.0; every console lookup must return its record.  On the
single-process workloads, scan/skip/late-ack/confirmation counts,
simulated scan seconds and the parsers' patch counters must repeat
exactly.  A failed check prints the failures and no numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".fleetbench-work")
MIN_REPS = 2
AGENTS = 2
LOOKUPS = 5000
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.5)


# -- statistics -------------------------------------------------------------------


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_fraction(samples: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for fraction in TAIL_LADDER:
        if samples * (1.0 - fraction) >= 10:
            return fraction
    return 0.5


def verdict_digest(verdict_maps: List[Dict[str, tuple]]) -> str:
    canonical = json.dumps([sorted((machine, list(key))
                                   for machine, key in epoch.items())
                            for epoch in verdict_maps],
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- one repetition -----------------------------------------------------------------


@dataclasses.dataclass
class Rep:
    """One repetition: raw timings, each with its host-speed factor."""

    traced: bool
    setup_s: float
    setup_speed: float
    epoch_walls: List[float]
    epoch_speeds: List[float]
    verdict_ms: List[List[float]]       # per epoch
    lookup_ms: List[float]
    lookup_speed: float
    digest: str
    recall: float
    precision: float
    verdicts: int
    errors: int
    lost: int
    lookup_failures: int
    exact: Dict[str, float]
    wall_s: float
    layers: Optional[Dict[str, float]] = None
    spans: Optional[Dict[str, list]] = None
    bindings: Optional[Dict[str, List[str]]] = None
    growth: Optional[Dict] = None

    def timings(self, scaled: bool) -> Dict:
        """Setup, epoch walls, verdict and lookup latencies; scaled to
        nominal host speed (see hostspeed.py) or as timed."""
        def factor(speed):
            return speed if scaled else 1.0

        return {
            "setup": self.setup_s * factor(self.setup_speed),
            "walls": [wall * factor(speed) for wall, speed
                      in zip(self.epoch_walls, self.epoch_speeds)],
            "verdicts": [latency * factor(speed) for epoch, speed
                         in zip(self.verdict_ms, self.epoch_speeds)
                         for latency in epoch],
            "lookups": [latency * factor(self.lookup_speed)
                        for latency in self.lookup_ms],
        }

    @property
    def verdict_samples(self) -> int:
        return sum(len(epoch) for epoch in self.verdict_ms)


def _bucket(tracer, value) -> None:
    if tracer is not None:
        tracer.bucket = value


def console_lookups(fleet_dir: str, names: List[str], epochs: int,
                    count: int, seed: int, probe):
    """Machine drill-downs against a freshly opened index, as ``repro
    serve`` opens it: ``machine_drilldown`` (machine_history plus the
    latest machine_record plus the baseline record) is what
    ``/api/machines/<name>`` answers.  Every 20th is followed by an
    untimed, checked status() call."""
    from repro.console.index import JournalIndex
    from repro.console.server import machine_drilldown

    rng = random.Random(f"{seed}:lookups")
    latencies: List[float] = []
    failures = 0
    perf = time.perf_counter
    index = JournalIndex(fleet_dir)
    try:
        index.update()
        for number in range(count):
            name = rng.choice(names)
            started = perf()
            page = machine_drilldown(index, name)
            latencies.append((perf() - started) * 1000.0)
            if (page is None or (page["latest"] or {}).get("machine") != name
                    or "baseline_id" not in (page["baseline"] or {})):
                failures += 1
            if number % 20 == 0:
                if index.status().get("epochs_completed") != epochs:
                    failures += 1
            probe.maybe_sample_inside()
    finally:
        index.close()
    return latencies, failures


def run_rep(workload, seed: int, run_dir: str, tracer=None,
            small: bool = False) -> Rep:
    from layers import install_layers, layer_metrics
    from probe import EpochProbe
    from repro.fleet import FleetCoordinator
    from repro.registry.hive_parser import clear_hive_cache
    from repro.telemetry.metrics import global_metrics
    from repro.workloads import FleetWorkload, verdict_key

    profile = workload.profile(seed)
    epochs, lookups = workload.epochs, LOOKUPS
    if small:
        # Warm-up: same code paths, a fraction of the work.
        profile = dataclasses.replace(profile, size=4)
        epochs, lookups = min(epochs, 3), 50
    # The hive parse memo is process-wide and content-addressed: without
    # this, a repetition would reuse the parses of the identical fleet
    # the previous one built from the same seed.
    clear_hive_cache()
    began = time.perf_counter()
    bindings = install_layers(tracer) if tracer is not None else None
    # The probe goes on top of the tracer's wrappers, so its host-speed
    # samples are never charged to the layer whose call they follow.
    probe = EpochProbe().install()
    probe.tracer = tracer
    probe.distributed = workload.distributed
    counters_before = dict(global_metrics().snapshot()["counters"])
    fleet_dir = tempfile.mkdtemp(prefix=workload.name + "-", dir=run_dir)
    try:
        probe.reference_group()
        probe.open_interval()
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("workloads.build"):
                fleet = FleetWorkload(profile)
        else:
            fleet = FleetWorkload(profile)
        names = sorted(fleet.machines)
        kwargs = dict(workers=AGENTS, compact_every=4, console_index=True,
                      **workload.coordinator_kwargs())
        if workload.distributed:
            _bucket(tracer, "apply")
            for epoch in range(1, workload.events_before_fork + 1):
                fleet.apply_epoch(epoch)
            _bucket(tracer, "setup")
            coordinator = FleetCoordinator(fleet_dir, names, **kwargs)
            setup_inside = probe.close_interval()
            setup_s = time.perf_counter() - started - sum(setup_inside)
            probe.reference_group()
            _bucket(tracer, "distributed")
            called = time.perf_counter()
            machines = fleet.machines
            aggregates = coordinator.run_distributed(
                epochs, lambda name: machines[name], agents=AGENTS)
            # The lookups' first host-speed group, taken once the agents
            # have exited (see probe.py).
            probe.reference_group()
            # Controller start and agent fork precede epoch 1.
            setup_s += probe.first_epoch_entered - called
            truth = fleet.infected_machines(workload.events_before_fork)
        else:
            coordinator = FleetCoordinator(fleet_dir, fleet.machines.values(),
                                           **kwargs)
            setup_inside = probe.close_interval()
            setup_s = time.perf_counter() - started - sum(setup_inside)
            aggregates = []
            for epoch in range(1, epochs + 1):
                _bucket(tracer, "apply")
                fleet.apply_epoch(epoch)
                probe.reference_group()
                _bucket(tracer, epoch)
                aggregates.append(coordinator.run_epoch())
            probe.reference_group()
            truth = fleet.infected_machines(epochs)
        _bucket(tracer, "lookups")
        coordinator.index.close()
        probe.open_interval()
        lookup_ms, lookup_failures = console_lookups(
            fleet_dir, names, epochs, lookups, seed, probe)
        lookup_inside = probe.close_interval()
        probe.reference_group()
        peak_children = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        sizes = {name: _size(os.path.join(fleet_dir, name))
                 for name in ("epochs.jsonl", "baselines.jsonl")}
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(fleet_dir, ignore_errors=True)

    counters_after = global_metrics().snapshot()["counters"]
    program = {name: value - counters_before.get(name, 0.0)
               for name, value in counters_after.items()}
    roster = set(names)
    verdict_maps, reported = [], set()
    errors = lost = 0
    for aggregate in aggregates:
        seen = {verdict.machine for verdict in aggregate.verdicts}
        lost += len(roster - seen)
        errors += sum(1 for verdict in aggregate.verdicts
                      if verdict.verdict == "error")
        verdict_maps.append({verdict.machine: verdict_key(verdict)
                             for verdict in aggregate.verdicts})
        reported.update(verdict.machine for verdict in aggregate.verdicts
                        if verdict.verdict == "infected")
    recall = len(reported & truth) / len(truth) if truth else 1.0
    precision = len(reported & truth) / len(reported) if reported else 1.0
    summaries = [aggregate.summary for aggregate in aggregates]
    exact = {
        "scanned": sum(s.scanned for s in summaries),
        "skipped": sum(s.skipped for s in summaries),
        "late_acks": sum(s.late_acks for s in summaries),
        "escalated": sum(s.escalated for s in summaries),
        "confirmed": sum(s.confirmed for s in summaries),
        "sim_scan_s": round(sum(s.scan_seconds for s in summaries), 6),
        "records_patched": program.get("journal.records_patched", 0.0),
        "patch_fallbacks": program.get("journal.patch_fallback", 0.0),
        "bins_reparsed": program.get("hive.delta.bins_reparsed", 0.0),
        "escalations": program.get("fleet.escalations", 0.0),
    }
    groups = len(probe.reference_groups)
    # Distributed epochs are reported as timed: their work runs in the
    # agents, whose speed the reference samples here do not follow.
    epoch_speeds = ([1.0] * len(probe.epoch_walls) if workload.distributed
                    else probe.epoch_speeds())
    rep = Rep(traced=tracer is not None, setup_s=setup_s,
              setup_speed=probe.speed(0, 1, inside=setup_inside),
              epoch_walls=list(probe.epoch_walls),
              epoch_speeds=epoch_speeds,
              verdict_ms=probe.verdict_ms, lookup_ms=lookup_ms,
              lookup_speed=probe.speed(groups - 2, groups - 1,
                                       inside=lookup_inside),
              digest=verdict_digest(verdict_maps), recall=recall,
              precision=precision,
              verdicts=sum(len(a.verdicts) for a in aggregates),
              errors=errors, lost=lost, lookup_failures=lookup_failures,
              exact=exact, wall_s=time.perf_counter() - began)
    if tracer is not None:
        spans, counts = tracer.totals()
        spawn = probe.agent_spawn_s(AGENTS) if workload.distributed else None
        facts = {
            "epoch_wall_s": sum(probe.epoch_walls),
            "late_acks": float(exact["late_acks"]),
            "summary_scanned": float(exact["scanned"]),
            "sim_scan_s": float(exact["sim_scan_s"]),
            "queue_wal_bytes": float(probe.queue_bytes_appended),
            "baseline_store_bytes": float(sizes["baselines.jsonl"]),
            "epochs_journal_bytes": float(sizes["epochs.jsonl"]),
            "drain_lag_ms": (statistics.median(probe.drain_lag_ms)
                             if probe.drain_lag_ms else 0.0),
            "agent_spawn_s": spawn or 0.0,
            "agent_peak_rss_mb": (peak_children if workload.distributed
                                  else 0.0),
        }
        rep.spans = spans
        rep.bindings = bindings
        rep.layers = layer_metrics(spans, counts, program, facts)
        rep.growth = epoch_growth(tracer, probe.epoch_walls)
    return rep


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def epoch_growth(tracer, walls: List[float]) -> Optional[Dict]:
    """Which layer the steady epoch's growth over the run comes from.

    Compares the first and last third of epochs 2..E: the epoch wall's
    growth against each direct child of the epoch span (inclusive) and
    the epoch span's own self time.
    """
    steady = list(range(2, len(walls) + 1))
    if len(steady) < 6:
        return None
    third = len(steady) // 3
    early, late = steady[:third], steady[-third:]
    per_epoch: Dict[str, Dict[int, float]] = {}
    for (bucket, name, parent), (__, inclusive, own) in tracer.rows().items():
        if not isinstance(bucket, int):
            continue
        if parent == "fleet.epoch":
            label, value = name, inclusive
        elif name == "fleet.epoch":
            label, value = "fleet.unattributed", own
        else:
            continue
        slot = per_epoch.setdefault(label, {})
        slot[bucket] = slot.get(bucket, 0.0) + value

    def mean_over(values, epochs):
        return sum(values(epoch) for epoch in epochs) / len(epochs)

    wall_growth = (mean_over(lambda e: walls[e - 1], late)
                   - mean_over(lambda e: walls[e - 1], early))
    layers = {label: (mean_over(lambda e: slot.get(e, 0.0), late)
                      - mean_over(lambda e: slot.get(e, 0.0), early))
              for label, slot in per_epoch.items()}
    ranked = sorted(layers.items(), key=lambda item: -item[1])
    if not ranked:
        return None
    return {"early": (early[0], early[-1]), "late": (late[0], late[-1]),
            "wall_growth_s": wall_growth, "ranked": ranked}


# -- a whole run --------------------------------------------------------------------


def load_spec() -> Dict:
    """BENCHMARK.json: the metric names and units each mode reports.
    The console lookup percentiles are computed with the end-to-end
    metrics but reported per layer (see design.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def load_digests() -> Dict[str, Dict[str, str]]:
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload, seed: int, seconds: float, trace: bool,
            run_dir: str) -> List[Rep]:
    from tracer import LayerTracer

    run_rep(workload, seed, run_dir, small=True)
    gc.collect()
    deadline = time.perf_counter() + seconds
    reps: List[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, run_dir,
                            tracer=LayerTracer() if traced else None))
        gc.collect()
        longest = max(rep.wall_s for rep in reps)
        if (len(reps) >= MIN_REPS
                and time.perf_counter() + longest > deadline):
            return reps


def check(workload, seed: int, reps: List[Rep]) -> List[str]:
    failures: List[str] = []
    recorded = load_digests().get(workload.name, {}).get(str(seed))
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        failures.append(f"verdict maps differ across repetitions: "
                        f"{sorted(digests)}")
    if recorded is not None and recorded not in digests:
        failures.append(f"verdict digest {sorted(digests)} != recorded "
                        f"{recorded} for seed {seed}")
    for number, rep in enumerate(reps):
        if rep.lost or rep.errors:
            failures.append(f"rep {number}: {rep.lost} lost and "
                            f"{rep.errors} errored verdicts")
        if rep.recall != 1.0 or rep.precision != 1.0:
            failures.append(f"rep {number}: recall {rep.recall:.4f} "
                            f"precision {rep.precision:.4f}")
        if rep.lookup_failures:
            failures.append(f"rep {number}: {rep.lookup_failures} console "
                            f"lookups failed")
    if workload.exact_counts:
        first = reps[0].exact
        for number, rep in enumerate(reps[1:], start=1):
            if rep.exact != first:
                drift = {key: (first[key], rep.exact[key]) for key in first
                         if first[key] != rep.exact[key]}
                failures.append(f"rep {number}: counts drifted {drift}")
    return failures


def end_to_end(reps: List[Rep], scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics over untraced repetitions; timings are
    scaled to nominal host speed unless ``scaled`` is False."""
    median = statistics.median
    timed = [rep.timings(scaled) for rep in reps]
    verdicts = sum(rep.verdicts for rep in reps)
    attempted = sum(rep.verdicts + rep.lost for rep in reps)

    # Latency percentiles pool every repetition's samples; the tail's
    # level is fixed by one repetition's sample count, so it does not
    # move with the number of repetitions a run fits.
    verdict_ms = [v for t in timed for v in t["verdicts"]]
    lookup_ms = [v for t in timed for v in t["lookups"]]
    verdict_tail = tail_fraction(reps[0].verdict_samples)
    lookup_tail = tail_fraction(len(reps[0].lookup_ms))
    return {
        "setup_s": median(t["setup"] for t in timed),
        "cold_epoch_s": median(t["walls"][0] for t in timed),
        "steady_epoch_s": median(median(t["walls"][1:]) for t in timed),
        "verdicts_per_s": verdicts / sum(sum(t["walls"]) for t in timed),
        "verdict_ms.p50": percentile(verdict_ms, 0.5),
        "verdict_ms.tail": percentile(verdict_ms, verdict_tail),
        "console_lookup_ms.p50": percentile(lookup_ms, 0.5),
        "console_lookup_ms.tail": percentile(lookup_ms, lookup_tail),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recall": min(rep.recall for rep in reps),
        "precision": min(rep.precision for rep in reps),
        "verdict_ok_share": 1.0 - sum(rep.errors + rep.lost
                                      for rep in reps) / attempted,
    }


def per_layer(reps: List[Rep]) -> Dict[str, float]:
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    names = traced[0].layers.keys()
    metrics = {name: statistics.median(rep.layers[name] for rep in traced)
               for name in names}
    traced_wall = statistics.median(sum(rep.timings(True)["walls"])
                                    for rep in traced)
    plain_wall = statistics.median(sum(rep.timings(True)["walls"])
                                   for rep in plain)
    metrics["tracing.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1)
    sample = traced[0]
    metrics["verdict_ms.samples"] = float(sample.verdict_samples)
    metrics["verdict_ms.tail_pct"] = 100.0 * tail_fraction(
        sample.verdict_samples)
    metrics["console_lookup_ms.samples"] = float(len(sample.lookup_ms))
    metrics["console_lookup_ms.tail_pct"] = 100.0 * tail_fraction(
        len(sample.lookup_ms))
    attempted = sum(rep.verdicts + rep.lost for rep in reps)
    metrics["error_share"] = sum(rep.errors + rep.lost
                                 for rep in reps) / attempted
    metrics["lost_machines"] = float(sum(rep.lost for rep in reps))
    growth = sample.growth or {}
    ranked = dict(growth.get("ranked", ()))
    wall_growth = growth.get("wall_growth_s", 0.0)
    metrics["growth.epoch_ms"] = 1000.0 * wall_growth
    metrics["growth.top_layer_share"] = (
        max(ranked.values()) / wall_growth
        if ranked and wall_growth > 0 else 0.0)
    metrics["growth.load_history_share"] = (
        ranked.get("scheduler.load_history", 0.0) / wall_growth
        if wall_growth > 0 else 0.0)
    return metrics


# -- reporting ----------------------------------------------------------------------


def print_report(workload, seed: int, reps: List[Rep],
                 e2e: Dict[str, float], raw: Dict[str, float],
                 failures: List[str]) -> None:
    out = sys.stdout
    sample = reps[0]
    print(f"fleetbench {workload.name} seed={seed} reps={len(reps)} "
          f"(traced {sum(rep.traced for rep in reps)}) "
          f"epochs={len(sample.epoch_walls)} digest={sample.digest}",
          file=out)
    print(f"  verdict_ms.tail = p{100 * tail_fraction(sample.verdict_samples):g}"
          f" of {sample.verdict_samples} samples per rep; "
          f"console_lookup_ms.tail = "
          f"p{100 * tail_fraction(len(sample.lookup_ms)):g} of "
          f"{len(sample.lookup_ms)}", file=out)
    print(f"  summary scanned={sample.exact['scanned']:g} "
          f"late_acks={sample.exact['late_acks']:g} "
          f"skipped={sample.exact['skipped']:g} "
          f"confirmed={sample.exact['confirmed']:g} "
          f"sim_scan_s={sample.exact['sim_scan_s']:g}", file=out)
    for label, group in (("untraced", [r for r in reps if not r.traced]),
                         ("traced", [r for r in reps if r.traced])):
        if group:
            sums = ", ".join(f"{sum(r.epoch_walls):.3f}" for r in group)
            print(f"  epoch wall sums, {label}: {sums} s", file=out)
    if workload.distributed:
        print("  agent-side layer time is not measured: it needs "
              "in-program tracing inside the agents", file=out)
        print("  epoch walls and verdict latencies are as timed: their "
              "work runs in the agents", file=out)
    speeds = ", ".join(
        f"{statistics.median(rep.epoch_speeds):.3f}" for rep in reps)
    print(f"  host speed factor per rep (epoch median): {speeds}", file=out)
    print(f"  {'metric':<24} {'nominal host':>14} {'as timed':>14}",
          file=out)
    spec = load_spec()
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6f} {raw[name]:>14.6f} "
              f"{units[name]}", file=out)
    for failure in failures:
        print(f"  CHECK FAILED: {failure}", file=out)


def print_ledger(reps: List[Rep], metrics: Dict[str, float]) -> None:
    traced = [rep for rep in reps if rep.traced][0]
    wall = sum(traced.epoch_walls)
    print(f"  per-layer ledger (traced rep, epoch wall {wall:.4f} s):")
    print(f"    {'span':<30} {'calls':>8} {'incl_s':>10} {'self_s':>10} "
          f"{'self%':>7}")
    for name, (calls, inclusive, own) in sorted(
            traced.spans.items(), key=lambda item: -item[1][1]):
        share = 100.0 * own / wall if wall else 0.0
        print(f"    {name:<30} {calls:>8d} {inclusive:>10.4f} "
              f"{own:>10.4f} {share:>6.1f}%")
    print("  functions wrapped at every binding the callers look up:")
    for span, names in sorted(traced.bindings.items()):
        print(f"    {span:<22} {', '.join(names)}")
    growth = traced.growth
    if growth and growth["wall_growth_s"] > 0:
        print(f"  steady-epoch growth epochs {growth['early'][0]}-"
              f"{growth['early'][1]} -> {growth['late'][0]}-"
              f"{growth['late'][1]}: "
              f"+{1000 * growth['wall_growth_s']:.2f} ms/epoch")
        for label, delta in growth["ranked"][:4]:
            print(f"    {label:<30} +{1000 * delta:8.2f} ms "
                  f"({100 * delta / growth['wall_growth_s']:.0f}%)")
        print(f"  growth layer: {growth['ranked'][0][0]}")
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:.6g}")


# -- entry --------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT)
    try:
        reps = measure(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failures = check(workload, seed, reps)
    plain = [rep for rep in reps if not rep.traced]
    e2e = end_to_end(plain)
    print_report(workload, seed, reps, e2e, end_to_end(plain, scaled=False),
                 failures)
    attempted = sum(rep.verdicts + rep.lost + len(rep.lookup_ms)
                    for rep in reps)
    failed = sum(rep.errors + rep.lost + rep.lookup_failures for rep in reps)
    if failures:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(1, failed), "metrics": {}}))
        return 1
    spec = load_spec()
    if trace:
        values = dict(per_layer(reps), **e2e)
        print_ledger(reps, values)
        wanted = spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in wanted}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; fails if any check does."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        summary["correct"] = (summary["correct"] and result["correct"]
                              and completed.returncode == 0)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"fleetbench: {SRC}/repro not found; the benchmark runs from "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    os.makedirs(WORK_ROOT, exist_ok=True)
    # Scratch files (fleet directories, spilled disk extents) stay
    # inside the checkout.
    tempfile.tempdir = WORK_ROOT
    os.environ["TMPDIR"] = WORK_ROOT
    logging.getLogger("repro").setLevel(logging.ERROR)
    try:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
