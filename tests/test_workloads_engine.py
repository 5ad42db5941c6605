"""Workload engine tests: fleet synthesis, sampled scanning, traces.

Covers the PR-9 acceptance surface:

* seed-stability — the same :class:`FleetProfile` reproduces
  byte-identical disks (hives included — they live on the disk) across
  runs;
* cold-start LPT — never-scanned machines dispatch longest-first from
  the cost-model estimate instead of alphabetically;
* sampled scanning — tier assignment, strata choice, honest costs,
  ASEP-stratum detection, escalation to the full scan;
* trace record/replay — element-identical verdicts, digest
  verification, tamper detection (byte-identical journals asserted
  only when no ambient chaos plan is installed, because per-site fault
  streams keep their draw positions within a process);
* the Hypothesis escalation property — on every machine the sampled
  sweep escalated, its reported infections are a superset-of-or-equal
  of the full sweep's, and recall accounting matches the planted
  ground truth;
* the recall-vs-cost curve — sampled sweeps keep recall with no false
  positives, and (``slow``) cut the steady-state simulated scan cost of
  a 200-machine fleet at least five-fold.
"""

from __future__ import annotations

import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.costmodel import estimate_scan_seconds
from repro.errors import CoordinatorKilled, FleetError
from repro.fleet import FleetCoordinator
from repro.fleet.aggregator import FleetAggregator, MachineVerdict
from repro.fleet.scanwork import ScanSettings, perform_machine_scan
from repro.machine import HIVE_FILES, Machine
from repro.telemetry.journal_io import iter_journal
from repro.workloads import (FleetProfile, FleetWorkload, InfectionWave,
                             SamplingPolicy, apply_infections, apply_ops,
                             build_profiled_machine, load_trace,
                             perform_sampled_scan, populate_machine,
                             record_sweep, replay_sweep, trace_digest,
                             verdict_key)
from repro.workloads.fleetgen import STRAINS
from repro.workloads.sampling import TIER_FULL, TIER_SAMPLE

CHAOS_ACTIVE = bool(os.environ.get("REPRO_CHAOS_SEED"))

TINY = FleetProfile(name="tiny", size=4, seed=11, file_count=(10, 18),
                    virtual_files=(2_000, 4_000), registry_kb=(30, 60),
                    churn_files=(1, 3), churn_registry=(0, 1),
                    disk_mb=64, max_records=2048)


def disk_digest(machine: Machine) -> str:
    """Byte digest of every written sector (hives are files on disk)."""
    digest = hashlib.sha256()
    for index, data in sorted(machine.disk.written_sectors()):
        digest.update(index.to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def hive_digests(machine: Machine) -> dict:
    return {hive: hashlib.sha256(
        machine.volume.read_file(path)).hexdigest()
        for hive, path in HIVE_FILES.items()}


class TestFleetGen:
    def test_profile_round_trip(self):
        profile = FleetProfile(
            name="rt", size=3, seed=5, waves=(
                InfectionWave("hackerdefender", onset_epoch=2,
                              initial=1, spread=0.5),))
        assert FleetProfile.from_dict(profile.to_dict()) == profile

    def test_machine_names_stable(self):
        assert TINY.machine_names() == [
            "tiny-000", "tiny-001", "tiny-002", "tiny-003"]

    def test_schedules_identical_across_instances(self):
        first = FleetWorkload(TINY, boot=False)
        second = FleetWorkload(TINY, boot=False)
        for epoch in (1, 2, 3):
            assert first.epoch_events(epoch) == second.epoch_events(epoch)

    def test_epoch_one_has_no_churn(self):
        assert FleetWorkload(TINY, boot=False).epoch_events(1)["ops"] == []

    def test_churn_ops_apply_cleanly(self):
        workload = FleetWorkload(TINY, boot=False)
        for epoch in (1, 2, 3):
            events = workload.epoch_events(epoch)
            assert apply_ops(workload.machines, events["ops"]) \
                == len(events["ops"])

    def test_wave_infects_and_tracks_ground_truth(self):
        profile = FleetProfile(
            name="wave", size=5, seed=3, file_count=(8, 12),
            registry_kb=(20, 40), disk_mb=64, max_records=2048,
            waves=(InfectionWave("hackerdefender", onset_epoch=2,
                                 initial=1, spread=1.0),))
        workload = FleetWorkload(profile, boot=False)
        assert workload.epoch_events(1)["infections"] == []
        assert len(workload.epoch_events(2)["infections"]) == 1
        assert workload.infected_machines(1) == set()
        two = workload.infected_machines(2)
        assert len(two) == 1
        assert two <= set(workload.machines)
        # spread=1.0 doubles the infected population each epoch.
        assert len(workload.infected_machines(3)) == 2

    def test_apply_infections_installs_strain(self):
        workload = FleetWorkload(TINY, boot=False)
        name = sorted(workload.machines)[0]
        ghosts = apply_infections(
            workload.machines, [{"machine": name,
                                 "strain": "hackerdefender"}])
        assert len(ghosts) == 1
        from repro.core import GhostBuster
        report = GhostBuster(workload.machines[name]).detect()
        assert not report.is_clean


class TestSeedStability:
    """Satellite: byte-identical populations for the same seed."""

    def test_same_seed_same_bytes(self):
        first = build_profiled_machine(TINY, "tiny-001", boot=False)
        second = build_profiled_machine(TINY, "tiny-001", boot=False)
        assert disk_digest(first) == disk_digest(second)
        assert hive_digests(first) == hive_digests(second)

    def test_different_machines_differ(self):
        first = build_profiled_machine(TINY, "tiny-000", boot=False)
        second = build_profiled_machine(TINY, "tiny-003", boot=False)
        assert disk_digest(first) != disk_digest(second)

    def test_different_profile_seed_differs(self):
        other = FleetProfile(**dict(
            (k, getattr(TINY, k)) for k in (
                "name", "size", "file_count", "virtual_files",
                "registry_kb", "cpu_mhz", "churn_files",
                "churn_registry", "waves", "disk_mb", "max_records")),
            seed=TINY.seed + 1)
        first = build_profiled_machine(TINY, "tiny-001", boot=False)
        second = build_profiled_machine(other, "tiny-001", boot=False)
        assert disk_digest(first) != disk_digest(second)


class TestColdStartLpt:
    """Satellite: estimate-driven LPT order on never-scanned fleets."""

    def _machine(self, name: str, files: int) -> Machine:
        machine = Machine(name, disk_mb=256, max_records=8192)
        populate_machine(machine, file_count=files, registry_scale=30,
                         seed=4)
        return machine

    def test_estimate_orders_by_size(self):
        small = self._machine("aaa-tiny", 20)
        big = self._machine("zzz-huge", 300)
        assert estimate_scan_seconds(big, ("files", "registry")) \
            > estimate_scan_seconds(small, ("files", "registry"))

    def test_first_epoch_dispatches_longest_first(self, tmp_path):
        # Alphabetical order (the pre-fix tiebreak) would scan the
        # tiny machine first; the estimate must put the big one first.
        small = self._machine("aaa-tiny", 20)
        big = self._machine("zzz-huge", 300)
        coordinator = FleetCoordinator(str(tmp_path), [small, big],
                                       workers=1, console_index=False)
        coordinator.run_epoch()
        order = [line.record["machine"]
                 for line in iter_journal(coordinator.epochs_path)
                 if line.record.get("type") == "fleet-machine"]
        assert order[0] == "zzz-huge"


class TestSamplingPolicy:
    def test_round_trip(self):
        policy = SamplingPolicy(seed=9, file_rate=0.1, full_every=4,
                                min_strata=2)
        assert SamplingPolicy.from_dict(policy.to_dict()) == policy

    def test_assign_tiers(self):
        class Entry:
            def __init__(self, machine, staleness, risk):
                self.machine, self.staleness, self.risk = \
                    machine, staleness, risk

        policy = SamplingPolicy(seed=0, full_every=1000)
        plan = [Entry("fresh", 1.0, 0), Entry("risky", 1.0, 2),
                Entry("never", 1000.0, 0)]
        tiers = policy.assign(plan, epoch=3)
        assert tiers["risky"] == TIER_FULL
        assert tiers["never"] == TIER_FULL
        assert tiers["fresh"] == TIER_SAMPLE

    def test_rotation_gives_everyone_a_full_scan(self):
        policy = SamplingPolicy(seed=1, full_every=4)

        class Entry:
            def __init__(self, machine):
                self.machine, self.staleness, self.risk = machine, 1.0, 0

        plan = [Entry(f"m-{i}") for i in range(12)]
        full_epochs = {entry.machine: [] for entry in plan}
        for epoch in range(1, 9):
            for machine, tier in policy.assign(plan, epoch).items():
                if tier == TIER_FULL:
                    full_epochs[machine].append(epoch)
        # Every machine rotates through the full tier once per cycle.
        assert all(len(epochs) == 2 for epochs in full_epochs.values())

    def test_choose_strata_deterministic_and_rated(self):
        policy = SamplingPolicy(seed=5, file_rate=0.25)
        dirs = [f"\\dir{i}" for i in range(20)]
        chosen = policy.choose_strata("m", 3, dirs)
        assert chosen == policy.choose_strata("m", 3, dirs)
        assert len(chosen) == 5
        assert set(chosen) <= set(dirs)
        assert chosen != policy.choose_strata("m", 4, dirs)

    def test_min_strata_floor(self):
        policy = SamplingPolicy(seed=5, file_rate=0.01, min_strata=2)
        assert len(policy.choose_strata("m", 1,
                                        [f"\\d{i}" for i in range(9)])) == 2


class TestSampledScan:
    @pytest.fixture
    def populated(self):
        machine = Machine("sampled-box", disk_mb=256, max_records=8192)
        populate_machine(machine, file_count=150, registry_scale=50,
                         seed=6)
        machine.boot()
        return machine

    def test_clean_machine_clean_and_cheaper(self, populated):
        policy = SamplingPolicy(seed=2, file_rate=0.2)
        sampled = perform_sampled_scan(populated, 1, policy)
        assert sampled.report.is_clean
        assert not sampled.escalate
        assert 0.0 < sampled.coverage < 1.0
        assert sampled.sampled_entities < sampled.total_entities
        assert sampled.strata_sampled < sampled.strata_total
        full = perform_machine_scan(populated, 1, ScanSettings())
        assert sampled.scan_seconds < full.scan_seconds

    def test_asep_ghost_always_escalates(self, populated):
        # The registry stratum is never sampled, so a persistent ghost
        # is caught regardless of which file strata the seed picks.
        STRAINS["hackerdefender"]().install(populated)
        policy = SamplingPolicy(seed=2, file_rate=0.05)
        sampled = perform_sampled_scan(populated, 1, policy)
        assert sampled.escalate

    def test_hidden_files_found_at_full_rate(self, populated):
        # With every stratum sampled the file diff alone must surface
        # the hider's files — no help from the registry stratum.
        STRAINS["hackerdefender"]().install(populated)
        sampled = perform_sampled_scan(
            populated, 1, SamplingPolicy(seed=2, file_rate=1.0),
            resources=("files",))
        resources = {f.resource_type.value
                     for f in sampled.report.findings}
        assert sampled.escalate
        assert "file" in resources


class TestSampledCoordinator:
    def _workload(self, seed=21):
        profile = FleetProfile(
            name="sc", size=4, seed=seed, file_count=(12, 20),
            registry_kb=(30, 50), churn_files=(1, 2),
            disk_mb=64, max_records=2048)
        return FleetWorkload(profile)

    def test_cold_start_full_then_sampled(self, tmp_path):
        workload = self._workload()
        sampling = SamplingPolicy(seed=7, file_rate=0.25, full_every=64)
        coordinator = FleetCoordinator(
            str(tmp_path), workload.machines.values(), workers=2,
            sampling=sampling, console_index=False)
        workload.apply_epoch(1)
        first = coordinator.run_epoch()
        # Never-scanned machines are all above full_staleness → full.
        assert first.summary.sampled == 0
        workload.apply_epoch(2)
        second = coordinator.run_epoch()
        assert second.summary.sampled >= 1
        assert 0.0 < second.summary.estimated_recall <= 1.0
        sampled = [v for v in second.verdicts if v.sampled]
        assert all(v.coverage < 1.0 for v in sampled)
        assert all(v.verdict == "clean" for v in sampled)

    def test_infection_detected_through_sampling(self, tmp_path):
        workload = self._workload()
        sampling = SamplingPolicy(seed=7, file_rate=0.25, full_every=64)
        coordinator = FleetCoordinator(
            str(tmp_path), workload.machines.values(), workers=2,
            sampling=sampling, console_index=False)
        workload.apply_epoch(1)
        coordinator.run_epoch()
        # Infect a machine guaranteed to land in the sample tier
        # (fresh baseline, no risk, not on this epoch's rotation slot).
        rotation = 2 % sampling.full_every
        victim = next(name for name in sorted(workload.machines)
                      if sampling._rotation_slot(name) != rotation)
        apply_infections(workload.machines,
                         [{"machine": victim,
                           "strain": "hackerdefender"}])
        second = coordinator.run_epoch()
        verdicts = {v.machine: v for v in second.verdicts}
        assert verdicts[victim].verdict == "infected"
        assert verdicts[victim].sampling_escalated
        assert second.summary.sampling_escalations >= 1
        # The escalated machine's verdict came from the full pipeline.
        assert verdicts[victim].findings > 0

    def test_sampled_tier_journaled_and_resumable(self, tmp_path):
        reference_dir = tmp_path / "ref"
        killed_dir = tmp_path / "killed"
        sampling = SamplingPolicy(seed=7, file_rate=0.25, full_every=64)

        def run(directory, kill):
            workload = self._workload()
            coordinator = FleetCoordinator(
                str(directory), workload.machines.values(), workers=2,
                sampling=sampling, console_index=False)
            workload.apply_epoch(1)
            coordinator.run_epoch()
            workload.apply_epoch(2)
            if kill:
                with pytest.raises(CoordinatorKilled):
                    coordinator.run_epoch(kill_after_acks=2)
                resumed = FleetCoordinator(
                    str(directory), workload.machines.values(),
                    workers=2, sampling=sampling, console_index=False)
                aggregate = resumed.run_epoch()
                assert resumed._sampled_tier \
                    == resumed._journaled_sampled(2)
                return aggregate
            return coordinator.run_epoch()

        reference = run(reference_dir, kill=False)
        resumed = run(killed_dir, kill=True)
        assert {v.machine: verdict_key(v) for v in reference.verdicts} \
            == {v.machine: verdict_key(v) for v in resumed.verdicts}


class TestTraces:
    PROFILE = FleetProfile(
        name="tr", size=4, seed=31, file_count=(10, 16),
        registry_kb=(25, 45), churn_files=(1, 2),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2),))

    # The 20-machine reference workload: sampled scans and one planted
    # infection.
    REFERENCE = FleetProfile(
        name="trb", size=20, seed=53, file_count=(40, 80),
        virtual_files=(5_000, 20_000), registry_kb=(20, 40),
        churn_files=(1, 4), churn_registry=(0, 2),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2, initial=1,
                             spread=0.0),))

    @staticmethod
    def record_then_replay_twice(tmp_path, profile, epochs, **kwargs):
        """Record a sweep, replay it twice; every run must agree."""
        trace = str(tmp_path / "trace.jsonl")
        recorded = record_sweep(trace, profile, str(tmp_path / "rec"),
                                epochs=epochs, **kwargs)
        runs = [recorded] + [replay_sweep(trace, str(tmp_path / f"rep{n}"))
                             for n in (1, 2)]
        assert len({run.trace_digest for run in runs}) == 1
        assert all(run.verdicts == recorded.verdicts for run in runs)
        assert all(run.infected == recorded.infected for run in runs)
        assert recorded.infected   # the wave actually fired
        if not CHAOS_ACTIVE:
            # Within one process an ambient chaos plan's per-site
            # streams keep their positions, perturbing scan_seconds;
            # without one the journals are byte-identical.
            assert len({run.journal_digest for run in runs}) == 1
        return recorded

    def test_record_then_replay_twice(self, tmp_path):
        self.record_then_replay_twice(
            tmp_path, self.PROFILE, 3,
            sampling=SamplingPolicy(seed=3, full_every=64))

    def test_reference_workload_replays_and_convicts(self, tmp_path):
        recorded = self.record_then_replay_twice(
            tmp_path, self.REFERENCE, 2,
            sampling=SamplingPolicy(seed=3, file_rate=0.25, full_every=4),
            workers=2)
        # A planted infection is convicted in some epoch.
        assert any(verdicts.get(machine, ("",))[0] == "infected"
                   for machine in recorded.infected
                   for verdicts in recorded.verdicts)

    def test_replay_rejects_tampered_trace(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        record_sweep(trace, self.PROFILE, str(tmp_path / "rec"),
                     epochs=2)
        lines = open(trace, encoding="utf-8").read().splitlines()
        tampered = [line.replace('"size": 4', '"size": 5')
                    if '"trace-header"' in line else line
                    for line in lines]
        assert tampered != lines
        with open(trace, "w", encoding="utf-8") as handle:
            handle.write("\n".join(tampered) + "\n")
        with pytest.raises(FleetError, match="digest mismatch"):
            replay_sweep(trace, str(tmp_path / "rep"))

    def test_load_trace_requires_header(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text('{"type": "not-a-trace"}\n')
        with pytest.raises(FleetError, match="no trace-header"):
            load_trace(str(trace))

    def test_trace_digest_is_canonical(self):
        records = [{"b": 1, "a": 2}, {"epoch": 1, "ops": []}]
        assert trace_digest(records) \
            == trace_digest([{"a": 2, "b": 1},
                             {"ops": [], "epoch": 1}])
        assert trace_digest(records) != trace_digest(records[:1])


def sampled_sweep_profile(size):
    """File-heavy machines (small hives, many virtual files), so the
    sampled pass's always-full registry stratum stays cheap next to the
    file scan it avoids, and a persistent wave that must hook an ASEP
    to survive reboot: the stratum sampling never skips."""
    return FleetProfile(
        name="swp", size=size, seed=97,
        file_count=(240, 340), virtual_files=(80_000, 200_000),
        registry_kb=(6, 12), churn_files=(2, 5), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("hackerdefender", onset_epoch=2,
                             initial=2, spread=0.4),))


def sweep_summaries(fleet_dir, profile, epochs, workers, sampling=None):
    """One sweep's epoch summaries, the machines it convicted in any
    epoch, and the planted truth."""
    workload = FleetWorkload(profile)
    coordinator = FleetCoordinator(
        str(fleet_dir), workload.machines.values(), workers=workers,
        sampling=sampling, console_index=False)
    summaries, reported = [], set()
    for epoch in range(1, epochs + 1):
        workload.apply_epoch(epoch)
        aggregate = coordinator.run_epoch()
        summaries.append(aggregate.summary)
        reported.update(v.machine for v in aggregate.verdicts
                        if v.verdict == "infected")
    return summaries, reported, workload.infected_machines(epochs)


class TestSampledSweepCurve:
    """Recall against cost: a full sweep and sampled sweeps at several
    file rates over the same workload.  The steady-state cost is the
    simulated scan seconds after epoch 1 (never-scanned machines get a
    full scan in every arm)."""

    @staticmethod
    def curve(tmp_path, size, epochs, rates, workers):
        """rate -> (recall, steady cost reduction against full)."""
        profile = sampled_sweep_profile(size)
        full, reported, truth = sweep_summaries(
            tmp_path / "full", profile, epochs, workers)
        assert truth and reported == truth   # full recall 1.0, no FP
        full_cost = sum(summary.scan_seconds for summary in full[1:])
        points = {}
        for rate in rates:
            summaries, reported, truth = sweep_summaries(
                tmp_path / f"rate-{rate}", profile, epochs, workers,
                SamplingPolicy(seed=5, file_rate=rate, full_every=64))
            assert reported <= truth, rate   # no false positives
            assert sum(summary.sampled for summary in summaries) > 0, rate
            cost = sum(summary.scan_seconds for summary in summaries[1:])
            points[rate] = (len(reported & truth) / len(truth),
                            full_cost / cost)
        return points

    def test_every_rate_samples_without_false_positives(self, tmp_path):
        self.curve(tmp_path, size=20, epochs=3, rates=(0.05, 0.35),
                   workers=2)

    @pytest.mark.slow
    def test_five_fold_steady_reduction_keeps_recall(self, tmp_path):
        (recall, reduction), = self.curve(
            tmp_path, size=200, epochs=4, rates=(0.05,), workers=8).values()
        assert recall >= 0.95
        assert reduction >= 5


# Strains whose persistence hooks an ASEP *and* whose stealth hides it
# from the API view — the registry stratum alone convicts them, so the
# sampled sweep's recall on them is total at any file rate.  (berbew
# doesn't hide and naming hides only files, so neither qualifies.)
ASEP_STRAINS = ("hackerdefender", "urbin", "mersting", "vanquish")


class TestEscalationProperty:
    """Satellite: the sampled sweep never under-reports an escalated
    machine, and its recall accounting matches the planted truth."""

    @settings(max_examples=4, deadline=None)
    @given(profile_seed=st.integers(1, 1_000),
           sampling_seed=st.integers(0, 1_000),
           file_rate=st.floats(0.05, 0.6),
           strain=st.sampled_from(ASEP_STRAINS))
    def test_sampled_superset_on_escalated(self, tmp_path_factory,
                                           profile_seed, sampling_seed,
                                           file_rate, strain):
        profile = FleetProfile(
            name="prop", size=4, seed=profile_seed,
            file_count=(8, 14), registry_kb=(20, 40),
            churn_files=(1, 2), disk_mb=64, max_records=2048,
            waves=(InfectionWave(strain, onset_epoch=2, initial=1,
                                 spread=1.0),))
        sampling = SamplingPolicy(seed=sampling_seed,
                                  file_rate=file_rate, full_every=64)
        base = tmp_path_factory.mktemp("prop")

        source = FleetWorkload(profile)
        sampled_run = FleetCoordinator(
            str(base / "sampled"), source.machines.values(), workers=2,
            sampling=sampling, console_index=False)
        mirror = FleetWorkload(profile)
        full_run = FleetCoordinator(
            str(base / "full"), mirror.machines.values(), workers=2,
            console_index=False)

        last_sampled = last_full = None
        for epoch in (1, 2, 3):
            events = source.apply_epoch(epoch)
            # The mirror fleet applies the *same* events, so both runs
            # scan literally identical machine states.
            apply_ops(mirror.machines, events["ops"])
            apply_infections(mirror.machines, events["infections"])
            last_sampled = sampled_run.run_epoch()
            last_full = full_run.run_epoch()

        truth = source.infected_machines(3)
        sampled_verdicts = {v.machine: v for v in last_sampled.verdicts}
        full_infected = {v.machine for v in last_full.verdicts
                         if v.verdict == "infected"}
        sampled_infected = {name for name, v in sampled_verdicts.items()
                            if v.verdict == "infected"}

        # The full sweep's recall on ASEP-persistent strains is total.
        assert full_infected == truth
        # No false positives, and every escalated machine reports at
        # least what the full sweep reports for it.
        assert sampled_infected <= truth
        escalated = {name for name, v in sampled_verdicts.items()
                     if v.sampling_escalated}
        assert full_infected & escalated <= sampled_infected
        # Machines scanned in full (tier or escalation) miss nothing.
        fully_checked = {name for name, v in sampled_verdicts.items()
                         if not v.sampled or v.sampling_escalated}
        assert truth & fully_checked <= sampled_infected
        # Persistent strains hook ASEPs, and the ASEP stratum is never
        # sampled away — the sampled sweep's recall is total too.
        assert sampled_infected == truth

        # Recall accounting: the coverage-weighted estimate folds
        # exactly the verdicts' coverage shares.
        summary = last_sampled.summary
        expected = sum(0.0 if v.error is not None else v.coverage
                       for v in last_sampled.verdicts) / summary.machines
        assert summary.estimated_recall == pytest.approx(expected,
                                                         abs=1e-6)


class TestAccountingAndRendering:
    def test_aggregator_recall_math(self):
        aggregator = FleetAggregator(epoch=1)
        aggregator.observe(MachineVerdict(
            machine="a", epoch=1, verdict="clean", scanned=True,
            sampled=True, coverage=0.5))
        aggregator.observe(MachineVerdict(
            machine="b", epoch=1, verdict="infected", scanned=True,
            findings=1, sampled=True, coverage=0.25,
            sampling_escalated=True))
        aggregator.observe(MachineVerdict(
            machine="c", epoch=1, verdict="clean", scanned=True))
        summary = aggregator.summary
        assert summary.sampled == 2
        assert summary.sampling_escalations == 1
        assert summary.estimated_recall \
            == pytest.approx((0.5 + 0.25 + 1.0) / 3, abs=1e-6)

    def test_verdict_round_trip_keeps_sampling_fields(self):
        verdict = MachineVerdict(machine="a", epoch=2, verdict="clean",
                                 scanned=True, sampled=True,
                                 coverage=0.375)
        back = MachineVerdict.from_dict(verdict.to_dict())
        assert back.sampled and back.coverage == 0.375
        assert not back.sampling_escalated

    def test_scan_report_renders_sampling(self):
        import importlib.util
        from pathlib import Path
        spec = importlib.util.spec_from_file_location(
            "scan_report", Path(__file__).resolve().parent.parent
            / "scripts" / "scan_report.py")
        scan_report = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scan_report)
        records = {
            "fleet-machine": [
                {"machine": "m0", "epoch": 2, "verdict": "clean",
                 "sampled": True, "coverage": 0.4, "findings": 0,
                 "scan_seconds": 3.0},
                {"machine": "m1", "epoch": 2, "verdict": "infected",
                 "sampled": True, "sampling_escalated": True,
                 "coverage": 0.4, "findings": 2, "scan_seconds": 9.0},
            ],
            "epoch-end": [
                {"epoch": 2, "machines": 2, "scanned": 2, "sampled": 2,
                 "sampling_escalations": 1, "estimated_recall": 0.7,
                 "infected": 1, "scan_seconds": 12.0}],
        }
        text = scan_report.render_fleet(records)
        assert "samp 40%" in text
        assert "sam>full" in text
        assert "est. recall 70.0%" in text

    def test_dashboard_scan_mode(self):
        from repro.console.dashboard import _scan_mode
        assert _scan_mode({"sampled": True, "coverage": 0.4}) \
            == "sampled 40%"
        assert _scan_mode({"sampling_escalated": True}) == "sampled→full"
        assert _scan_mode({"skipped": True}) == "skip"
        assert _scan_mode({}) == "full"
