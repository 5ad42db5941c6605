r"""The adversary engine: leveled stealth campaigns and counter-moves.

Covers the PR-10 contract end to end:

* level parsing and capability clamping;
* detection awareness — a scan-aware hider evades a naive single-pass
  diff entirely, and scan-until-stable (``stabilize_rounds >= 2``) with
  the flag-unstable merge recovers every artifact (the Hypothesis
  property: invariant to the sensor's trigger delay and seed);
* the timestamp cloak defeating the recent-write triage probe;
* identity rotation — ground truth stays exact at machine granularity,
  exact finding identities change, fuzzy campaign fingerprints do not;
* the satellite-2 regression: one ``fleet-campaign`` alert per campaign
  across epochs of rotated identities, including across a coordinator
  restart (journal-rebuilt tracker suppresses duplicates);
* kill/resume mid-stealth-campaign is element-identical to an
  uninterrupted run;
* the precision/recall-per-level curve, naive against defended;
* sweep traces record stealth events and replay them verbatim.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghostbuster import GhostBuster
from repro.errors import CoordinatorKilled
from repro.fleet import FleetCoordinator, fleet_status
from repro.fleet.policy import EscalationPolicy, campaign_fingerprints
from repro.fleet.scheduler import recent_write_probe
from repro.ghostware import FuRootkit, Urbin
from repro.machine import Machine
from repro.stealth import (LEVELS, SensorConfig, StealthManager,
                           attach_stealth, behaviors_for, level_index,
                           parse_level, rotation_token)
from repro.telemetry.journal_io import iter_journal
from repro.workloads import (FleetProfile, FleetWorkload, InfectionWave,
                             load_trace, populate_machine, record_sweep,
                             replay_sweep, verdict_key)

DEFENDED = dict(stabilize_rounds=2, flag_unstable=True)


def small_machine(name: str = "victim", seed: int = 5) -> Machine:
    machine = Machine(name, disk_mb=64, max_records=2048)
    populate_machine(machine, file_count=12, registry_scale=40, seed=seed)
    machine.boot()
    return machine


STEALTH_PROFILE = FleetProfile(
    name="stealth", size=6, seed=23, file_count=(10, 16),
    virtual_files=(2_000, 4_000), registry_kb=(30, 60),
    churn_files=(1, 3), churn_registry=(0, 1),
    waves=(InfectionWave(strain="urbin", onset_epoch=1, initial=2,
                         spread=0.5, level="high"),))


class TestLevels:
    def test_parse_and_order(self):
        assert parse_level("HIGH") == "high"
        assert [level_index(level) for level in LEVELS] == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError):
            parse_level("paranoid")

    def test_capability_clamp(self):
        # FuRootkit can only cloak: every level collapses to at most that.
        assert behaviors_for("maximum", FuRootkit.stealth_capabilities) \
            == frozenset({"cloak"})
        assert behaviors_for("off", Urbin.stealth_capabilities) \
            == frozenset()
        # Urbin supports the full ladder.
        assert behaviors_for("maximum", Urbin.stealth_capabilities) \
            == frozenset({"cloak", "aware", "rotate", "coordinate"})

    def test_attach_off_is_none(self):
        machine = small_machine()
        ghost = Urbin()
        ghost.install(machine)
        assert attach_stealth(ghost, machine, "off") is None
        assert ghost.concealed()   # no manager → always concealing


class TestDetectionAwareness:
    def _infected(self, level="medium", seed="7", config=None):
        machine = small_machine()
        ghost = Urbin()
        ghost.install(machine)
        manager = attach_stealth(ghost, machine, level, seed=seed,
                                 sensor_config=config)
        assert manager is not None
        return machine, ghost, manager

    def test_naive_single_pass_is_evaded(self):
        machine, ghost, __ = self._infected()
        report = GhostBuster(machine).inside_scan(
            resources=("files", "registry"))
        # The sensor unhid during the truth-side sweep too: both views
        # agree, the naive diff reports nothing.
        assert report.is_clean
        assert ghost.report.hidden_files

    def test_scan_until_stable_recovers(self):
        machine, ghost, manager = self._infected()
        report = GhostBuster(machine, **DEFENDED).inside_scan(
            resources=("files", "registry"))
        found = {str(f.entry.identity).casefold()
                 for f in report.hidden_files()}
        assert {path.casefold()
                for path in ghost.report.hidden_files} <= found
        assert report.hidden_hooks()
        assert all(f.unstable for f in report.findings)
        assert report.rounds >= 2
        stats = manager.sensor.stats()
        assert stats["calls_sensed"] > 0
        assert stats["files_episodes"] >= 1

    def test_outside_scan_sees_through(self):
        machine, ghost, __ = self._infected()
        outcome = EscalationPolicy().confirm(
            machine, GhostBuster(machine, **DEFENDED).inside_scan(
                resources=("files", "registry")),
            noise_filter=None, fault_plan=None)
        assert outcome.confirmed
        assert outcome.outside_findings > 0

    @settings(max_examples=12, deadline=None)
    @given(delay=st.integers(min_value=0, max_value=5),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_recovery_invariant_to_unhide_timing(self, delay, seed):
        # The ISSUE's property: whatever the sensor's trigger delay and
        # seed, stabilize_rounds >= 2 plus outside escalation recovers a
        # detection-aware hider.  One round's episode cannot span both
        # rounds, so either the intersection or the unstable merge wins.
        config = SensorConfig(trigger_delay=delay)
        machine, ghost, __ = self._infected(seed=str(seed), config=config)
        report = GhostBuster(machine, **DEFENDED).inside_scan(
            resources=("files", "registry"))
        assert not report.is_clean
        outcome = EscalationPolicy().confirm(machine, report,
                                             noise_filter=None,
                                             fault_plan=None)
        assert outcome.confirmed
        recovered = {str(f.entry.identity).casefold()
                     for f in outcome.outside_report.hidden_files()}
        assert {path.casefold()
                for path in ghost.report.hidden_files} <= recovered


class TestTimestampCloak:
    def test_cloak_defeats_recent_write_probe(self):
        fresh = small_machine("fresh")
        cloaked = small_machine("cloaked")
        for machine in (fresh, cloaked):
            machine.clock.advance(10_000.0)
        Urbin().install(fresh)
        ghost = Urbin()
        ghost.install(cloaked)
        attach_stealth(ghost, cloaked, "low")
        assert recent_write_probe(fresh, horizon_seconds=3600.0)
        assert not recent_write_probe(cloaked, horizon_seconds=3600.0)

    def test_clean_machine_quiet_after_settling(self):
        machine = small_machine("settled")
        machine.clock.advance(10_000.0)
        assert not recent_write_probe(machine, horizon_seconds=3600.0)


class TestIdentityRotation:
    def test_rotation_moves_identities_not_fingerprints(self):
        machine = small_machine()
        ghost = Urbin()
        ghost.install(machine)
        manager = attach_stealth(ghost, machine, "high", seed="3")
        before = GhostBuster(machine, **DEFENDED).inside_scan(
            resources=("files", "registry"))
        manager.rotate(machine, rotation_token("3", "urbin", "victim", 2))
        after = GhostBuster(machine, **DEFENDED).inside_scan(
            resources=("files", "registry"))
        ids = lambda report: {str(f.entry.identity)
                              for f in report.findings}
        assert ids(before) and ids(after)
        assert ids(before) != ids(after)
        assert campaign_fingerprints(before) == campaign_fingerprints(after)
        # Ground truth followed the rotation.
        found = {str(f.entry.identity).casefold()
                 for f in after.hidden_files()}
        assert {path.casefold()
                for path in ghost.report.hidden_files} <= found

    def test_ground_truth_exact_under_rotation(self):
        workload = FleetWorkload(STEALTH_PROFILE)
        infected_by_epoch = [workload.infected_machines(epoch)
                             for epoch in (1, 2, 3)]
        # Membership only ever grows, machine-granular, rotation-free.
        assert infected_by_epoch[0] <= infected_by_epoch[1] \
            <= infected_by_epoch[2]
        events = workload.epoch_events(2)
        assert any(event["action"] == "rotate"
                   for event in events["stealth"])


class TestCampaignDedupe:
    """Satellite 2: one alert per campaign across rotated identities."""

    def _campaign_records(self, coordinator):
        return [line.record
                for line in iter_journal(coordinator.epochs_path)
                if line.record.get("type") == "fleet-campaign"]

    def test_single_alert_across_rotated_epochs(self, tmp_path):
        workload = FleetWorkload(STEALTH_PROFILE)
        coordinator = FleetCoordinator(
            str(tmp_path / "fleet"), workload.machines.values(), workers=2,
            outbreak_threshold=2, console_index=False, **DEFENDED)
        finding_ids = {}
        for epoch in (1, 2, 3):
            workload.apply_epoch(epoch)
            aggregate = coordinator.run_epoch()
            for verdict in aggregate.verdicts:
                if verdict.finding_ids:
                    finding_ids.setdefault(verdict.machine, []).append(
                        tuple(verdict.finding_ids))
        # Rotation really happened: some machine's exact identities
        # changed between epochs.
        assert any(len(set(seen)) > 1 for seen in finding_ids.values())
        records = self._campaign_records(coordinator)
        fingerprints = [record["fingerprint"] for record in records]
        assert fingerprints
        assert len(fingerprints) == len(set(fingerprints))
        # Each alert subsumes the rotated identities it correlated.
        by_machine_count = {record["fingerprint"]: len(record["machines"])
                            for record in records}
        assert all(count >= 2 for count in by_machine_count.values())

    def test_restart_does_not_realert(self, tmp_path):
        workload = FleetWorkload(STEALTH_PROFILE)
        fleet_dir = str(tmp_path / "fleet")
        coordinator = FleetCoordinator(
            fleet_dir, workload.machines.values(), workers=2,
            outbreak_threshold=2, console_index=False, **DEFENDED)
        for epoch in (1, 2):
            workload.apply_epoch(epoch)
            coordinator.run_epoch()
        before = self._campaign_records(coordinator)
        assert before
        # A fresh coordinator rebuilds the tracker from the journal;
        # the next (rotated) epoch must not re-alert known campaigns.
        resumed = FleetCoordinator(
            fleet_dir, workload.machines.values(), workers=2,
            outbreak_threshold=2, console_index=False, **DEFENDED)
        workload.apply_epoch(3)
        resumed.run_epoch()
        after = self._campaign_records(resumed)
        assert [record["fingerprint"] for record in after] \
            == [record["fingerprint"] for record in before]


def campaign_arm(fleet_dir, size, level, defended, workers, epochs=3):
    """One arm of the stealth curve over the ``adv`` workload.

    Two fully capable strains run at ``level``, so every rung of the
    ladder changes behaviour: Urbin (AppInit IAT hooks) from epoch 1,
    HackerDefender (NtDll detours) from epoch 2.  The defended arm is
    scan-until-stable, flag-unstable and scan-order jitter with the
    default inside-to-outside escalation; the naive arm is one inside
    pass without escalation, the scanner the adversary engine exists
    to defeat.
    """
    workload = FleetWorkload(FleetProfile(
        name="adv", size=size, seed=31,
        file_count=(24, 48), virtual_files=(4_000, 12_000),
        registry_kb=(20, 40), churn_files=(1, 3), churn_registry=(0, 1),
        disk_mb=64, max_records=2048,
        waves=(InfectionWave("urbin", onset_epoch=1,
                             initial=max(2, size // 12), spread=0.5,
                             level=level),
               InfectionWave("hackerdefender", onset_epoch=2,
                             initial=max(1, size // 25), spread=0.4,
                             level=level, conceal_budget=2))))
    config = (dict(DEFENDED, scan_order_jitter=11) if defended
              else dict(policy=EscalationPolicy(escalate=False)))
    coordinator = FleetCoordinator(
        str(fleet_dir), workload.machines.values(), workers=workers,
        outbreak_threshold=3, console_index=False, **config)
    reported, verdict_maps = set(), []
    for epoch in range(1, epochs + 1):
        workload.apply_epoch(epoch)
        aggregate = coordinator.run_epoch()
        verdict_maps.append({v.machine: verdict_key(v)
                             for v in aggregate.verdicts})
        reported.update(v.machine for v in aggregate.verdicts
                        if v.verdict == "infected")
    truth = workload.infected_machines(epochs)
    return {
        "recall": len(reported & truth) / len(truth) if truth else 1.0,
        "precision": (len(reported & truth) / len(reported)
                      if reported else 1.0),
        "campaigns": [record["fingerprint"] for record
                      in fleet_status(str(fleet_dir))["campaigns"]],
        "verdict_maps": verdict_maps,
    }


class TestStealthCurve:
    """Precision and recall per stealth level, naive against defended:
    the defence must hold while the malware changes its behaviour
    under observation, and the naive scanner must visibly fail."""

    @staticmethod
    def check_curve(tmp_path, size, workers):
        arms = {(level, defended): campaign_arm(
                    tmp_path / f"{level}-{defended}", size, level,
                    defended, workers)
                for level in LEVELS for defended in (False, True)}
        defended = {level: arms[level, True] for level in LEVELS}
        naive = {level: arms[level, False] for level in LEVELS}
        assert all(arm["precision"] == 1.0 for arm in defended.values())
        floor = min(defended[level]["recall"]
                    for level in ("off", "low", "medium", "high"))
        assert floor >= 0.95
        # Scan-aware levels measurably degrade the naive scanner.
        assert max(naive[level]["recall"]
                   for level in ("medium", "high", "maximum")) \
            <= floor - 0.5
        # One alert per campaign across rotated identities.
        for level in ("high", "maximum"):
            fingerprints = defended[level]["campaigns"]
            assert fingerprints
            assert len(fingerprints) == len(set(fingerprints))
        rerun = campaign_arm(tmp_path / "high-rerun", size, "high", True,
                             workers)
        assert rerun["verdict_maps"] == defended["high"]["verdict_maps"]

    def test_defended_holds_at_every_level(self, tmp_path):
        self.check_curve(tmp_path, size=12, workers=2)

    @pytest.mark.slow
    def test_defended_holds_at_every_level_at_fleet_size(self, tmp_path):
        self.check_curve(tmp_path, size=50, workers=4)


class TestKillResume:
    def test_mid_campaign_kill_resume_element_identical(self, tmp_path):
        def run(directory, kill):
            workload = FleetWorkload(STEALTH_PROFILE)
            coordinator = FleetCoordinator(
                str(directory), workload.machines.values(), workers=2,
                outbreak_threshold=2, console_index=False, **DEFENDED)
            workload.apply_epoch(1)
            coordinator.run_epoch()
            workload.apply_epoch(2)   # rotation + rearm mid-campaign
            if kill:
                with pytest.raises(CoordinatorKilled):
                    coordinator.run_epoch(kill_after_acks=2)
                coordinator = FleetCoordinator(
                    str(directory), workload.machines.values(), workers=2,
                    outbreak_threshold=2, console_index=False,
                    **DEFENDED)
            return coordinator.run_epoch()

        reference = run(tmp_path / "ref", kill=False)
        resumed = run(tmp_path / "killed", kill=True)
        assert {v.machine: verdict_key(v) for v in reference.verdicts} \
            == {v.machine: verdict_key(v) for v in resumed.verdicts}


class TestStealthTraces:
    def test_record_replay_stealth_events_verbatim(self, tmp_path):
        trace = str(tmp_path / "sweep.trace")
        kwargs = dict(DEFENDED, outbreak_threshold=2)
        recorded = record_sweep(trace, STEALTH_PROFILE,
                                str(tmp_path / "rec"), epochs=3,
                                fault_seed=None, fault_rate=0.0,
                                coordinator_kwargs=kwargs)
        __, epoch_records, __ = load_trace(trace)
        stealth = [event for record in epoch_records
                   for event in record.get("stealth", [])]
        assert any(event["action"] == "rotate" for event in stealth)
        replayed = replay_sweep(trace, str(tmp_path / "rep"),
                                coordinator_kwargs=kwargs)
        assert recorded.verdicts == replayed.verdicts
        assert recorded.infected == replayed.infected
