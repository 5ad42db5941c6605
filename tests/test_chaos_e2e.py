"""End-to-end chaos acceptance: detection survives injected faults.

The robustness contract in one fleet: five ghostware families plus a
clean control machine run through coordinator epochs while a 5% fault
plan fires transient I/O errors, torn reads, corrupt hive blobs, and
spurious ``STATUS_*`` failures — and the pipeline must (a) raise
nothing to the caller, (b) detect every infected machine exactly as a
fault-free epoch does, and (c) account for anything it *couldn't*
recover — a client dying during its RIS network boot — as an error
verdict (then a quarantine) instead of silence, recovering the next
epoch.
"""

from __future__ import annotations

import pytest

from repro.core import GhostBuster
from repro.core.diff import ScanConfidence
from repro.errors import ReproError
from repro.faults import context as faults_context
from repro.faults.plan import (FaultPlan, FaultSpec, SITE_DISK_READ,
                               SITE_MFT_PARSE, SITE_RIS_TRANSPORT,
                               SITE_WINAPI_ENUM)
from repro.fleet import EscalationPolicy, FleetCoordinator, clone_fleet
from repro.ghostware import (Aphex, HackerDefender, ProBotSE, Urbin,
                             Vanquish)
from repro.machine import Machine
from tests.test_fleet_coordinator import checkpoint_failures, golden_image

FAMILIES = (HackerDefender, Aphex, Urbin, Vanquish, ProBotSE)


def _fleet():
    machines = []
    for index, family in enumerate(FAMILIES):
        machine = Machine(f"victim-{index:02d}", disk_mb=256,
                          max_records=8192)
        machine.boot()
        family().install(machine)
        machines.append(machine)
    control = Machine("control-clean", disk_mb=256, max_records=8192)
    control.boot()
    machines.append(control)
    return machines


def _identities(report):
    return sorted((f.resource_type.value, str(f.entry.identity))
                  for f in report.findings if not f.is_noise)


class _OutsideRecorder(EscalationPolicy):
    """Keeps each machine's latest outside-the-box outcome."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outside = {}

    def confirm(self, machine, inside_report, noise_filter, fault_plan):
        outcome = super().confirm(machine, inside_report, noise_filter,
                                  fault_plan)
        self.outside[machine.name] = outcome
        return outcome


def _coordinator(fleet_dir, machines, fault_plan=None,
                 confirm_with="winpe"):
    """A coordinator whose plan covers its scans and confirmations."""
    return FleetCoordinator(
        str(fleet_dir), machines, fault_plan=fault_plan,
        policy=_OutsideRecorder(confirm_with))


def _verdicts(coordinator, aggregate):
    """Verdicts with the inside and the outside finding identities."""
    outside = coordinator.settings.policy.outside
    return {v.machine: (v.verdict, v.confirmed_by, v.finding_ids,
                        outside[v.machine].finding_ids
                        if v.machine in outside else None)
            for v in aggregate.verdicts}


def _outside_complete(coordinator):
    return all(outcome.outside_report.is_complete
               for outcome in coordinator.settings.policy.outside.values())


def _errors(aggregate):
    return {v.machine: v.error for v in aggregate.verdicts
            if v.verdict == "error"}


class TestChaosSweep:
    def test_sweep_under_5pct_faults_matches_fault_free(self, tmp_path):
        # Both outside views: WinPE boots the flagged machines, RIS
        # network-boots all six.
        for method in ("winpe", "ris"):
            base = _coordinator(tmp_path / f"base-{method}", _fleet(),
                                confirm_with=method)
            baseline = base.run_epoch()
            assert not _errors(baseline)

            plan = FaultPlan.default(seed=2026, rate=0.05)
            chaos = _coordinator(tmp_path / f"chaos-{method}", _fleet(),
                                 fault_plan=plan, confirm_with=method)
            chaotic = chaos.run_epoch()

            # (a) nothing leaked: no error verdict (a quarantine is one)
            assert not _errors(chaotic), method
            # (b) recall unchanged: same verdicts, confirmations, inside
            # and outside identities, and no outside layer lost
            assert (chaotic.infected_machines()
                    == baseline.infected_machines()), method
            assert len(chaotic.infected_machines()) == len(FAMILIES)
            assert _verdicts(chaos, chaotic) == _verdicts(base, baseline)
            assert _outside_complete(base) and _outside_complete(chaos), \
                method
            # (c) the chaos was real, reached the raw disk reads the
            # cross-view diff rests on, and the log proves it
            assert plan.fired_count() > 0
            assert plan.fired_count(SITE_DISK_READ) > 0, method
            assert plan.sequence_digest() != FaultPlan.default(
                seed=2026, rate=0.05).sequence_digest()

    def test_machine_death_quarantined_with_taxonomy(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(SITE_RIS_TRANSPORT, mode="always",
                      kinds=("machine_death",), mean_delay_s=0.0,
                      scopes=("victim-01",)),))
        coordinator = _coordinator(tmp_path, _fleet(), fault_plan=plan,
                                   confirm_with="ris")
        epochs = coordinator.run(5)

        errors = [_errors(epoch) for epoch in epochs]
        # Each network boot kills the client; the error verdict names
        # the taxonomy bucket, and the next epoch boots it again...
        assert all(list(e) == ["victim-01"] for e in errors)
        assert all(e["victim-01"].startswith("MachineUnavailable: ")
                   for e in errors[:3])
        # ...until the breaker quarantines it instead of booting it.
        assert all(e["victim-01"].startswith("circuit open")
                   for e in errors[3:])
        # The dead machine costs the rest of the fleet nothing.
        assert len(epochs[0].infected_machines()) == len(FAMILIES) - 1

    def test_transport_timeout_is_retried_in_the_boot(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(SITE_RIS_TRANSPORT, mode="one_shot",
                      kinds=("timeout",), mean_delay_s=0.0,
                      scopes=("victim-02",)),))
        coordinator = _coordinator(tmp_path, _fleet(), fault_plan=plan,
                                   confirm_with="ris")

        # A timed-out PXE exchange is retried inside the network boot:
        # no error verdict, and the confirmation stands.
        epoch = coordinator.run_epoch()
        assert plan.fired_count() == 1
        assert not _errors(epoch)
        assert len(epoch.infected_machines()) == len(FAMILIES)
        assert coordinator.settings.policy.outside["victim-02"].confirmed

    def test_transient_death_recovers_on_retry(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(SITE_RIS_TRANSPORT, mode="one_shot",
                      kinds=("machine_death",), mean_delay_s=0.0,
                      scopes=("victim-00",)),))
        coordinator = _coordinator(tmp_path, _fleet(), fault_plan=plan,
                                   confirm_with="ris")

        # One death fails the first epoch's confirmation...
        first = coordinator.run_epoch()
        assert list(_errors(first)) == ["victim-00"]
        # ...and the next epoch boots the client and confirms it.
        second = coordinator.run_epoch()
        assert not _errors(second)
        recovered = next(v for v in second.verdicts
                         if v.machine == "victim-00")
        assert recovered.verdict == "infected"
        assert recovered.confirmed_by == "ris"


@pytest.mark.slow
def test_fifty_machine_soak_loses_nothing(tmp_path):
    """Three epochs of a 50-machine golden-image fleet under a 5% plan,
    installed process-wide and on the coordinator, compacting every
    second epoch: no machine is lost or errors, faults reach the raw
    disk reads, and the last checkpoint reads back from disk."""
    infected = (0, 16, 32)
    fleet = clone_fleet(
        golden_image(), 50, infected=infected,
        infect=lambda machine: HackerDefender().install(machine))
    plan = FaultPlan.default(seed=2026, rate=0.05)
    coordinator = FleetCoordinator(str(tmp_path), fleet, workers=4,
                                   fault_plan=plan, compact_every=2)
    previous = faults_context.install_global_plan(plan)
    try:
        epochs = coordinator.run(3)
    finally:
        faults_context.install_global_plan(previous)
    for aggregate in epochs:
        assert aggregate.summary.machines == len(fleet)
        assert not _errors(aggregate)
        assert aggregate.infected_machines() \
            == [f"fleet-{index:02d}" for index in infected]
    assert plan.fired_count(SITE_DISK_READ) > 0
    assert not checkpoint_failures(coordinator, epochs[-1])


class TestConfirmationUnderTheScanPlan:
    """A confirmation runs under the coordinator's own fault plan, given
    once, whichever outside view the policy picks."""

    @staticmethod
    def _pair():
        machines = []
        for index, family in enumerate((None, HackerDefender)):
            machine = Machine(f"client-{index:02d}", disk_mb=256,
                              max_records=8192)
            machine.boot()
            if family is not None:
                family().install(machine)
            machines.append(machine)
        return machines

    def test_network_boot_death_reaches_a_plain_policy(self, tmp_path):
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(SITE_RIS_TRANSPORT, mode="always",
                      kinds=("machine_death",), mean_delay_s=0.0,
                      scopes=("client-01",)),))
        coordinator = FleetCoordinator(str(tmp_path), self._pair(),
                                       fault_plan=plan,
                                       policy=EscalationPolicy("ris"))
        errors = _errors(coordinator.run_epoch())
        assert list(errors) == ["client-01"]
        assert errors["client-01"].startswith("MachineUnavailable: ")

    def test_vmscan_draws_like_winpe(self, tmp_path):
        # Latency only: every enumeration on client-01 hangs a little,
        # and nothing about the verdict changes.
        def hanging():
            return FaultPlan(seed=9, specs=(
                FaultSpec(SITE_WINAPI_ENUM, mode="always", kinds=("hang",),
                          scopes=("client-01",)),))

        def epoch(name, policy, plan):
            coordinator = FleetCoordinator(str(tmp_path / name),
                                           self._pair(), fault_plan=plan,
                                           policy=policy)
            return {v.machine: (v.verdict, v.findings, v.confirmed_by)
                    for v in coordinator.run_epoch().verdicts}

        fired = {}
        for method in ("off", "winpe", "vmscan"):
            plan = hanging()
            policy = (EscalationPolicy(escalate=False) if method == "off"
                      else EscalationPolicy(method))
            verdicts = epoch(method, policy, plan)
            fired[method] = plan.fired_count()
        # The outside scan takes its inside (lie) snapshots again, under
        # the plan, for both confirmation methods.
        assert fired["vmscan"] == fired["winpe"] > fired["off"] > 0
        assert verdicts == epoch("fault-free", EscalationPolicy("vmscan"),
                                 None)
        assert verdicts["client-01"] == ("infected", 5, "vmscan")


class TestChaosDeltaInterplay:
    """Faults landing mid-delta-patch must degrade to a full reparse,
    never to a wrong (or missing) verdict."""

    def _delta_epoch(self, tmp_path, label, fault_plan=None):
        """Seed epoch, mutate two machines, delta epoch — all under
        ``fault_plan`` and network-booted; returns the delta epoch's
        aggregate and verdicts, and the fleet."""
        fleet = _fleet()
        coordinator = _coordinator(tmp_path / label, fleet,
                                   fault_plan=fault_plan,
                                   confirm_with="ris")
        coordinator.run_epoch()
        fleet[0].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        fleet[3].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        delta = coordinator.run_epoch()
        assert _outside_complete(coordinator)
        return delta, _verdicts(coordinator, delta), fleet

    def test_delta_sweep_under_5pct_faults_matches_fault_free(
            self, tmp_path):
        reference, expected, fleet = self._delta_epoch(tmp_path,
                                                       "reference")
        # The delta verdicts, outside evidence included, equal a fresh
        # coordinator's cold epoch over the same machines.
        cold = _coordinator(tmp_path / "cold", fleet, confirm_with="ris")
        assert _verdicts(cold, cold.run_epoch()) == expected
        plan = FaultPlan.default(seed=2027, rate=0.05)
        chaotic, verdicts, __ = self._delta_epoch(tmp_path, "chaotic",
                                                  fault_plan=plan)

        assert not _errors(chaotic)
        assert chaotic.infected_machines() == reference.infected_machines()
        # Exactly the two changed machines were rescanned, and the delta
        # epoch's own summary says so: injected delays stretch a rescan,
        # but a live worker keeps its lease, so no ack comes late.
        for delta in (reference, chaotic):
            summary = delta.summary
            assert (summary.scanned, summary.skipped,
                    summary.late_acks) == (2, 4, 0)
            assert sorted(v.machine for v in delta.verdicts
                          if v.scanned) == ["victim-00", "victim-03"]
        assert verdicts == expected
        assert plan.fired_count() > 0

    def test_torn_read_mid_patch_degrades_to_full_reparse(self,
                                                          tmp_path):
        # A torn read bumps the disk generation outside the write path;
        # the journal refuses coverage across the gap and the scan must
        # cold-parse — with the verdict identical to the fault-free one.
        __, expected, __ = self._delta_epoch(tmp_path, "ref-torn")
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(SITE_DISK_READ, mode="one_shot",
                      kinds=("torn_read",), scopes=("victim-00",)),))
        chaotic, verdicts, __ = self._delta_epoch(tmp_path, "torn",
                                                  fault_plan=plan)

        assert plan.fired_count() == 1
        assert not _errors(chaotic)
        assert verdicts == expected

    def test_parse_fault_mid_patch_self_heals(self, tmp_path):
        # The plan covers the cold seed epoch, where the full MFT parse
        # runs and draws at mft.parse; the delta epoch only patches.
        __, expected, __ = self._delta_epoch(tmp_path, "ref-parse")
        plan = FaultPlan(seed=13, specs=(
            FaultSpec(SITE_MFT_PARSE, mode="one_shot",
                      kinds=("transient",), scopes=("victim-03",)),))
        chaotic, verdicts, __ = self._delta_epoch(tmp_path, "parse",
                                                  fault_plan=plan)

        assert plan.fired_count() == 1
        assert not _errors(chaotic)
        assert verdicts == expected


class TestGracefulDegradation:
    def test_failed_layer_yields_partial_report(self, monkeypatch):
        from repro.core.scanners import files as file_scans

        def broken(machine, **kwargs):
            raise ReproError("scanner hardware gave out")

        monkeypatch.setattr(file_scans, "low_level_file_scan", broken)
        machine = Machine("degraded-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        report = GhostBuster(machine).inside_scan()

        assert report.confidence["files"] is ScanConfidence.FAILED
        assert "scanner hardware gave out" in report.layer_errors["files"]
        assert report.confidence["registry"] is ScanConfidence.FULL
        assert not report.is_complete
        assert "files" in report.degraded_layers()
        assert "partial evidence" in report.summary()
        # The surviving layers still convict the machine.
        assert not report.is_clean

    def test_clean_scan_is_complete_and_full(self):
        machine = Machine("healthy-pc", disk_mb=256, max_records=8192)
        machine.boot()
        report = GhostBuster(machine).inside_scan()
        assert report.is_complete
        assert report.rounds == 1
        assert all(value is ScanConfidence.FULL
                   for value in report.confidence.values())
        assert not report.layer_errors


class TestScanUntilStable:
    def test_phantom_finding_dropped_by_intersection(self, monkeypatch):
        from repro.core import ghostbuster as gb_module
        from repro.core.scanners import files as file_scans
        from repro.core.snapshot import FileEntry

        real_scan = file_scans.low_level_file_scan
        calls = {"n": 0}

        def glitchy(machine, **kwargs):
            snapshot = real_scan(machine, **kwargs)
            calls["n"] += 1
            if calls["n"] == 1:
                # A file that "appeared hidden" only in round one — the
                # kind of one-round artifact a mid-scan write produces.
                snapshot.entries.append(FileEntry(
                    "\\Temp\\phantom-9f3.dat", "phantom-9f3.dat",
                    False, 64))
            return snapshot

        monkeypatch.setattr(gb_module.file_scans,
                            "low_level_file_scan", glitchy)
        machine = Machine("jittery-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        report = GhostBuster(machine, stabilize_rounds=3).inside_scan(
            resources=("files",))

        paths = [f.entry.path for f in report.findings]
        assert not any("phantom" in path for path in paths)
        assert report.rounds >= 2
        # The genuine infection survives the intersection.
        assert not report.is_clean

    def test_stable_scan_exits_early(self):
        machine = Machine("stable-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)

        single = GhostBuster(machine).inside_scan(resources=("files",))
        stabilized = GhostBuster(machine, stabilize_rounds=5).inside_scan(
            resources=("files",))

        assert _identities(stabilized) == _identities(single)
        # Two agreeing rounds end the loop; five were never needed.
        assert stabilized.rounds == 2

    def test_single_round_report_is_unchanged(self):
        machine = Machine("classic-pc", disk_mb=256, max_records=8192)
        machine.boot()
        HackerDefender().install(machine)
        report = GhostBuster(machine, stabilize_rounds=1).inside_scan()
        assert report.rounds == 1
        assert not report.is_clean
