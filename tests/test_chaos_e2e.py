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

from repro.core import GhostBuster
from repro.core.diff import ScanConfidence
from repro.errors import ReproError
from repro.faults.plan import (FaultPlan, FaultSpec, SITE_DISK_READ,
                               SITE_MFT_PARSE, SITE_RIS_TRANSPORT)
from repro.fleet import EscalationPolicy, FleetCoordinator
from repro.ghostware import (Aphex, HackerDefender, ProBotSE, Urbin,
                             Vanquish)
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal

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

    def confirm(self, machine, inside_report):
        outcome = super().confirm(machine, inside_report)
        self.outside[machine.name] = outcome
        return outcome


def _coordinator(fleet_dir, machines, fault_plan=None,
                 confirm_with="winpe"):
    """A coordinator whose plan covers its scans and confirmations."""
    return FleetCoordinator(
        str(fleet_dir), machines, fault_plan=fault_plan,
        policy=_OutsideRecorder(confirm_with, fault_plan=fault_plan))


def _verdicts(coordinator, aggregate):
    """Verdicts with the inside and the outside finding identities."""
    outside = coordinator.policy.outside
    return {v.machine: (v.verdict, v.confirmed_by, v.finding_ids,
                        outside[v.machine].finding_ids
                        if v.machine in outside else None)
            for v in aggregate.verdicts}


def _outside_complete(coordinator):
    return all(outcome.outside_report.is_complete
               for outcome in coordinator.policy.outside.values())


def _rescanned(fleet_dir, epoch=2):
    return {record["machine"]
            for record in read_journal(f"{fleet_dir}/epochs.jsonl")
            if record.get("type") == "fleet-machine"
            and record["epoch"] == epoch and record["scanned"]}


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
            assert _outside_complete(chaos), method
            # (c) the chaos was real, and the log proves it
            assert plan.fired_count() > 0
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
        assert coordinator.policy.outside["victim-02"].confirmed

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


class TestChaosDeltaInterplay:
    """Faults landing mid-delta-patch must degrade to a full reparse,
    never to a wrong (or missing) verdict."""

    def _delta_epoch(self, tmp_path, label, fault_plan=None):
        """Seed epoch, mutate two machines, delta epoch — all under
        ``fault_plan`` and network-booted; returns the delta epoch's
        aggregate and verdicts."""
        fleet = _fleet()
        coordinator = _coordinator(tmp_path / label, fleet,
                                   fault_plan=fault_plan,
                                   confirm_with="ris")
        coordinator.run_epoch()
        fleet[0].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        fleet[3].volume.create_file("\\Temp\\delta-drop.bin", b"payload")
        delta = coordinator.run_epoch()
        assert _outside_complete(coordinator)
        return delta, _verdicts(coordinator, delta)

    def test_delta_sweep_under_5pct_faults_matches_fault_free(
            self, tmp_path):
        reference, expected = self._delta_epoch(tmp_path, "reference")
        plan = FaultPlan.default(seed=2027, rate=0.05)
        chaotic, verdicts = self._delta_epoch(tmp_path, "chaotic",
                                              fault_plan=plan)

        assert not _errors(chaotic)
        assert chaotic.infected_machines() == reference.infected_machines()
        # Exactly the two changed machines were rescanned.  Read from
        # the journal: a rescan whose injected delays outlast its lease
        # acks late and lands a second, skip verdict for the machine.
        for label in ("reference", "chaotic"):
            assert _rescanned(tmp_path / label) == {"victim-00",
                                                    "victim-03"}
        assert verdicts == expected
        assert plan.fired_count() > 0

    def test_torn_read_mid_patch_degrades_to_full_reparse(self,
                                                          tmp_path):
        # A torn read bumps the disk generation outside the write path;
        # the journal refuses coverage across the gap and the scan must
        # cold-parse — with the verdict identical to the fault-free one.
        __, expected = self._delta_epoch(tmp_path, "ref-torn")
        plan = FaultPlan(seed=11, specs=(
            FaultSpec(SITE_DISK_READ, mode="one_shot",
                      kinds=("torn_read",), scopes=("victim-00",)),))
        chaotic, verdicts = self._delta_epoch(tmp_path, "torn",
                                              fault_plan=plan)

        assert plan.fired_count() == 1
        assert not _errors(chaotic)
        assert verdicts == expected

    def test_parse_fault_mid_patch_self_heals(self, tmp_path):
        # The plan covers the cold seed epoch, where the full MFT parse
        # runs and draws at mft.parse; the delta epoch only patches.
        __, expected = self._delta_epoch(tmp_path, "ref-parse")
        plan = FaultPlan(seed=13, specs=(
            FaultSpec(SITE_MFT_PARSE, mode="one_shot",
                      kinds=("transient",), scopes=("victim-03",)),))
        chaotic, verdicts = self._delta_epoch(tmp_path, "parse",
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
