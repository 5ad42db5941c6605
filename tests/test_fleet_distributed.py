"""Distributed mode end to end: real forked agent processes.

The contract under test is the ISSUE's headline acceptance: a fleet
swept by ``run_distributed`` produces verdicts **element-identical** to
the single-process coordinator — including when an agent is killed with
``SIGKILL`` mid-lease and when 5% of wire frames are dropped, delayed,
duplicated, or torn.  Machines live only inside the agent processes
(the coordinator is rostered by name), so these tests also prove the
wire carries everything the checkpoint needs.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro.fleet.agent as agent_mod
import repro.fleet.coordinator as coordinator_mod
from repro.__main__ import main
from repro.core.noise import NoiseFilter
from repro.errors import TransientIoError
from repro.faults.plan import SITE_WINAPI_ENUM, FaultPlan, FaultSpec
from repro.fleet import (EscalationPolicy, FleetCoordinator, clone_fleet,
                         fleet_status, load_history)
from repro.fleet.controller import AGENT_DEAD
from repro.ghostware import Aphex, HackerDefender, LowLevelInterferenceGhost
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal
from repro.telemetry.metrics import global_metrics
from repro.workloads import (FleetProfile, FleetWorkload, InfectionWave,
                             SamplingPolicy)
from repro.workloads.scenarios import build_home_pc
from tests.test_fleet_coordinator import checkpoint_failures, golden_image

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="distributed mode forks")

SIZE = 6
GHOSTS = {1: HackerDefender, SIZE - 1: Aphex}


def fleet_factory(name):
    index = int(name.rsplit("-", 1)[1])
    ghost_cls = GHOSTS.get(index)
    return build_home_pc(name, ghost_cls() if ghost_cls else None,
                         files=30, seed=3 + index,
                         with_services=False).machine


def roster():
    return [f"client-{index:02d}" for index in range(SIZE)]


def verdict_key(aggregate):
    return {v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by,
                        tuple(sorted(v.finding_ids)))
            for v in aggregate.verdicts}


def single_process_key(fleet_dir, confirm_with="winpe"):
    """The single-process ground truth for this module's fleet."""
    machines = [fleet_factory(name) for name in roster()]
    coordinator = FleetCoordinator(str(fleet_dir), machines, workers=2,
                                   policy=EscalationPolicy(confirm_with))
    return verdict_key(coordinator.run_epoch())


@pytest.fixture(scope="module")
def reference_key(tmp_path_factory):
    return single_process_key(tmp_path_factory.mktemp("reference"))


class TestDistributedSweep:
    @pytest.mark.parametrize("confirm_with", ["winpe", "ris"])
    def test_matches_single_process(self, tmp_path, reference_key,
                                    confirm_with):
        expected = reference_key if confirm_with == "winpe" else \
            single_process_key(tmp_path / "reference", confirm_with)
        coordinator = FleetCoordinator(
            str(tmp_path / "fleet"), roster(), workers=2,
            policy=EscalationPolicy(confirm_with))
        # The scheduler history is folded by the controller's
        # checkpoints: after every epoch it must equal a journal replay.
        history_current = []
        finish_epoch = coordinator._finish_epoch

        def finish_and_check(aggregator):
            finish_epoch(aggregator)
            history_current.append(
                coordinator.history == load_history(coordinator.epochs_path))

        coordinator._finish_epoch = finish_and_check
        aggregates = coordinator.run_distributed(
            2, fleet_factory, agents=2)
        assert history_current == [True, True]
        assert coordinator.history == load_history(coordinator.epochs_path)
        assert verdict_key(aggregates[0]) == expected
        # Epoch 2: agents still hold their epoch-1 clones, so machines
        # re-leased to the same agent ride their baselines.  A machine
        # stolen by the *other* agent is rebuilt fresh (generation
        # mismatch) and deterministically rescanned — identical verdict
        # either way, so only the verdicts are exact.
        assert verdict_key(aggregates[1]) == expected
        assert aggregates[0].summary.scanned == SIZE
        assert aggregates[1].summary.skipped >= 1
        assert (aggregates[1].summary.skipped
                + aggregates[1].summary.scanned) == SIZE
        status = fleet_status(str(tmp_path / "fleet"))
        assert status["open_epoch"] is None
        assert set(status["agents"]) == {"agent-0", "agent-1"}
        assert all(agent["reconnects"] == 0
                   for agent in status["agents"].values())

    def test_kill_dash_nine_mid_lease_loses_nothing(
            self, tmp_path, reference_key):
        coordinator = FleetCoordinator(str(tmp_path), roster(), workers=2)
        aggregates = coordinator.run_distributed(
            1, fleet_factory, agents=2, agent_timeout_seconds=1.5,
            kill_after_leases={0: 2})
        key = verdict_key(aggregates[0])
        assert set(key) == set(roster()), "a machine was lost"
        assert key == reference_key
        # The murdered agent was noticed, declared dead, and journaled.
        agents = fleet_status(str(tmp_path))["agents"]
        assert agents["agent-0"]["state"] == AGENT_DEAD
        assert aggregates[0].summary.machines == SIZE
        assert not checkpoint_failures(coordinator, aggregates[0])

    @pytest.mark.slow
    def test_fifty_machine_soak_survives_a_killed_agent(self, tmp_path):
        """Three epochs of a 50-machine golden-image fleet on two
        agents; agent 0 is SIGKILLed after its third lease.  Every
        epoch equals an uninterrupted single-process run, and the last
        checkpoint reads back from disk."""
        golden = golden_image()
        infected = {"fleet-00", "fleet-16", "fleet-32"}

        def factory(name):
            return clone_fleet(golden, 1, name_format=name,
                               infected=(0,) if name in infected else (),
                               infect=lambda m: HackerDefender().install(m))[0]

        names = [f"fleet-{index:02d}" for index in range(50)]
        reference = FleetCoordinator(str(tmp_path / "reference"),
                                     [factory(name) for name in names],
                                     workers=4)
        expected = [verdict_key(aggregate) for aggregate in reference.run(3)]
        assert all(sorted(name for name, key in epoch.items()
                          if key[0] == "infected") == sorted(infected)
                   for epoch in expected)
        coordinator = FleetCoordinator(str(tmp_path / "fleet"), names,
                                       workers=2, compact_every=0)
        aggregates = coordinator.run_distributed(
            3, factory, agents=2, agent_timeout_seconds=2.0,
            kill_after_leases={0: 3})
        keys = [verdict_key(aggregate) for aggregate in aggregates]
        assert all(set(key) == set(names) for key in keys), "lost machines"
        assert keys == expected
        agents = fleet_status(coordinator.fleet_dir)["agents"]
        assert agents["agent-0"]["state"] == AGENT_DEAD
        assert not checkpoint_failures(coordinator, aggregates[-1])

    def test_transport_chaos_loses_nothing(self, tmp_path, reference_key):
        coordinator = FleetCoordinator(str(tmp_path), roster(), workers=2)
        aggregates = coordinator.run_distributed(
            1, fleet_factory, agents=2, agent_timeout_seconds=5.0,
            transport_seed=99, transport_rate=0.05)
        key = verdict_key(aggregates[0])
        assert set(key) == set(roster()), "a machine was lost"
        assert key == reference_key


class TestOneLeaseContract:
    """Both worker kinds keep their leases for as long as a scan takes,
    so the same epoch is summarized the same way in both modes."""

    def test_both_worker_kinds_report_the_same_epoch(self, tmp_path):
        # Churn-sized machines: every cold scan runs for hundreds of
        # simulated seconds.
        profile = FleetProfile(
            name="parity", size=4, seed=1,
            file_count=(240, 340), virtual_files=(80_000, 200_000),
            registry_kb=(40, 80), churn_files=(2, 5),
            churn_registry=(0, 1), disk_mb=64, max_records=1024,
            waves=(InfectionWave("hackerdefender", onset_epoch=1,
                                 initial=1, spread=0.0),))

        def epoch_one():
            workload = FleetWorkload(profile)
            workload.apply_epoch(1)
            return workload.machines

        machines = epoch_one()
        single = FleetCoordinator(str(tmp_path / "single"),
                                  machines.values(), workers=2).run_epoch()
        machines = epoch_one()
        distributed, = FleetCoordinator(
            str(tmp_path / "dist"), sorted(machines),
            workers=2).run_distributed(1, machines.__getitem__, agents=2)

        def counts(aggregate):
            summary = aggregate.summary
            return (summary.machines, summary.scanned, summary.skipped,
                    summary.late_acks, summary.escalated, summary.confirmed)

        assert verdict_key(distributed) == verdict_key(single)
        assert counts(distributed) == counts(single) == (4, 4, 0, 0, 1, 1)


class TestQuarantine:
    """The circuit breaker, reached through the one lease draw."""

    def test_breaker_quarantines_identically_in_both_modes(
            self, tmp_path, monkeypatch):
        def failing(real):
            def scan(machine, *args, **kwargs):
                if machine.name == "m-bad":
                    raise TransientIoError("m-bad's disk never answers")
                return real(machine, *args, **kwargs)
            return scan

        # Patched before the fork, so the agents inherit it too.
        for module in (coordinator_mod, agent_mod):
            monkeypatch.setattr(module, "perform_machine_scan",
                                failing(module.perform_machine_scan))

        def factory(name):
            machine = Machine(name, disk_mb=256, max_records=8192)
            machine.boot()
            return machine

        names = ["m-bad", "m-00", "m-01"]

        def journaled_verdicts(fleet_dir):
            return sorted(
                (record["epoch"], record["machine"], record["verdict"],
                 record["error"])
                for record in read_journal(f"{fleet_dir}/epochs.jsonl")
                if record.get("type") == "fleet-machine")

        def quarantines():
            return global_metrics().counter("fleet.quarantined")

        before = quarantines()
        FleetCoordinator(str(tmp_path / "single"),
                         [factory(name) for name in names],
                         workers=2).run(5)
        assert quarantines() == before + 2
        before = quarantines()
        FleetCoordinator(str(tmp_path / "dist"), names,
                         workers=2).run_distributed(5, factory, agents=2)
        assert quarantines() == before + 2

        single = journaled_verdicts(tmp_path / "single")
        assert journaled_verdicts(tmp_path / "dist") == single
        bad = [(epoch, error) for epoch, machine, verdict, error in single
               if machine == "m-bad"]
        assert [epoch for epoch, __ in bad] == [1, 2, 3, 4, 5]
        assert all(error.startswith("TransientIoError")
                   for __, error in bad[:3])
        assert all(error.startswith("circuit open") for __, error in bad[3:])
        assert all(verdict == "clean" for __, machine, verdict, __ in single
                   if machine != "m-bad")


PARITY_ROSTER = [f"client-{index:02d}" for index in range(4)]
# client-02's ghost blinds the inside scan; only a network boot (RIS)
# sees it from outside.
PARITY_GHOSTS = {1: HackerDefender, 2: LowLevelInterferenceGhost}


def parity_factory(name):
    index = int(name.rsplit("-", 1)[1])
    ghost_cls = PARITY_GHOSTS.get(index)
    return build_home_pc(name, ghost_cls() if ghost_cls else None,
                         files=30, seed=3 + index,
                         with_services=False).machine


def churn(machine, epoch):
    machine.volume.create_file(f"\\Temp\\epoch-{epoch}.txt", b"churn")


def churned_factory(epoch):
    """The parity fleet as it stands in ``epoch``: every machine gains
    one file per epoch after the first, so each epoch rescans it
    instead of skipping."""
    def factory(name):
        machine = parity_factory(name)
        for past in range(2, epoch + 1):
            churn(machine, past)
        return machine
    return factory


def parity(aggregate, scan_seconds=False):
    """Per-machine verdict keys and the epoch summary's counts."""
    verdicts = {
        v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by,
                    v.error and v.error.split(":")[0], v.sampled,
                    v.coverage, v.sampling_escalated)
        + ((v.scan_seconds,) if scan_seconds else ())
        for v in aggregate.verdicts}
    summary = aggregate.summary
    return verdicts, (summary.machines, summary.scanned, summary.skipped,
                      summary.sampled, summary.sampling_escalations,
                      summary.escalated, summary.confirmed, summary.errors)


class TestScanSettingsParity:
    """Both worker kinds scan with the coordinator's one settings value:
    sampling, noise filter and fault plan reach forked agents, so every
    verdict and every epoch summary is the same in both modes."""

    def run_both(self, tmp_path, epochs, scan_seconds=False, **kwargs):
        """The same fleet through ``run_epoch`` and forked agents; fresh
        agents each epoch, so their machines carry that epoch's churn."""
        machines = [parity_factory(name) for name in PARITY_ROSTER]
        single = FleetCoordinator(str(tmp_path / "single"), machines,
                                  workers=2, **kwargs)
        distributed = FleetCoordinator(str(tmp_path / "dist"),
                                       PARITY_ROSTER, workers=2, **kwargs)
        results = []
        for epoch in range(1, epochs + 1):
            if epoch > 1:
                for machine in machines:
                    churn(machine, epoch)
            aggregate, = distributed.run_distributed(
                1, churned_factory(epoch), agents=2)
            results.append((parity(single.run_epoch(), scan_seconds),
                            parity(aggregate, scan_seconds)))
        return results

    def test_sampled_tier_is_sampled_by_agents(self, tmp_path):
        results = self.run_both(
            tmp_path, 3, policy=EscalationPolicy(escalate=False),
            sampling=SamplingPolicy(seed=3, file_rate=0.25))
        for single, distributed in results:
            assert distributed == single
        # The clean machines ride the sample tier after first contact.
        assert [counts[3] for (__, counts), __ in results] == [0, 3, 3]

    @pytest.mark.parametrize("case", ["noise_filter", "machine_death",
                                      "default_plan"])
    def test_one_epoch_matches(self, tmp_path, case):
        kwargs = {
            # The operator allow-lists client-02's file, so the network
            # boot's verdict-bearing report keeps only its service hook.
            "noise_filter": dict(
                policy=EscalationPolicy("ris"),
                noise_filter=NoiseFilter(extra_patterns=(
                    ("\\windows\\deepghost*", "allow-listed"),))),
            "machine_death": dict(fault_plan=FaultPlan(seed=5, specs=(
                FaultSpec(SITE_WINAPI_ENUM, mode="always",
                          kinds=("machine_death",), mean_delay_s=0.0,
                          scopes=("client-01",)),))),
            "default_plan": dict(fault_plan=FaultPlan.default(2026, 0.05)),
        }[case]
        # Fault delays are charged to each machine's clock, so equal
        # scan seconds prove the plan reached the agents.
        (single, distributed), = self.run_both(
            tmp_path, 1, scan_seconds=True, **kwargs)
        assert distributed == single
        verdicts, __ = single
        if case == "noise_filter":
            assert verdicts["client-02"][:4] == ("infected", 1, True, "ris")
        if case == "machine_death":
            assert verdicts["client-01"][4] == "MachineUnavailable"


class TestDistributedCli:
    def test_sweep_agents_flag_and_status_agree(self, tmp_path, capsys):
        from repro.console import ConsoleServer
        from tests.test_console_index import replay_status

        fleet_dir = tmp_path / "fleet"
        # A console that is up before the sweep tails what it journals.
        server = ConsoleServer(str(fleet_dir), token="t")
        try:
            rc = main(["sweep", "--epochs", "2", "--agents", "2",
                       "--fleet-size", "4", "--fleet-dir", str(fleet_dir),
                       "--json"])
            served = json.loads(server.handle_request(
                "/api/status", authorization="Bearer t")[2])
        finally:
            server.httpd.server_close()
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agents"] == 2
        assert [epoch["machines"] for epoch in payload["epochs"]] == [4, 4]
        assert payload["epochs"][0]["scanned"] == 4
        # Work stealing may rebuild+rescan a machine on the other
        # agent in epoch 2; the rest skip via wire baselines.
        assert payload["epochs"][1]["skipped"] >= 1
        assert (payload["epochs"][1]["skipped"]
                + payload["epochs"][1]["scanned"]) == 4
        # fleet-status --json is a cold fold of the journals, agent
        # liveness included: it equals the live console's answer and
        # the full replay, and neither reader wrote a file.
        rc = main(["fleet-status", "--fleet-dir", str(fleet_dir),
                   "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status == served == replay_status(str(fleet_dir))
        assert set(status["agents"]) == {"agent-0", "agent-1"}
        assert sorted(os.listdir(fleet_dir)) == [
            "baselines.jsonl", "epochs.jsonl", "queue.jsonl"]
