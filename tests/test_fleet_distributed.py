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
import sys

import pytest

import repro.fleet.agent as agent_mod
import repro.fleet.coordinator as coordinator_mod
from repro.__main__ import main
from repro.errors import TransientIoError
from repro.fleet import (EscalationPolicy, FleetCoordinator, fleet_status,
                         load_history)
from repro.fleet.controller import AGENT_DEAD
from repro.ghostware import Aphex, HackerDefender
from repro.machine import Machine
from repro.telemetry.journal_io import read_journal
from repro.telemetry.metrics import global_metrics
from repro.workloads.scenarios import build_home_pc

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
    return {v.machine: (v.verdict, v.findings, v.confirmed, v.confirmed_by)
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

    def test_transport_chaos_loses_nothing(self, tmp_path, reference_key):
        coordinator = FleetCoordinator(str(tmp_path), roster(), workers=2)
        aggregates = coordinator.run_distributed(
            1, fleet_factory, agents=2, agent_timeout_seconds=5.0,
            transport_seed=99, transport_rate=0.05)
        key = verdict_key(aggregates[0])
        assert set(key) == set(roster()), "a machine was lost"
        assert key == reference_key


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


class TestDistributedCli:
    def test_sweep_agents_flag_and_status_agree(self, tmp_path, capsys):
        fleet_dir = tmp_path / "fleet"
        rc = main(["sweep", "--epochs", "2", "--agents", "2",
                   "--fleet-size", "4", "--fleet-dir", str(fleet_dir),
                   "--json"])
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
        # fleet-status --json runs the index-vs-replay cross-check
        # (exit 1 on any disagreement), which now covers agent liveness.
        rc = main(["fleet-status", "--fleet-dir", str(fleet_dir),
                   "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["index_replay_agreement"]["agree"]
        assert set(status["agents"]) == {"agent-0", "agent-1"}
