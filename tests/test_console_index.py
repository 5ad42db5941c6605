"""The console's sidecar journal index: the O(changes) read path.

The load-bearing invariant: an index maintained *incrementally* (one
``update()`` per journal append, sidecars reloaded mid-stream) answers
every query identically to one ``rebuild()``-t from the journals alone
— over arbitrary epoch histories (Hypothesis drives those).  Plus the
retention policy: compaction must not change what queries over the
retained range return.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.console import JournalIndex, fleet_status_from_index
from repro.fleet import FleetCoordinator, fleet_status
from repro.machine import Machine
from repro.telemetry.journal_io import append_journal, read_journal

MACHINES = ["m00", "m01", "m02", "m03"]
IDENTITIES = ["file:hxdef", "file:aphex"]


def build_fleet(size=3, infected=(1,)):
    from repro.ghostware import HackerDefender

    machines = []
    for index in range(size):
        machine = Machine(f"m{index:02d}", disk_mb=256, max_records=8192)
        machine.boot()
        if index in infected:
            HackerDefender().install(machine)
        machines.append(machine)
    return machines


# -- synthetic journal histories ---------------------------------------------------

verdict_st = st.sampled_from(["clean", "infected", "error"])

machine_record_st = st.fixed_dictionaries({
    "machine": st.sampled_from(MACHINES),
    "verdict": verdict_st,
    "findings": st.integers(min_value=0, max_value=3),
    "scanned": st.booleans(),
    "escalated": st.booleans(),
    "finding_ids": st.lists(st.sampled_from(IDENTITIES), max_size=2,
                            unique=True),
})

epoch_st = st.fixed_dictionaries({
    "verdicts": st.lists(machine_record_st, min_size=0, max_size=4),
    "outbreak": st.booleans(),
    "closed": st.booleans(),
})

history_st = st.lists(epoch_st, min_size=1, max_size=5)


def write_history(epochs_path, history):
    """Emit a coordinator-shaped journal; yields after each record."""
    clock = 0.0
    for number, epoch in enumerate(history, start=1):
        clock += 1.0
        yield append_journal(epochs_path, {
            "type": "epoch-start", "epoch": number, "at": clock,
            "machines": sorted({v["machine"] for v in epoch["verdicts"]}),
        })
        for verdict in epoch["verdicts"]:
            clock += 1.0
            record = dict(verdict, type="fleet-machine", epoch=number,
                          at=clock)
            yield append_journal(epochs_path, record)
        if epoch["outbreak"]:
            clock += 1.0
            yield append_journal(epochs_path, {
                "type": "fleet-outbreak", "epoch": number,
                "identity": IDENTITIES[number % len(IDENTITIES)],
                "machines": MACHINES[:2], "threshold": 2, "at": clock})
        if epoch["closed"]:
            clock += 1.0
            yield append_journal(epochs_path, {
                "type": "epoch-end", "epoch": number, "at": clock,
                "machines": len(epoch["verdicts"]),
                "infected": sum(1 for v in epoch["verdicts"]
                                if v["verdict"] == "infected")})


def index_answers(index):
    """Every query surface, as one comparable document."""
    return {
        "status": index.status(),
        "stats": {key: value for key, value in index.stats().items()
                  if key != "torn_skipped"},
        "machines": index.machine_names(),
        "histories": {name: index.machine_history(name)
                      for name in index.machine_names()},
        "latest": index.latest_verdicts(),
        "extents": index.epoch_extents(),
        "outbreaks": index.outbreaks(),
        "query_all": index.query(),
        "query_infected": index.query(verdict="infected"),
        "query_identity": index.query(identity=IDENTITIES[0]),
    }


class TestIncrementalEqualsRebuild:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(history=history_st, reload_every=st.integers(1, 7))
    def test_equivalence_over_random_histories(self, history,
                                               reload_every):
        with tempfile.TemporaryDirectory(prefix="gb-idx-") as fleet_dir:
            epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
            incremental = JournalIndex(fleet_dir)
            for count, __ in enumerate(write_history(epochs_path,
                                                     history), start=1):
                incremental.update()
                if count % reload_every == 0:
                    # Persistence: a console restart mid-history loses
                    # nothing — the sidecars rehydrate the maps.
                    incremental = JournalIndex(fleet_dir)
            incremental.update()

            rebuilt_dir = os.path.join(fleet_dir, "rebuilt")
            os.makedirs(rebuilt_dir)
            os.link(epochs_path, os.path.join(rebuilt_dir,
                                              "epochs.jsonl"))
            rebuilt = JournalIndex(rebuilt_dir)
            rebuilt.rebuild()

            left = index_answers(incremental)
            right = index_answers(rebuilt)
            left["status"].pop("fleet_dir")
            right["status"].pop("fleet_dir")
            left["stats"].pop("fleet_dir")
            right["stats"].pop("fleet_dir")
            assert left == right

    def test_write_time_hook_matches_pull_update(self, tmp_path):
        hook_dir = str(tmp_path / "hooked")
        pull_dir = str(tmp_path / "pulled")
        os.makedirs(hook_dir)
        os.makedirs(pull_dir)
        hooked = JournalIndex(hook_dir)
        records = [
            {"type": "epoch-start", "epoch": 1, "machines": ["m00"]},
            {"type": "fleet-machine", "epoch": 1, "machine": "m00",
             "verdict": "infected", "findings": 2, "scanned": True,
             "finding_ids": [IDENTITIES[0]]},
            {"type": "epoch-end", "epoch": 1, "machines": 1},
        ]
        pulled = JournalIndex(pull_dir)
        for record in records:
            start, end = append_journal(
                os.path.join(hook_dir, "epochs.jsonl"), record)
            hooked.note_epoch_record(record, start, end)
            append_journal(os.path.join(pull_dir, "epochs.jsonl"),
                           record)
        pulled.update()
        assert hooked.query() == pulled.query()
        assert hooked.epoch_extents() == pulled.epoch_extents()

    def test_hook_with_gapped_offset_falls_back_to_update(self, tmp_path):
        fleet_dir = str(tmp_path)
        index = JournalIndex(fleet_dir)
        epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
        append_journal(epochs_path, {"type": "fleet-machine", "epoch": 1,
                                     "machine": "m00",
                                     "verdict": "clean"})
        # The hook arrives with offsets past an unindexed gap: it must
        # not trust them blindly but fold the gap in too.
        record = {"type": "fleet-machine", "epoch": 1, "machine": "m01",
                  "verdict": "infected"}
        start, end = append_journal(epochs_path, record)
        index.note_epoch_record(record, start, end)
        assert sorted(index.machine_names()) == ["m00", "m01"]


class TestStalenessAndCrashSafety:
    def test_owner_compaction_triggers_rebuild(self, tmp_path):
        fleet_dir = str(tmp_path)
        epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
        for epoch in (1, 2):
            append_journal(epochs_path, {"type": "fleet-machine",
                                         "epoch": epoch,
                                         "machine": "m00",
                                         "verdict": "clean"})
        index = JournalIndex(fleet_dir)
        index.update()
        assert len(index.machine_history("m00")) == 2
        # Someone rewrites the journal head under the index.
        with open(epochs_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "fleet-machine", "epoch": 2,
                                     "machine": "m00",
                                     "verdict": "infected"}) + "\n")
        counts = index.update()
        assert counts["rebuilt"] is True
        history = index.machine_history("m00")
        assert len(history) == 1
        assert history[0]["verdict"] == "infected"

    def test_torn_sidecar_tail_self_heals(self, tmp_path):
        fleet_dir = str(tmp_path)
        epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
        append_journal(epochs_path, {"type": "fleet-machine", "epoch": 1,
                                     "machine": "m00",
                                     "verdict": "infected"})
        index = JournalIndex(fleet_dir)
        index.update()
        sidecar = index.machines_path
        size = os.path.getsize(sidecar)
        with open(sidecar, "ab") as handle:  # console killed mid-append
            handle.write(b'{"machine": "m01", "trunc')
        reloaded = JournalIndex(fleet_dir)
        reloaded.update()
        assert reloaded.machine_names() == ["m00"]
        assert os.path.getsize(sidecar) >= size

    def test_unreadable_state_json_recovers(self, tmp_path):
        fleet_dir = str(tmp_path)
        append_journal(os.path.join(fleet_dir, "epochs.jsonl"),
                       {"type": "fleet-machine", "epoch": 1,
                        "machine": "m00", "verdict": "clean"})
        index = JournalIndex(fleet_dir)
        index.update()
        with open(index.state_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        reloaded = JournalIndex(fleet_dir)
        reloaded.update()
        assert reloaded.machine_names() == ["m00"]


class TestCompaction:
    def test_compaction_preserves_retained_queries(self, tmp_path):
        fleet_dir = str(tmp_path)
        epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
        coordinator = FleetCoordinator(
            fleet_dir, build_fleet(size=4, infected=(1, 2)), workers=2,
            outbreak_threshold=2, retain_epochs=2)
        coordinator.run(5)
        index = coordinator.index
        index.update()
        retain = 2
        cutoff = 5 - retain + 1
        before = index.query(epoch_min=cutoff)
        records_before = len(read_journal(epochs_path))
        # Retention is the coordinator's own journal rewrite; its index
        # notices the rewrite on update().
        coordinator.compact()
        journaled = read_journal(epochs_path)
        assert len(journaled) < records_before
        assert min(record["epoch"] for record in journaled
                   if record.get("epoch") is not None) == cutoff
        after = index.query(epoch_min=cutoff)
        # Byte offsets moved (the journal shrank) but the answers over
        # the retained range are identical record-for-record.
        strip = lambda rows: [  # noqa: E731
            {k: v for k, v in row.items() if k not in ("start", "end")}
            for row in rows]
        assert strip(after) == strip(before)
        assert index.query(epoch_max=cutoff - 1) == []
        # And a cold index built from the compacted journal agrees.
        fresh = JournalIndex(fleet_dir)
        fresh.rebuild()
        assert strip(fresh.query(epoch_min=cutoff)) == strip(before)

    def test_coordinator_retention_bounds_journal(self, tmp_path):
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(
            str(tmp_path), machines, workers=2,
            compact_every=2, retain_epochs=2)
        for __ in range(4):
            coordinator.run_epoch()
        epochs = {extent["epoch"]
                  for extent in coordinator.index.epoch_extents()}
        assert epochs == {3, 4}


class TestAgainstRealFleet:
    def test_status_matches_journal_replay(self, tmp_path):
        machines = build_fleet(size=4, infected=(1, 2))
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       workers=2)
        coordinator.run_epoch()
        coordinator.run_epoch()
        indexed = fleet_status_from_index(str(tmp_path))
        replayed = fleet_status(str(tmp_path))
        assert indexed == replayed

    def test_cold_index_matches_live_hooked_index(self, tmp_path):
        machines = build_fleet(size=3, infected=(0,))
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       workers=2)
        coordinator.run_epoch()
        cold = JournalIndex(str(tmp_path))
        cold.update()
        # The write-time hook covers only the epochs journal; queue and
        # baseline state folds in on the live index's next update().
        coordinator.index.update()
        assert index_answers(cold) == index_answers(coordinator.index)

    def test_console_index_off_means_no_sidecars(self, tmp_path):
        machines = build_fleet(size=2, infected=())
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       workers=1, console_index=False)
        coordinator.run_epoch()
        assert coordinator.index is None
        assert not os.path.exists(str(tmp_path / "index"))
