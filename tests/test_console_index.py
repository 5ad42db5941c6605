"""The console's journal index: one in-memory fold of the fleet journals.

The load-bearing invariants: an index kept current *incrementally*
(write-time hooks, tailing ``update()`` calls, per-journal refolds after
an owner's rewrite) answers every query exactly like a cold one opened
on the same journals, and its status document equals a full journal
replay — :func:`replay_status`, the reference model kept here.  And
neither the coordinator's index nor any reader ever writes a file
under the fleet directory besides the three journals.
"""

from __future__ import annotations

import builtins
import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.console import ConsoleServer, JournalIndex
from repro.fleet import (FleetCoordinator, WorkQueue, fleet_status,
                         fold_agent_records, load_history)
from repro.machine import Machine
from repro.telemetry import journal_io
from repro.telemetry.journal_io import append_journal, read_journal
from repro.telemetry.metrics import global_metrics

MACHINES = ["m00", "m01", "m02", "m03"]
IDENTITIES = ["file:hxdef", "file:aphex"]
JOURNALS = ("epochs.jsonl", "queue.jsonl", "baselines.jsonl")
# Every route the console serves.
ROUTES = ("/healthz", "/", "/machine/m00", "/api/status", "/api/machines",
          "/api/machines/m00", "/api/epochs", "/api/outbreaks",
          "/api/campaigns", "/api/agents", "/api/query?verdict=infected",
          "/api/index", "/api/metrics", "/metrics")


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


def replay_status(fleet_dir):
    """The fleet status document by full replay of the journals.

    The reference model for :meth:`JournalIndex.status`: the queue WAL
    replayed through a read-only :class:`WorkQueue`, every
    ``epochs.jsonl`` record read from byte 0.
    """
    status = {"fleet_dir": fleet_dir, "open_epoch": None, "pending": 0,
              "leased": 0, "acked": 0, "epochs_completed": 0,
              "last_summary": None, "outbreaks": [], "campaigns": []}
    if os.path.exists(os.path.join(fleet_dir, "queue.jsonl")):
        queue = WorkQueue(fleet_dir)
        status["open_epoch"] = queue.epoch
        status["pending"] = queue.pending_count()
        status["leased"] = len(queue.leased_machines())
        status["acked"] = len(queue.acked_machines())
        status["pending_machines"] = queue.pending_machines()
        status["leased_machines"] = sorted(queue.leased_machines())
    records = read_journal(os.path.join(fleet_dir, "epochs.jsonl"),
                           on_torn=lambda *_: None)
    for record in records:
        if record.get("type") == "epoch-end":
            status["epochs_completed"] += 1
            status["last_summary"] = record
        elif record.get("type") == "fleet-outbreak":
            status["outbreaks"].append(record)
        elif record.get("type") == "fleet-campaign":
            status["campaigns"].append(record)
    status["agents"] = fold_agent_records(records)
    return status


def fleet_files(fleet_dir):
    """relative path → bytes of every file under the fleet directory."""
    files = {}
    for root, __, names in os.walk(fleet_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, fleet_dir)] = handle.read()
    return files


def track_writes(monkeypatch, fleet_dir):
    """Record every path under ``fleet_dir`` opened for writing, made,
    or renamed onto, for the rest of the test."""
    root = os.path.realpath(fleet_dir)
    written = []

    def note(path):
        if isinstance(path, int):
            return
        path = os.path.realpath(os.fspath(path))
        if os.path.commonpath([root, path]) == root:
            written.append(os.path.relpath(path, root))

    real_open, real_os_open = builtins.open, os.open
    real_mkdir, real_replace = os.mkdir, os.replace

    def tracked_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in "wax+"):
            note(file)
        return real_open(file, mode, *args, **kwargs)

    def tracked_os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
            note(path)
        return real_os_open(path, flags, *args, **kwargs)

    def tracked_mkdir(path, *args, **kwargs):
        real_mkdir(path, *args, **kwargs)   # makedirs probes existing ones
        note(path)

    def tracked_replace(src, dst, *args, **kwargs):
        note(dst)
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", tracked_open)
    monkeypatch.setattr(os, "open", tracked_os_open)
    monkeypatch.setattr(os, "mkdir", tracked_mkdir)
    monkeypatch.setattr(os, "replace", tracked_replace)
    return written


def record_reads(monkeypatch, path):
    """The start offset of every ``iter_journal`` pass over ``path``,
    wherever the program looks the reader up."""
    original = journal_io.iter_journal
    reads = []

    def counting(source, start=0, **kwargs):
        if os.fspath(source) == path:
            reads.append(start)
        return original(source, start, **kwargs)

    for name, module in list(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and getattr(module, "iter_journal", None) is original):
            monkeypatch.setattr(module, "iter_journal", counting)
    return reads


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
        "stats": index.stats(),
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
                    # A console restart mid-history is a cold replay.
                    incremental = JournalIndex(fleet_dir)
            incremental.update()
            assert os.listdir(fleet_dir) == ["epochs.jsonl"]

            cold_dir = os.path.join(fleet_dir, "cold")
            os.makedirs(cold_dir)
            os.link(epochs_path, os.path.join(cold_dir, "epochs.jsonl"))
            cold = JournalIndex(cold_dir)

            left = index_answers(incremental)
            right = index_answers(cold)
            for answers in (left, right):
                answers["status"].pop("fleet_dir")
                answers["stats"].pop("fleet_dir")
            assert left == right
            reference = replay_status(cold_dir)
            reference.pop("fleet_dir")
            assert left["status"] == reference

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
        # The hooked records read back where the hook was told they
        # landed, so a later update() tails instead of refolding.
        assert hooked.update() == {"reset": [], "epochs": 0, "queue": 0,
                                   "baselines": 0}

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
        append_journal(os.path.join(fleet_dir, "baselines.jsonl"),
                       {"machine": "m00", "baseline_id": "b1"})
        index = JournalIndex(fleet_dir)
        assert len(index.machine_history("m00")) == 2
        # Someone rewrites the journal head under the index.
        with open(epochs_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "fleet-machine", "epoch": 2,
                                     "machine": "m00",
                                     "verdict": "infected"}) + "\n")
        counts = index.update()
        # Only the rewritten journal is refolded.
        assert counts["reset"] == ["epochs"]
        assert (counts["epochs"], counts["baselines"]) == (1, 0)
        history = index.machine_history("m00")
        assert len(history) == 1
        assert history[0]["verdict"] == "infected"
        assert index.baseline_entry("m00")["baseline_id"] == "b1"

    def test_unparseable_line_is_skipped_once(self, tmp_path):
        """A terminated line that does not parse moves the cursor past
        it: later passes neither count it again nor lose what follows,
        also when it is the journal's only line."""
        fleet_dir = str(tmp_path)
        epochs_path = os.path.join(fleet_dir, "epochs.jsonl")
        torn_line = b'{"type": "fleet-mach\n'
        with open(epochs_path, "wb") as handle:
            handle.write(torn_line)
        index = JournalIndex(fleet_dir)
        record = {"type": "fleet-machine", "epoch": 1, "machine": "m00",
                  "verdict": "clean"}
        append_journal(epochs_path, record)
        with open(epochs_path, "ab") as handle:
            handle.write(torn_line)
        torn = []
        for __ in range(4):
            index.update()
            torn.append(index.stats()["torn_skipped"])
        assert torn == [2, 2, 2, 2]
        assert index.stats()["cursors"]["epochs"] \
            == os.path.getsize(epochs_path)
        append_journal(epochs_path, dict(record, epoch=2))
        assert index.update()["epochs"] == 1
        assert len(index.machine_history("m00")) == 2
        assert index.stats() == JournalIndex(fleet_dir).stats()

    def test_rewrite_that_regrows_past_the_cursor_is_refolded(
            self, tmp_path):
        """An emptied WAL that regrew past this console's cursor before
        its next update() is refolded, not read from the stale offset
        (which lands inside a line of the new WAL)."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=3, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2)
        queue_path = coordinator.queue.path
        coordinator.run_epoch()
        coordinator.compact()
        assert os.path.getsize(queue_path) == 0
        console = JournalIndex(fleet_dir)
        coordinator.run_epoch()
        console.update()
        cursor = console.stats()["cursors"]["queue"]
        assert cursor == os.path.getsize(queue_path)
        coordinator.compact()
        # A rescan acks "scanned": true where a skip acked false, so the
        # regrown WAL's lines no longer end where the old ones did.
        machines[0].volume.create_file("\\touch.txt", b"x")
        while os.path.getsize(queue_path) <= cursor:
            coordinator.run_epoch()
        counts = console.update()
        cold = JournalIndex(fleet_dir)
        assert console.stats()["torn_skipped"] == 0
        assert console.status() == cold.status() == replay_status(fleet_dir)
        assert console.stats() == cold.stats()
        assert "queue" in counts["reset"]


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
        # refolds the rewritten journal.
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
        # And a cold index over the compacted journal agrees.
        fresh = JournalIndex(fleet_dir)
        assert fresh.query(epoch_min=cutoff) == after

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

    def test_compaction_does_not_replay_the_epochs_journal(
            self, tmp_path, monkeypatch):
        """Rewriting the store and the WAL refolds those journals alone:
        a compaction epoch never reads ``epochs.jsonl`` from byte 0."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2,
                                       compact_every=1, retain_epochs=0)
        reads = record_reads(monkeypatch, coordinator.epochs_path)
        per_epoch = []
        for epoch in range(1, 5):
            # A rescan of m00 puts a baseline, so every compaction
            # rewrites baselines.jsonl as well as the WAL.
            machines[0].volume.create_file(f"\\touch-{epoch}.txt", b"x")
            del reads[:]
            coordinator.run_epoch()
            per_epoch.append(reads.count(0))
        assert per_epoch[1:] == [0, 0, 0]
        assert JournalIndex(fleet_dir).status() == coordinator.index.status()

    def test_retention_folds_history_from_the_kept_records(
            self, tmp_path, monkeypatch):
        """A retention rewrite folds the scheduler history and the
        console index from the records it keeps: the rewrite's own pass
        is the only full read of ``epochs.jsonl``."""
        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=())
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2,
                                       compact_every=1, retain_epochs=2)
        reads = record_reads(monkeypatch, coordinator.epochs_path)
        per_epoch = []
        for epoch in range(1, 5):
            machines[0].volume.create_file(f"\\touch-{epoch}.txt", b"x")
            del reads[:]
            coordinator.run_epoch()
            per_epoch.append(reads.count(0))
            assert coordinator.history \
                == load_history(coordinator.epochs_path)
        assert per_epoch == [1, 1, 1, 1]
        assert JournalIndex(fleet_dir).status() == coordinator.index.status()


class TestAgainstRealFleet:
    def test_status_matches_journal_replay(self, tmp_path):
        from repro.errors import CoordinatorKilled

        fleet_dir = str(tmp_path)
        machines = build_fleet(size=4, infected=(1, 2))
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2,
                                       outbreak_threshold=2)
        coordinator.run_epoch()
        coordinator.run_epoch()
        assert fleet_status(fleet_dir) == replay_status(fleet_dir)
        # Mid-epoch too: an open epoch with acked and pending machines.
        with pytest.raises(CoordinatorKilled):
            coordinator.run_epoch(kill_after_acks=2)
        status = fleet_status(fleet_dir)
        assert status["open_epoch"] == 3 and status["acked"] == 2
        assert status == replay_status(fleet_dir)

    def test_cold_index_matches_live_hooked_index(self, tmp_path):
        machines = build_fleet(size=3, infected=(0,))
        coordinator = FleetCoordinator(str(tmp_path), machines,
                                       workers=2)
        coordinator.run_epoch()
        cold = JournalIndex(str(tmp_path))
        # The write-time hook covers only the epochs journal; queue and
        # baseline state folds in on the live index's next update().
        coordinator.index.update()
        assert index_answers(cold) == index_answers(coordinator.index)

    def test_console_index_off_means_no_sidecars(self, tmp_path,
                                                 monkeypatch):
        """With the index on or off, a coordinator writes the three
        journals and their compaction temp files, nothing else."""
        allowed = set(JOURNALS) | {name + ".tmp" for name in JOURNALS}
        for console_index in (False, True):
            fleet_dir = str(tmp_path / f"index-{console_index}")
            os.makedirs(fleet_dir)
            written = track_writes(monkeypatch, fleet_dir)
            coordinator = FleetCoordinator(
                fleet_dir, build_fleet(size=2, infected=(1,)), workers=1,
                console_index=console_index, compact_every=1,
                retain_epochs=1)
            coordinator.run(2)
            assert (coordinator.index is not None) == console_index
            monkeypatch.undo()
            assert written and set(written) <= allowed
            assert sorted(os.listdir(fleet_dir)) == sorted(JOURNALS)

    def test_two_writers_lose_nothing(self, tmp_path):
        """A second index on a live coordinator's directory (a console)
        never corrupts what a later cold open sees."""
        from repro.ghostware import HackerDefender
        from repro.workloads.scenarios import build_home_pc

        fleet_dir = str(tmp_path)
        machines = [build_home_pc(f"m{index:02d}",
                                  HackerDefender() if index == 0 else None,
                                  files=30, seed=4).machine
                    for index in range(3)]
        coordinator = FleetCoordinator(fleet_dir, machines)
        coordinator.run(2)
        second = JournalIndex(fleet_dir)
        second.update()
        coordinator.compact()
        second.update()
        coordinator.run(2)
        coordinator.index.close()
        cold = JournalIndex(fleet_dir)
        assert cold.stats()["verdict_entries"] == 12
        assert len(cold.epoch_summaries()) == 4
        assert main(["fleet-status", "--fleet-dir", fleet_dir,
                     "--json"]) == 0

    def test_readers_write_nothing(self, tmp_path, monkeypatch, capsys):
        fleet_dir = str(tmp_path)
        coordinator = FleetCoordinator(fleet_dir,
                                       build_fleet(size=3, infected=(1,)),
                                       workers=2)
        coordinator.run(2)
        before = fleet_files(fleet_dir)
        written = track_writes(monkeypatch, fleet_dir)
        server = ConsoleServer(fleet_dir, token="t")
        try:
            for route in ROUTES:
                status, __, __ = server.handle_request(
                    route, authorization="Bearer t")
                assert status == 200, route
        finally:
            server.httpd.server_close()
        assert main(["fleet-status", "--fleet-dir", fleet_dir]) == 0
        assert main(["fleet-status", "--fleet-dir", fleet_dir,
                     "--json"]) == 0
        capsys.readouterr()
        assert written == []
        assert fleet_files(fleet_dir) == before

    def test_steady_epoch_hooks_every_appended_record(self, tmp_path,
                                                      monkeypatch):
        """The index's whole cost in a steady epoch, counted: one hooked
        fold per record the coordinator appends, no journal read, and
        no byte written outside the three journals."""
        fleet_dir = str(tmp_path)
        coordinator = FleetCoordinator(fleet_dir,
                                       build_fleet(size=4, infected=(1,)),
                                       workers=2)
        coordinator.run(2)          # the seed epoch and a warm-up
        epochs_path = coordinator.epochs_path
        records_before = len(read_journal(epochs_path))
        hooked_before = global_metrics().counter(
            "console.index.hooked_records")
        reads = record_reads(monkeypatch, epochs_path)
        assert sorted(fleet_files(fleet_dir)) == sorted(JOURNALS)
        coordinator.run_epoch()
        monkeypatch.undo()
        appended = len(read_journal(epochs_path)) - records_before
        assert appended >= 6        # start, 4 verdicts, end
        assert global_metrics().counter(
            "console.index.hooked_records") - hooked_before == appended
        assert reads == []
        assert sorted(fleet_files(fleet_dir)) == sorted(JOURNALS)
