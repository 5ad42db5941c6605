"""The shared torn-tail-tolerant journal reader, and its consumers.

The regression that matters: every durable JSONL store (epochs
journal, queue WAL, baseline store, telemetry exports) must shrug off
a torn final record identically, because they all read through
``repro.telemetry.journal_io`` now instead of five hand-rolled loops.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.telemetry.journal_io import (JournalLine, append_journal,
                                        iter_journal, read_grouped,
                                        read_journal, read_record_at,
                                        replace_journal)


def write_lines(path, lines):
    with open(path, "wb") as handle:
        handle.write(b"".join(lines))


class TestIterJournal:
    def test_round_trip_with_offsets(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        records = [{"n": index, "payload": "x" * index}
                   for index in range(5)]
        ranges = [append_journal(path, record) for record in records]
        lines = list(iter_journal(path))
        assert [line.record for line in lines] == records
        assert [(line.start, line.end) for line in lines] == ranges
        # Offsets tile the file exactly: no gaps, no overlap.
        assert lines[0].start == 0
        for previous, current in zip(lines, lines[1:]):
            assert current.start == previous.end
        assert lines[-1].end == os.path.getsize(path)

    def test_missing_file_yields_nothing(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.jsonl")) == []

    def test_torn_final_record_is_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"n": 0})
        append_journal(path, {"n": 1})
        with open(path, "ab") as handle:
            handle.write(b'{"n": 2, "payload": "trunc')  # killed mid-write
        torn = []
        records = read_journal(path, on_torn=lambda no, why:
                               torn.append((no, why)))
        assert records == [{"n": 0}, {"n": 1}]
        assert len(torn) == 1 and torn[0][0] == 3
        # The next append terminates the torn line instead of fusing
        # into it: one skipped line, the new record intact at its range.
        start, end = append_journal(path, {"n": 3})
        torn.clear()
        records = read_journal(path, on_torn=lambda no, why:
                               torn.append((no, why)))
        assert records == [{"n": 0}, {"n": 1}, {"n": 3}]
        assert [no for no, __ in torn] == [3]
        assert read_record_at(path, start, end) == {"n": 3}

    def test_torn_middle_line_is_skipped_not_fatal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        write_lines(path, [b'{"n": 0}\n', b'{"bad json\n', b'{"n": 2}\n'])
        torn = []
        records = read_journal(path, on_torn=lambda no, why:
                               torn.append(no))
        assert records == [{"n": 0}, {"n": 2}]
        assert torn == [2]

    def test_non_object_line_is_torn(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        write_lines(path, [b"[1, 2, 3]\n", b'{"ok": true}\n'])
        torn = []
        assert read_journal(path, on_torn=lambda *a: torn.append(a)) \
            == [{"ok": True}]
        assert len(torn) == 1

    def test_incremental_resume_from_offset(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = append_journal(path, {"n": 0})
        append_journal(path, {"n": 1})
        resumed = list(iter_journal(path, start=first[1]))
        assert [line.record for line in resumed] == [{"n": 1}]
        assert resumed[0].start == first[1]

    def test_complete_only_withholds_unterminated_tail(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"n": 0})
        with open(path, "ab") as handle:
            handle.write(b'{"n": 1}')  # valid JSON, but no newline yet
        lines = list(iter_journal(path, complete_only=True))
        # The in-flight append is neither yielded nor advanced past...
        assert [line.record for line in lines] == [{"n": 0}]
        cursor = lines[-1].end
        with open(path, "ab") as handle:
            handle.write(b"\n")
        # ...and the next incremental pass picks it up from the cursor.
        caught_up = list(iter_journal(path, start=cursor,
                                      complete_only=True))
        assert [line.record for line in caught_up] == [{"n": 1}]

    def test_default_mode_yields_parseable_unterminated_tail(
            self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "wb") as handle:
            handle.write(b'{"n": 0}')
        assert read_journal(path) == [{"n": 0}]


class TestPointLookups:
    def test_read_record_at(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"n": 0})
        start, end = append_journal(path, {"n": 1, "k": "v"})
        assert read_record_at(path, start, end) == {"n": 1, "k": "v"}

    def test_read_record_at_stale_offsets(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"n": 0, "pad": "x" * 64})
        start, end = append_journal(path, {"n": 1})
        write_lines(path, [b'{"n": 9}\n'])  # compacted under the index
        assert read_record_at(path, start, end) is None
        assert read_record_at(str(tmp_path / "gone"), 0, 10) is None


class TestAppendDirectory:
    """append_journal creates a missing parent directory, and only then:
    an append into an existing one does not call ``os.makedirs``."""

    def test_append_creates_missing_directory(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "j.jsonl")
        assert append_journal(path, {"n": 0}) == (0, 9)
        assert read_journal(path) == [{"n": 0}]

    def test_append_into_existing_directory_skips_makedirs(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "fleet" / "j.jsonl")
        append_journal(path, {"n": 0})
        calls = []
        real_makedirs = os.makedirs

        def counting_makedirs(*args, **kwargs):
            calls.append(args)
            real_makedirs(*args, **kwargs)

        monkeypatch.setattr(os, "makedirs", counting_makedirs)
        append_journal(path, {"n": 1})
        append_journal(str(tmp_path / "fleet" / "other.jsonl"), {"n": 2})
        assert calls == []
        assert read_journal(path) == [{"n": 0}, {"n": 1}]


class TestGrouped:
    def test_read_grouped_by_type(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"type": "a", "n": 0})
        append_journal(path, {"type": "b", "n": 1})
        append_journal(path, {"n": 2})
        grouped = read_grouped(path)
        assert [r["n"] for r in grouped["a"]] == [0]
        assert [r["n"] for r in grouped["b"]] == [1]
        assert [r["n"] for r in grouped["unknown"]] == [2]


class TestReplaceJournal:
    """Every compaction rewrites through one path that makes the rename
    itself durable: the directory is fsynced after ``os.replace``."""

    @staticmethod
    def compact_baselines(directory):
        from repro.core.baseline import BaselineStore
        from repro.core.diff import DetectionReport

        store = BaselineStore(directory)
        for generation in (1, 2):
            store.put("m0", DetectionReport("m0", mode="inside"), generation)
        store.compact()
        return store.path

    @staticmethod
    def compact_queue(directory):
        from repro.fleet import WorkQueue

        queue = WorkQueue(directory)
        queue.open_epoch(1, {"m0": 0})
        queue.ack(queue.lease(0), verdict="clean")
        queue.close_epoch()
        queue.compact()
        return queue.path

    @staticmethod
    def compact_index(directory):
        from repro.fleet import FleetCoordinator

        # Epochs-journal retention, run by the coordinator that owns it
        # (a name-only roster entry journals an error verdict per epoch).
        # One compaction after the epochs, with no index to rebuild, so
        # the epochs rewrite is the last replace and only its own
        # directory fsync can follow it.
        coordinator = FleetCoordinator(directory, ["m0"], retain_epochs=1,
                                       console_index=False)
        coordinator.run(3)
        coordinator.compact()
        return coordinator.epochs_path

    @pytest.mark.parametrize("compact", ["compact_baselines",
                                         "compact_queue", "compact_index"])
    def test_compaction_fsyncs_directory_after_replace(
            self, tmp_path, monkeypatch, compact):
        import stat

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        journal = getattr(self, compact)(str(tmp_path))

        renamed = events.index(("replace", os.path.basename(journal)))
        assert ("fsync", True) in events[renamed + 1:]
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_rewrite_bytes_and_count(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        append_journal(path, {"n": 0})
        assert replace_journal(path, (json.dumps({"n": n})
                                      for n in (1, 2))) == 2
        with open(path, "rb") as handle:
            assert handle.read() == b'{"n": 1}\n{"n": 2}\n'


class TestConsumersShareTornTailBehavior:
    """One torn tail, three consumers, identical shrug."""

    def test_baseline_store_survives_torn_tail(self, tmp_path):
        from repro.core import GhostBuster
        from repro.core.baseline import BaselineStore
        from repro.machine import Machine

        machine = Machine("bl-m0", disk_mb=256, max_records=8192)
        machine.boot()
        report = GhostBuster(machine).detect()
        store = BaselineStore(str(tmp_path))
        store.put("bl-m0", report, disk_generation=1, scan_seconds=0.5)
        with open(store.path, "ab") as handle:
            handle.write(b'{"machine": "bl-m1", "trunc')
        reloaded = BaselineStore(str(tmp_path))
        assert reloaded.get("bl-m0") is not None
        assert reloaded.get("bl-m1") is None
        reloaded.put("bl-m2", report, disk_generation=1)
        assert BaselineStore(str(tmp_path)).get("bl-m2") is not None

    def test_work_queue_survives_torn_tail(self, tmp_path):
        from repro.fleet import WorkQueue

        queue = WorkQueue(str(tmp_path))
        queue.open_epoch(1, {"m0": 0, "m1": 0})
        with open(queue.path, "ab") as handle:
            handle.write(b'{"op": "ack", "machine": "m0", "trunc')
        replayed = WorkQueue(str(tmp_path))
        # The torn ack never happened: both machines still pending.
        assert sorted(replayed.pending_machines()) == ["m0", "m1"]
        lease = replayed.lease(0)
        assert set(WorkQueue(str(tmp_path)).leased_machines()) == {
            lease.machine}

    def test_telemetry_load_jsonl_survives_torn_tail(self, tmp_path):
        # Telemetry exports (span JSONL) load grouped by type; a torn
        # line is reported to the caller and costs only itself.
        path = str(tmp_path / "t.jsonl")
        append_journal(path, {"type": "span", "name": "scan"})
        with open(path, "ab") as handle:
            handle.write(b'{"type": "span", "trunc\n')
        append_journal(path, {"type": "span", "name": "diff"})
        torn = []
        grouped = read_grouped(path, on_torn=lambda line_no, reason:
                               torn.append(line_no))
        assert [r["name"] for r in grouped["span"]] == ["scan", "diff"]
        assert torn == [2]

    def test_scheduler_history_survives_torn_tail(self, tmp_path):
        from repro.fleet.scheduler import load_history

        path = str(tmp_path / "epochs.jsonl")
        append_journal(path, {"type": "fleet-machine", "epoch": 1,
                              "machine": "m0", "verdict": "infected"})
        with open(path, "ab") as handle:
            handle.write(b'{"type": "fleet-machine", "trunc')
        history = load_history(path)
        assert history.detections == {"m0": 1}
