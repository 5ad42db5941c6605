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
                                        head_digest, iter_journal,
                                        read_grouped, read_journal,
                                        read_record_at)


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

    def test_head_digest_detects_rewrite_ignores_append(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        assert head_digest(path) == ""
        append_journal(path, {"n": 0})
        # Pin the prefix length at capture time (as JournalIndex does):
        # appends only add bytes past it, so they can't perturb it.
        prefix = os.path.getsize(path)
        before = head_digest(path, prefix)
        append_journal(path, {"n": 1})
        assert head_digest(path, prefix) == before  # appends invisible
        write_lines(path, [b'{"m": 9}\n'])
        assert head_digest(path, prefix) != before  # rewrites visible


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
        from repro.telemetry.health import load_jsonl

        path = str(tmp_path / "t.jsonl")
        append_journal(path, {"type": "span", "name": "scan"})
        with open(path, "ab") as handle:
            handle.write(b'{"type": "span", "trunc')
        with pytest.warns(UserWarning, match="skipping malformed"):
            grouped = load_jsonl(path)
        assert [r["name"] for r in grouped["span"]] == ["scan"]

    def test_scheduler_history_survives_torn_tail(self, tmp_path):
        from repro.fleet.scheduler import load_history

        path = str(tmp_path / "epochs.jsonl")
        append_journal(path, {"type": "fleet-machine", "epoch": 1,
                              "machine": "m0", "verdict": "infected"})
        with open(path, "ab") as handle:
            handle.write(b'{"type": "fleet-machine", "trunc')
        history = load_history(path)
        assert history.detections == {"m0": 1}
