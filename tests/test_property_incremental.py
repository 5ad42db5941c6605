"""Property tests: journal-patched indexes equal cold reparses.

The incremental pipeline's one non-negotiable invariant, hammered with
random mutation sequences: after ANY series of creates, writes,
renames, deletes and ADS edits, a namespace repaired through the change
journal must be element-identical to a from-scratch raw parse — and the
same for hive trees rebuilt bin-by-bin.  The overflow variant runs the
same sequences through a deliberately tiny journal so the wrap/fallback
path gets the same hammering as the happy path.  The views derived from
a patched namespace (path lookups, the disk's one raw file view) are
held to the same standard, in order, on a disk and on its clone.  The
"forge" op raw-writes a FILE record whose header claims another slot's
number: cold and patched parses both key records by slot.
"""

from __future__ import annotations

from itertools import zip_longest

from hypothesis import given, settings, strategies as st

from repro.core.scanners.files import outside_file_scan
from repro.disk import ChangeJournal, Disk, DiskGeometry
from repro.errors import FileNotFound, VolumeError
from repro.ntfs import NtfsVolume
from repro.ntfs import constants as c
from repro.ntfs.mft_parser import _NAMESPACE_CACHE_KEY, MftParser
from repro.ntfs.records import FileName, MftRecord
from repro.registry import hive_parser
from repro.registry.hive import Hive

_SLOTS = 8          # file name pool: ops address files by slot index
_DIRS = ("\\docs", "\\docs\\deep", "\\logs")

file_op = st.one_of(
    st.tuples(st.just("create"), st.integers(0, _SLOTS - 1),
              st.integers(0, 2)),              # (op, slot, dir index)
    st.tuples(st.just("write"), st.integers(0, _SLOTS - 1),
              st.integers(1, 3000)),           # (op, slot, new size)
    st.tuples(st.just("delete"), st.integers(0, _SLOTS - 1),
              st.just(0)),
    st.tuples(st.just("rename"), st.integers(0, _SLOTS - 1),
              st.integers(0, 2)),              # move to dir index
    st.tuples(st.just("ads"), st.integers(0, _SLOTS - 1),
              st.integers(1, 64)),             # (op, slot, ads size)
    st.tuples(st.just("movedir"), st.integers(0, 1),
              st.just(0)),                     # rename \docs\deep
    st.tuples(st.just("forge"), st.integers(0, _SLOTS - 1),
              st.integers(0, _SLOTS - 1)),     # (op, slot, claimed slot)
)
file_ops = st.lists(file_op, min_size=1, max_size=12)
# (op, derive the file view after it?): skipping the view lets the
# namespace be patched more than once between two view derivations.
viewed_ops = st.lists(st.tuples(file_op, st.booleans()),
                      min_size=1, max_size=12)


def _fresh_volume():
    disk = Disk(DiskGeometry.from_megabytes(16))
    volume = NtfsVolume.format(disk, max_records=1024)
    for directory in ("\\docs", "\\docs\\deep", "\\logs"):
        volume.create_directories(directory)
    for slot in range(0, _SLOTS, 2):               # half the pool exists
        volume.create_file(f"\\docs\\slot-{slot}.bin", b"seed" * slot)
    return disk, volume


class _Mutator:
    """Applies random ops, skipping ones the volume state disallows."""

    def __init__(self, volume):
        self.volume = volume
        self.paths = {}
        self.deep = "\\docs\\deep"
        for slot in range(0, _SLOTS, 2):
            self.paths[slot] = f"\\docs\\slot-{slot}.bin"

    def _dir(self, index):
        return [d if d != "\\docs\\deep" else self.deep
                for d in _DIRS][index]

    def apply(self, op, slot, arg):
        if op == "create" and slot not in self.paths:
            path = f"{self._dir(arg)}\\slot-{slot}.bin"
            self.volume.create_file(path, b"fresh")
            self.paths[slot] = path
        elif op == "write" and slot in self.paths:
            self.volume.write_file(self.paths[slot], b"w" * arg)
        elif op == "delete" and slot in self.paths:
            self.volume.delete_file(self.paths.pop(slot))
        elif op == "rename" and slot in self.paths:
            target = f"{self._dir(arg)}\\moved-{slot}.bin"
            if target != self.paths[slot] \
                    and not self.volume.exists(target):
                self.volume.rename(self.paths[slot], target)
                self.paths[slot] = target
        elif op == "ads" and slot in self.paths:
            self.volume.write_stream(self.paths[slot], "extra", b"a" * arg)
        elif op == "movedir":
            source = self.deep
            target = "\\docs\\deep" if source != "\\docs\\deep" \
                else "\\docs\\renamed"
            try:
                self.volume.rename(source, target)
            except VolumeError:
                return
            self.deep = target
            for slot, path in self.paths.items():
                if path.startswith(source + "\\"):
                    self.paths[slot] = target + path[len(source):]
        elif op == "forge":
            # Into a free slot the volume never allocates, under \docs,
            # claiming a live file's record number (or the root's); the
            # name may collide with a live file's.
            claimed = (self.volume.stat(self.paths[arg]).record_no
                       if arg in self.paths else c.RECORD_ROOT)
            parent = self.volume.stat("\\docs").record_no
            record = MftRecord(
                record_no=claimed, flags=c.FLAG_IN_USE,
                file_name=FileName(c.make_file_reference(parent, 1),
                                   f"slot-{slot}.bin"))
            forged = self.volume.max_records - 1 - slot
            self.volume.disk.write_bytes(
                self.volume.mft_offset + forged * c.MFT_RECORD_SIZE,
                record.to_bytes())


def _warm(disk):
    return sorted(MftParser(disk.read_bytes).parse(),
                  key=lambda e: e.record_no)


def _cold(disk):
    reader = lambda offset, length: disk.read_bytes(offset, length)
    return sorted(MftParser(reader).parse(), key=lambda e: e.record_no)


@settings(max_examples=30, deadline=None)
@given(file_ops)
def test_patched_namespace_equals_cold_reparse(ops):
    disk, volume = _fresh_volume()
    mutator = _Mutator(volume)
    _warm(disk)                                   # seed the shared cache
    for op, slot, arg in ops:
        mutator.apply(op, slot, arg)
        assert _warm(disk) == _cold(disk)


@settings(max_examples=15, deadline=None)
@given(file_ops)
def test_overflowing_journal_still_correct(ops):
    disk, volume = _fresh_volume()
    mutator = _Mutator(volume)
    _warm(disk)
    # Two-record ring: almost every multi-write op wraps it, so the
    # patch path must constantly take the full-reparse fallback.
    disk.journal = ChangeJournal(capacity=2,
                                 start_generation=disk.generation)
    for op, slot, arg in ops:
        mutator.apply(op, slot, arg)
    assert _warm(disk) == _cold(disk)


class _Unbound:
    """A disk behind a bare reader: no generation, cache or journal, so
    every parse and view through it is cold."""

    def __init__(self, disk):
        self._disk = disk

    def read_bytes(self, offset, length):
        return self._disk.read_bytes(offset, length)


def _lookup(parser, path):
    try:
        return parser.find_by_path(path)
    except FileNotFound:
        return None


def _assert_matches_cold(disk, seen, views=True):
    """The warm (patched) side of ``disk`` equals a cold parse, in order.

    ``seen`` collects every path parsed so far, so a path that has gone
    must be gone from the warm lookups too.
    """
    warm_parser = MftParser(disk.read_bytes)
    cold_parser = MftParser(_Unbound(disk).read_bytes)
    cold = cold_parser.parse()
    assert warm_parser.parse() == cold
    seen.update(entry.path for entry in cold)
    for entry_path in seen:
        for path in (entry_path, entry_path.swapcase()):
            assert _lookup(warm_parser, path) == _lookup(cold_parser, path)
    if not views:
        return
    warm = outside_file_scan(disk)
    fresh = outside_file_scan(_Unbound(disk))
    assert warm.entries == fresh.entries
    assert list(warm.identities().items()) \
        == list(fresh.identities().items())


@settings(max_examples=30, deadline=None)
@given(viewed_ops)
def test_patched_views_equal_cold_ones_in_order(ops):
    disk, volume = _fresh_volume()
    mutator = _Mutator(volume)
    seen = set()
    _assert_matches_cold(disk, seen)              # warm namespace + views
    for (op, slot, arg), views in ops:
        mutator.apply(op, slot, arg)
        _assert_matches_cold(disk, seen, views)
    _assert_matches_cold(disk, seen)


def _contents(namespace, view):
    """A deep copy of a cached namespace and its view."""
    return (list(namespace.entries), list(namespace.by_key.items()),
            list(namespace.by_record.items()), dict(namespace.records),
            {parent: set(kids) for parent, kids in namespace.children.items()},
            (list(view.records), list(view.identities), list(view.entries),
             list(view.index.items())))


@settings(max_examples=20, deadline=None)
@given(file_ops, file_ops)
def test_clones_patch_their_own_views(ops, clone_ops):
    disk, volume = _fresh_volume()
    mutator = _Mutator(volume)
    seen, clone_seen = set(), set()
    _assert_matches_cold(disk, seen)
    clone = disk.clone()
    twin = _Mutator(NtfsVolume.mount(clone))
    namespace = disk.raw_cache[_NAMESPACE_CACHE_KEY][1]
    view = disk.raw_cache["file-entries"]
    shared = _contents(namespace, view)
    for mine, theirs in zip_longest(ops, clone_ops):
        if mine is not None:
            mutator.apply(*mine)
            _assert_matches_cold(disk, seen)
        if theirs is not None:
            twin.apply(*theirs)
            _assert_matches_cold(clone, clone_seen)
    # What both disks shared at clone time is exactly as it was.
    assert _contents(namespace, view) == shared


# -- hive bin-level delta ------------------------------------------------------

hive_ops = st.lists(
    st.tuples(st.integers(0, 3),                  # top-level key index
              st.integers(0, 4),                  # value slot
              st.one_of(st.text(min_size=0, max_size=20),
                        st.integers(0, 2**31 - 1)),
              st.booleans()),                     # True = delete instead
    min_size=1, max_size=10)

_TOPS = ("Alpha", "Beta", "Gamma", "Delta")


@settings(max_examples=30, deadline=None)
@given(hive_ops)
def test_bin_patched_hive_equals_cold_parse(ops):
    hive = Hive("SOFTWARE")
    for top in _TOPS:
        hive.create_key(f"{top}\\Sub").set_value("seed", top)
    hive_parser.parse_hive(hive.serialize())      # warm the bin cache
    for key_index, value_slot, data, delete in ops:
        key = hive.open_key(f"{_TOPS[key_index]}\\Sub")
        name = f"value-{value_slot}"
        if delete:
            if key.has_value(name):
                key.delete_value(name)
        else:
            key.set_value(name, data)
        blob = hive.serialize()
        incremental = hive_parser._parse_blob_incremental(blob)
        cold = hive_parser.HiveParser(blob).parse()
        assert incremental == cold
