"""The disk's byte store against its reference model, COW cloning, and
filter-token tests.

``Disk`` keeps its bytes in one flat extent (zero-copy views,
copy-on-write clones, mmap spill).  :class:`SectorModel` below is the
obviously correct store it must match: a dict of sectors, absent ones
zero.  The property test drives ``Disk`` lineages — clones included,
each write landing on one member — and the model with the same random
operations, and compares everything the API exposes: reads, views,
written-sector enumeration, the full image, and the generation and
journal records the applied writes imply.
"""

import mmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scanners.files import low_level_file_scan
from repro.disk import Disk, DiskGeometry, JournalRecord, backends
from repro.errors import DiskError
from repro.faults.injectors import DiskFaultInjector
from repro.faults.plan import SITE_DISK_READ, FaultPlan, FaultSpec
from repro.fleet import FleetCoordinator, clone_fleet, fleet_storage_stats
from repro.ghostware import HackerDefender
from repro.kernel.kernel import FilterStack
from repro.machine import Machine
from repro.ntfs.mft_parser import MftParser
from repro.workloads import populate_machine
from tests.test_chaos_e2e import _OutsideRecorder, _outside_complete, _verdicts

_GEOM = DiskGeometry.from_megabytes(1)
_MAX = _GEOM.size_bytes
_SECTOR = _GEOM.sector_size
_LINEAGE = 4


class SectorModel:
    """Reference store: a dict of sectors, absent sectors read as zeros.

    It also logs the journal record each applied write implies, so the
    expected generation is the number of records.
    """

    def __init__(self):
        self.sectors = {}
        self.records = []

    def clone(self):
        copy = SectorModel()
        copy.sectors = dict(self.sectors)
        copy.records = list(self.records)
        return copy

    def _log(self, first, count, kind):
        self.records.append(
            JournalRecord(len(self.records) + 1, first, count, kind))

    def read_bytes(self, offset, length):
        first = offset // _SECTOR
        last = (offset + length - 1) // _SECTOR
        zero = bytes(_SECTOR)
        blob = b"".join(self.sectors.get(index, zero)
                        for index in range(first, last + 1))
        start = offset - first * _SECTOR
        return blob[start:start + length]

    def write_sector(self, index, data):
        self.sectors[index] = data
        self._log(index, 1, "sector")

    def write_bytes(self, offset, data):
        if not data:
            return
        first = offset // _SECTOR
        last = (offset + len(data) - 1) // _SECTOR
        blob = bytearray(self.read_bytes(first * _SECTOR,
                                         (last - first + 1) * _SECTOR))
        start = offset - first * _SECTOR
        blob[start:start + len(data)] = data
        for position, index in enumerate(range(first, last + 1)):
            self.sectors[index] = bytes(
                blob[position * _SECTOR:(position + 1) * _SECTOR])
        self._log(first, last - first + 1, "bytes")

    def written_sectors(self):
        return sorted(self.sectors.items())


_member = st.integers(0, _LINEAGE - 1)
_op_write = st.tuples(st.just("write"), _member,
                      st.integers(0, _MAX - 2049),
                      st.binary(min_size=0, max_size=2048))
_op_sector = st.tuples(st.just("sector"), _member,
                       st.integers(0, _GEOM.sector_count - 1),
                       st.integers(0, 255))
_op_read = st.tuples(st.just("read"), st.integers(0, _MAX - 4097),
                     st.integers(0, 4096))
_op_view = st.tuples(st.just("view"), st.integers(0, _MAX - 4097),
                     st.integers(0, 4096))
_op_clone = st.tuples(st.just("clone"), _member)

_op_sequences = st.lists(
    st.one_of(_op_write, _op_sector, _op_read, _op_view, _op_clone),
    max_size=40)


class TestBackendEquivalence:
    """Same op sequence on ``Disk`` and the model ⇒ same observables."""

    @settings(max_examples=40, deadline=None)
    @given(_op_sequences)
    def test_op_sequences_equivalent(self, ops):
        # (disk, model) pairs: the original and up to three COW clones,
        # each cloned from any earlier member (siblings share a sealed
        # base, chains stack overlays).  A write lands on one member
        # only, so every read also checks the others stayed isolated.
        lineage = [(Disk(_GEOM), SectorModel())]
        for op in ops:
            kind = op[0]
            if kind == "clone":
                if len(lineage) < _LINEAGE:
                    disk, model = lineage[op[1] % len(lineage)]
                    lineage.append((disk.clone(), model.clone()))
            elif kind == "write":
                for target in lineage[op[1] % len(lineage)]:
                    target.write_bytes(op[2], op[3])
            elif kind == "sector":
                data = bytes([op[3]]) * _SECTOR
                for target in lineage[op[1] % len(lineage)]:
                    target.write_sector(op[2], data)
            else:
                for disk, model in lineage:
                    read = (disk.read_bytes(op[1], op[2]) if kind == "read"
                            else bytes(disk.read_view(op[1], op[2])))
                    assert read == model.read_bytes(op[1], op[2])
        for disk, model in lineage:
            assert disk.generation == len(model.records)
            assert disk.journal.records_since(0, disk.generation) \
                == model.records
            assert list(disk.written_sectors()) == model.written_sectors()
            assert disk.read_bytes(0, _MAX) == model.read_bytes(0, _MAX)

    def test_bounds_errors_identical(self):
        # Bounds are Disk's own: the extent's plain and COW-overlay
        # modes fail alike.
        for disk in (Disk(_GEOM), Disk(_GEOM).clone()):
            with pytest.raises(DiskError, match="negative read length"):
                disk.read_bytes(0, -1)
            with pytest.raises(DiskError, match="outside disk"):
                disk.read_bytes(_MAX - 10, 11)
            with pytest.raises(DiskError, match="outside disk"):
                disk.read_view(_MAX, 1)
            assert disk.read_bytes(10, 0) == b""
            assert bytes(disk.read_view(10, 0)) == b""

    def test_view_reflects_content_at_call_time(self):
        disk = Disk(_GEOM)
        disk.write_bytes(0, b"A" * 1024)
        view = disk.read_view(0, 1024)
        assert bytes(view) == b"A" * 1024
        # A later write may or may not show through a stale view (the
        # documented lifetime rule) — but the view must stay readable
        # and a fresh read must see the new content.
        disk.write_bytes(_MAX - 4096, b"B" * 4096)
        bytes(view)  # must not raise
        assert disk.read_bytes(_MAX - 4096, 4096) == b"B" * 4096


class TestChaosInterplay:
    """Injected damage is byte-identical on both read paths."""

    @staticmethod
    def _chaos_disk():
        disk = Disk(_GEOM)
        disk.write_bytes(0, bytes(range(256)) * 256)
        plan = FaultPlan(13, (FaultSpec(SITE_DISK_READ, mode="rate",
                                        rate=0.5,
                                        kinds=("torn_read", "bit_flip")),))
        disk.fault_injector = DiskFaultInjector(plan, disk)
        return disk

    def test_view_path_draws_match_bytes_path(self):
        # The same plan seed must damage read_view exactly like
        # read_bytes: the injector routes both through the same filter,
        # one draw per call.
        traces = []
        for use_view in (False, True):
            disk = self._chaos_disk()
            read = ((lambda o, n: bytes(disk.read_view(o, n))) if use_view
                    else disk.read_bytes)
            traces.append([read(step * 613 % 50000, 96)
                           for step in range(32)])
            # Damage was injected into the returned bytes only; the
            # stored image underneath is pristine.
            disk.fault_injector = None
            assert disk.read_bytes(0, 65536) == bytes(range(256)) * 256
        assert traces[0] == traces[1]


class TestFlatBackendStorage:
    def test_spills_to_mmap_and_preserves_content(self, monkeypatch):
        monkeypatch.setattr(backends, "DEFAULT_SPILL_BYTES", 128 * 1024)
        geometry = DiskGeometry.from_megabytes(2)
        disk = Disk(geometry)
        backend = disk._backend
        head = bytes(range(256)) * 16
        disk.write_bytes(0, head)
        assert isinstance(backend._buf, bytearray)
        pinned = disk.read_view(0, len(head))
        tail = b"\xab\x51" * 2048
        disk.write_bytes(512 * 1024, tail)    # grows past the threshold
        assert isinstance(backend._buf, mmap.mmap)
        assert disk.read_bytes(0, len(head)) == head
        assert disk.read_bytes(512 * 1024, len(tail)) == tail
        assert disk.read_bytes(100 * 1024, 64) == b"\x00" * 64
        assert bytes(pinned) == head          # stale heap view survives
        # Grow the mmap again with a view exported over it.
        pinned2 = disk.read_view(512 * 1024, 64)
        disk.write_bytes(geometry.size_bytes - 4096, b"z" * 4096)
        assert disk.read_bytes(geometry.size_bytes - 4096, 4096) \
            == b"z" * 4096
        bytes(pinned2)                        # must not raise
        # And COW sealing works over an mmap-backed extent too.
        clone = disk.clone()
        clone.write_bytes(0, b"Q" * 512)
        assert disk.read_bytes(0, 512) == head[:512]
        assert clone.read_bytes(0, 512) == b"Q" * 512

    def test_cow_accounting_and_fleet_stats(self):
        golden = Machine("golden", disk_mb=64, max_records=2048)
        golden.boot()
        populate_machine(golden, file_count=30, registry_scale=20, seed=5)
        fleet = clone_fleet(golden, 4)
        base = golden.disk.storage_stats()
        assert base.base_id is not None
        assert base.shared_bytes > 0
        assert {m.disk.storage_stats().base_id for m in fleet} \
            == {base.base_id}
        for machine in fleet:
            stats = machine.disk.storage_stats()
            assert machine.disk.used_bytes() \
                == stats.shared_bytes + stats.private_bytes
            assert stats.total_bytes == machine.disk.used_bytes()
        totals = fleet_storage_stats([golden] + fleet)
        assert totals["shared_bases"] == 1
        assert totals["machines"] == 5
        naive = sum(m.disk.used_bytes() for m in [golden] + fleet)
        # The shared base is counted once, not once per machine.
        assert totals["total_bytes"] == naive - 4 * base.shared_bytes
        # Divergence is private: one clone's write moves nobody else's
        # accounting and nobody else's bytes.
        sibling_private = fleet[1].disk.storage_stats().private_bytes
        golden_private = golden.disk.storage_stats().private_bytes
        probe = golden.disk.read_bytes(0, 4096)
        fleet[0].volume.create_file("\\diverge.bin", b"D" * 4096)
        assert fleet[0].disk.storage_stats().private_bytes > 0
        assert fleet[1].disk.storage_stats().private_bytes \
            == sibling_private
        assert golden.disk.storage_stats().private_bytes == golden_private
        assert golden.disk.read_bytes(0, 4096) == probe

    def test_overlay_parse_copies_the_mft_region_once(self):
        """A COW clone that wrote into its MFT region composes the
        region read with one copy: base views and overlay sectors are
        joined into the result."""
        import tracemalloc

        from repro.ntfs.constants import MFT_RECORD_SIZE

        golden = Machine("golden", disk_mb=64, max_records=8192)
        golden.boot()
        golden.shutdown()
        clone = Machine(disk=golden.disk.clone(), max_records=8192)
        clone.volume.create_file("\\probe.txt", b"x" * 100)
        tracemalloc.start()
        try:
            parsed = MftParser(clone.disk.read_bytes).parse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8192 * MFT_RECORD_SIZE
        assert "\\probe.txt" in {entry.path.lower() for entry in parsed}

    def test_fleet_stats_without_cow_count_everything_private(self):
        # Independently formatted machines: no clone, so no shared base.
        fleet = [Machine(f"plain-{index}", disk_mb=64, max_records=1024)
                 for index in range(2)]
        for machine in fleet:
            machine.boot()
        totals = fleet_storage_stats(fleet)
        assert totals["shared_bases"] == 0
        assert totals["shared_bytes"] == 0
        assert totals["total_bytes"] \
            == sum(m.disk.used_bytes() for m in fleet)

    def test_cow_fleet_packs_four_times_the_machines(self, tmp_path):
        """Machines per byte: a COW fleet against private copies of the
        same golden image, both diverging the same two clean clones.
        One RIS epoch over each must convict on the same inside and
        outside evidence."""
        golden = Machine("ceil", disk_mb=512, max_records=8192)
        # Content-heavy image, modest hives: every clone's unavoidable
        # divergence is its registry remount.
        populate_machine(golden, file_count=200, registry_scale=20, seed=7)
        for index in range(200):
            golden.volume.create_file(
                f"\\Program Files\\image{index:04d}.bin",
                bytes([index % 251]) * 4096)
        size, infected = 16, (0, 5, 10)

        def infect(machine):
            HackerDefender().install(machine)

        def private_copy(index):
            disk = Disk(golden.disk.geometry)
            for sector, data in golden.disk.written_sectors():
                disk.write_sector(sector, data)
            machine = Machine(f"fleet-{index:02d}", disk=disk,
                              max_records=8192)
            machine.boot()
            if index in infected:
                infect(machine)
            return machine

        fleets = {"cow": clone_fleet(golden, size, infected=infected,
                                     infect=infect),
                  "private": [private_copy(index) for index in range(size)]}
        stats, verdicts = {}, {}
        for arm, fleet in fleets.items():
            for machine in fleet[1:3]:
                machine.volume.create_file(
                    f"\\Temp\\diverge-{machine.name}.bin", b"D" * 4096)
            stats[arm] = fleet_storage_stats(fleet)
            coordinator = FleetCoordinator(
                str(tmp_path / arm), fleet, policy=_OutsideRecorder("ris"))
            verdicts[arm] = _verdicts(coordinator, coordinator.run_epoch())
            assert _outside_complete(coordinator), arm
        assert stats["cow"]["shared_bases"] == 1
        assert stats["private"]["shared_bases"] == 0
        # Same machine count, so machines per byte is a ratio of totals.
        assert stats["private"]["total_bytes"] \
            >= 4 * stats["cow"]["total_bytes"]
        assert verdicts["cow"] == verdicts["private"]
        assert sorted(name for name, verdict in verdicts["cow"].items()
                      if verdict[0] == "infected") \
            == [f"fleet-{index:02d}" for index in infected]

    def test_clone_fleet_requires_infect_callable(self):
        golden = Machine("g", disk_mb=64, max_records=512)
        with pytest.raises(ValueError, match="infect callable"):
            clone_fleet(golden, 2, infected=(0,))


class _NameFilter:
    """Raw-read filter that zeroes FILE records containing ``pattern``.

    ``pattern=None`` is a pass-through.  One class for both roles on
    purpose: re-registering the same instance with a new ``pattern``
    presents the same object identity as a different filter, which is
    exactly the aliasing the token-based cache key must survive.
    """

    audit_owner = "test-ghost"

    def __init__(self, pattern=None):
        self.pattern = pattern

    def __call__(self, offset, length, data):
        if self.pattern and data[:4] == b"FILE" and self.pattern in data:
            return b"\x00" * length
        return data


class TestFilterTokens:
    def test_filter_stack_tokens_never_reused(self):
        stack = FilterStack()
        seen = set()

        def check_fresh(expected_new):
            tokens = stack.tokens()
            assert len(tokens) == len(stack)
            assert len(set(tokens)) == len(tokens)
            new = set(tokens) - seen
            assert len(new) == expected_new
            seen.update(new)

        a, b, c = object(), object(), object()
        stack.append(a)
        check_fresh(1)
        stack.extend([b, c])
        check_fresh(2)
        stack.remove(b)
        check_fresh(0)
        stack.insert(0, b)
        check_fresh(1)
        stack.pop()
        check_fresh(0)
        stack[0] = c                 # replacement gets a fresh token
        check_fresh(1)
        stack[0:2] = [a]             # slice assignment reissues
        check_fresh(1)
        stack += [b]
        check_fresh(1)
        del stack[0]
        check_fresh(0)
        stack.clear()
        assert stack.tokens() == ()

    def test_cache_token_survives_filter_id_reuse(self):
        machine = Machine("idreuse", disk_mb=64, max_records=1024)
        machine.boot()
        machine.volume.create_file("\\canary.txt", b"x")
        port = machine.kernel.disk_port
        parser = MftParser(port.read_bytes)
        benign = _NameFilter()
        port.read_filters.append(benign)
        assert "canary.txt" in {item.name for item in parser.parse()}
        token_before = parser._cache_token()

        port.read_filters.remove(benign)
        # The same object comes back as a hider: id() is identical by
        # construction, the exact aliasing an id()-derived cache key
        # cannot distinguish from the filter it replaced.
        benign.pattern = "canary.txt".encode("utf-16-le")
        port.read_filters.append(benign)
        # Under the old id()-derived key this token would compare equal
        # to token_before and the memoized namespace (with the canary)
        # would be served for a filter that hides it.
        assert parser._cache_token() != token_before
        assert "canary.txt" not in {item.name for item in parser.parse()}

    def test_filtered_port_never_populates_entries_cache(self):
        machine = Machine("a3cache", disk_mb=64, max_records=1024)
        machine.boot()
        machine.volume.create_file("\\seen.txt", b"x")
        machine.disk.raw_cache.clear()
        machine.kernel.disk_port.read_filters.append(_NameFilter())
        low_level_file_scan(machine)
        assert "file-entries" not in machine.disk.raw_cache

    def test_unfiltered_scan_caches_and_reuses_entries(self):
        machine = Machine("cachehit", disk_mb=64, max_records=1024)
        machine.boot()
        machine.volume.create_file("\\seen.txt", b"x")
        machine.disk.raw_cache.clear()
        first = low_level_file_scan(machine)
        # The disk's one view is kept under the serial of the namespace
        # the disk caches for its current generation.
        generation, namespace = machine.disk.raw_cache["mft-namespace"]
        assert generation == machine.disk.generation
        view = machine.disk.raw_cache.get("file-entries")
        assert view is not None and view.namespace == namespace.serial
        second = low_level_file_scan(machine)
        assert [e.identity for e in first.entries] \
            == [e.identity for e in second.entries]
        assert second.identities() is first.identities()
