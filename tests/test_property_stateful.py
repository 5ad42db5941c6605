"""Stateful property tests: random operation sequences keep the two
views of each substrate consistent."""

import string

from hypothesis import given, settings, strategies as st

from repro.clock import SimClock
from repro.disk import Disk, DiskGeometry
from repro.ntfs import NtfsVolume, parse_volume
from repro.registry.hive import Hive
from repro.unixsim import UnixMachine

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)

file_ops = st.lists(
    st.tuples(st.sampled_from(["create", "delete", "write", "mkdir"]),
              names,
              st.binary(max_size=600)),
    min_size=1, max_size=25)


@given(file_ops)
@settings(max_examples=30, deadline=None)
def test_volume_and_raw_mft_always_agree(operations):
    """After any operation sequence, the API namespace and the raw MFT
    parse describe the same tree — the invariant every cross-view diff
    on a clean machine relies on."""
    disk = Disk(DiskGeometry.from_megabytes(64))
    volume = NtfsVolume.format(disk, max_records=2048)
    for op, name, payload in operations:
        path = f"\\{name}"
        try:
            if op == "create":
                volume.create_file(path, payload)
            elif op == "mkdir":
                volume.create_directory(path)
            elif op == "write":
                volume.write_file(path, payload)
            elif op == "delete":
                volume.delete_file(path)
        except Exception:
            continue   # illegal op for current state; invariant still holds
    api_view = {(entry.path.casefold(), entry.is_directory,
                 entry.size if not entry.is_directory else 0)
                for entry in volume.walk()}
    raw_view = {(entry.path.casefold(), entry.is_directory,
                 entry.size if not entry.is_directory else 0)
                for entry in parse_volume(disk)}
    assert api_view == raw_view


@given(file_ops)
@settings(max_examples=20, deadline=None)
def test_remount_preserves_namespace(operations):
    """Mounting the disk cold reproduces exactly the live namespace."""
    disk = Disk(DiskGeometry.from_megabytes(64))
    volume = NtfsVolume.format(disk, max_records=2048)
    for op, name, payload in operations:
        try:
            if op in ("create", "write"):
                if volume.exists(f"\\{name}"):
                    volume.write_file(f"\\{name}", payload)
                else:
                    volume.create_file(f"\\{name}", payload)
            elif op == "delete" and volume.exists(f"\\{name}"):
                volume.delete_file(f"\\{name}")
        except Exception:
            continue
    live = {entry.path.casefold() for entry in volume.walk()}
    remounted = NtfsVolume.mount(disk)
    cold = {entry.path.casefold() for entry in remounted.walk()}
    assert live == cold


tree_paths = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                      max_size=3).map(lambda parts: "\\" + "\\".join(parts))

cached_ops = st.lists(
    st.tuples(st.sampled_from(["create", "nested", "mkdir", "write",
                               "delete", "rename", "set_times",
                               "write_stream"]),
              tree_paths, st.integers(min_value=0, max_value=63),
              st.binary(max_size=600)),
    min_size=1, max_size=30)


@given(cached_ops)
@settings(max_examples=100, deadline=None)
def test_warm_listing_cache_never_serves_a_stale_stat(operations):
    """list_directory keeps each listed record's FileStat across
    mutations; walking after every operation keeps that cache warm, and
    the final walk must still equal a cold mount's, field for field.

    Creates take a drawn path; every other operation targets an entry of
    the current walk (``pick`` indexes it), so mutations land on listed,
    cached records.  A rename moves that entry to the drawn path.
    """
    clock = SimClock()
    disk = Disk(DiskGeometry.from_megabytes(64))
    volume = NtfsVolume.format(disk, max_records=2048, clock=clock)
    listed = []
    for op, path, pick, payload in operations:
        clock.advance(1.0)
        target = listed[pick % len(listed)] if listed else None
        try:
            if op == "create":
                volume.create_file(path, payload)
            elif op == "nested":
                volume.create_directories(path.rsplit("\\", 1)[0] or "\\")
                volume.create_file(path, payload)
            elif op == "mkdir":
                volume.create_directory(path)
            elif target is None:
                pass
            elif op == "write":
                volume.write_file(target.path, payload)
            elif op == "delete":
                if target.is_directory:
                    volume.delete_directory(target.path, recursive=True)
                else:
                    volume.delete_file(target.path)
            elif op == "rename":
                volume.rename(target.path, path)
            elif op == "set_times":
                volume.set_times(target.path,
                                 modified_us=len(payload) * 1_000)
            elif op == "write_stream":
                volume.write_stream(target.path, "s", payload)
        except Exception:
            pass   # illegal op for current state; the cache must not care
        listed = list(volume.walk())
    assert list(volume.walk()) == list(NtfsVolume.mount(disk).walk())


registry_ops = st.lists(
    st.tuples(st.sampled_from(["set", "delete", "mkkey"]), names, names,
              st.text(alphabet=string.ascii_letters, max_size=15)),
    min_size=1, max_size=20)


@given(registry_ops)
@settings(max_examples=30, deadline=None)
def test_hive_serialize_parse_agree(operations):
    """The in-memory hive tree and its raw serialization always agree."""
    from repro.registry.hive_parser import parse_hive

    hive = Hive("PROP")
    for op, key_name, value_name, data in operations:
        key = hive.create_key(key_name)
        try:
            if op == "set":
                key.set_value(value_name, data)
            elif op == "delete":
                key.delete_value(value_name)
            elif op == "mkkey":
                key.create_subkey(value_name)
        except Exception:
            continue
    parsed = parse_hive(hive.serialize())

    def tree_of_live(key):
        return (sorted((v.name, v.raw_bytes()) for v in key.values()),
                {child.name: tree_of_live(child)
                 for child in key.subkeys()})

    def tree_of_parsed(key):
        return (sorted((v.name, v.raw_data) for v in key.values),
                {child.name: tree_of_parsed(child)
                 for child in key.subkeys})

    assert tree_of_live(hive.root) == tree_of_parsed(parsed.root)


unix_ops = st.lists(
    st.tuples(st.sampled_from(["write", "unlink", "mkdir"]), names),
    min_size=1, max_size=20)


@given(unix_ops)
@settings(max_examples=30, deadline=None)
def test_unix_ls_equals_truth_when_clean(operations):
    """On an unhooked Unix machine the inside ls equals the clean-CD
    walk — zero-FP by construction."""
    from repro.unixsim.userland import pristine_ls

    machine = UnixMachine("prop")
    for op, name in operations:
        path = f"/tmp/{name}"
        try:
            if op == "write":
                machine.fs.write_file(path, b"x")
            elif op == "unlink":
                machine.fs.unlink(path)
            elif op == "mkdir":
                machine.fs.mkdir_p(path)
        except Exception:
            continue
    inside = set(pristine_ls(machine, "/"))
    truth = {path for path, __ in machine.fs.walk("/")}
    assert inside == truth
