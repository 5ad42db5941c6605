"""Telemetry core: tracer spans, metrics registry, audit log, context,
and the cost of instrumentation on uninstrumented runs, counted."""

import json
import tempfile
import threading

import pytest

from repro.clock import SimClock
from repro.disk import Disk, DiskGeometry
from repro.faults import context as faults_context
from repro.fleet import EscalationPolicy, FleetCoordinator
from repro.ghostware import HackerDefender
from repro.ntfs import MftParser, NtfsVolume
from repro.registry import hive_parser
from repro.telemetry import Telemetry
from repro.telemetry import context as telemetry_context
from repro.telemetry.audit import (AuditLog, LAYER_IAT, LAYER_INLINE,
                                   LAYER_SSDT, resource_of)
from repro.telemetry.metrics import (DEFAULT_BUCKETS, CounterHandle,
                                     MetricsRegistry)
from repro.telemetry.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.workloads.scenarios import build_home_pc


# -- tracer -------------------------------------------------------------------


class TestTracer:

    def test_spans_nest_and_record_both_clocks(self):
        clock = SimClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            clock.advance(10.0)
            with tracer.span("inner", detail="x") as inner:
                clock.advance(2.5)
            outer.set(entries=7)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.sim_seconds == pytest.approx(2.5)
        assert outer.sim_seconds == pytest.approx(12.5)
        assert outer.wall_seconds >= inner.wall_seconds >= 0.0
        assert outer.attrs["entries"] == 7
        assert inner.attrs["detail"] == "x"

    def test_sibling_ordering_preserved(self):
        tracer = Tracer()
        with tracer.span("root"):
            for index in range(3):
                with tracer.span(f"child-{index}"):
                    pass
        (root,) = tracer.roots()
        assert [child.name for child in root.children] == \
            ["child-0", "child-1", "child-2"]

    def test_exception_unwinds_span_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        with tracer.span("after"):
            pass
        names = [span.name for span in tracer.roots()]
        assert names == ["outer", "after"]
        # both spans were closed despite the exception
        assert all(span.wall_end is not None for span in tracer.spans())

    def test_jsonl_export_parent_links(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        records = [json.loads(line) for line in
                   tracer.to_jsonl().splitlines()]
        by_name = {record["name"]: record for record in records}
        assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
        assert by_name["a"]["parent_id"] is None

    def test_render_shows_tree(self):
        tracer = Tracer()
        with tracer.span("scan", machine="pc"):
            with tracer.span("parse"):
                pass
        rendered = tracer.render()
        assert "scan" in rendered
        assert "\n  parse" in rendered
        assert "machine=pc" in rendered

    def test_null_tracer_is_inert_and_shared(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", attr=1)
        with span as inner:
            assert inner is NULL_SPAN
        inner.set(foo=1)   # never raises, never stores

    def test_per_thread_stacks_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)
        errors = []

        def worker(name):
            try:
                barrier.wait()
                for index in range(20):
                    with tracer.span(f"{name}-outer-{index}"):
                        with tracer.span(f"{name}-inner-{index}"):
                            pass
            except Exception as exc:   # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        roots = tracer.roots()
        assert len(roots) == 80   # 4 threads x 20 outers, all roots
        for root in roots:
            prefix = root.name.rsplit("-outer-", 1)
            assert len(root.children) == 1
            child = root.children[0]
            # the inner span belongs to the same thread's same iteration
            assert child.name == f"{prefix[0]}-inner-{prefix[1]}"
            assert child.thread == root.thread


# -- metrics ------------------------------------------------------------------


class TestMetrics:

    def test_counters_gauges(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 2.5)
        registry.gauge("g", 7.0)
        assert registry.counter("a") == pytest.approx(3.5)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == pytest.approx(3.5)
        assert snap["gauges"]["g"] == 7.0

    def test_counter_handles_fold_into_reads(self):
        registry = MetricsRegistry()
        handle = registry.counter_handle("hot")
        handle.add()
        handle.add(2.0)
        registry.incr("hot", 10.0)
        assert registry.counter("hot") == pytest.approx(13.0)
        assert registry.snapshot()["counters"]["hot"] == pytest.approx(13.0)
        assert registry.counter_handle("hot") is handle

    def test_reset_zeroes_handles_in_place(self):
        registry = MetricsRegistry()
        handle = registry.counter_handle("hot")
        handle.add(5.0)
        registry.reset()
        assert registry.counter("hot") == 0.0
        handle.add()   # old reference still live and counted
        assert registry.counter("hot") == 1.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        registry.observe("h", 0.005)
        registry.observe("h", 5.0)
        registry.observe("h", 10_000.0)   # beyond the largest bound
        hist = registry.snapshot()["histograms"]["h"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(10_005.005)
        assert hist["counts"][DEFAULT_BUCKETS.index(0.01)] == 1
        assert hist["counts"][DEFAULT_BUCKETS.index(10.0)] == 1
        assert hist["counts"][-1] == 1   # +Inf overflow

    def test_dump_text_prometheus_flavour(self):
        registry = MetricsRegistry()
        registry.incr("c", 2)
        registry.observe("h", 0.5)
        text = registry.dump_text()
        assert "c 2" in text
        assert 'h{le="+Inf"}' in text
        assert "h_count 1" in text

    def test_parallel_incr_is_exact(self):
        registry = MetricsRegistry()

        def worker():
            for __ in range(500):
                registry.incr("shared")

        threads = [threading.Thread(target=worker) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared") == 4000


# -- instrumentation cost -----------------------------------------------------


@pytest.fixture
def instrumentation_calls(monkeypatch):
    """Every instrumentation call made during the test, by method name.

    Counted: the registry's ``incr``/``gauge``/``observe``, a counter
    handle's ``add`` and the no-op tracer's ``span``.  The suite's
    chaos plan is uninstalled meanwhile, so no retry moves a count.
    """
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((MetricsRegistry, "incr"),
                        (MetricsRegistry, "gauge"),
                        (MetricsRegistry, "observe"),
                        (CounterHandle, "add"), (NullTracer, "span")):
        count(owner, name)
    previous = faults_context.install_global_plan(None)
    try:
        yield calls
    finally:
        faults_context.install_global_plan(previous)


class TestInstrumentationCost:
    """Inactive telemetry costs a fixed number of calls per unit of
    work, never one per record: counts, not timings, so the gate holds
    on any host."""

    @pytest.mark.parametrize("file_count", [120, 1000])
    def test_read_loop_pays_one_call_per_read(self, instrumentation_calls,
                                              file_count):
        disk = Disk(DiskGeometry.from_megabytes(256))
        volume = NtfsVolume.format(disk, max_records=file_count * 2 + 64)
        volume.create_directories("\\data")
        for index in range(file_count):
            volume.create_file(f"\\data\\file{index:05d}.bin", b"x" * 100)
        reads = 500
        disk.raw_cache.clear()
        del instrumentation_calls[:]
        parser = MftParser(disk.read_bytes)
        for index in range(reads):
            assert parser.read_file_content(
                f"\\data\\file{index % file_count:05d}.bin")
        # One counter add per read, one span for the cold parse.
        assert len(instrumentation_calls) == reads + 1

    def test_epoch_calls_do_not_grow_with_files(self,
                                                instrumentation_calls):
        def epoch_calls(files):
            hive_parser.clear_hive_cache()
            machines = [build_home_pc(
                f"m{index}", HackerDefender() if index == 1 else None,
                files=files, seed=3 + index, with_services=False).machine
                for index in range(3)]
            counts = []
            with tempfile.TemporaryDirectory() as fleet_dir:
                coordinator = FleetCoordinator(
                    fleet_dir, machines, policy=EscalationPolicy("winpe"))
                for epoch in ("cold", "delta", "steady"):
                    if epoch == "delta":
                        machines[0].volume.create_file(
                            "\\Temp\\delta.bin", b"delta")
                    del instrumentation_calls[:]
                    scanned = coordinator.run_epoch().summary.scanned
                    assert scanned == {"cold": 3, "delta": 1,
                                       "steady": 0}[epoch]
                    counts.append(len(instrumentation_calls))
            return counts

        small, large = epoch_calls(30), epoch_calls(120)
        assert all(count > 0 for count in small)
        assert all(big <= 1.05 * few for big, few in zip(large, small)), \
            (small, large)


# -- audit --------------------------------------------------------------------


class TestAudit:

    def test_record_and_aggregate(self):
        audit = AuditLog()
        audit.record(LAYER_INLINE, "ntdll!NtQueryDirectoryFile",
                     kind="inline_detour", owner="hxdef", pid=7)
        audit.record(LAYER_INLINE, "ntdll!NtQueryDirectoryFile",
                     kind="inline_detour", owner="hxdef", pid=7)
        audit.record(LAYER_IAT, "kernel32!FindFirstFile",
                     kind="iat", owner="urbin", pid=7)
        assert len(audit) == 3
        aggregated = audit.aggregate()
        assert aggregated[(LAYER_INLINE, "ntdll!NtQueryDirectoryFile",
                           "hxdef", "inline_detour")] == 2
        assert audit.owners() == ["hxdef", "urbin"]

    def test_record_once_dedupes(self):
        audit = AuditLog()
        for __ in range(100):
            audit.record_once("raw-port", "raw-port:read_bytes",
                              owner="scrubber")
        assert len(audit) == 1

    def test_interposed_apis_by_resource(self):
        audit = AuditLog()
        audit.record(LAYER_INLINE, "ntdll!NtQueryDirectoryFile",
                     owner="g")
        audit.record(LAYER_SSDT, "SSDT:enumerate_key", owner="g")
        assert audit.interposed_apis(resource="file") == \
            ["ntdll!NtQueryDirectoryFile"]
        assert audit.interposed_apis(resource="registry") == \
            ["SSDT:enumerate_key"]
        assert len(audit.interposed_apis()) == 2

    def test_resource_of_classification(self):
        assert resource_of("ntdll!NtQueryDirectoryFile") == "file"
        assert resource_of("advapi32!RegEnumValue") == "registry"
        assert resource_of("kernel32!CreateToolhelp32Snapshot") == "process"
        assert resource_of("SSDT:enumerate_key") == "registry"
        assert resource_of("something!Unknown") == ""


# -- context ------------------------------------------------------------------


class TestContext:

    def test_defaults_when_inactive(self):
        assert telemetry_context.current_tracer() is NULL_TRACER
        assert telemetry_context.current_audit() is None

    def test_activation_and_restore(self):
        telemetry = Telemetry.enabled()
        with telemetry.activate():
            assert telemetry_context.current_tracer() is telemetry.tracer
            assert telemetry_context.current_audit() is telemetry.audit
        assert telemetry_context.current_tracer() is NULL_TRACER
        assert telemetry_context.current_audit() is None

    def test_activation_is_reentrant(self):
        outer = Telemetry.enabled()
        inner = Telemetry.enabled()
        with outer.activate():
            with inner.activate():
                assert telemetry_context.current_tracer() is inner.tracer
            assert telemetry_context.current_tracer() is outer.tracer

    def test_activation_is_thread_local(self):
        telemetry = Telemetry.enabled()
        seen = {}

        def other_thread():
            seen["tracer"] = telemetry_context.current_tracer()

        with telemetry.activate():
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        assert seen["tracer"] is NULL_TRACER

    def test_disabled_telemetry_is_noop(self):
        telemetry = Telemetry.disabled()
        assert not telemetry.is_enabled
        with telemetry.activate():
            assert telemetry_context.current_tracer() is NULL_TRACER
