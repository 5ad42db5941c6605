"""The program names the benchmark binds to from outside the program.

``fleetbench/`` times the production paths by patching about sixty
program names for the length of a run: ``layers.py`` wraps each
function of ``FUNCTIONS`` at every ``repro`` binding of it (and checks
the ``CALLER_BINDINGS`` among them) and each method of ``METHODS``,
looked up as ``cls.__dict__[attr]``; ``probe.py`` wraps the lease, ack,
epoch and agent boundaries and the fleet builder in every run, traced
or not.  Renaming or deleting any of those names makes the benchmark
run itself fail.  This test installs both in-process, from the
benchmark's own modules (read, never changed), and checks that
uninstalling restores every original.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import repro.console.index  # noqa: F401  (layers.py wraps JournalIndex)
import repro.fleet  # noqa: F401  (loads every by-name caller binding)
from repro.fleet import coordinator, scanwork

FLEETBENCH = Path(__file__).resolve().parent.parent / "fleetbench"
_MODULES = ("hostspeed", "tracer", "layers", "probe")
_MISSING = object()


@pytest.fixture
def fleetbench(monkeypatch):
    """fleetbench's ``tracer``, ``layers`` and ``probe`` modules, loaded
    from ``fleetbench/`` and dropped from ``sys.modules`` afterwards."""
    monkeypatch.syspath_prepend(str(FLEETBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in _MODULES}
    for name in _MODULES:
        sys.modules.pop(name, None)


def _namespaces() -> dict:
    """Every loaded ``repro`` module's and class's attribute table."""
    tables = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        tables[name] = dict(vars(module))
        for key, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                tables[f"{name}.{key}"] = dict(vars(value))
    return tables


def test_benchmark_layers_and_probe_install_and_restore(fleetbench):
    skip_verdict = scanwork.skip_verdict
    before = _namespaces()
    tracer = fleetbench["tracer"].LayerTracer()
    probe = fleetbench["probe"].EpochProbe()
    try:
        fleetbench["layers"].install_layers(tracer)
        probe.install()
        # Wrapped where the coordinator looks it up, not only at home.
        assert coordinator.skip_verdict is not skip_verdict
        assert scanwork.skip_verdict is not skip_verdict
    finally:
        probe.uninstall()
        tracer.uninstall()
    assert coordinator.skip_verdict is scanwork.skip_verdict is skip_verdict
    after = _namespaces()
    for table, entries in before.items():
        changed = [key for key, value in entries.items()
                   if after[table].get(key, _MISSING) is not value]
        assert not changed, (table, changed)
