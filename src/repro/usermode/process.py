"""User-mode processes.

A :class:`Process` is the *caller's* side of the API stack: its Import
Address Table and its private copies of loaded module code (CodeSites).
``process.call("kernel32", "FindFirstFile", path)`` resolves exactly the
way a real call does — IAT first, then the module's in-memory code — so
per-process interception (IAT hooks, inline patches) affects this process
and only this process.

Processes are created by the :class:`~repro.machine.Machine`, which pairs
each one with its kernel-side EPROCESS/PEB and populates the standard
module set (ntdll, kernel32, advapi32, user32).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ApiError
from repro.telemetry import context as telemetry_context
from repro.telemetry.audit import LAYER_IAT
from repro.winapi.hooks import ApiImpl, CodeSite, ModuleCode


@dataclass
class IatEntry:
    """One redirected import: the trojan target plus attribution."""

    target: ApiImpl
    owner: str


class Process:
    """One user-mode process and its private API-resolution state."""

    def __init__(self, pid: int, name: str, image_path: str, kernel,
                 machine=None):
        self.pid = pid
        self.name = name
        self.image_path = image_path
        self.kernel = kernel
        self.machine = machine
        self.iat: Dict[Tuple[str, str], IatEntry] = {}
        self.modules: Dict[str, ModuleCode] = {}
        self._handles: Dict[int, List] = {}
        self._handle_positions: Dict[int, int] = {}
        self._next_handle = 1
        self.alive = True

    # -- module management -----------------------------------------------------

    def map_module(self, name: str, exports: Dict[str, ApiImpl]) -> ModuleCode:
        """Map a DLL image into this process (private code copy)."""
        module = ModuleCode(name, exports)
        self.modules[name.casefold()] = module
        return module

    def module(self, name: str) -> ModuleCode:
        module = self.modules.get(name.casefold())
        if module is None:
            raise ApiError(f"{name} is not loaded in {self.name}")
        return module

    def code_site(self, module: str, function: str) -> CodeSite:
        return self.module(module).site(function)

    # -- API call resolution ------------------------------------------------------

    def call(self, module: str, function: str, *args):
        """Invoke an API the way compiled code would.

        Resolution order is the real one: the process's IAT entry for this
        import, else the module's in-memory code.
        """
        key = module.casefold()
        entry = self.iat.get((key, function)) if self.iat else None
        if entry is not None:
            audit = telemetry_context.current_audit()
            if audit is not None:
                audit.record(LAYER_IAT, f"{module}!{function}",
                             kind="iat", owner=entry.owner,
                             pid=self.pid, process=self.name)
            return entry.target(self, *args)
        code = self.modules.get(key)
        if code is None:
            raise ApiError(f"{module} is not loaded in {self.name}")
        return code.site(function).call(self, *args)

    # -- IAT manipulation ------------------------------------------------------------

    def hook_iat(self, module: str, function: str, target: ApiImpl,
                 owner: str) -> None:
        """Redirect an import to a trojan function (Urbin/Mersting style)."""
        self.iat[(module.casefold(), function)] = IatEntry(target, owner)

    def unhook_iat(self, module: str, function: str) -> None:
        self.iat.pop((module.casefold(), function), None)

    # -- enumeration handles -------------------------------------------------------------

    def open_handle(self, items: List) -> int:
        """Back a FindFirstFile / Toolhelp-style enumeration."""
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = list(items)
        self._handle_positions[handle] = 0
        return handle

    def advance_handle(self, handle: int):
        """Next item for a handle, or None when exhausted."""
        if handle not in self._handles:
            raise ApiError(f"invalid handle {handle}")
        position = self._handle_positions[handle]
        items = self._handles[handle]
        if position >= len(items):
            return None
        self._handle_positions[handle] = position + 1
        return items[position]

    def close_handle(self, handle: int) -> None:
        self._handles.pop(handle, None)
        self._handle_positions.pop(handle, None)

    def __repr__(self) -> str:
        return f"<Process pid={self.pid} {self.name!r}>"


ProcessStartHook = Callable[[Process], None]
