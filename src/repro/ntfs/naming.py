r"""Win32 vs native (NT) naming rules.

Section 2 of the paper describes a file-hiding technique that needs no
hooking at all: NTFS itself accepts names the Win32 layer refuses — trailing
dots or spaces, reserved device names (``CON``, ``NUL``, ``COM1``...),
over-``MAX_PATH`` full paths — so a file created through the Native API with
such a name is invisible to Win32 enumeration.  This module defines which
names each layer accepts; kernel32 applies the Win32 rules to what the API
lists (:mod:`repro.winapi.kernel32`), and the raw views apply none.

Paths are volume-rooted, backslash separated (``\Windows\System32\x.dll``),
case-insensitive for lookup and case-preserving for storage, as on NTFS.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Tuple

from repro.errors import InvalidWin32Name

MAX_PATH = 260
MAX_COMPONENT = 255

RESERVED_DEVICE_NAMES = frozenset(
    ["CON", "PRN", "AUX", "NUL"]
    + [f"COM{i}" for i in range(1, 10)]
    + [f"LPT{i}" for i in range(1, 10)]
)

INVALID_WIN32_CHARS = frozenset('<>:"/|?*' + "".join(chr(c) for c in range(32)))

SEPARATOR = "\\"

# Bound of the Win32 name-rule memo: room for every distinct name a
# large fleet workload lists (about 18k), so it pays across epochs.
WIN32_NAME_MEMO = 1 << 15


# --- path algebra -------------------------------------------------------------

def normalize_key(path: str) -> str:
    """Case-fold a path for dictionary lookup (NTFS is case-insensitive)."""
    return path.casefold()


def split_path(path: str) -> List[str]:
    r"""Split ``\a\b\c`` into ``['a', 'b', 'c']``; the root is ``[]``."""
    if not path.startswith(SEPARATOR):
        raise ValueError(f"paths must be volume-rooted with '\\': {path!r}")
    trimmed = path[1:]
    if not trimmed:
        return []
    return trimmed.split(SEPARATOR)


def join_path(components: Iterable[str]) -> str:
    r"""Inverse of :func:`split_path`; ``[]`` joins to the root ``\``."""
    parts = list(components)
    return SEPARATOR + SEPARATOR.join(parts)


def parent_and_name(path: str) -> Tuple[str, str]:
    r"""Split ``\a\b\c`` into (``\a\b``, ``c``).  The root has no parent."""
    components = split_path(path)
    if not components:
        raise ValueError("the root directory has no parent")
    return join_path(components[:-1]), components[-1]


def basename(path: str) -> str:
    """The final component of a path (empty string for the root)."""
    components = split_path(path)
    return components[-1] if components else ""


# --- Win32 validity -------------------------------------------------------------

def component_base(name: str) -> str:
    """The part of a component compared against reserved device names."""
    return name.split(".")[0].strip().upper()


def win32_component_violations(name: str) -> List[str]:
    """Return human-readable reasons ``name`` is not a legal Win32 component.

    An empty list means the component is Win32-legal.
    """
    violations: List[str] = []
    if not name:
        violations.append("empty component")
        return violations
    if name in (".", ".."):
        violations.append("relative component")
    bad_chars = sorted({c for c in name if c in INVALID_WIN32_CHARS or c == SEPARATOR})
    if bad_chars:
        violations.append("invalid characters: " + ", ".join(repr(c) for c in bad_chars))
    if name.endswith(".") or name.endswith(" "):
        violations.append("trailing dot or space")
    if component_base(name) in RESERVED_DEVICE_NAMES:
        violations.append(f"reserved device name {component_base(name)!r}")
    if len(name) > MAX_COMPONENT:
        violations.append(f"component longer than {MAX_COMPONENT} characters")
    return violations


@functools.lru_cache(maxsize=WIN32_NAME_MEMO)
def is_valid_win32_component(name: str) -> bool:
    """True when the Win32 layer would accept ``name`` as a path component."""
    return not win32_component_violations(name)


def validate_win32_component(name: str) -> None:
    """Raise :class:`InvalidWin32Name` when the component is Win32-illegal."""
    violations = win32_component_violations(name)
    if violations:
        raise InvalidWin32Name(f"{name!r}: " + "; ".join(violations))


def is_valid_native_component(name: str) -> bool:
    r"""The Native API only forbids empty names, NUL, and the separator."""
    if not name or name in (".", ".."):
        return False
    return "\x00" not in name and SEPARATOR not in name
