"""Report serialization: JSON and plain-text renderings.

Enterprise deployments (fleet epochs, scheduled daily scans) need
reports that survive the scanning session — this module renders a
:class:`~repro.core.diff.DetectionReport` to a stable JSON document and
back-of-the-envelope text, and can write either onto a machine's own
volume (the paper's flow saves scan results to files for later
comparison).
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.core.diff import DetectionReport, Finding, ScanConfidence
from repro.core.snapshot import (FileEntry, ModuleEntry, ProcessEntry,
                                 RegistryHookEntry, ResourceType)


def _entry_to_dict(entry) -> Dict:
    if isinstance(entry, FileEntry):
        return {"path": entry.path, "name": entry.name,
                "is_directory": entry.is_directory, "size": entry.size}
    if isinstance(entry, RegistryHookEntry):
        return {"location": entry.location, "key_path": entry.key_path,
                "name": entry.name, "data": entry.data}
    if isinstance(entry, ProcessEntry):
        return {"pid": entry.pid, "name": entry.name}
    if isinstance(entry, ModuleEntry):
        return {"pid": entry.pid, "process_name": entry.process_name,
                "module_path": entry.module_path}
    return {"describe": entry.describe()}


def finding_to_dict(finding: Finding) -> Dict:
    """One finding as a JSON-ready dict."""
    out = {
        "resource_type": finding.resource_type.value,
        "lie_view": finding.lie_view,
        "truth_view": finding.truth_view,
        "noise_reason": finding.noise_reason,
        "entry": _entry_to_dict(finding.entry),
    }
    if finding.unstable:
        # Only-when-true keeps pre-stealth report digests byte-stable.
        out["unstable"] = True
    return out


def report_to_dict(report: DetectionReport) -> Dict:
    """The whole report as a JSON-ready dict (stable field set)."""
    return {
        "machine": report.machine_name,
        "mode": report.mode,
        "verdict": "clean" if report.is_clean else "infected",
        "durations": dict(report.durations),
        "total_duration": report.total_duration(),
        "findings": [finding_to_dict(finding)
                     for finding in report.findings],
        "confidence": {layer: value.value
                       for layer, value in report.confidence.items()},
        "layer_errors": dict(report.layer_errors),
        "rounds": report.rounds,
        "counts": {
            "hidden_files": len(report.hidden_files()),
            "hidden_hooks": len(report.hidden_hooks()),
            "hidden_processes": len(report.hidden_processes()),
            "hidden_modules": len(report.hidden_modules()),
            "noise": len(report.noise()),
        },
    }


def report_to_json(report: DetectionReport, indent: int = 2) -> str:
    """Stable JSON rendering (NULs in registry names are escaped)."""
    return json.dumps(report_to_dict(report), indent=indent,
                      sort_keys=True)


def entry_from_dict(resource_type: ResourceType, payload: Dict):
    """Inverse of :func:`_entry_to_dict` for the four typed entries."""
    if resource_type is ResourceType.FILE:
        return FileEntry(path=payload["path"], name=payload["name"],
                         is_directory=payload["is_directory"],
                         size=payload["size"])
    if resource_type is ResourceType.REGISTRY:
        return RegistryHookEntry(location=payload["location"],
                                 key_path=payload["key_path"],
                                 name=payload["name"], data=payload["data"])
    if resource_type is ResourceType.PROCESS:
        return ProcessEntry(pid=payload["pid"], name=payload["name"])
    if resource_type is ResourceType.MODULE:
        return ModuleEntry(pid=payload["pid"],
                           process_name=payload["process_name"],
                           module_path=payload["module_path"])
    raise ValueError(f"cannot rebuild entry for {resource_type}")


def finding_from_dict(payload: Dict) -> Finding:
    """Inverse of :func:`finding_to_dict`."""
    resource_type = ResourceType(payload["resource_type"])
    return Finding(resource_type=resource_type,
                   entry=entry_from_dict(resource_type, payload["entry"]),
                   lie_view=payload["lie_view"],
                   truth_view=payload["truth_view"],
                   noise_reason=payload.get("noise_reason"),
                   unstable=bool(payload.get("unstable", False)))


def report_from_dict(document: Dict) -> DetectionReport:
    """Rebuild a report from :func:`report_to_dict` output.

    The round-trip is what lets a delta sweep serve an unchanged
    machine's verdict from its stored baseline without re-scanning —
    findings, per-layer confidence and durations all survive.
    """
    return DetectionReport(
        machine_name=document["machine"],
        mode=document["mode"],
        findings=[finding_from_dict(finding)
                  for finding in document.get("findings", ())],
        durations=dict(document.get("durations", {})),
        confidence={layer: ScanConfidence(value) for layer, value
                    in document.get("confidence", {}).items()},
        layer_errors=dict(document.get("layer_errors", {})),
        rounds=document.get("rounds", 1),
    )


def load_report_dict(text: str) -> Dict:
    """Parse a previously serialized report (schema-checked lightly)."""
    document = json.loads(text)
    for field in ("machine", "mode", "verdict", "findings", "counts"):
        if field not in document:
            raise ValueError(f"not a GhostBuster report: missing {field}")
    return document


def save_report_to_volume(machine, report: DetectionReport,
                          path: str = "\\gb_report.json") -> str:
    """Persist the report onto the machine's own volume."""
    blob = report_to_json(report).encode("utf-8")
    if machine.volume.exists(path):
        machine.volume.write_file(path, blob)
    else:
        machine.volume.create_file(path, blob)
    return path


def summarize_findings(findings: List[Finding]) -> Dict[str, int]:
    """Counts per resource type, noise excluded."""
    counts = {resource.value: 0 for resource in ResourceType}
    for finding in findings:
        if not finding.is_noise:
            counts[finding.resource_type.value] += 1
    return counts
