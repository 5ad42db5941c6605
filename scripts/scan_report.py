#!/usr/bin/env python
"""Render a fleet epochs journal as an operator report.

Usage::

    PYTHONPATH=src python scripts/scan_report.py FLEET_DIR/epochs.jsonl
    PYTHONPATH=src python scripts/scan_report.py --demo [--delta] [--out DIR]

The input is a ``repro.fleet`` epochs journal (``epochs.jsonl``:
``epoch-start``, ``fleet-machine``, ``fleet-outbreak``,
``fleet-campaign``, ``fleet-agent``, ``epoch-end`` records), rendered as
an epoch-by-epoch report with escalation provenance, outbreak alerts,
and the cross-epoch campaign timeline.  A bench results JSON with a
``stealth_campaign`` section (the committed ``BENCH_PR10.json``) is
also accepted and rendered as the per-stealth-level detection columns
(docs/adversary.md).  Any other file is rejected with a non-zero exit.

``--demo`` runs one coordinator epoch over a small fleet (one infected
client, confirmed by a RIS network boot) into ``--out`` (default: a new
temp dir) and renders its journal; ``--delta`` adds a second epoch after
one client changes on disk, which rescans that client and skips the rest.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.telemetry.journal_io import read_grouped   # noqa: E402


def render_fleet(records: dict) -> str:
    """Render a fleet epochs journal (``repro.fleet`` coordinator)."""
    lines = []
    for start in records.get("epoch-start", []):
        lines.append(f"epoch {start.get('epoch', '?')} opened over "
                     f"{start.get('machines', '?')} machine(s) at "
                     f"t={start.get('at', 0.0):.1f}s")
    verdicts = records.get("fleet-machine", [])
    if verdicts:
        header = (f"{'machine':<14} {'ep':>3} {'verdict':<9} "
                  f"{'mode':<8} {'findings':>8} {'sim(s)':>8} escalation")
        lines += [header, "-" * len(header)]
        for verdict in verdicts:
            if verdict.get("skipped"):
                mode = "skip"
            elif verdict.get("sampling_escalated"):
                mode = "sam>full"
            elif verdict.get("sampled"):
                coverage = verdict.get("coverage", 1.0)
                mode = f"samp{round(coverage * 100):>3d}%"
            else:
                mode = "scan"
            escalation = ""
            if verdict.get("escalated"):
                escalation = (f"confirmed by {verdict['confirmed_by']}"
                              if verdict.get("confirmed")
                              else "escalated, unconfirmed")
            if verdict.get("error"):
                escalation = verdict["error"]
            lines.append(
                f"{verdict.get('machine', '?'):<14} "
                f"{verdict.get('epoch', 0):>3d} "
                f"{verdict.get('verdict', '?'):<9} {mode:<8} "
                f"{verdict.get('findings', 0):>8d} "
                f"{verdict.get('scan_seconds', 0.0):>8.1f} {escalation}")
    outbreaks = records.get("fleet-outbreak", [])
    for outbreak in outbreaks:
        lines.append(f"OUTBREAK epoch {outbreak.get('epoch', '?')}: "
                     f"{outbreak.get('identity')!r} on "
                     f"{len(outbreak.get('machines', []))} machine(s): "
                     + ", ".join(outbreak.get("machines", [])))
    # Campaign timeline: cross-epoch correlation over rotation-tolerant
    # fuzzy fingerprints — one line per underlying campaign, however
    # many exact identities it rotated through (docs/adversary.md).
    for campaign in records.get("fleet-campaign", []):
        lines.append(
            f"CAMPAIGN {campaign.get('fingerprint')!r}: "
            f"{len(campaign.get('machines', []))} machine(s) since "
            f"epoch {campaign.get('first_epoch', '?')}, "
            f"{len(campaign.get('identities', []))} rotated "
            f"identity(ies): " + ", ".join(campaign.get("machines", [])))
    agents = {}
    for record in records.get("fleet-agent", []):
        agents[record.get("agent", "?")] = record
    if agents:
        lines.append("agents (distributed mode, last state):")
        for name in sorted(agents):
            agent = agents[name]
            lines.append(
                f"  {name:<14} {agent.get('state', '?'):<9} "
                f"acks={agent.get('acks', 0)} "
                f"reconnects={agent.get('reconnects', 0)} "
                f"last={agent.get('event', '?')}"
                + (f" reclaimed={','.join(agent['reclaimed'])}"
                   if agent.get("reclaimed") else ""))
    ends = records.get("epoch-end", [])
    if ends:
        lines.append("epochs:")
        for end in ends:
            late = end.get("late_acks", 0)
            sampled = end.get("sampled", 0)
            sampling = ""
            if sampled:
                recall = end.get("estimated_recall", 1.0)
                sampling = (f", {sampled} sampled "
                            f"({end.get('sampling_escalations', 0)} "
                            f"escalated by sampling, "
                            f"est. recall {recall * 100:.1f}%)")
            lines.append(
                f"  epoch {end.get('epoch', '?')}: "
                f"{end.get('machines', 0)} machine(s), "
                f"{end.get('scanned', 0)} scanned / "
                f"{end.get('skipped', 0)} skipped, "
                f"{end.get('infected', 0)} infected, "
                f"{end.get('escalated', 0)} escalated "
                f"({end.get('confirmed', 0)} confirmed), "
                f"{end.get('errors', 0)} error(s), "
                f"{end.get('outbreaks', 0)} outbreak(s), "
                f"{end.get('scan_seconds', 0.0):.1f}s of scanning"
                + sampling
                + (f", {late} late ack(s) dropped" if late else ""))
    return "\n".join(lines)


def is_fleet_journal(records: dict) -> bool:
    return bool(records.get("fleet-machine") or records.get("epoch-end")
                or records.get("epoch-start"))


def bench_document(text: str):
    """The bench JSON object ``text`` holds, or None for a journal.

    A bench file is one JSON object over one or more lines; so is a
    one-record journal, but every journal record carries a ``type``.
    """
    if not text.lstrip().startswith("{") or "\n{" in text:
        return None
    try:
        document = json.loads(text)
    except ValueError:
        return None
    if not isinstance(document, dict) or "type" in document:
        return None
    return document


def render_stealth_curve(payload: dict) -> str:
    """Per-stealth-level detection columns from a bench results JSON
    (the committed ``BENCH_PR10.json``), which carries the curve under
    ``stealth_campaign``.
    """
    stealth = payload.get("stealth_campaign")
    if not stealth:
        return "no stealth_campaign section in this bench file"
    lines = [f"stealth campaign curve ({stealth.get('fleet_size', '?')} "
             f"machines x {stealth.get('epochs', '?')} epochs)"]
    header = (f"{'level':<9} {'naive P':>8} {'naive R':>8} "
              f"{'def P':>6} {'def R':>6} {'outbreaks':>9} "
              f"{'campaigns':>9} {'probe':>6}")
    lines += [header, "-" * len(header)]
    for point in stealth.get("curve", []):
        naive, defended = point.get("naive", {}), point.get("defended", {})
        probe = defended.get("probe_hit_rate")
        lines.append(
            f"{point.get('level', '?'):<9} "
            f"{naive.get('precision', 0.0):>8.2f} "
            f"{naive.get('recall', 0.0):>8.2f} "
            f"{defended.get('precision', 0.0):>6.2f} "
            f"{defended.get('recall', 0.0):>6.2f} "
            f"{defended.get('outbreak_alerts', 0):>9d} "
            f"{defended.get('campaign_alerts', 0):>9d} "
            + (f"{probe:>6.2f}" if probe is not None else f"{'n/a':>6}"))
    determinism = stealth.get("determinism", {})
    if determinism:
        lines.append(f"determinism: reruns identical "
                     f"{determinism.get('runs_identical')}")
    return "\n".join(lines)


def run_demo(fleet_dir: Path, delta: bool = False) -> Path:
    """One coordinator epoch (two with ``delta``) over a demo fleet."""
    from repro.fleet import EscalationPolicy, FleetCoordinator
    from repro.ghostware import HackerDefender
    from repro.machine import Machine

    machines = []
    for index in range(3):
        machine = Machine(f"client-{index}", disk_mb=256, max_records=8192)
        machine.boot()
        machines.append(machine)
    HackerDefender().install(machines[1])
    coordinator = FleetCoordinator(str(fleet_dir), machines,
                                   policy=EscalationPolicy("ris"))
    coordinator.run_epoch()
    if delta:
        machines[2].volume.create_file("\\Temp\\dropped.txt", b"payload")
        coordinator.run_epoch()
    return Path(coordinator.epochs_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Render a fleet epochs journal")
    parser.add_argument("jsonl", nargs="?",
                        help="epochs.jsonl (or a bench JSON)")
    parser.add_argument("--demo", action="store_true",
                        help="run a demo coordinator epoch first")
    parser.add_argument("--delta", action="store_true",
                        help="make --demo change one client and run a "
                             "second (delta) epoch")
    parser.add_argument("--out", default=None,
                        help="fleet directory --demo writes (default: a "
                             "new temp dir)")
    options = parser.parse_args(argv)

    if options.demo:
        fleet_dir = Path(options.out or tempfile.mkdtemp(
            prefix="gb-report-"))
        path = run_demo(fleet_dir, delta=options.delta)
        print(f"wrote {path}\n")
    elif options.jsonl:
        path = Path(options.jsonl)
    else:
        parser.error("give a JSONL file or --demo")
    bench = bench_document(path.read_text())
    if bench is not None:
        # A bench JSON artifact, not a journal: render the per-level
        # stealth detection columns (docs/adversary.md).
        print(render_stealth_curve(bench))
        return 0
    def warn(line_no: int, reason: str, *_) -> None:
        # A torn line (a writer killed mid-record) costs only itself.
        print(f"{path}:{line_no}: skipping torn line ({reason})",
              file=sys.stderr)

    records = read_grouped(path, on_torn=warn)
    if not is_fleet_journal(records):
        print(f"{path}: neither a fleet epochs journal nor a bench JSON",
              file=sys.stderr)
        return 1
    print(render_fleet(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
