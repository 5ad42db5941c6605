"""Command-line demos:  ``python -m repro <command>``.

Commands
--------
demo          infect a machine with Hacker Defender, detect, disinfect
matrix        print the Figure-2/5 technique × detection matrix
sweep         one fleet-coordinator epoch over a small demo fleet that
              RIS network-boots every client; with
              ``--epochs``/``--continuous`` it becomes a checkpointed
              fleet-service run with optional ``--escalate`` confirmation
unix          the Section-5 Unix rootkit experiments
fleet-status  inspect a ``--fleet-dir``: queue depth, leases, last epoch
              (one read-only fold of its journals)
serve         operator console: HTTP dashboard + query API over a
              ``--fleet-dir`` (token auth; see docs/operator_console.md)

Output goes through :mod:`logging` (logger ``repro.cli``) so embedders
can redirect or silence it; ``--json`` switches ``demo`` and ``sweep``
to machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import tempfile

LOGGER_NAME = "repro.cli"


def _configure_logging(verbose: bool, to_stderr: bool = False
                       ) -> logging.Logger:
    """Bind the CLI logger to the *current* stdout, replacing handlers.

    A fresh handler per invocation matters: test harnesses swap
    ``sys.stdout`` between calls, and a handler captured at import time
    would keep writing to the old stream.  ``--json`` routes the log to
    stderr so stdout carries nothing but the JSON document.
    """
    logger = logging.getLogger(LOGGER_NAME)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr if to_stderr
                                    else sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG if verbose else logging.INFO)
    logger.propagate = False
    return logger


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _chaos_plan(options):
    """Build the FaultPlan the ``--chaos-seed`` flag asks for (or None)."""
    if options.chaos_seed is None:
        return None
    from repro.faults.plan import FaultPlan
    return FaultPlan.default(options.chaos_seed, rate=options.chaos_rate)


def cmd_demo(options) -> int:
    from repro import GhostBuster, Machine, disinfect
    from repro.core.reporting import report_to_dict
    from repro.telemetry import Telemetry

    from repro.ghostware import HackerDefender

    log = logging.getLogger(LOGGER_NAME)
    machine = Machine("demo-pc", disk_mb=512)
    machine.boot()
    HackerDefender().install(machine)

    telemetry = Telemetry.enabled(clock=machine.clock) if options.trace \
        else Telemetry.disabled()
    log.info("infected demo-pc with Hacker Defender 1.0\n")
    report = GhostBuster(machine, advanced=True,
                         telemetry=telemetry,
                         fault_plan=_chaos_plan(options),
                         max_retries=options.max_retries,
                         stabilize_rounds=options.stabilize_rounds).detect()
    cleanup = disinfect(machine, report)

    if options.json:
        payload = {"report": report_to_dict(report),
                   "disinfection": {"summary": cleanup.summary(),
                                    "verified_clean": cleanup.verified_clean}}
        if telemetry.is_enabled:
            payload["spans"] = [span.to_dict()
                                for span in telemetry.tracer.spans()]
            payload["audit"] = telemetry.audit.to_dicts()
            payload["attributions"] = [
                {"finding": attribution.finding.describe(),
                 "apis": attribution.apis}
                for attribution in telemetry.attribute(report)]
        _emit_json(payload)
    else:
        log.info(report.summary())
        log.info("")
        if telemetry.is_enabled:
            log.info("span tree:\n%s", telemetry.tracer.render())
            log.info("audit log:\n%s", telemetry.audit.summary())
        log.info("disinfection: %s", cleanup.summary())
    return 0 if cleanup.verified_clean else 1


def cmd_matrix(options) -> int:
    from repro.core import GhostBuster
    from repro.ghostware import (Aphex, HackerDefender, HideFoldersXP,
                                 NamingExploitGhost, ProBotSE, Urbin,
                                 Vanquish)
    from repro.machine import Machine

    log = logging.getLogger(LOGGER_NAME)
    techniques = (
        ("IAT modification (Urbin)", Urbin),
        ("in-memory code patch (Vanquish)", Vanquish),
        ("kernel32 jmp detour (Aphex)", Aphex),
        ("ntdll jmp detour (Hacker Defender)", HackerDefender),
        ("SSDT replacement (ProBot SE)", ProBotSE),
        ("filter driver (Hide Folders XP)",
         lambda: HideFoldersXP(hidden_paths=["\\Temp"])),
        ("naming exploit (no hooks)", NamingExploitGhost),
    )
    rows = []
    for label, factory in techniques:
        machine = Machine("matrix", disk_mb=256, max_records=8192)
        machine.boot()
        factory().install(machine)
        report = GhostBuster(machine).inside_scan(resources=("files",))
        rows.append((label, not report.is_clean))
    if options.json:
        _emit_json({"matrix": [{"technique": label, "detected": hit}
                               for label, hit in rows]})
        return 0
    log.info(f"{'technique':<42} detected")
    log.info("-" * 52)
    for label, hit in rows:
        log.info(f"{label:<42} {'yes' if hit else 'NO'}")
    return 0


def _log_epoch(log, summary) -> None:
    log.info("epoch %d: %d machines (%d scanned, %d skipped) "
             "infected=%d escalated=%d confirmed=%d outbreaks=%d",
             summary.epoch, summary.machines, summary.scanned,
             summary.skipped, summary.infected, summary.escalated,
             summary.confirmed, summary.outbreaks)


def cmd_sweep(options) -> int:
    """Checkpointed fleet epochs over the demo fleet.

    Without ``--epochs``/``--continuous``/``--fleet-dir`` this is the
    one-shot sweep: one epoch (two with ``--delta``) in a temp dir that
    network-boots every scanned client (``--escalate`` defaults to
    ``ris``).
    """
    from repro.fleet import EscalationPolicy, FleetCoordinator
    from repro.ghostware import Aphex, HackerDefender
    from repro.telemetry import Telemetry
    from repro.workloads.scenarios import build_fleet, build_home_pc

    log = logging.getLogger(LOGGER_NAME)
    one_shot = not (options.epochs or options.continuous
                    or options.fleet_dir)
    escalate = options.escalate or ("ris" if one_shot else None)
    fleet_dir = options.fleet_dir or tempfile.mkdtemp(prefix="gb-fleet-")
    size = max(2, options.fleet_size)
    agents = max(0, options.agents)
    if options.delta and agents:
        log.info("--delta changes a machine between epochs, which needs "
                 "the single-process sweep (no --agents)")
        return 2
    plan = _chaos_plan(options)
    policy = EscalationPolicy(confirm_with=escalate or "winpe",
                              escalate=escalate is not None)
    epochs = max(1, options.epochs or (10 if options.continuous else 1))
    if options.delta:
        epochs = max(2, epochs)
    compromised = {1: HackerDefender, size - 1: Aphex}
    telemetry = Telemetry.enabled() if options.trace \
        else Telemetry.disabled()
    summaries = []

    if agents:
        # Distributed mode: the roster travels by name; each forked
        # agent builds (the same) machines from this factory, so the
        # parse-heavy scans run outside this process's GIL.
        def machine_factory(name):
            index = int(name.rsplit("-", 1)[1])
            ghost_cls = compromised.get(index)
            return build_home_pc(name,
                                 ghost_cls() if ghost_cls else None,
                                 files=80, seed=3 + index,
                                 with_services=False).machine

        roster = [f"client-{index:02d}" for index in range(size)]
        coordinator = FleetCoordinator(fleet_dir, roster, workers=agents,
                                       policy=policy, fault_plan=plan,
                                       compact_every=4)
        with telemetry.activate():
            aggregates = coordinator.run_distributed(
                epochs, machine_factory, agents=agents)
        for aggregate in aggregates:
            summaries.append(aggregate.summary.to_dict())
            if not options.json:
                _log_epoch(log, aggregate.summary)
    else:
        scenarios = build_fleet(size=size, compromised=compromised)
        machines = [scenario.machine for scenario in scenarios]
        coordinator = FleetCoordinator(fleet_dir, machines, workers=2,
                                       policy=policy, fault_plan=plan,
                                       compact_every=4)
        for epoch in range(epochs):
            if options.delta and epoch == 1:
                # One client changes on disk; the delta epoch rescans it
                # and rides the baselines for the rest.
                machines[0].volume.create_file("\\Temp\\dropped.txt",
                                               b"payload")
            with telemetry.activate():
                aggregate = coordinator.run_epoch()
            summary = aggregate.summary
            summaries.append(summary.to_dict())
            if not options.json:
                _log_epoch(log, summary)
            if options.continuous and summary.scanned == 0:
                # Steady state: the whole fleet rode its baselines.
                break
    if options.json:
        payload = {"fleet_dir": fleet_dir, "epochs": summaries}
        if agents:
            payload["agents"] = agents
        if telemetry.is_enabled:
            payload["spans"] = [span.to_dict()
                                for span in telemetry.tracer.spans()]
            payload["audit"] = telemetry.audit.to_dicts()
        _emit_json(payload)
        return 0
    if telemetry.is_enabled:
        log.info("span tree:\n%s", telemetry.tracer.render())
        log.info("audit log:\n%s", telemetry.audit.summary())
    log.info("fleet state in %s%s", fleet_dir,
             f" ({agents} agent processes)" if agents else "")
    return 0


def cmd_unix(options) -> int:
    from repro.unixsim import (Darkside, Superkit, Synapsis, T0rnkit,
                               UnixMachine, unix_cross_view_scan)

    log = logging.getLogger(LOGGER_NAME)
    rows = []
    for kit_cls in (Darkside, Superkit, Synapsis, T0rnkit):
        machine = UnixMachine(flavor=getattr(kit_cls, "flavor", "linux"))
        machine.populate(120)
        kit = kit_cls()
        kit.install(machine)
        report = unix_cross_view_scan(machine, daemon_churn_files=3)
        rows.append((kit.name, len(report.hidden),
                     report.false_positive_count))
    if options.json:
        _emit_json({"unix": [{"rootkit": name, "hidden": hidden, "fps": fps}
                             for name, hidden, fps in rows]})
        return 0
    for name, hidden, fps in rows:
        log.info(f"{name:<16} hidden={hidden} FPs={fps}")
    return 0


def cmd_fleet_status(options) -> int:
    from repro.fleet import fleet_status

    log = logging.getLogger(LOGGER_NAME)
    if not options.fleet_dir:
        log.info("fleet-status needs --fleet-dir DIR")
        return 2
    status = fleet_status(options.fleet_dir)
    if options.json:
        _emit_json(status)
        return 0
    log.info("fleet directory: %s", status["fleet_dir"])
    if status["open_epoch"] is not None:
        log.info("open epoch %d: %d pending, %d leased, %d acked",
                 status["open_epoch"], status["pending"],
                 status["leased"], status["acked"])
        for machine in status.get("leased_machines", []):
            log.info("  leased: %s", machine)
    else:
        log.info("no epoch open")
    log.info("epochs completed: %d", status["epochs_completed"])
    last = status["last_summary"]
    if last:
        log.info("last epoch %d: %d machines (%d scanned, %d skipped) "
                 "infected=%d escalated=%d confirmed=%d",
                 last.get("epoch", 0), last.get("machines", 0),
                 last.get("scanned", 0), last.get("skipped", 0),
                 last.get("infected", 0), last.get("escalated", 0),
                 last.get("confirmed", 0))
        if last.get("sampled"):
            log.info("sampling: %d sampled scan(s), %d escalated by "
                     "sampling, estimated recall %.1f%%",
                     last.get("sampled", 0),
                     last.get("sampling_escalations", 0),
                     last.get("estimated_recall", 1.0) * 100)
    for outbreak in status["outbreaks"]:
        log.info("OUTBREAK epoch %d: %s on %d machines",
                 outbreak.get("epoch", 0), outbreak.get("identity"),
                 len(outbreak.get("machines", [])))
    return 0


def cmd_serve(options) -> int:
    from repro.console import ConsoleServer

    log = logging.getLogger(LOGGER_NAME)
    if not options.fleet_dir:
        log.info("serve needs --fleet-dir DIR")
        return 2
    server = ConsoleServer(options.fleet_dir, token=options.token,
                           host=options.host, port=options.port)
    log.info("console at %s (fleet %s)", server.url, options.fleet_dir)
    if options.token is None:
        # Print the generated token exactly once; it is never logged
        # again and never written to disk.
        log.info("token: %s", server.token)
    log.info("dashboard: %s/?token=%s", server.url, server.token)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("console stopped")
    finally:
        server.stop()
    return 0


COMMANDS = {"demo": cmd_demo, "matrix": cmd_matrix, "serve": cmd_serve,
            "sweep": cmd_sweep, "unix": cmd_unix,
            "fleet-status": cmd_fleet_status}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Strider GhostBuster reproduction demos")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="which demo to run")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--trace", action="store_true",
                        help="enable scan tracing + interception audit "
                             "(demo and sweep)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="N",
                        help="run under deterministic fault injection "
                             "seeded with N (demo and sweep)")
    parser.add_argument("--chaos-rate", type=float, default=0.05,
                        metavar="R",
                        help="per-site fault probability for --chaos-seed "
                             "(default 0.05)")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="per-layer retry budget for demo "
                             "(default 2)")
    parser.add_argument("--stabilize-rounds", type=int, default=1,
                        metavar="N",
                        help="scan-until-stable rounds for demo "
                             "(default 1 = single scan)")
    parser.add_argument("--delta", action="store_true",
                        help="demo a delta epoch: after the first epoch "
                             "one client changes on disk, and the next "
                             "epoch rescans it and skips the rest (sweep)")
    parser.add_argument("--epochs", type=int, default=0, metavar="N",
                        help="run N checkpointed fleet epochs instead of "
                             "a one-shot sweep (sweep)")
    parser.add_argument("--continuous", action="store_true",
                        help="keep running epochs (resuming any "
                             "interrupted one) until the fleet reaches "
                             "steady state or --epochs is exhausted")
    parser.add_argument("--escalate", choices=("winpe", "vmscan", "ris"),
                        default=None,
                        help="confirm inside findings with an "
                             "outside-the-box pass of this kind; ris "
                             "network-boots every scanned machine (sweep; "
                             "the one-shot sweep defaults to ris)")
    parser.add_argument("--fleet-dir", default=None, metavar="DIR",
                        help="durable fleet state directory (queue WAL, "
                             "epochs journal, baselines); also the "
                             "target of fleet-status")
    parser.add_argument("--agents", type=int, default=0, metavar="N",
                        help="run the fleet sweep distributed: a scan "
                             "controller in this process plus N forked "
                             "scan-agent processes (sweep with "
                             "--epochs/--continuous)")
    parser.add_argument("--fleet-size", type=int, default=6, metavar="N",
                        help="machines in the demo fleet for sweep "
                             "(default 6)")
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                        help="console bind address for serve "
                             "(default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8337, metavar="N",
                        help="console port for serve (default 8337; "
                             "0 picks an ephemeral port)")
    parser.add_argument("--token", default=None, metavar="TOKEN",
                        help="console bearer token for serve "
                             "(default: generate and print one)")
    options = parser.parse_args(argv)
    _configure_logging(options.verbose, to_stderr=options.json)
    return COMMANDS[options.command](options)


if __name__ == "__main__":
    sys.exit(main())
