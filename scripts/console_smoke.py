#!/usr/bin/env python3
"""CI smoke for the operator console: boot it for real, curl everything.

End-to-end through the actual CLI surfaces, not the Python API:

1. ``python -m repro sweep --epochs N --fleet-dir D`` builds a real
   fleet directory (the epochs journal, queue WAL and baselines);
2. ``python -m repro serve`` boots the console as a subprocess on an
   ephemeral port;
3. every HTTP endpoint is fetched and asserted — status code AND the
   shape of the response (the JSON keys an operator's tooling would
   script against), including the 401s a missing/bad token must earn;
4. one more CLI sweep epoch runs while the console is up: the served
   ``/api/status`` (the console's live index, tailing the journals)
   must then equal a cold ``python -m repro fleet-status --json``, and
   the fleet directory must hold the three journals and nothing else.

Run:  PYTHONPATH=src python scripts/console_smoke.py [--epochs 2]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))
TOKEN = "ci-smoke-token"

FAILURES = []


def check(label: str, passed: bool, detail: str = "") -> None:
    print(f"  [{'PASS' if passed else 'FAIL'}] {label}"
          + (f" ({detail})" if detail and not passed else ""))
    if not passed:
        FAILURES.append(label)


def fetch(url: str, token: str = TOKEN):
    """(status, parsed-or-text body) for one GET, token via header."""
    request = urllib.request.Request(url)
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
            content_type = response.headers.get("Content-Type", "")
            body = response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        status = error.code
        content_type = error.headers.get("Content-Type", "")
        body = error.read().decode("utf-8")
    if content_type.startswith("application/json"):
        return status, json.loads(body)
    return status, body


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args], cwd=REPO, env=ENV,
        capture_output=True, text=True, timeout=600)


def boot_console(fleet_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--fleet-dir", fleet_dir,
         "--port", "0", "--token", TOKEN], cwd=REPO, env=ENV,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 30
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError("console exited before announcing itself")
        match = re.search(r"console at (http://[\w.:]+)", line)
        if match:
            return process, match.group(1)
    raise RuntimeError("console never announced its URL")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--fleet-dir", default=None)
    args = parser.parse_args()

    fleet_dir = args.fleet_dir or tempfile.mkdtemp(prefix="gb-console-ci-")
    print(f"building {args.epochs}-epoch fleet in {fleet_dir} ...")
    sweep = cli("sweep", "--epochs", str(args.epochs), "--escalate",
                "winpe", "--fleet-dir", fleet_dir, "--json")
    check("fleet sweep exits 0", sweep.returncode == 0, sweep.stderr[-300:])
    epochs = json.loads(sweep.stdout)["epochs"]
    check(f"sweep ran {args.epochs} epochs", len(epochs) == args.epochs)

    process, base = boot_console(fleet_dir)
    print(f"console up at {base}")
    try:
        status, body = fetch(f"{base}/healthz", token=None)
        check("/healthz 200 unauthenticated",
              status == 200 and body.get("ok") is True)
        status, body = fetch(f"{base}/api/status", token=None)
        check("/api/status without token is 401",
              status == 401 and body.get("error") == "missing token")
        status, body = fetch(f"{base}/api/status", token="wrong")
        check("/api/status with bad token is 401",
              status == 401 and body.get("error") == "bad token")

        status, body = fetch(f"{base}/api/status")
        check("/api/status 200 + schema",
              status == 200
              and body.get("epochs_completed") == args.epochs
              and "outbreaks" in body and "last_summary" in body)

        status, machines = fetch(f"{base}/api/machines")
        check("/api/machines 200 + roster",
              status == 200 and machines.get("machines")
              and set(machines["latest"]) == set(machines["machines"]))
        name = machines["machines"][0]

        status, detail = fetch(f"{base}/api/machines/{name}")
        check(f"/api/machines/{name} 200 + drill-down",
              status == 200
              and len(detail.get("history", [])) == args.epochs
              and detail.get("latest", {}).get("machine") == name
              and "confidence" in (detail.get("baseline") or {}))
        status, body = fetch(f"{base}/api/machines/no-such-box")
        check("unknown machine is 404", status == 404)

        status, body = fetch(f"{base}/api/epochs")
        check("/api/epochs 200 + extents",
              status == 200
              and [e["epoch"] for e in body.get("epochs", [])]
              == list(range(1, args.epochs + 1))
              and all(e.get("summary") for e in body["epochs"]))

        status, body = fetch(f"{base}/api/outbreaks")
        check("/api/outbreaks 200 + list",
              status == 200 and isinstance(body.get("outbreaks"), list))

        status, body = fetch(f"{base}/api/query?verdict=infected")
        check("/api/query 200 + filtered results",
              status == 200 and body.get("count") == len(body["results"])
              and all(r["verdict"] == "infected" for r in body["results"]))

        status, body = fetch(f"{base}/api/index")
        check("/api/index 200 + stats",
              status == 200 and body.get("machines", 0) > 0
              and body.get("torn_skipped") == 0)

        status, body = fetch(f"{base}/api/metrics")
        check("/api/metrics 200 + counters",
              status == 200 and "counters" in body)
        status, body = fetch(f"{base}/metrics")
        check("/metrics 200 + prometheus text",
              status == 200 and "console" in body)

        status, body = fetch(f"{base}/")
        check("dashboard HTML renders",
              status == 200 and "fleet console" in body and name in body)
        status, body = fetch(f"{base}/machine/{name}")
        check("machine HTML renders", status == 200 and name in body)

        sweep = cli("sweep", "--epochs", "1", "--escalate", "winpe",
                    "--fleet-dir", fleet_dir, "--json")
        check("one more sweep epoch exits 0", sweep.returncode == 0,
              sweep.stderr[-300:])
        status, live = fetch(f"{base}/api/status")
        fstatus = cli("fleet-status", "--fleet-dir", fleet_dir, "--json")
        cold = json.loads(fstatus.stdout) if fstatus.returncode == 0 else {}
        for document in (live, cold):
            document.pop("fleet_dir", None)
        check("served status after the epoch equals a cold fleet-status",
              status == 200 and fstatus.returncode == 0 and live == cold
              and live.get("epochs_completed") == args.epochs + 1,
              f"live {json.dumps(live)} cold {json.dumps(cold)}")
    finally:
        process.terminate()
        process.wait(timeout=10)

    files = sorted(os.listdir(fleet_dir))
    check("fleet directory holds the three journals only",
          files == ["baselines.jsonl", "epochs.jsonl", "queue.jsonl"],
          ", ".join(files))

    if FAILURES:
        print(f"FAILED: {FAILURES}", file=sys.stderr)
        return 1
    print("console smoke: all endpoints healthy")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
