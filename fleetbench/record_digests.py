#!/usr/bin/env python3
"""Record the verdict digests ``run.py`` checks every run against.

Usage (from the repository root)::

    python3 fleetbench/record_digests.py --seeds 0-40 [--workload NAME]

Runs each workload once per seed (no timing) and merges the per-epoch
verdict-map digest into ``digests.json``.  A recorded digest pins the
verdicts of that workload and seed: a later change that alters them
fails the benchmark's output check.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range FIRST-LAST")
    parser.add_argument("--workload", default="all")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    sys.path[:0] = [run.SRC, run.HERE]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    path = os.path.join(run.HERE, "digests.json")
    digests = run.load_digests()
    logging.getLogger("repro").setLevel(logging.ERROR)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    tempfile.tempdir = run.WORK_ROOT
    work = tempfile.mkdtemp(prefix="digests-", dir=run.WORK_ROOT)
    try:
        for name in names:
            for seed in range(first, last + 1):
                rep = run.run_rep(WORKLOADS[name], seed, work)
                if rep.lost or rep.errors or rep.recall != 1.0 \
                        or rep.precision != 1.0:
                    print(f"{name} seed {seed}: verdicts fail the check; "
                          f"not recorded", file=sys.stderr)
                    return 1
                digests.setdefault(name, {})[str(seed)] = rep.digest
                print(f"{name} {seed} {rep.digest}", flush=True)
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(digests, handle, indent=1, sort_keys=True)
                    handle.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
