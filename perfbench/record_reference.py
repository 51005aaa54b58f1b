#!/usr/bin/env python3
"""Record the key results of every workload on every input set into reference.json.

Usage (from the repository root): python3 perfbench/record_reference.py

Run it only when a workload's definition changes, on code whose outputs are
known to be right; ``run.py`` compares every later run with these values.
Takes about 45 s per input set on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, BenchError, spawn_worker
from workloads import INPUT_SEEDS

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="default: all")
    args = parser.parse_args(argv)
    path = HERE / "reference.json"
    recorded = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    recorded["input_seeds"] = INPUT_SEEDS
    work = ROOT / ".bench_work" / "record"
    for workload in args.workload or WORKLOADS:
        table = recorded["workloads"].setdefault(workload, {})
        for seed in range(INPUT_SEEDS):
            argv = ["--workload", workload, "--seed", str(seed), "--mode", "record"]
            try:
                result = spawn_worker(argv, work, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if result["failed"]:
                raise BenchError(f"{workload} seed {seed}: {result['failures']}")
            table[str(seed)] = result["keys"]
            print(f"{workload} seed {seed}: recorded", flush=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
