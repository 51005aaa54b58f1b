#!/usr/bin/env python3
"""covscatter benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload stability-brain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, every metric

Each workload runs in a fresh worker process (``worker.py``) started
``SETUP_SAMPLES`` times: all but the last only build the inputs, to sample
set-up time; the last also runs the timed phase and, with ``--trace 1``, a
traced phase. The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Needs only the standard library here; the worker needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability-brain", "featurize-csv", "grid-deep")
SETUP_SAMPLES = 3
# one caller and no extra threads: single-threaded BLAS is also far steadier
# than two threads on a shared two-core machine
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # one workload must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def spawn_worker(argv, workdir, deadline):
    """Run one worker to completion; returns its result with ``setup_s`` added."""
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--workdir", str(workdir), "--result", str(result_path)]
    spawned = time.monotonic()
    # the worker's own output (the CLI's progress lines) must not reach our stdout
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV}, stdout=sys.stderr.fileno(), stdin=subprocess.DEVNULL
    )
    try:
        code = proc.wait(timeout=None if deadline is None else max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish in time: {' '.join(argv)}") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"worker exited with code {code}: {' '.join(argv)}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_end"] - spawned
    return result


def measure(workload, seed, seconds, trace, deadline):
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            setups.append(spawn_worker(common + ["--mode", "setup"], work / f"setup{i}", deadline)["setup_s"])
            shutil.rmtree(work / f"setup{i}")
        run = spawn_worker(
            common + ["--mode", "run", "--seconds", str(seconds), "--trace", str(trace)], work / "run", deadline
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    setups.append(run["setup_s"])
    run["metrics"] = {
        "scaled_wall_s": run["scaled_pass_s"],
        "scaled_op_p50_ms": 1000.0 * run["scaled_op_p50_s"],
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    run["setup_samples"] = setups
    return run


def report(workload, seed, seconds, trace, run, spec):
    """Human-readable lines; returns the metrics the JSON result carries."""
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    print(f"workload {workload}: seed {seed} (input set {run['input_seed']}), {seconds} s, trace {trace}")
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(
        f"  operations {run['attempted']}, "
        f"setup samples {', '.join(f'{s:.3f}' for s in run['setup_samples'])} s"
    )
    values = dict(run["metrics"])
    values["wall_s"] = run["pass_s"]
    values["op_p50_ms"] = 1000.0 * run["op_p50_s"]
    values["reference_ms"] = 1000.0 * run["reference_s"]
    values["failed_frac"] = run["failed"] / run["attempted"]
    unscaled = [("wall_s", "s"), ("op_p50_ms", "ms"), ("reference_ms", "ms"), ("failed_frac", "ratio")]
    for m in e2e + [{"name": name, "unit": unit} for name, unit in unscaled]:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for label, samples in run["op_samples"].items():
        print(f"  {label}: {', '.join(f'{s:.3f}/{c:.3f}' for s, c in samples)} s")
    print(f"  ({run['failed']} of {run['attempted']} operations failed)")
    for failure in run["failures"][:10]:
        print(f"  FAILED {failure}")
    chosen = e2e
    if trace:
        chosen = layers
        values = run["layers"]
        if run["absent"]:
            print(f"  absent functions: {', '.join(run['absent'])}")
        for line in run["breakdown"]:
            print(f"  op {line}")
        for m in layers:
            print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}


def main(argv=None):
    parser = argparse.ArgumentParser(description="covscatter benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "covscatter" / "__init__.py").is_file():
            raise BenchError(f"no covscatter sources under {ROOT / 'src'}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = [w for w in WORKLOADS if args.workload in (w, "all")]
        results = {}
        for workload in names:
            run = measure(workload, args.seed, seconds, args.trace, time.monotonic() + DEADLINE_S)
            results[workload] = (run, report(workload, args.seed, seconds, args.trace, run, spec))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (run, metrics), = results.values()
    else:
        metrics = {f"{w}.{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["failed"] for r, _ in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
