"""One workload in one fresh process: set-up, timed phase, traced phase, checks.

Started by ``run.py``; writes its measurements as JSON to ``--result``.
Modes: ``setup`` stops after building the inputs (for the set-up time
samples), ``run`` measures, ``record`` makes one pass and returns the key
results that ``record_reference.py`` stores.

The timed phase is a closed loop with one caller: it runs the workload's
operations one after another, cycling through them, until ``--seconds``
have passed and at least one whole pass is done. Between every two
operations, and every ``PERIOD_S`` during them, it times the reference
work of ``calibration.py``, and scales each operation's latency by how
fast that work ran meanwhile. The traced phase repeats the same number of
operations with the span wrappers installed. Outputs are checked only
after both phases.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import SpeedGauge
from tracing import Tracer, layer_metrics, op_breakdown
from workloads import INPUT_SEEDS, WORKLOADS, compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import covscatter from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covscatter
    import covscatter.cli  # noqa: F401  (binds cs.cli, cs.harness, cs.io)
    import covscatter.harness  # noqa: F401
    import covscatter.io  # noqa: F401

    if not Path(covscatter.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"covscatter was imported from {covscatter.__file__}, not from {src}")
    return covscatter


def environment(cs):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "jacobi_backend": getattr(cs, "JACOBI_BACKEND", None),
    }


def run_phase(ops, seconds, outroot, tracer=None, count=None):
    """Operations in a closed loop, cycling through ``ops`` in order.

    Stops once ``seconds`` have passed and at least one whole pass is done,
    or after exactly ``count`` operations. Returns the passes, each a dict
    label -> (seconds, scaled seconds, value, error), of which the last may
    be partial, the phase's elapsed time, the speed gauge's samples, and
    the peak resident set in KiB at the end of the first pass: later passes
    repeat the same work, and how many run depends on the machine's speed.
    The gauge samples the machine's speed just before and after each
    operation and, unless the phase is traced, every ``PERIOD_S`` during
    it; an operation's scaled seconds are its seconds scaled by those
    samples (see ``calibration.py``).
    """
    clock = time.perf_counter
    passes = []
    first_pass_rss = None
    gauge = SpeedGauge()
    if tracer is None:  # spans must not include the gauge's samples
        gauge.start()
    start = clock()
    try:
        for n in itertools.count(1):
            number, (label, op) = (n - 1) // len(ops), ops[(n - 1) % len(ops)]
            if number == len(passes):
                passes.append({})
            if tracer is not None:
                tracer.op_id = f"{number}:{label}"
            gc.collect()
            gauge.sample()
            first_sample = len(gauge.samples) - 1
            t0, spent = clock(), gauge.spent
            try:
                value, error = op(outroot / f"pass{number}" / label), None
            except Exception as exc:  # an operation that raises is counted as failed
                value, error = None, f"raised {type(exc).__name__}: {exc}"
            taken = clock() - t0 - (gauge.spent - spent)
            gauge.sample()
            passes[-1][label] = (taken, taken * gauge.scale_since(first_sample), value, error)
            if n == len(ops):
                first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if n == count or (count is None and n >= len(ops) and clock() - start >= seconds):
                return passes, clock() - start, gauge.samples, first_pass_rss
    finally:
        gauge.stop()


def timing(passes, scaled=False):
    """Pass time and median operation latency, in seconds, from each operation's median.

    A pass's time is the sum of its operations' median latencies, so the
    partial last pass counts too; the median latency weighs every
    operation once, however often it ran. ``scaled`` takes the latencies
    scaled by the speed gauge instead of the raw ones.
    """
    runs = {}
    for outcome in passes:
        for label, times in outcome.items():
            runs.setdefault(label, []).append(times[1 if scaled else 0])
    medians = [statistics.median(v) for v in runs.values()]
    return sum(medians), statistics.median(medians)


def check_pass(workload, outcome, reference, complete):
    """Errors per failed operation label, and the pass's key results.

    Checks that need every operation of a pass run only on a complete pass.
    """
    failed, keys = {}, {}
    for label, (_, _, value, error) in outcome.items():
        if error is not None:
            failed[label] = [error]
            continue
        try:
            errors, key = workload.check(label, value)
        except Exception as exc:  # a check that cannot read the output fails the operation
            errors, key = [f"check raised {type(exc).__name__}: {exc}"], {}
        if reference is not None and not errors:
            errors = compare(key, reference.get(label, {}))
        keys[label] = key
        if errors:
            failed[label] = errors
    if not complete:
        return failed, keys
    pass_failed, pass_key = workload.check_pass({label: o[2] for label, o in outcome.items()})
    for label, errors in pass_failed.items():
        failed.setdefault(label, []).extend(errors)
    if reference is not None and not pass_failed:
        errors = compare(pass_key, reference.get("pass", {}))
        if errors:
            # the pass-level answer is wrong; no single operation can be blamed
            for label in outcome:
                failed.setdefault(label, []).extend(errors)
    keys["pass"] = pass_key
    return failed, keys


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "record"), default="run")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    cs = import_program()
    input_seed = args.seed % INPUT_SEEDS
    workload = WORKLOADS[args.workload](cs, input_seed, args.workdir / "inputs")
    out = {"setup_end": time.monotonic(), "input_seed": input_seed}
    if args.mode == "setup":
        args.result.write_text(json.dumps(out))
        return 0

    ops = workload.operations()
    count = len(ops) if args.mode == "record" else None
    passes, _, samples, out["peak_rss_kb"] = run_phase(ops, args.seconds, args.workdir / "untraced", count=count)
    out["pass_s"], out["op_p50_s"] = timing(passes)
    out["scaled_pass_s"], out["scaled_op_p50_s"] = timing(passes, scaled=True)
    out["reference_s"] = statistics.median(samples)
    out["op_samples"] = {label: [o[label][:2] for o in passes if label in o] for label, _ in ops}
    phases = [("untraced", passes)]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, elapsed, _, _ = run_phase(
                ops, args.seconds, args.workdir / "traced", tracer, count=sum(map(len, passes))
            )
        finally:
            tracer.uninstall()
        phases.append(("traced", traced))
        out["layers"] = layer_metrics(tracer, timing(traced)[0], out["pass_s"], elapsed)
        out["breakdown"] = op_breakdown(tracer)
        out["absent"] = tracer.absent

    reference = None
    if args.mode == "run":
        recorded = json.loads((HERE / "reference.json").read_text())
        reference = recorded["workloads"][args.workload][str(input_seed)]
    attempted, failures = 0, []
    for phase, phase_passes in phases:
        for index, outcome in enumerate(phase_passes):
            failed, keys = check_pass(workload, outcome, reference, complete=len(outcome) == len(ops))
            attempted += len(outcome)
            failures += [f"{phase} pass {index} {label}: {'; '.join(e)}" for label, e in failed.items()]
            if args.mode == "record":
                out["keys"] = keys
    out.update(attempted=attempted, failed=len(failures), failures=failures, env=environment(cs))
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # set-up or import failure: no result is written
        traceback.print_exc()
        sys.exit(3)
