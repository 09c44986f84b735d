"""Benchmark entry point.

    python3 perfbench/run.py --workload oracle-ladder --seed 1 --seconds 24 --trace 0

Run from the root of a checkout (``src/repro`` must be present).  Every run
works through fixed input lists made from ``--seed`` (``--seconds`` sets
how many passes, it is not a time box), scales each pass's timings by an
in-run calibration to the reference machine speed, checks every output
against a Stoer-Wagner reference plus ``certify_result``, and prints one
JSON object as the last line of standard output: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle-ladder", "ma-recursion", "serve-mixed")
SETUP_SAMPLES = 5  # this process plus SETUP_SAMPLES - 1 fresh ones
SMOKE_SETUP_SAMPLES = 2
TRACE_SECONDS = 8.0  # untraced, then traced, work of a --trace 1 run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs: a few-second self-check of the benchmark itself",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up (imports, session, warm-up) and exit",
    )
    return parser.parse_args(argv)


def timed_setup(args):
    """Import the program and warm it up; returns (workload, setup seconds).

    Set-up runs from before ``import repro`` to the first timed item; the
    seeded input generation and reference solves between the two timed
    parts are excluded.
    """
    started = time.perf_counter()
    if args.workload == "serve-mixed":
        from serving import ServeWorkload as Workload
    else:
        from solvers import SolverWorkload as Workload
    workload = Workload(args.workload, args.seed, args.smoke)
    import_s = time.perf_counter() - started
    if not args.setup_only:
        workload.build_inputs(passes(args, workload))
    started = time.perf_counter()
    workload.warm_up()
    return workload, import_s + time.perf_counter() - started


def passes(args, workload) -> int:
    """Passes, each over its own seeded input list.  A traced run makes
    them untraced, then again traced over the same lists."""
    seconds = TRACE_SECONDS if args.trace else args.seconds
    return max(1, round(seconds / workload.pass_seconds))


def setup_sample(args) -> float:
    """One set-up measured in a fresh interpreter."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed_pass(workload, index: int, traced: bool):
    """One pass, bracketed by calibration samples that give its scale."""
    import common

    # Collect, then freeze what exists, so the collector's passes during
    # the timed pass scan the program's objects, not the benchmark's
    # inputs and earlier passes' results.
    gc.collect()
    gc.freeze()
    before = common.calibration_samples()
    result = workload.measure(index, traced=traced)
    around = before + result.extra.get("calibration", []) + common.calibration_samples()
    result.scale = common.CALIBRATION_REF_S / common.median(around)
    return result


def fingerprint() -> str:
    import numpy

    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.platform()}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    sys.path.insert(0, SRC)

    workload, setup_s = timed_setup(args)
    import common  # imports repro; after the set-up clock on purpose
    import report

    setup_s *= common.CALIBRATION_REF_S / common.median(common.calibration_samples())
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        count = passes(args, workload)
        plain = [timed_pass(workload, index, False) for index in range(count)]
        traced = [
            timed_pass(workload, index, True) for index in range(count * args.trace)
        ]
        heavy = workload.heavy_probe()
    finally:
        workload.close()

    samples = [setup_s]
    if args.trace == 0:  # more set-ups, each in a fresh interpreter
        count = SMOKE_SETUP_SAMPLES if args.smoke else SETUP_SAMPLES
        samples += [setup_sample(args) for _ in range(count - 1)]

    print(fingerprint())
    summary = report.Report(args.workload, workload, plain, traced, heavy)
    if args.trace:
        metrics = summary.per_layer()
    else:
        metrics = summary.end_to_end(statistics.median(samples), len(samples))
    for line in summary.lines:
        print(line)
    print(json.dumps({
        "correct": summary.failed == 0,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
