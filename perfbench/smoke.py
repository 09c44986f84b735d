"""Self-check of the benchmark, mostly at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` in ``--smoke`` mode, with
``--trace 0`` and ``--trace 1``, twice each in separate processes, and
checks that

* every metric named in ``BENCHMARK.json`` is printed with its unit;
* every output is correct;
* for one seed, the counts that depend only on the inputs -- correct_share,
  paper_rounds, and the solver workloads' pack.trees, pack.rounds,
  oracle.chunks and ma.rounds -- repeat exactly across the two processes,
  which run under different ``PYTHONHASHSEED`` values so that a result
  depending on set iteration order shows on every run, not by chance.

It also runs one full-size ``ma-recursion`` pass under both hash seeds and
compares ``paper_rounds``.  Exits 1 when any check fails, after
naming every offending metric.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = {
    0: ("correct_share", "paper_rounds"),
    1: ("pack.trees", "pack.rounds", "oracle.chunks", "ma.rounds",
        "ma.rounds.compiled", "numerics.heavy_failed"),
}
SOLVER_ONLY = {"pack.trees", "pack.rounds", "oracle.chunks", "ma.rounds",
               "ma.rounds.compiled"}


def run(command, workload, trace, hash_seed, seed=7, smoke=True) -> dict:
    """One benchmark run (one pass) under the given hash seed."""
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, second = (
                run(spec["command"], workload, trace, hash_seed) for hash_seed in (1, 2)
            )
            label = f"{workload} trace={trace}"
            problems = []
            for result in (first, second):
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"incorrect result {result}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"metrics/units differ: {got} vs {wanted[trace]}")
            for name in EXACT[trace]:
                if name in SOLVER_ONLY and workload == "serve-mixed":
                    continue  # batching makes the serving tier's split timing-dependent
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{name} differs across processes: {a} vs {b}")
            print(("BAD " if problems else "ok  ") + label, flush=True)
            for problem in problems:
                print(f"    {problem}", flush=True)
            failed = failed or bool(problems)
    # One full-size pass under both hash seeds: the minor-aggregation round
    # ledger can depend on the hash seed and on earlier solves in the
    # process (the ROADMAP's determinism item), which tiny inputs rarely show.
    a, b = (
        run(spec["command"], "ma-recursion", 0, hash_seed, seed=12, smoke=False)
        ["metrics"]["paper_rounds"]["value"]
        for hash_seed in (1, 2)
    )
    print(("ok  " if a == b else "BAD ") + f"ma-recursion full-size paper_rounds: {a} vs {b}")
    return 1 if failed or a != b else 0


if __name__ == "__main__":
    sys.exit(main())
