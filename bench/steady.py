"""Steadiness of the benchmark: repeat each workload and compare spreads.

Runs ``bench/run.py`` ``--runs`` times per workload, each with its own
seed, and prints for every end-to-end metric its median, quartiles and
spread (the interquartile distance as a share of the median) against the
bound in BENCHMARK.json.  A spread is steady when it stays below a third
of its bound.  It also checks that every run is correct and fails the
same share of its operations.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --runs 5 --workload sweeps --first-seed 100
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{name} = {m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    return result


def summarize(workload: str, results: list[dict]) -> bool:
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    steady = len(shares) == 1 and all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed shares={sorted(str(s) for s in shares)}")
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if len(values) < 2:
            print(f"  {m['name']:<30} missing")
            steady = False
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < m["bound"] / 3.0
        steady &= ok
        print(f"  {m['name']:<30} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:7.2%}  bound {m['bound']}  {'ok' if ok else 'NOT STEADY'}")
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    steady = True
    for workload in workloads:
        results = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        steady &= summarize(workload, results)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
