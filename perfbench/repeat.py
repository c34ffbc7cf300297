#!/usr/bin/env python3
"""Repeat mode: run one workload N times, each with another seed, and
print each end-to-end metric's spread against its bound.

    python3 perfbench/repeat.py --workload marvel-frames --runs 10

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median. A metric is steady when its spread is under a third of its
bound. ``setup_s`` is reported but has no spread requirement. The share
of failed operations must be the same in every run.

Run it from the repository root; it runs the command ``BENCHMARK.json``
names, so the first run builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = []
    for i in range(args.runs):
        seed = args.seed0 + i
        result, wall = run_once(bench, args.workload, seed, seconds, 0)
        shares.append((result["failed"], result["attempted"]))
        line = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append(f"{name}={v:.6g}")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s " + " ".join(line), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    steady = True
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            verdict = "no spread requirement"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound, not steady"
            steady = False
        else:
            verdict = "OVER BOUND"
            steady = False
        print(f"{m['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{m['bound']:>6}  {verdict}")
    ratios = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(ratios)} "
          f"({'identical' if len(ratios) == 1 else 'DIFFERS'})")
    return 0 if steady and len(ratios) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
