#!/usr/bin/env python3
"""Steadiness report and short-mode self-test for the benchmark.

    python3 perfbench/steady.py [--runs N] [--seconds S] [--trace 0|1]
                                [--workloads a,b] [--first-seed K] [--values]

runs every workload N times (seeds K, K+1, ...) through run.py and
prints, for each metric, its median, first and third quartiles (as
`statistics.quantiles(values, n=4)` gives them), the spread
(q3 - q1) / median, the metric's bound from BENCHMARK.json, the
median sample count behind one run's value, and its unit.  With
`--runs 1` it is the one command that prints every named end-to-end
metric for each workload with its unit and sample count.

    python3 perfbench/steady.py --self-test

runs each workload for one second, untraced and traced, and checks that
every metric BENCHMARK.json names is present, finite, and carries its
unit, and that every output was correct.  Run from the repository root.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def invoke(workload, seed, seconds, trace):
    """One run.py invocation: (result JSON, {metric: sample count})."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    samples = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:1] == ["metric"] and parts[-1].startswith("n="):
            samples[parts[1]] = int(parts[-1][2:])
    return json.loads(lines[-1]), samples


def self_test(spec):
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = invoke(w["name"], 1, 1, trace)
            got = result["metrics"]
            for m in spec[key]:
                v = got.get(m["name"])
                bad = (v is None or not isinstance(v.get("value"), (int, float))
                       or not math.isfinite(v["value"]) or v.get("unit") != m["unit"])
                if bad:
                    ok = False
                    print(f"FAIL {w['name']} trace={trace} {m['name']}: {v}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                ok = False
                print(f"FAIL {w['name']} trace={trace} unnamed metrics {sorted(extra)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                ok = False
                print(f"FAIL {w['name']} trace={trace}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
            print(f"ok   {w['name']} trace={trace}: {len(got)} metrics")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        self_test(spec)
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end" if args.trace == 0 else "per_layer"]
    for name in names:
        values = {m["name"]: [] for m in metrics}
        counts = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        for k in range(args.runs):
            result, samples = invoke(name, args.first_seed + k, seconds, args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
                counts[m["name"]].append(samples.get(m["name"], 0))
        print(f"\n{name}: {args.runs} runs x {seconds} s, "
              f"attempted {attempted}, failed {failed}")
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'n':>8}  unit")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = m.get("bound", float("nan"))
            print(f"  {m['name']:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound:>6.3g} {statistics.median(counts[m['name']]):>8.0f}"
                  f"  {m['unit']}")
            if args.values:
                print("    " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    main()
