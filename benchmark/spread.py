#!/usr/bin/env python3
"""Run the benchmark as the driver does and apply the driver's acceptance rule.

For every workload: `--runs` runs with `--trace 0`, each with another seed;
per end-to-end metric, the distance between the first and third quartile of
the values (statistics.quantiles(values, n=4)) as a share of their median.
With `--sets 2` the whole set is run twice and the second median must not be
worse than the first by more than the metric's bound (this replaces the
`--check-repeat` flag ISSUE 11 sketched). Exits nonzero when a spread other
than setup_s's exceeds its bound, a repeat median is worse than its bound
allows, or a run fails.

    python3 benchmark/spread.py                  # from the repo root
    python3 benchmark/spread.py --workloads fleet_paced --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    ok = True
    report = {}
    for workload in args.workloads:
        medians = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            runs = [run_once(spec, workload, seed, 0) for seed in seeds]
            medians.append({})
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                medians[s][name] = median
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict, ok = "SPREAD OVER BOUND", False
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "over a third of the bound"
                report.setdefault(workload, {})[f"set{s}.{name}"] = {
                    "median": median, "spread": spread, "values": values}
                print(f"{workload:<20} set {s} {name:<14} median {median:>16.6f} "
                      f"spread {100 * spread:6.2f}% of bound {100 * bound:4.1f}%  {verdict}", flush=True)
        if args.sets == 2:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                first, second = medians[0][name], medians[1][name]
                worse = (first - second) / first if metric["better"] == "higher" else (second - first) / first
                verdict = "ok"
                if worse > bound:
                    verdict, ok = "REPEAT MEDIAN WORSE THAN BOUND", False
                print(f"{workload:<20} repeat {name:<14} second median {100 * worse:+6.2f}% worse  {verdict}",
                      flush=True)
    out = ROOT / "benchmark" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "spread.json").write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
