#!/usr/bin/env python3
"""Steadiness report: the evidence the bounds in BENCHMARK.json rest on.

    python3 perfbench/steadiness.py [--reps 10] [--workloads a,b] [--seconds S]

Runs every workload --reps times through perfbench/run.py, alternating the
workload order each round (forward, then reversed) and giving every run its
own seed. Prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4), min and max, and the spread: the
interquartile distance as a share of the median. A spread above a third of
the metric's bound is flagged. Raw results go to .bench_out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode})")
    result = json.loads(lines[-1])
    machine = next((json.loads(l[len("# machine "):]) for l in lines
                    if l.startswith("# machine ")), {})
    return result, machine


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {w: [] for w in workloads}
    seed = args.first_seed
    for rep in range(args.reps):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result, machine = run_once(workload, seed, args.seconds)
            runs[workload].append({"seed": seed, "result": result,
                                   "steal": machine.get("host.steal_frac")})
            print(f"rep {rep} {workload} seed {seed} correct={result['correct']}"
                  f" steal={machine.get('host.steal_frac', 0):.3f}",
                  file=sys.stderr, flush=True)
            seed += 1

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(runs, indent=1))

    header = (f"{'workload':13} {'metric':15} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    print(header)
    worst = {}
    for workload in workloads:
        steal = [r["steal"] or 0.0 for r in runs[workload]]
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"]
                      for r in runs[workload]]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else 0.0
            flag = " !" if spread > bounds[name] / 3 else ""
            worst[name] = max(worst.get(name, 0.0), spread)
            print(f"{workload:13} {name:15} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {min(values):12.6g} {max(values):12.6g} "
                  f"{spread:7.3f} {bounds[name]:6.3f}{flag}")
        print(f"{workload:13} {'host steal':15} {statistics.median(steal):12.4f}"
              f" (max {max(steal):.4f})")
    print("widest spread per metric: " +
          ", ".join(f"{k} {v:.3f}" for k, v in worst.items()))


if __name__ == "__main__":
    main()
