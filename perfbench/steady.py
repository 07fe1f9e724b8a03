"""Steadiness check: run one workload n times and report each metric's spread.

    python3 perfbench/steady.py --workload lattice-sweep --runs 10 --seed0 100

Run from the root of a checkout. Each run uses its own seed (seed0, seed0+1,
...) and the run length from BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; a spread at or above the
bound marks the metric unsteady. It also prints the share of failed
operations, which must be the same in every run. All values are written to
perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"] = seed
        runs.append(line)
        values = " ".join(f"{n}={m['value']:.4g}" for n, m in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']}/{line['attempted']} {values}", flush=True)

    steady = True
    print(f"\n{args.workload}, {len(runs)} runs")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < bound or name == "setup_s"
        steady &= ok
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        print(f"{name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}{'' if ok else '  UNSTEADY'}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"failed share per run: {sorted(shares)}; all correct: {correct}")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"steady-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if steady and correct and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
