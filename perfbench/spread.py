#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs perfbench/run.py once per seed, serially, and prints for every metric
its values, quartiles (statistics.quantiles, n=4) and the interquartile
range as a share of the median, next to the metric's bound in
BENCHMARK.json.  Usage, from the repository root:

    python3 perfbench/spread.py --workload fig13 [--seeds 1 2 3 4 5]
        [--trace 0|1]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"\n{args.workload}, {len(args.seeds)} seeds {args.seeds}")
    print(f"  {'metric':<30} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if share < bound / 3 else ("WIDE" if share <= bound else "OVER")
        print(f"  {name:<30} {q1:12.6g} {med:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bound if bound is not None else '':>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
