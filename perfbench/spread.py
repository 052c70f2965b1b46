"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py --workload NAME [--first-seed 1]

Runs ``run.py`` once for each of ten seeds from the first, one run at a
time, and prints per metric the median and the quartile spread
(Q3 - Q1) / median of the runs, with the metric's bound from
BENCHMARK.json.  The reference figures in the
README come from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RUNS = 10


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
             "--trace", "0"], capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    print(f"{'metric':<52} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<52} {med:>12.6g} {spread:>11.4f} {bound if bound else '':>6}")
    print(f"(failed, attempted) pairs seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
