"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload query --seeds 1-10 [--trace 0]
        [--seconds N] [--save runs.jsonl]

For each metric it prints the median of the runs, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, and the metric's bound from ``BENCHMARK.json`` next to it.
Runs are sequential; each is the command ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save")
    args = parser.parse_args()
    values, walls = {}, []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "trace": args.trace, **report}) + "\n")
        print(f"seed {seed}: correct={report['correct']} "
              f"attempted={report['attempted']} failed={report['failed']} "
              f"wall={walls[-1]:.1f}s", file=sys.stderr)
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    print(f"{'metric':48} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:48} {med:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
