"""fole benchmark: seeded CLI workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 25 --trace 0

The workload is generated from ``--seed`` into a temporary directory under
``.perfbench_run/``, a child process runs the commands in a closed loop for
``--seconds`` seconds, and the gate checks every output.  The child also
repeats the set-up (``setup_s``) and times start-up in fresh processes
between commands.  Each end-to-end time and ``cli.import_ms`` is scaled
by a reference task timed next to it, so that the host's changing speed
cancels (``at_reference``).  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer ones.  A summary goes to stderr.

Exits 2 without a result when the checkout has no ``src/fole``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from prepare import set_up
from workloads import PLANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STARTUP_RUNS, STARTUP_WARMUP = 24, 3
SETUP_RUNS, SETUP_WARMUP = 16, 1
CHILD_TIMEOUT = 170
# the reference task's time on an unloaded host; see ``at_reference``
REFERENCE_S = 1e-3

TINY_WORKSPACE = {
    "typeDomains": {"T": {"S": ["a", "b"]}},
    "schemas": {"K": {"sorts": ["S"], "predicates": {"P": [["x", "S"]]}}},
    "structures": {"M": {"schema": "K", "typeDomain": "T", "kind": "lax",
                         "tables": {"P": {"rows": {"k": ["a"]}}}}},
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def at_reference(value, ref: float) -> float:
    """A time measured when the reference task took ``ref`` seconds, scaled
    to a host on which it takes ``REFERENCE_S``.  The shared host's speed
    swings by up to 1.8 times between runs of the same code, and moves the
    commands and the reference task alike, so the scaled times repeat where
    wall times do not."""
    return value * REFERENCE_S / ref


def probe_median(samples) -> float:
    """Median of a probe's ``[value, reference seconds]`` samples, scaled."""
    return statistics.median(at_reference(*s) for s in samples)


def end_to_end(attempts, commands, setup, peak_rss_kb, startup) -> dict:
    lat = {"read": [], "write": []}
    for i, dt, *_, ref in attempts:
        lat[commands[i]["kind"]].append(at_reference(dt, ref) * 1e3)
    metrics = {"setup_s": (probe_median(setup), "s")}
    for kind, values in lat.items():
        if not values:
            raise SystemExit(f"the run completed no {kind} command")
        metrics[f"{kind}_p50_ms"] = (statistics.median(values), "ms")
        metrics[f"{kind}_p90_ms"] = (percentile(values, 90), "ms")
    total_s = sum(at_reference(a[1], a[-1]) for a in attempts)
    metrics["cmds_per_s"] = (len(attempts) / total_s, "1/s")
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024, "MB")
    metrics["cold_start_ms"] = (probe_median(startup), "ms")
    return metrics


def run(args, run_dir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    from gate import Gate, judge, tally

    ws_dir = run_dir / "ws"
    plan, _ = set_up(args.workload, args.seed, ws_dir)
    commands = [asdict(c) for c in plan.commands]
    keep = ws_dir / "first"
    keep.mkdir()
    with open(ws_dir / "tiny.json", "w", encoding="utf-8") as fh:
        json.dump(TINY_WORKSPACE, fh)
    startup = (["-c", "import time; t = time.perf_counter(); import fole.cli; "
                      "print((time.perf_counter() - t) * 1e3)"] if args.trace
               else ["-m", "fole.cli", "eval", "--workspace", "tiny.json",
                     "--structure", "M", "~P"])
    probes = {"startup": {"args": startup, "runs": STARTUP_RUNS,
                          "self_timed": bool(args.trace),
                          "warmup": STARTUP_WARMUP, "offset": 0.0}}
    if not args.trace:
        # the set-up samples run in fresh processes spread over the timed
        # loop, half a spacing after the start-up samples
        probes["setup"] = {"args": [str(HERE / "prepare.py"), args.workload,
                                    str(args.seed), str(run_dir / "again")],
                           "runs": SETUP_RUNS, "self_timed": True,
                           "warmup": SETUP_WARMUP, "offset": 0.5}
    plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": str(SRC), "trace": args.trace, "probes": probes,
                   "seconds": args.seconds, "keep": str(keep),
                   "commands": commands, "schedule": plan.schedule}, fh)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                    str(result_path)], cwd=ws_dir, check=True,
                   timeout=CHILD_TIMEOUT)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    attempts = result["attempts"]

    gate = Gate(str(ws_dir), commands, args.seed)
    failed, reasons = tally(attempts, judge(gate, attempts, str(keep)))

    probes = result["probes"]
    if args.trace:
        metrics = dict(result["layer"])
        metrics["cli.import_ms"] = (probe_median(probes["startup"]), "ms")
    else:
        metrics = end_to_end(attempts, commands, probes["setup"],
                             result["peak_rss_kb"], probes["startup"])
    wall = {kind: [a[1] * 1e3 for a in attempts
                   if commands[a[0]]["kind"] == kind]
            for kind in ("read", "write")}
    summary = {
        "workload": args.workload, "seed": args.seed,
        "attempted": len(attempts), "failed": failed,
        "fail_frac": failed / len(attempts),
        "reads": sum(commands[a[0]]["kind"] == "read" for a in attempts),
        "writes": sum(commands[a[0]]["kind"] == "write" for a in attempts),
        "distinct_commands": len(commands), **plan.facts,
        "reference_ms": statistics.median(a[-1] for a in attempts) * 1e3,
        **{f"wall_{kind}_p50_ms": statistics.median(v)
           for kind, v in wall.items() if v},
        "failures": reasons[:10],
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(attempts),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fole" / "cli.py").is_file():
        print(f"no fole sources under {SRC}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
