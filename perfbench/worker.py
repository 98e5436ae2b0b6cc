"""Runs a plan's CLI commands in one process and reports what happened.

Usage: ``python3 worker.py PLAN.json RESULT.json``, started by ``run.py``
with the run directory as working directory.  Set-up happens in the parent,
and the set-up and start-up samples run in child processes of this one, so
this process's peak resident memory covers only the timed commands.

Load is a closed loop: one client, no threads; each command starts after
the previous one has returned.  Garbage is collected between commands,
outside the timed region.  The first output of each distinct command is
kept on disk for the correctness gate; every attempt is fingerprinted so
the gate can check that repeats print the same bytes.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
import traceback

# reads and writes each: p90 then has at least ten samples beyond it
MIN_SAMPLES = 100
# rows of the reference task: about 1 ms of work on an unloaded host
REFERENCE_ROWS = 2000


def digest(rc, text: str, out_path) -> str:
    h = hashlib.sha256(f"{rc}\0{text}\0".encode())
    if out_path and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that never calls
    fole: filling and scanning a dict of tuple keys, as fole's tables do.
    Timed right before each command and around each probe sample, it gives
    the host's speed at that moment."""
    t0 = time.perf_counter()
    rows = {(f"v{i % 16}", i, i % 7): [i, str(i)]
            for i in range(REFERENCE_ROWS)}
    {k[1] for k, v in rows.items() if v[0] % 3}
    return time.perf_counter() - t0


def run_one(cli, argv):
    """One timed call of ``fole.cli.main``: (rc, seconds, stdout, error,
    seconds of the reference task run just before it)."""
    buf = io.StringIO()
    gc.collect()
    ref = reference()
    rc, err = None, None
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(argv), out=buf)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception:
        err = traceback.format_exc()
    return rc, time.perf_counter() - t0, buf.getvalue(), err, ref


class Probe:
    """A number from ``python3 ARGS`` in fresh processes: the program's
    wall time in ms, or with ``self_timed`` the number it prints itself,
    each sample paired with the mean time of the reference task run just
    before and just after it.
    The ``runs`` samples are spread evenly over the timed loop,
    outside its timed regions, so that a slow spell of the machine does not
    fall on all of them; ``offset`` (a share of one spacing) keeps two
    probes from running back to back.  ``warmup`` first runs that fill the
    file and bytecode caches are not counted."""

    def __init__(self, src, seconds, args, runs, self_timed, warmup, offset):
        self.args = args
        self.runs = runs
        self.self_timed = self_timed
        self.offset = offset
        self.env = dict(os.environ, PYTHONPATH=src)
        self.seconds = seconds
        self.samples = []
        for _ in range(warmup):
            self.once()

    def once(self) -> list:
        ref = reference()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *self.args], env=self.env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        dt = (time.perf_counter() - t0) * 1e3
        ref = (ref + reference()) / 2
        return [float(proc.stdout) if self.self_timed else dt, ref]

    def poll(self, elapsed: float):
        due = (len(self.samples) + self.offset) * self.seconds / self.runs
        if len(self.samples) < self.runs and elapsed >= due:
            self.samples.append(self.once())

    def finish(self) -> list:
        while len(self.samples) < self.runs:
            self.samples.append(self.once())
        return self.samples


class Probes:
    """The plan's probes by name, polled and finished together.  ``spent``
    is the seconds polling took, which the timed loop does not count as its
    own, so probes do not take samples away from the commands."""

    def __init__(self, plan):
        self.probes = {name: Probe(plan["src"], plan["seconds"], **spec)
                       for name, spec in plan["probes"].items()}
        self.spent = 0.0

    def poll(self, elapsed: float):
        t0 = time.perf_counter()
        for probe in self.probes.values():
            probe.poll(elapsed)
        self.spent += time.perf_counter() - t0

    def finish(self) -> dict:
        return {name: probe.finish() for name, probe in self.probes.items()}


def run_commands(cli, commands, order, seconds=None, keep=None, probes=None):
    """Run ``commands[i]`` for i in ``order``: once, or with ``seconds``
    set, in whole rounds until they have lasted that long and each kind of
    command has ``MIN_SAMPLES`` attempts.  Returns attempts
    ``[index, seconds, rc, digest, error, reference seconds]``; with
    ``keep`` set, the first stdout of each command is written there;
    ``probes`` are polled between commands."""
    attempts, done = [], collections.Counter()
    start = time.perf_counter()
    for n in itertools.count():
        if seconds is None and n == len(order):
            break
        elapsed = time.perf_counter() - start - (probes.spent if probes else 0)
        if (seconds is not None and elapsed >= seconds and n % len(order) == 0
                and min(done.values(), default=0) >= MIN_SAMPLES):
            break
        if probes is not None:
            probes.poll(elapsed)
        i = order[n % len(order)]
        cmd = commands[i]
        if cmd["out"] and os.path.exists(cmd["out"]):
            os.remove(cmd["out"])
        rc, dt, text, err, ref = run_one(cli, cmd["argv"])
        attempts.append([i, dt, rc, digest(rc, text, cmd["out"]), err, ref])
        done[cmd["kind"]] += 1
        first = keep and os.path.join(keep, f"{i}.stdout")
        if first and not os.path.exists(first):
            with open(first, "w", encoding="utf-8") as fh:
                fh.write(text)
    return attempts


def traced(cli, plan) -> dict:
    """Per-layer numbers: exact counts over one pass of every distinct
    command, then self times over a timed loop in which each command also
    runs once untraced, to measure what tracing costs."""
    from spans import OUTPUT_KEYS, Tracer

    commands = plan["commands"]
    distinct = sorted(set(plan["schedule"]))
    counter = Tracer()
    counter.install(count_only=True)
    try:
        run_commands(cli, commands, distinct)
    finally:
        counter.uninstall()
    probes = Probes(plan)
    timer = Tracer()
    attempts, plain_s = [], 0.0
    start = time.perf_counter()
    for n, i in enumerate(itertools.cycle(plan["schedule"])):
        elapsed = time.perf_counter() - start - probes.spent
        if elapsed >= plan["seconds"] and n % len(plan["schedule"]) == 0:
            break
        probes.poll(elapsed)
        # each command runs traced and untraced, back to back in alternating
        # order: the two see the same state of the machine and the same
        # warm caches on average, so their ratio is the cost of tracing
        for traced_now in ((False, True) if n % 2 else (True, False)):
            if not traced_now:
                plain_s += run_commands(cli, commands, [i])[0][1]
                continue
            timer.install()
            try:
                attempts += run_commands(cli, commands, [i],
                                         keep=plan["keep"])
            finally:
                timer.uninstall()
    counts = counter.metrics(len(distinct))
    times = timer.metrics(len(attempts))
    layer = {k: (times if k.endswith("_s") else counts)[k] for k in counts}
    layer["core.tuple_along.calls"] = (counter.counted(), "count")
    produced = sum(counter.stats[k].size for k in OUTPUT_KEYS)
    enumerated = counter.stats["core.enumerate_tuples"].size
    layer["tables.output_tuples"] = (produced, "count")
    layer["core.enumerated_per_output"] = (
        enumerated / produced if produced else 0.0, "ratio")
    layer["trace.commands"] = (len(distinct), "count")
    traced_s = sum(a[1] for a in attempts)
    layer["trace.cmd_s"] = (traced_s / len(attempts), "s/cmd")
    layer["trace.overhead_frac"] = (traced_s / plain_s - 1, "frac")
    return {"attempts": attempts, "layer": layer, "probes": probes.finish()}


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import fole.cli as cli

    if plan["trace"]:
        result = traced(cli, plan)
    else:
        probes = Probes(plan)
        result = {"attempts": run_commands(cli, plan["commands"],
                                           plan["schedule"], plan["seconds"],
                                           plan["keep"], probes),
                  "probes": probes.finish()}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
