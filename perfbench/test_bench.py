"""Self-test of the benchmark's correctness gate and failure count.

    python3 -m pytest perfbench/test_bench.py -q

Runs a few cheap commands of each workload in-process, checks that the gate
passes them, then plants wrong outputs and checks that each one is counted
as a failed attempt.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fole.cli as cli  # noqa: E402
from gate import Gate, judge, tally  # noqa: E402
from worker import run_commands  # noqa: E402
from workloads import HEAVY_SHARE, PLANS  # noqa: E402

SEED = 3


def cheap(workload, commands):
    """Indices of a few quick commands: both kinds, each check type."""
    if workload == "query":  # light formulas only: the heavy ones come first
        reads = [i for i, c in enumerate(commands) if c["kind"] == "read"]
        heavy = round(len(reads) * HEAVY_SHARE)
        reads = reads[heavy:heavy + 6]
        return reads + [i for i, c in enumerate(commands)
                        if c["kind"] == "write"][:2]
    if workload == "integrity":
        return list(range(8))  # the smallest workspace, all eight commands
    return [0, 1, 2]  # slot 0 of migrate: dextro, levo, subst


@pytest.fixture(params=sorted(PLANS))
def ran(request, tmp_path, monkeypatch):
    plan = PLANS[request.param](SEED)
    for name, data in plan.workspaces.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "out").mkdir()
    keep = tmp_path / "first"
    keep.mkdir()
    commands = [asdict(c) for c in plan.commands]
    order = cheap(request.param, commands)
    monkeypatch.chdir(tmp_path)
    attempts = run_commands(cli, commands, order, keep=str(keep))
    gate = Gate(str(tmp_path), commands, SEED)
    gate.oracle = set(order)  # every cheap eval goes to the oracle
    return gate, attempts, keep


def test_correct_outputs_pass(ran):
    gate, attempts, keep = ran
    assert tally(attempts, judge(gate, attempts, str(keep))) == (0, [])


def test_planted_wrong_stdout_is_counted(ran):
    gate, attempts, keep = ran
    victim = attempts[-1][0]
    path = keep / f"{victim}.stdout"
    text = path.read_text()
    # drop one output line, or the whole report if it is a single line
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) if len(lines) > 1 else "WRONG\n")
    failed, reasons = tally(attempts, judge(gate, attempts, str(keep)))
    assert failed == 1 and reasons[0].startswith(f"command {victim}:")


def test_planted_wrong_file_is_counted(ran):
    gate, attempts, keep = ran
    victim = next(a[0] for a in attempts if gate.commands[a[0]]["out"])
    out = Path(gate.run_dir) / gate.commands[victim]["out"]
    frag = json.loads(out.read_text())
    tables = next(iter(frag.get("databases", frag.get("structures")).values()))
    rows = next(t["rows"] for t in tables["tables"].values() if t["rows"])
    rows.pop(next(iter(rows)))
    out.write_text(json.dumps(frag))
    failed, _ = tally(attempts, judge(gate, attempts, str(keep)))
    assert failed == 1


def test_repeat_with_other_output_is_counted(ran):
    gate, attempts, keep = ran
    first = attempts[0]
    repeat = [first[0], first[1], first[2], "0" * 64, None]
    failed, _ = tally(attempts + [repeat], judge(gate, attempts, str(keep)))
    assert failed == 1


def test_wrong_witness_is_counted(tmp_path):
    plan = PLANS["integrity"](SEED)
    commands = [asdict(c) for c in plan.commands]
    bad = next(i for i, c in enumerate(commands) if "Bad" in c["argv"])
    gate = Gate(str(tmp_path), commands, SEED)
    lines = commands[bad]["check"]["lines"]
    assert gate.verdict(bad, 1, "\n".join(lines) + "\n") is None
    swapped = [line.replace("witness tuple", "witness tuple ('x',) and")
               for line in lines]
    assert gate.verdict(bad, 1, "\n".join(swapped) + "\n") is not None
    assert gate.verdict(bad, 0, "\n".join(lines) + "\n") is not None


def test_no_result_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "query",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""


def test_setup_sample_times_and_cleans_up(tmp_path):
    ws_dir = tmp_path / "again"
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "migrate", str(SEED),
         str(ws_dir)],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")))
    assert float(proc.stdout) > 0 and not ws_dir.exists()
