"""Set-up of a workload: generate its workspaces, write them, load the first.

``run.py`` calls ``set_up`` once for the workspaces its commands use.  The
``setup_s`` samples come from this file run as a script in fresh processes,
spread over the timed loop by ``worker.py``:

    python3 prepare.py WORKLOAD SEED DIR

It sets up into DIR (which must not exist), prints the seconds that took,
and removes DIR again.  It exits non-zero if the first workspace loads with
diagnostics.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import time
from pathlib import Path

from workloads import PLANS


def set_up(workload: str, seed: int, ws_dir: Path):
    """Generate and write the workspaces into ``ws_dir``, then load the
    first one.  Returns the plan and the seconds it took."""
    from fole import load_workspace

    gc.collect()
    t0 = time.perf_counter()
    plan = PLANS[workload](seed)
    (ws_dir / "out").mkdir(parents=True)
    for name, data in plan.workspaces.items():
        with open(ws_dir / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    ws = load_workspace(str(ws_dir / next(iter(plan.workspaces))))
    seconds = time.perf_counter() - t0
    if ws.diagnostics:
        raise SystemExit(f"generated workspace has diagnostics: "
                         f"{ws.diagnostics}")
    return plan, seconds


def main(argv) -> int:
    workload, seed, ws_dir = argv
    ws_dir = Path(ws_dir)
    try:
        print(set_up(workload, int(seed), ws_dir)[1])
    finally:
        shutil.rmtree(ws_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
