"""Fuzzing the CLI: mutated fixture workspaces and mangled argv never end in
a traceback."""

import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from fole.cli import main
from fole.workspace import load_workspace_data
from test_cli import eager_diagnostics

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "workspace.json")
with open(FIXTURE, encoding="utf-8") as _fh:
    RAW = json.load(_fh)


def json_paths(value, prefix=()):
    """The path of every value inside ``value``, parents before children."""
    if isinstance(value, (dict, list)):
        keys = value if isinstance(value, dict) else range(len(value))
        for k in keys:
            yield prefix + (k,)
            yield from json_paths(value[k], prefix + (k,))


PATHS = list(json_paths(RAW))
# every name in the fixture (of items, predicates, sorts, attributes, keys)
# and a name of nothing: a string replaced by one of these breaks or
# redirects a reference
NAMES = sorted({k for path in PATHS for k in path if isinstance(k, str)}
               | {"nope"})
# a value of every JSON type, empty and not
VALUES = [None, 0, -1, 2.5, True, "", "nope", [], ["nope"], [["S", "S"]], {},
          {"nope": "nope"}]

COMMANDS = [
    ["eval", "-s", "M", "Emp"],
    ["eval", "-s", "M", "exists[h] Emp", "--as-table"],
    ["eval", "-s", "N", "PairC", "--json"],
    ["check", "structure", "M", "N"],
    ["check", "database", "DB"],
    ["check", "morphism", "idM", "idFK", "idDB", "h", "p0", "collapse", "idA"],
    ["check", "spec-sat", "M", "FK"],
    ["check", "spec-sat", "M", "Broken", "--json"],
    ["convert", "snd-to-db", "M:FK"],
    ["convert", "db-to-snd", "DB"],
    ["convert", "db-image", "DB"],
    ["migrate", "N.PairC", "collapse", "dextro"],
    ["migrate", "M.Emp", "collapse", "levo"],
]


def mutate(raw, path, kind: str, value, name: str) -> None:
    """Drop the entry at ``path``, or give it a value of another JSON type
    or another name; a path that earlier mutations removed is skipped."""
    *steps, k = path
    parent = raw
    try:
        for step in steps:
            parent = parent[step]
        if not isinstance(parent, (dict, list)):
            return
        parent[k]
    except (KeyError, IndexError, TypeError):
        return
    if kind == "drop":
        del parent[k]
    else:
        parent[k] = value if kind == "swap" else name


mutations = st.lists(st.tuples(
    st.sampled_from(PATHS), st.sampled_from(["drop", "swap", "reference"]),
    st.sampled_from(VALUES), st.sampled_from(NAMES)), min_size=1, max_size=3)
# a token after the workspace path dropped or duplicated, or none
argv_edits = st.tuples(st.sampled_from(["keep", "drop", "duplicate"]),
                       st.integers(3, 9))
# the command's formula nested, up to past the nesting cap of 100
nestings = st.tuples(st.sampled_from(["~", "("]), st.integers(0, 120))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutations, st.sampled_from(COMMANDS), argv_edits, nestings)
def test_main_never_raises(tmp_path_factory, mutation_list, command, edit,
                           nesting):
    raw = json.loads(json.dumps(RAW))
    for path, kind, value, name in mutation_list:
        mutate(raw, path, kind, value, name)
    # records diagnostics, never raises, and builds items as an eager load
    diagnostics = load_workspace_data(raw).diagnostics
    assert [(d.section, d.name, d.error) for d in diagnostics] == \
        eager_diagnostics(raw)
    tmp = tmp_path_factory.mktemp("fuzz")
    ws_path = tmp / "ws.json"
    ws_path.write_text(json.dumps(raw), encoding="utf-8")
    argv = [command[0], "-w", str(ws_path)] + command[1:]
    if command[0] == "eval":
        op, depth = nesting
        argv[5] = op * depth + argv[5] + ")" * depth * (op == "(")
    if command[0] in ("convert", "migrate"):
        argv += ["--out", str(tmp / "out.json")]
    action, i = edit
    if action != "keep" and i < len(argv):
        argv[i:i + 1] = [] if action == "drop" else [argv[i]] * 2
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:  # argparse's own exit on argv it rejects
        code = exc.code
    assert code in (0, 1, 2)
    if code == 2 and out.getvalue().startswith("ITEM "):
        # a failed command reports every diagnostic, in load order
        assert out.getvalue() == "".join(
            f"ITEM {d.section}/{d.name}: FAIL {d.error}\n" for d in diagnostics)
