"""Fuzzing the CLI: mutated fixture workspaces and mangled argv never end in
a traceback, and every bad input is a ``FoleError`` diagnostic: never one
named after a Python exception, and a ``ShapeError`` names a JSON path."""

import builtins
import io
import json
import os
import random
import re

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


# the names of Python's own exceptions: no diagnostic may carry one
BUILTIN_ERRORS = {n for n, v in vars(builtins).items()
                  if isinstance(v, type) and issubclass(v, BaseException)}
# the code of each diagnostic in CLI output: ERROR lines, the ITEM lines of
# a failed command and the FAIL lines of check
CODES = re.compile(r"^(?:ERROR |ITEM \S+: FAIL )(\w+)", re.M)
SHAPE = re.compile(r"(.*?): (?:missing key '(.*)'|expected (an object|a list"
                   r"|a string|a list of 2), got .*)")
STEP = re.compile(r"\.([^.\[]+)|\[(\d+)\]")
KINDS = {"an object": dict, "a list": list, "a string": str, "a list of 2": list}


def at_path(raw, path: str):
    """The value at a diagnostic's JSON path: "workspace" is the file, else a
    section key followed by ``.key`` and ``[index]`` steps."""
    if path == "workspace":
        return raw
    section, _, rest = path.partition(".")
    value = raw[section]
    rest = "." + rest if rest else ""
    steps = STEP.findall(rest)
    assert "".join(f".{k}" if k else f"[{i}]" for k, i in steps) == rest, path
    for key, index in steps:
        value = value[key] if key else value[int(index)]
    return value


def assert_sound(raw, errors) -> None:
    """No diagnostic is named after a Python exception, and each
    ``ShapeError`` names a place in ``raw`` that is of the wrong JSON type,
    or an object in it that lacks the key it names."""
    for error in errors:
        code, _, message = error.partition(": ")
        assert code not in BUILTIN_ERRORS, error
        if code == "ShapeError":
            path, missing, expected = SHAPE.fullmatch(message).groups()
            value = at_path(raw, path)
            if missing is not None:
                assert isinstance(value, dict) and missing not in value, error
            else:
                assert not isinstance(value, KINDS[expected]) or \
                    expected == "a list of 2" and len(value) != 2, error


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
    assert_sound(raw, [d.error for d in diagnostics])
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
    assert not BUILTIN_ERRORS & set(CODES.findall(out.getvalue()))
    if code == 2 and out.getvalue().startswith("ITEM "):
        # a failed command reports every diagnostic, in load order
        assert out.getvalue() == "".join(
            f"ITEM {d.section}/{d.name}: FAIL {d.error}\n" for d in diagnostics)


def test_seeded_mutation_sweep(tmp_path):
    """1200 seeded mutants, each of one to three mutations: the loader's
    diagnostics are sound and those of an eager load, and a command over
    the mutant ends in a report, never in a traceback."""
    ws_path = tmp_path / "ws.json"
    for seed in range(1200):
        rng = random.Random(seed)
        raw = json.loads(json.dumps(RAW))
        for _ in range(rng.randint(1, 3)):
            mutate(raw, rng.choice(PATHS), rng.choice(["drop", "swap", "reference"]),
                   rng.choice(VALUES), rng.choice(NAMES))
        errors = [d.error for d in load_workspace_data(raw).diagnostics]
        assert errors == [e for _, _, e in eager_diagnostics(raw)]
        assert_sound(raw, errors)
        ws_path.write_text(json.dumps(raw), encoding="utf-8")
        command = COMMANDS[seed % len(COMMANDS)]
        argv = [command[0], "-w", str(ws_path)] + command[1:]
        if command[0] in ("convert", "migrate"):
            argv += ["--out", str(tmp_path / "out.json")]
        out = io.StringIO()
        assert main(argv, out=out) in (0, 1, 2)
        assert not BUILTIN_ERRORS & set(CODES.findall(out.getvalue()))
