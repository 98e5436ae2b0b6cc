"""Per-layer tracing from outside the program.

``Tracer.install`` replaces selected ``fole`` functions and methods with
wrappers that count calls, result sizes and self time, in every ``fole``
module that imported them by name; ``uninstall`` puts the originals back.
Self time is a call's duration minus the time of wrapped calls nested in it;
total time counts only the outermost call of a recursive function.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time


def _len_tuples(rel):
    return len(rel.tuples)


def _len_rows(table):
    return len(table.rows)


def _first_arg(args, kwargs):
    return args[0]


# (span key, module, attribute path, result-size metric (name pattern,
# function), split of the span key by an argument)
TARGETS = [
    ("cli.main", "fole.cli", "main", None, None),
    ("workspace.load_workspace", "fole.workspace", "load_workspace",
     ("workspace.diagnostics", lambda ws: len(ws.diagnostics)), None),
    ("workspace.table_to_json", "fole.workspace", "table_to_json", None, None),
    ("formula.parse_formula", "fole.formula", "parse_formula", None, None),
    ("formula.infer_signature", "fole.formula", "infer_signature", None, None),
    ("structure.interpret_relation", "fole.structure", "interpret_relation",
     ("{key}.result_tuples", _len_tuples), None),
    ("structure.interpret_table", "fole.structure", "interpret_table",
     ("{key}.result_rows", _len_rows), None),
    ("structure.satisfies_constraint", "fole.structure",
     "satisfies_constraint", None, None),
    ("structure.LaxStructure.validate", "fole.structure",
     "LaxStructure.validate", None, None),
    ("tables.fiber_boolean", "fole.tables", "fiber_boolean",
     ("{key}.result_tuples", _len_tuples), None),
    ("tables.fiber_flow", "fole.tables", "fiber_flow",
     ("{key}.result_tuples", _len_tuples), _first_arg),
    ("tables.table_substitution", "fole.tables", "table_substitution",
     ("{key}.result_rows", _len_rows), None),
    ("tables.table_flow_type_domain", "fole.tables", "table_flow_type_domain",
     ("{key}.result_rows", _len_rows), _first_arg),
    ("tables.check_table_morphism", "fole.tables", "check_table_morphism",
     None, None),
    ("tables.Table.validate", "fole.tables", "Table.validate", None, None),
    ("specs.satisfies_spec", "fole.specs", "satisfies_spec", None, None),
    ("specs.abstract_table_passage", "fole.specs", "abstract_table_passage",
     None, None),
    ("logic_db.validate_database", "fole.logic_db", "validate_database",
     None, None),
    ("logic_db.snd_to_db", "fole.logic_db", "snd_to_db", None, None),
    ("logic_db.db_to_snd", "fole.logic_db", "db_to_snd", None, None),
    ("logic_db.db_image", "fole.logic_db", "db_image", None, None),
    ("logic_db.SoundLogic.init", "fole.logic_db", "SoundLogic.__post_init__",
     None, None),
    ("core.enumerate_tuples", "fole.core", "enumerate_tuples",
     ("{key}.tuples", len), None),
    ("core.check_type_domain_morphism", "fole.core",
     "check_type_domain_morphism", None, None),
]
SPLITS = {"tables.fiber_flow": ("exists", "forall", "preimage"),
          "tables.table_flow_type_domain": ("dextro", "levo")}
# Outputs of the operations that enumerate fibers: the base of
# core.enumerated_per_output.
OUTPUT_KEYS = ("tables.fiber_boolean", "tables.fiber_flow.exists",
               "tables.fiber_flow.forall", "tables.fiber_flow.preimage",
               "tables.table_substitution",
               "tables.table_flow_type_domain.dextro",
               "tables.table_flow_type_domain.levo")
# Counted but never timed: it runs millions of times per run, and a timing
# wrapper would double the cost of the code that calls it.
COUNT_ONLY = ("core.tuple_along", "fole.core", "tuple_along")


def span_keys() -> dict:
    """Every span key a trace reports, bypassed layers included, with the
    result-size metric of its target."""
    keys = {}
    for prefix, _, _, size, _ in TARGETS:
        for key in ([f"{prefix}.{s}" for s in SPLITS[prefix]]
                    if prefix in SPLITS else [prefix]):
            keys[key] = size
    return keys


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "size", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.size = 0
        self.active = 0  # calls of this key now on the stack


class Tracer:
    def __init__(self):
        self.stats = {k: Stat() for k in span_keys()}
        self.count_only = itertools.count()
        self._stack = []  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original)

    def counted(self) -> int:
        """Calls of the count-only function so far (read once, at the end)."""
        return next(self.count_only)

    def metrics(self, per: int) -> dict:
        """Name -> (value, unit): calls and result sizes as totals, self and
        total time divided by ``per`` commands."""
        out = {}
        for (key, size), st in zip(span_keys().items(), self.stats.values()):
            out[f"{key}.calls"] = (st.calls, "count")
            out[f"{key}.self_s"] = (st.self_s / per, "s/cmd")
            out[f"{key}.total_s"] = (st.total_s / per, "s/cmd")
            if size:
                out[size[0].format(key=key)] = (st.size, "count")
        return out

    def _wrap(self, prefix, fn, size, split):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter
        size_fn = size[1] if size else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{prefix}.{split(args, kwargs)}" if split else prefix
            st = stats[key]
            st.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st.active -= 1
                st.calls += 1
                st.self_s += dt - child
                if not st.active:
                    st.total_s += dt
            if size_fn is not None:
                st.size += size_fn(result)
            return result

        return wrapper

    def _counter(self, fn):
        tick = self.count_only

        @functools.wraps(fn)
        def wrapper(*args, _next=next):
            _next(tick)
            return fn(*args)

        return wrapper

    def install(self, count_only: bool = False):
        """Wrap every target; with ``count_only`` also count ``tuple_along``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fole" or n.startswith("fole.")]
        for prefix, mod, path, size, split in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[mod]
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(prefix, original, size, split))
                continue
            original = getattr(owner, attr)
            self._patch_everywhere(modules, original,
                                   self._wrap(prefix, original, size, split))
        if count_only:
            _, mod, attr = COUNT_ONLY
            original = getattr(sys.modules[mod], attr)
            self._patch_everywhere(modules, original, self._counter(original))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _patch_everywhere(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
