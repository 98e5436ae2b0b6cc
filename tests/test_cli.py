"""Workspace loading and the four CLI commands against the fixture workspace."""

import io
import json
import os
import random
import sys

import pytest

from fole import (Relation, Schema, Signature, SignatureMorphism, SoundLogic,
                  check_signature_morphism, interpret_by_oracle, parse_formula,
                  check_type_domain_morphism, db_image, db_to_snd,
                  enumerate_tuples, key_equivalent, load_workspace, snd_to_db,
                  TypeDomain, table_flow_type_domain, validate_database,
                  validate_db_morphism, validate_lax_morphism,
                  validate_spec_morphism)
from fole import cli, logic_db, structure, tables
from fole.cli import _ordered_tuples, build_parser, cmd_eval, main
from fole.errors import FoleError, UnresolvedReference
from fole.workspace import SECTIONS, _shaped, key_name, load_workspace_data
from generators import (rand_lax_structure, rand_relation, rand_signature,
                        rand_type_domain)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "workspace.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def traced(fn):
    """``fn()`` and the per-layer tracer's span statistics over that call."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from spans import Tracer
    finally:
        sys.path.pop(0)
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, tracer.stats


class TestLoadWorkspace:
    def test_fixture_loads_clean(self):
        ws = load_workspace(FIXTURE)
        assert not ws.diagnostics
        assert set(ws.structures) == {"M", "N"}
        assert set(ws.databases) == {"DB"}

    def test_minimal_workspace(self):
        ws = load_workspace_data({
            "typeDomains": {"A": {"S": ["a"]}},
            "schemas": {"Sch": {"sorts": ["S"], "predicates": {}}},
            "structures": {"M": {"schema": "Sch", "typeDomain": "A",
                                 "tables": {}}},
        })
        assert not ws.diagnostics

    def test_bad_item_reported_not_fatal(self):
        ws = load_workspace_data({
            "typeDomains": {"A": {"S": ["a"]}},
            "schemas": {"Sch": {"sorts": ["S"],
                                "predicates": {"P": [["0", "S"]]}}},
            "structures": {
                "bad": {"schema": "Sch", "typeDomain": "A",
                        "tables": {"P": {"rows": {"k": ["nope"]}}}},
                "good": {"schema": "Sch", "typeDomain": "A",
                         "tables": {"P": {"rows": {"k": ["a"]}}}},
            },
        })
        assert [d.name for d in ws.diagnostics] == ["bad"]
        assert "good" in ws.structures and "bad" not in ws.structures

    @pytest.mark.parametrize("raw, diagnostic", [
        ({"typeDomains": []}, ("workspace", "typeDomains",
                               "typeDomains: expected an object, got a list")),
        ({"typeDomains": {"A": {"S": "xy"}}},
         ("typeDomains", "A", "typeDomains.A.S: expected a list, got a string")),
        ({"structures": {"M": 3}},
         ("structures", "M", "structures.M: expected an object, got 3")),
        ({"typeDomains": {"A": {"S": ["a", ["b"]]}}},
         ("typeDomains", "A", "typeDomains.A.S[1]: expected a string, "
                              "got a list")),
        ({"schemas": {"Sch": {"sorts": ["S", "D", ["x"]], "predicates": {}}}},
         ("schemas", "Sch", "schemas.Sch.sorts[2]: expected a string, "
                            "got a list")),
        ({"schemas": {"Sch": {"sorts": [1, "S", "D"], "predicates": {}}}},
         ("schemas", "Sch", "schemas.Sch.sorts[0]: expected a string, got 1")),
        ({"schemas": {"Sch": {"sorts": "SD", "predicates": {}}}},
         ("schemas", "Sch", "schemas.Sch.sorts: expected a list, "
                            "got a string")),
        ([], ("workspace", "", "workspace: expected an object, got a list")),
    ])
    def test_shape_error_names_json_path(self, raw, diagnostic):
        ws = load_workspace_data(raw)
        assert [(d.section, d.name, d.error) for d in ws.diagnostics] == \
            [diagnostic[:2] + ("ShapeError: " + diagnostic[2],)]

    @pytest.mark.parametrize("path, value, error", [
        ((), "x", "structures.N.tables: expected an object, got a string"),
        (("PairC",), [], "structures.N.tables.PairC: expected an object, "
                         "got a list"),
        (("PairC", "rows"), 3, "structures.N.tables.PairC.rows: expected an "
                               "object, got 3"),
    ])
    def test_structure_table_shape_errors_name_json_path(self, path, value,
                                                          error):
        raw = json.load(open(FIXTURE))
        *steps, last = ("tables",) + path
        parent = raw["structures"]["N"]
        for step in steps:
            parent = parent[step]
        parent[last] = value
        assert [(d.section, d.name, d.error)
                for d in load_workspace_data(raw).diagnostics] == \
            [("structures", "N", "ShapeError: " + error)]

    def test_nested_shape_error_is_a_diagnostic(self):
        ws = load_workspace_data({"schemas": {"Sch": {"sorts": ["S"],
                                                      "predicates": []}}})
        assert [(d.section, d.name) for d in ws.diagnostics] == \
            [("schemas", "Sch")]

    def test_unresolved_reference_reported(self):
        ws = load_workspace_data({
            "structures": {"M": {"schema": "nope", "typeDomain": "nope",
                                 "tables": {}}},
        })
        assert len(ws.diagnostics) == 1

    def test_dangling_morphism_names_are_unresolved_references(self):
        raw = json.load(open(FIXTURE))
        raw["structureMorphisms"]["idM"]["typeDomainMorphism"] = "nope"
        raw["dbMorphisms"]["idDB"]["specMorphism"] = "gone"
        ws = load_workspace_data(raw)
        assert [(d.section, d.name, d.error) for d in ws.diagnostics] == [
            ("structureMorphisms", "idM", "UnresolvedReference: unresolved "
                                          "typeDomainMorphism reference 'nope'"),
            ("dbMorphisms", "idDB", "UnresolvedReference: unresolved "
                                    "specMorphism reference 'gone'")]

    def test_section_shape_errors_come_before_its_build_errors(self):
        raw = json.load(open(FIXTURE))
        raw["structures"] = {"Z": 3, "Bad": strict_structure(k2=["bob", "zzz"]),
                             "Y": [], "W": dict(strict_structure(), schema="nope")}
        ws = load_workspace_data(raw)
        assert [(d.section, d.name, d.error.partition(":")[0])
                for d in ws.diagnostics
                if d.section == "structures"] == [
            ("structures", "Z", "ShapeError"),
            ("structures", "Y", "ShapeError"),
            ("structures", "Bad", "DefiningConditionViolation"),
            ("structures", "W", "UnresolvedReference")]


def strict_structure(**tuples) -> dict:
    """Structure M of the fixture in strict form: one global key set, k1
    classified by both Emp and Salaried; ``tuples`` overrides key tuples."""
    return {"schema": "Company", "typeDomain": "A", "kind": "strict",
            "keys": ["k1", "k2", "d1", "d2"],
            "classifies": [["k1", "Emp"], ["k2", "Emp"], ["d1", "Dept"],
                           ["d2", "Dept"], ["k1", "Salaried"]],
            "tuples": dict({"k1": ["ann", "hr"], "k2": ["bob", "hr"],
                            "d1": ["hr"], "d2": ["it"]}, **tuples)}


def strict_morphism(source: str, **key_map) -> dict:
    """A strict identity morphism from ``source`` to S along idA."""
    ident = {"Emp": {"name": "name", "dept": "dept"}, "Dept": {"dept": "dept"},
             "Salaried": {"name": "name", "dept": "dept"}}
    return {"source": source, "target": "S", "kind": "strict",
            "typeDomainMorphism": "idA",
            "predicateMap": {r: r for r in ident}, "bridges": ident,
            "keyMap": dict({k: k for k in ("k1", "k2", "d1", "d2")}, **key_map)}


class TestStrictItems:
    """Strict structures and strict structure morphisms load into their lax
    forms; each failure is one diagnostic on the item."""

    def load(self, structure=None, morphism=None):
        raw = json.load(open(FIXTURE))
        raw["structures"]["S"] = strict_structure()
        raw["structureMorphisms"]["idS"] = strict_morphism("S")
        if structure:
            raw["structures"]["X"] = structure
        if morphism:
            raw["structureMorphisms"]["mX"] = morphism
        return load_workspace_data(raw)

    def test_strict_items_load_clean(self):
        ws = self.load()
        assert not ws.diagnostics
        entry = ws.structures["S"]
        assert entry.strict is not None and ws.structures["M"].strict is None
        assert {r: t.rows for r, t in entry.lax.table_of.items()} == {
            "Emp": {"k1": ("ann", "hr"), "k2": ("bob", "hr")},
            "Dept": {"d1": ("hr",), "d2": ("it",)},
            "Salaried": {"k1": ("ann", "hr")}}
        lax, source, target = ws.structure_morphisms["idS"]
        assert (source, target) == ("S", "S")
        assert lax.key_bridge == {"Emp": {"k1": "k1", "k2": "k2"},
                                  "Dept": {"d1": "d1", "d2": "d2"},
                                  "Salaried": {"k1": "k1"}}

    def test_ill_sorted_classified_tuple(self):
        ws = self.load(structure=strict_structure(d2=["ann"]))
        assert [(d.section, d.name, d.error) for d in ws.diagnostics] == [
            ("structures", "X", "DefiningConditionViolation: key 'd2' "
                                "classified by 'Dept' has an ill-sorted tuple")]

    def write(self, tmp_path, structure) -> str:
        raw = json.load(open(FIXTURE))
        raw["structures"]["X"] = structure
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_classified_key_outside_the_key_set(self, tmp_path):
        """A classified key must be one of ``keys``; one outside them fails
        the structure instead of dropping out of every table."""
        bad = strict_structure(zz=["ann", "hr"])
        bad["classifies"].append(["zz", "Emp"])
        assert [(d.section, d.name, d.error) for d in self.load(bad).diagnostics] == [
            ("structures", "X", "UnresolvedReference: unresolved key reference 'zz'")]
        path = self.write(tmp_path, bad)
        assert run(["check", "-w", path, "structure", "X"]) == \
            (1, "ITEM X: FAIL UnresolvedReference unresolved key reference 'zz'\n")
        assert run(["eval", "-w", path, "-s", "X", "Emp"]) == \
            (2, "ITEM structures/X: FAIL UnresolvedReference: "
                "unresolved key reference 'zz'\n")

    @pytest.mark.parametrize("twice, stray, error", [
        (True, False, "FoleError: key set lists key 'k1' twice"),
        (False, True, "UnresolvedReference: unresolved key reference 'stray'"),
        (True, True, "FoleError: key set lists key 'k1' twice")])
    def test_key_listed_twice_or_tuple_outside_the_key_set(
            self, tmp_path, twice, stray, error):
        """``keys`` lists each key once and ``tuples`` holds rows only for its
        keys: a key listed again, then a stray row, fails the structure as
        it is grouped, so every command that reads it fails."""
        bad = strict_structure(**{"stray": [1, 2, 3]} if stray else {})
        bad["keys"] += ["k1"] if twice else []
        assert [(d.section, d.name, d.error) for d in self.load(bad).diagnostics] == [
            ("structures", "X", error)]
        path = self.write(tmp_path, bad)
        assert run(["check", "-w", path, "structure", "X"]) == \
            (1, "ITEM X: FAIL {} {}\n".format(*error.split(": ", 1)))
        assert run(["eval", "-w", path, "-s", "X", "Emp"]) == \
            (2, f"ITEM structures/X: FAIL {error}\n")

    @pytest.mark.parametrize("target, key_map, fault", [
        ("S", {"zz": "k1"}, "zz"), ("X", {"u": "nowhere"}, "nowhere")])
    def test_key_map_sends_target_keys_to_source_keys(self, tmp_path, target,
                                                      key_map, fault):
        """A strict key map is a function from the target's keys into the
        source's: an entry for a key outside the target's key set, or one
        that sends a key of it (X's unclassified ``u``) outside the source's,
        fails the morphism, naming that key."""
        x = strict_structure()
        x["keys"].append("u")
        morphism = dict(strict_morphism("S", **key_map), target=target)
        error = f"UnresolvedReference: unresolved key reference {fault!r}"
        assert [(d.section, d.name, d.error)
                for d in self.load(x, morphism).diagnostics] == [
            ("structureMorphisms", "mX", error)]
        raw = json.load(open(FIXTURE))
        raw["structures"].update(S=strict_structure(), X=x)
        raw["structureMorphisms"]["mX"] = morphism
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        assert run(["check", "-w", str(path), "morphism", "mX"]) == \
            (1, f"ITEM mX: FAIL UnresolvedReference unresolved key reference {fault!r}\n")

    def test_eval_reads_only_the_tables_it_names(self, tmp_path):
        """As for a lax structure, a bad row fails an eval that reads its
        table and the full check, not an eval that reads other tables."""
        path = self.write(tmp_path, strict_structure(d2=["ann"]))
        assert run(["eval", "-w", path, "-s", "X", "Emp"]) == \
            (0, "name:S\tdept:D\nann\thr\nbob\thr\n")
        fault = "DefiningConditionViolation key 'd2' classified by 'Dept' has an ill-sorted tuple"
        assert run(["check", "-w", path, "structure", "X"]) == (1, f"ITEM X: FAIL {fault}\n")
        code, text = run(["eval", "-w", path, "-s", "X", "Dept"])
        assert code == 2 and text.startswith("ITEM structures/X: FAIL DefiningConditionViolation: ")

    def test_first_fault_in_schema_order(self):
        """With a bad row in each of Emp and Dept, the check names the first
        failing predicate in schema order (Emp), not the least pair by repr."""
        ws = self.load(strict_structure(d2=["ann"], k2=["bob", "zzz"]))
        assert [(d.section, d.name, d.error) for d in ws.diagnostics] == [
            ("structures", "X", "DefiningConditionViolation: key 'k2' "
                                "classified by 'Emp' has an ill-sorted tuple")]

    def test_strict_morphism_from_a_lax_structure(self):
        ws = self.load(morphism=strict_morphism("M"))
        assert [(d.section, d.name, d.error) for d in ws.diagnostics] == [
            ("structureMorphisms", "mX", "UnresolvedReference: unresolved "
                                         "strict structure reference 'M'")]

    def test_swapped_keys(self):
        ws = self.load(morphism=strict_morphism("S", k1="d1", d1="k1"))
        assert [(d.section, d.name, d.error.partition(":")[0])
                for d in ws.diagnostics] == [
            ("structureMorphisms", "mX", "EntityInfomorphismViolation")]


class TestEval:
    def test_top_n2_four_rows(self):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", "top@n2"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "0:S\t1:S"
        assert lines[1:] == ["ann\tann", "ann\tbob", "bob\tann", "bob\tbob"]

    def test_meet_idempotent(self):
        _, a = run(["eval", "-w", FIXTURE, "-s", "M", "Emp /\\ Emp"])
        _, b = run(["eval", "-w", FIXTURE, "-s", "M", "Emp"])
        assert a == b

    def test_exists_projects(self):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", "exists[h] Emp"])
        assert code == 0
        assert text.strip().split("\n") == ["dept:D", "hr"]

    def test_as_table_lists_keys(self):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M",
                          "exists[h] Emp", "--as-table"])
        assert code == 0
        assert "-- table keys --" in text
        tail = text.split("-- table keys --\n")[1]
        assert tail.strip().split("\n") == ["k1\thr", "k2\thr"]

    def test_json_mirror(self):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", "top@nd",
                          "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload == {"signature": [["dept", "D"]],
                           "tuples": [["hr"], ["it"]]}

    def test_parse_error_exit_2(self):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", "Emp /\\"])
        assert code == 2
        assert text.startswith("ERROR ParseError")

    @pytest.mark.parametrize("formula, error", [
        ("(Emp", "expected ')', found end of input (at offset 4)"),
        ("Emp   ) ", "trailing input ')' (at offset 6)"),
    ])
    def test_parse_error_offset_is_the_tokens(self, formula, error):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", formula])
        assert (code, text) == (2, f"ERROR ParseError: {error}\n")

    def test_as_table_evaluates_once(self):
        argv = ["eval", "-w", FIXTURE, "-s", "M", "~(Emp /\\ Salaried) \\/ Emp"]
        plain = traced(lambda: run(argv))[1]
        keyed = traced(lambda: run(argv + ["--as-table"]))[1]
        for key, calls in [("formula.infer_signature", 6),
                           ("tables.fiber_boolean", 3)]:
            assert plain[key].calls == keyed[key].calls == calls


class TestFormulaTypeErrors:
    """An ill-typed flow is reported by the one type check before any
    evaluation, with the same diagnostic wherever it sits."""

    EXISTS = ("ERROR FlowMismatch: exists body over (dept:D), "
              "expected (name:S,dept:D)")

    @pytest.mark.parametrize("formula, line", [
        ("exists[h] Dept", EXISTS),
        ("Dept /\\ exists[h] Dept", EXISTS),
        ("subst[h] Emp", "ERROR FlowMismatch: subst body over "
                         "(name:S,dept:D), expected (dept:D)"),
        ("forall[h] Dept", "ERROR FlowMismatch: forall body over (dept:D), "
                           "expected (name:S,dept:D)"),
    ])
    def test_ill_typed_flow(self, formula, line):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", formula])
        assert (code, text) == (2, line + "\n")


def nested(shape: str, depth: int) -> str:
    """A formula over ``Emp`` with ``depth`` nesting levels of one shape."""
    if shape == "neg":
        return "~" * depth + "Emp"
    if shape == "paren":
        return "(" * depth + "Emp" + ")" * depth
    return f" {shape} ".join(["Emp"] * (depth + 1))


# each shape at the nesting cap and the formula it must evaluate like
SHAPES = {"neg": "Emp", "paren": "Emp", "=>": "Emp => Emp", "/\\": "Emp"}


class TestNestingCap:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_cap_evaluates(self, shape):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", nested(shape, 100)])
        assert code == 0
        assert text == run(["eval", "-w", FIXTURE, "-s", "M", SHAPES[shape]])[1]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_cap_evaluates_traced(self, shape):
        """The per-layer tracer adds a wrapper frame to each traced call."""
        (code, text), stats = traced(lambda: run(
            ["eval", "-w", FIXTURE, "-s", "M", nested(shape, 100)]))
        assert code == 0
        assert text == run(["eval", "-w", FIXTURE, "-s", "M", SHAPES[shape]])[1]
        assert stats["formula.parse_formula"].calls == 1

    @pytest.mark.parametrize("depth", [101, 3000])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_past_cap_is_parse_error(self, shape, depth):
        code, text = run(["eval", "-w", FIXTURE, "-s", "M", nested(shape, depth)])
        # the offset of the token that opens level 101, past the space
        # in front of it
        offset = 100 if shape in ("neg", "paren") else len(nested(shape, 100)) + 1
        assert nested(shape, depth)[offset] in "~(=/"
        assert (code, text) == (2, "ERROR ParseError: formula nested deeper "
                                   f"than 100 levels (at offset {offset})\n")


def test_eval_order_is_enumeration_order(monkeypatch):
    """``eval`` walks the fiber where the result fills an eighth of it or
    more, and sorts by extent indices below that; either way the order is
    the fiber's enumeration order, for empty relations, zero-arity
    signatures and empty extents too.  Each relation lies just above or
    just below the crossing density."""
    sorts = []
    monkeypatch.setattr(cli, "sorted", raising=False,
                        value=lambda *a, **k: sorts.append(1) or sorted(*a, **k))
    rng = random.Random(7)
    cases = walks = 0
    shapes = set()  # (zero arity, empty fiber, walked)
    for i in range(400):
        td = rand_type_domain(rng, max_extent=5, min_extent=i % 4 > 0)
        # extents out of value order, so sorting by value would differ
        td = TypeDomain(td.sorts, {x: tuple(rng.sample(vs, len(vs)))
                                   for x, vs in td.extents.items()})
        sig = rand_signature(rng, td, max_len=4 if i % 3 else 0,
                             min_len=i % 3 > 0)
        fiber = enumerate_tuples(sig, td)
        at = -(-len(fiber) // 8)  # the fewest tuples that are walked
        size = max(0, at - 1) if i % 2 else at
        rel = Relation.of(sig, rng.sample(fiber, size))
        before = len(sorts)
        assert _ordered_tuples(rel, td) == [t for t in fiber
                                            if t in rel.tuples]
        walked = len(sorts) == before
        assert walked == (8 * len(rel) >= len(fiber))
        walks += walked
        cases += len(rel.tuples) > 1
        shapes.add((len(sig) == 0, not fiber, walked))
    assert walks >= 50 and 400 - walks >= 50 and cases > 80
    # zero arity both ways; an empty extent leaves nothing to sort
    assert {(True, False, True), (True, False, False), (False, True, True)} <= shapes


def test_eval_rejects_a_value_twice_in_an_extent(tmp_path):
    """An extent that lists a value twice would make ``forall`` count it
    twice (``forall[h] P`` held nowhere here, where the oracle gives
    ``(x)``): the type domain rejects it, naming its sort and the value, and
    the loader reports that on the type domain."""
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({
        "typeDomains": {"A": {"S": ["a", "a"], "D": ["x"]}},
        "schemas": {"sch": {"sorts": ["S", "D"], "predicates": {
            "P": [["s", "S"], ["d", "D"]]}}},
        "sigMorphisms": {"h": {"source": [["d", "D"]],
                               "target": [["s", "S"], ["d", "D"]],
                               "map": {"d": "d"}}},
        "structures": {"M": {"schema": "sch", "typeDomain": "A", "kind": "lax",
                             "tables": {"P": {"rows": {"k": ["a", "x"]}}}}}}))
    code, text = run(["eval", "-w", str(path), "-s", "M", "forall[h] P"])
    assert code == 2
    assert text.splitlines()[0] == ("ITEM typeDomains/A: FAIL FoleError: extent "
                                    "of sort 'S' lists value 'a' twice")
    with pytest.raises(FoleError, match="sort 'S' lists value 'b' twice"):
        TypeDomain(("S",), {"S": ("b", "a", "b")})


class TestCheck:
    def test_satisfied_spec_green(self):
        code, text = run(["check", "-w", FIXTURE, "spec-sat", "M", "FK"])
        assert code == 0
        assert text.strip() == "ITEM FK.empDept: OK"

    def test_refuted_spec_red_with_tuple(self):
        code, text = run(["check", "-w", FIXTURE, "spec-sat", "M", "Broken"])
        assert code == 1
        assert "ITEM Broken.empSalaried: FAIL Unsatisfied" in text
        assert "bob" in text  # the escaping Emp tuple is named

    def test_structure_ok(self):
        code, text = run(["check", "-w", FIXTURE, "structure", "M", "N"])
        assert code == 0
        assert text.strip().split("\n") == ["ITEM M: OK", "ITEM N: OK"]

    def test_database_ok(self):
        code, text = run(["check", "-w", FIXTURE, "database", "DB"])
        assert code == 0

    def test_morphisms_ok(self):
        code, text = run(["check", "-w", FIXTURE, "morphism",
                          "idM", "idFK", "idDB", "h", "collapse"])
        assert code == 0
        assert text.count(": OK") == 5

    def test_db_morphism_with_inline_spec_morphism(self, tmp_path):
        """A db morphism may state its spec morphism's maps inline instead
        of naming one; a bad inline bridge is reported like a named one's."""
        raw = json.load(open(FIXTURE))
        dm = raw["dbMorphisms"]["idDB"]
        del dm["specMorphism"]
        dm.update({k: v for k, v in raw["specMorphisms"]["idFK"].items()
                   if k not in ("source", "target")})
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        assert run(["check", "-w", str(path), "morphism", "idDB"]) == \
            (0, "ITEM idDB: OK\n")
        dm["bridges"]["Emp"]["name"] = "nope"
        path.write_text(json.dumps(raw))
        assert run(["check", "-w", str(path), "morphism", "idDB"]) == \
            (1, "ITEM idDB: FAIL SortMismatch sort mismatch at index 'name': "
                "expected '<target attribute>', found 'nope'\n")

    def test_invalid_db_morphism_reported(self, tmp_path):
        raw = json.load(open(FIXTURE))
        # break the key bridge: d2 holds (it,), not k1's projection target
        raw["dbMorphisms"]["idDB"]["keyBridges"]["Dept"]["d1"] = "d2"
        ws = load_workspace_data(raw)
        assert any(d.section == "dbMorphisms" and
                   "KeyBridgeViolation" in d.error for d in ws.diagnostics)
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        code, text = run(["check", "-w", str(path), "morphism", "idDB"])
        assert code == 1
        assert text.startswith("ITEM idDB: FAIL KeyBridgeViolation ")

    def test_item_that_failed_to_load_is_a_fail_line(self, tmp_path):
        raw = json.load(open(FIXTURE))
        raw["structures"]["M"]["tables"]["Emp"]["rows"]["k1"] = ["ann", "zzz"]
        raw["databases"]["DB"]["tables"]["Emp"]["rows"]["k1"] = ["ann", "zzz"]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        detail = "row 'k1' = ('ann', 'zzz') is not well-sorted over (name:S,dept:D)"
        fail = {"ok": False, "code": "SignatureMismatch", "detail": detail}
        for argv, lines, items in [
            (["structure", "M", "N"],
             [f"ITEM M: FAIL SignatureMismatch {detail}", "ITEM N: OK"],
             [dict(fail, name="M"), {"name": "N", "ok": True}]),
            (["database", "DB"], [f"ITEM DB: FAIL SignatureMismatch {detail}"],
             [dict(fail, name="DB")]),
            (["morphism", "idM", "h"],
             ["ITEM idM: FAIL UnresolvedReference unresolved structure "
              "reference 'M'", "ITEM h: OK"],
             [{"name": "idM", "ok": False, "code": "UnresolvedReference",
               "detail": "unresolved structure reference 'M'"},
              {"name": "h", "ok": True}]),
        ]:
            code, text = run(["check", "-w", str(path)] + argv)
            assert (code, text.splitlines()) == (1, lines)
            code, text = run(["check", "-w", str(path)] + argv + ["--json"])
            assert (code, json.loads(text)) == (1, {"ok": False, "items": items})

    @pytest.mark.parametrize("what, name", [
        ("structure", "M"), ("database", "DB"), ("morphism", "h")])
    def test_name_in_no_section_exit_2(self, what, name):
        code, text = run(["check", "-w", FIXTURE, what, name, "nope"])
        assert (code, text) == (2, "ERROR UnresolvedReference: unresolved "
                                   f"{what} reference 'nope'\n")

    def test_morphism_sections_in_order(self, tmp_path):
        """A name in two morphism sections gets the verdict of the first
        in the order structure, spec, db, signature, type-domain."""
        raw = json.load(open(FIXTURE))
        raw["sigMorphisms"]["idM"] = {"source": [["x", "S"]],
                                      "target": [["y", "S"]], "map": {"x": "z"}}
        raw["structureMorphisms"]["h"] = dict(
            raw["structureMorphisms"]["idM"], typeDomainMorphism="nope")
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        code, text = run(["check", "-w", str(path), "morphism", "idM", "h"])
        assert (code, text.splitlines()) == (1, [
            "ITEM idM: OK",
            "ITEM h: FAIL UnresolvedReference unresolved typeDomainMorphism "
            "reference 'nope'"])

    def test_check_calls_no_validator(self):
        validators = ("structure.LaxStructure.validate",
                      "logic_db.validate_database",
                      "core.check_type_domain_morphism")
        loaded = traced(lambda: load_workspace(FIXTURE).diagnostics)[1]
        for argv in (["structure", "M", "N"], ["database", "DB"],
                     ["morphism", "idM", "idFK", "idDB", "h", "collapse"]):
            stats = traced(lambda: run(["check", "-w", FIXTURE] + argv))[1]
            assert [stats[v].calls for v in validators] == \
                [loaded[v].calls for v in validators]

    def test_empty_table_over_a_sort_outside_the_domain(self, tmp_path):
        """A structure or database whose empty table lies over a sort its
        type domain lacks fails to load, as one with rows does."""
        raw = json.load(open(FIXTURE))
        raw["schemas"]["ZS"] = {"sorts": ["S", "Z"],
                                "predicates": {"Zed": [["z", "Z"]]}}
        raw["specs"]["ZSpec"] = {"schema": "ZS"}
        zed = {"typeDomain": "A", "tables": {"Zed": {"rows": {}}}}
        raw["structures"]["Zs"] = dict(zed, schema="ZS")
        raw["databases"]["Zdb"] = dict(zed, schema="ZSpec")
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        fail = "FAIL UnknownSort unknown sort 'Z'"
        assert run(["check", "-w", str(path), "structure", "Zs", "M"]) == \
            (1, f"ITEM Zs: {fail}\nITEM M: OK\n")
        assert run(["check", "-w", str(path), "database", "Zdb"]) == \
            (1, f"ITEM Zdb: {fail}\n")
        assert run(["eval", "-w", str(path), "-s", "Zs", "~Zed"]) == (2, (
            "ITEM structures/Zs: FAIL UnknownSort: unknown sort 'Z'\n"
            "ITEM databases/Zdb: FAIL UnknownSort: unknown sort 'Z'\n"))

    def test_strict_empty_table_over_a_sort_outside_the_domain(self, tmp_path):
        """A strict structure gets the same table check as a lax one."""
        raw = json.load(open(FIXTURE))
        raw["schemas"]["ZS"] = {"sorts": ["S", "Z"], "predicates": {
            "Zed": [["z", "Z"]], "P": [["s", "S"]]}}
        raw["structures"]["Zst"] = {
            "schema": "ZS", "typeDomain": "A", "kind": "strict", "keys": ["k"],
            "classifies": [["k", "P"]], "tuples": {"k": ["ann"]}}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        assert run(["check", "-w", str(path), "structure", "Zst"]) == \
            (1, "ITEM Zst: FAIL UnknownSort unknown sort 'Z'\n")
        assert run(["eval", "-w", str(path), "-s", "Zst", "~Zed"]) == \
            (2, "ITEM structures/Zst: FAIL UnknownSort: unknown sort 'Z'\n")

    def test_type_domain_morphism_maps_built_once(self):
        ws = load_workspace(FIXTURE)
        for name in ("collapse", "idA"):
            m = ws.type_domain_morphisms[name][0]
            assert m.f is m.f and m.g is m.g
        assert run(["check", "-w", FIXTURE, "morphism", "idM", "idFK", "idDB",
                    "h", "p0", "collapse", "idA"]) == (0, "".join(
            f"ITEM {n}: OK\n"
            for n in ("idM", "idFK", "idDB", "h", "p0", "collapse", "idA")))

    def test_json_report(self):
        code, text = run(["check", "-w", FIXTURE, "spec-sat", "M", "Broken",
                          "--json"])
        assert code == 1
        payload = json.loads(text)
        assert payload["ok"] is False
        assert payload["items"][0]["name"] == "Broken.empSalaried"


REFERENCES = ("schema", "typeDomain", "source", "target",
              "typeDomainMorphism", "specMorphism")


def break_fixture(raw: dict, rng: random.Random, kind: str) -> None:
    """Change one seeded entry of ``kind`` in the fixture ``raw``; the new
    value may break the entry, the items that reference it, or nothing."""
    if kind == "row":
        tables = [t for section in ("structures", "databases")
                  for item in raw[section].values()
                  for t in item["tables"].values()]
        rows = rng.choice(tables)["rows"]
        row = rows[rng.choice(sorted(rows))]
        row[rng.randrange(len(row))] = "zzz"
        return
    if kind == "reference":
        item, ref = rng.choice([(item, ref) for items in raw.values()
                                for item in items.values() for ref in REFERENCES
                                if isinstance(item.get(ref), str)])
        item[ref] = "nope"
        return
    if kind == "keyMap":
        entries = raw["databases"]["DB"]["constraintKeyMaps"]["empDept"]
        values = ["d1", "d2"]
    elif kind == "keyBridge":
        bridges = rng.choice([raw["structureMorphisms"]["idM"],
                              raw["dbMorphisms"]["idDB"]])["keyBridges"]
        entries = bridges[rng.choice(sorted(bridges))]
        values = sorted(entries)
    elif kind == "sigAttr":
        entries = rng.choice(
            [m["map"] for m in raw["sigMorphisms"].values()]
            + [c["h"] for spec in raw["specs"].values()
               for c in spec["constraints"].values()]
            + [b for section in ("specMorphisms", "structureMorphisms")
               for m in raw[section].values() for b in m["bridges"].values()])
        values = ["name", "dept", "0", "1"]
    else:  # valueMap
        entries = raw["typeDomainMorphisms"][
            rng.choice(sorted(raw["typeDomainMorphisms"]))]["valueMap"]
        values = ["ann", "bob", "hr", "c", "e"]
    entries[rng.choice(sorted(entries))] = rng.choice(values + ["nope"])


def validate_loaded(ws, name: str) -> None:
    """Run the validator of the loaded item ``name`` directly."""
    if name in ws.structures:
        return ws.structures[name].lax.validate()
    if name in ws.databases:
        return validate_database(ws.databases[name])
    if name in ws.sig_morphisms:
        return check_signature_morphism(ws.sig_morphisms[name])
    for items, validate, ends in [
            (ws.structure_morphisms, validate_lax_morphism,
             lambda n: ws.structures[n].lax),
            (ws.spec_morphisms, validate_spec_morphism, ws.specs.__getitem__),
            (ws.db_morphisms, validate_db_morphism, ws.databases.__getitem__),
            (ws.type_domain_morphisms, check_type_domain_morphism,
             ws.type_domains.__getitem__)]:
        if name in items:
            m, src, tgt = items[name]
            return validate(m, ends(src), ends(tgt))
    raise AssertionError(f"{name} did not load")


CHECKED_SECTIONS = {
    "structure": ("structures",),
    "database": ("databases",),
    "morphism": ("structureMorphisms", "specMorphisms", "dbMorphisms",
                 "sigMorphisms", "typeDomainMorphisms"),
}


class TestCheckReportsTheLoader:
    """``check`` reports the loader's verdict on each item, and every item
    it calls OK passes its own validator: re-validating could not differ."""

    @pytest.mark.parametrize("kind", ["row", "keyMap", "keyBridge", "sigAttr",
                                      "valueMap", "reference"])
    def test_seeded_mutations(self, tmp_path, kind):
        verdicts = set()
        for seed in range(8):
            raw = json.load(open(FIXTURE))
            break_fixture(raw, random.Random(seed), kind)
            path = tmp_path / "ws.json"
            path.write_text(json.dumps(raw))
            ws = load_workspace_data(raw)
            # the fixture's item names are unique across its sections
            errors = {d.name: d.error for d in ws.diagnostics}
            for what, sections in CHECKED_SECTIONS.items():
                names = [n for section in sections for n in raw[section]]
                code, text = run(["check", "-w", str(path), what] + names)
                assert text.splitlines() == [
                    f"ITEM {n}: FAIL " + errors[n].replace(": ", " ", 1)
                    if n in errors else f"ITEM {n}: OK" for n in names]
                assert code == int(any(n in errors for n in names))
                for n in names:
                    verdicts.add(n in errors)
                    if n not in errors:
                        validate_loaded(ws, n)
        assert verdicts == {True, False}


def eager_diagnostics(raw) -> list:
    """The oracle for the loader's diagnostics: every item built at once, in
    load order.  The file's shape comes first, then each section with its
    shape, its items' shapes and each item's build, which sees only the
    items built before it.  A structure is validated in full as it is
    built: its build leaves each table to be checked when first read."""
    built = {section: {} for section in SECTIONS}
    diagnostics = []

    class Eager:
        def require(self, section, name):
            if name not in built[section]:
                raise UnresolvedReference(section, name)
            return built[section][name]

    def validated(entry):
        entry.lax.validate()
        return entry

    def attempt(section, name, fn, *args):
        try:
            return fn(*args)
        except FoleError as exc:  # any other exception is a bug
            diagnostics.append((section, name, f"{type(exc).__name__}: {exc}"))

    raw = attempt("workspace", "", _shaped, raw, dict, "workspace") or {}
    for s in SECTIONS.values():
        found = attempt("workspace", s.key, _shaped, raw.get(s.key, {}),
                        dict, s.key) or {}
        for name, data in [(n, d) for n, d in found.items() if attempt(
                s.key, n, _shaped, d, dict, f"{s.key}.{n}") is not None]:
            item = attempt(s.key, name, s.make, Eager(), name, data)
            if s.name == "structure" and item is not None:
                item = attempt(s.key, name, validated, item)
            if item is not None:
                built[s.name][name] = item
    return diagnostics


def zed_fixture(tmp_path) -> str:
    """The fixture with a predicate Zed added to schema Company and a table
    for it in M: DB, idFK, idM and idDB no longer load; M and FK do."""
    raw = json.load(open(FIXTURE))
    raw["schemas"]["Company"]["predicates"]["Zed"] = [["z", "S"]]
    raw["structures"]["M"]["tables"]["Zed"] = {"rows": {"z1": ["ann"]}}
    path = tmp_path / "zed.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestOnDemand:
    """A command builds and validates only the items it names and what they
    reference; the diagnostics are those of building everything at once."""

    def count_validators(self, monkeypatch) -> dict:
        counts = {"Table.validate": 0, "validate_database": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(tables.Table, "validate", counting(
            "Table.validate", tables.Table.validate))
        monkeypatch.setattr(logic_db, "validate_database", counting(
            "validate_database", logic_db.validate_database))
        return counts

    def test_check_structure_validates_only_it(self, monkeypatch):
        counts = self.count_validators(monkeypatch)
        assert run(["check", "-w", FIXTURE, "structure", "M"]) == \
            (0, "ITEM M: OK\n")
        assert counts == {"Table.validate": 3, "validate_database": 0}

    def test_eval_and_migrate_validate_only_the_tables_they_read(
            self, tmp_path, monkeypatch):
        counts = self.count_validators(monkeypatch)
        assert run(["eval", "-w", FIXTURE, "-s", "M", "Emp"])[0] == 0
        assert counts == {"Table.validate": 1, "validate_database": 0}
        out = str(tmp_path / "out.json")
        assert run(["migrate", "-w", FIXTURE, "M.Emp", "collapse", "levo",
                    "--out", out]) == (0, f"WROTE {out}\n")
        # the flow does not check Emp again: its source domain is M's own
        assert counts == {"Table.validate": 1 + 1, "validate_database": 0}
        assert run(["check", "-w", FIXTURE, "structure", "M"]) == \
            (0, "ITEM M: OK\n")
        assert counts == {"Table.validate": 2 + 3, "validate_database": 0}

    @pytest.mark.parametrize("table, morphism, direction", [
        ("N.PairC", "collapse", "dextro"), ("M.Emp", "collapse", "levo"),
        ("M.Emp", "idA", "dextro"), ("M.Emp", "idA", "levo")])
    def test_migrate_validates_its_table_once(self, tmp_path, monkeypatch,
                                              table, morphism, direction):
        """The structure's first read checks the table over the structure's
        type domain, which is the flow's source domain here: one check."""
        counts = self.count_validators(monkeypatch)
        out = str(tmp_path / "out.json")
        assert run(["migrate", "-w", FIXTURE, table, morphism, direction,
                    "--out", out]) == (0, f"WROTE {out}\n")
        assert counts == {"Table.validate": 1, "validate_database": 0}

    def test_snd_to_db_builds_each_image_once(self, tmp_path, monkeypatch):
        """Deciding FK's constraint reads the images of Dept and Emp, and the
        passage reads every table's: each is built once, for Company's three
        predicates (five builds before images were kept per structure)."""
        built = []

        def counting(table):
            built.append(table)
            return tables.table_image(table)
        for module in (cli, logic_db, structure):  # wherever a caller finds it
            monkeypatch.setattr(module, "table_image", counting, raising=False)
        out = str(tmp_path / "db.json")
        assert run(["convert", "-w", FIXTURE, "snd-to-db", "M:FK", "--out", out]) \
            == (0, f"WROTE {out}\n")
        assert len(built) == len({id(table) for table in built}) == 3

    def test_eval_after_diagnostics_reuses_the_checked_structure(
            self, monkeypatch):
        ws = load_workspace(FIXTURE)
        expected = io.StringIO()
        cmd_eval(load_workspace(FIXTURE), "M", "Emp", out=expected)
        counts = self.count_validators(monkeypatch)
        assert not ws.diagnostics  # builds and checks every table once
        built = counts["Table.validate"]
        out = io.StringIO()
        assert cmd_eval(ws, "M", "Emp", out=out) == 0
        assert out.getvalue() == expected.getvalue()
        assert counts["Table.validate"] == built

    def test_unread_bad_table_does_not_stop_eval_or_migrate(self, tmp_path):
        raw = json.load(open(FIXTURE))
        raw["structures"]["M"]["tables"]["Salaried"]["rows"]["zz"] = ["zzz"]
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        fixture_out, out = str(tmp_path / "f.json"), str(tmp_path / "o.json")
        for argv in (["eval", "-s", "M", "Emp /\\ Emp"],
                     ["eval", "-s", "M", "exists[h] Emp", "--as-table"]):
            assert run(argv[:1] + ["-w", str(path)] + argv[1:]) == \
                run(argv[:1] + ["-w", FIXTURE] + argv[1:])
        for morphism, direction in (("idA", "dextro"), ("collapse", "levo")):
            args = ["M.Emp", morphism, direction, "--out"]
            assert run(["migrate", "-w", FIXTURE] + args + [fixture_out]) == \
                (0, f"WROTE {fixture_out}\n")
            assert run(["migrate", "-w", str(path)] + args + [out]) == \
                (0, f"WROTE {out}\n")
            assert open(out).read() == open(fixture_out).read()
        lines = "".join(f"ITEM {s}/{n}: FAIL {e}\n"
                        for s, n, e in eager_diagnostics(raw))
        assert lines.startswith("ITEM structures/M: FAIL SignatureMismatch: "
                                "row 'zz' = ('zzz',) is not well-sorted")
        assert run(["eval", "-w", str(path), "-s", "M", "Emp /\\ Salaried"]) \
            == (2, lines)
        assert run(["migrate", "-w", str(path), "M.Salaried", "collapse",
                    "levo", "--out", out]) == (2, lines)
        assert run(["check", "-w", str(path), "structure", "M"])[0] == 1

    def broken(self, tmp_path, where: tuple, value) -> tuple:
        """The path of the fixture with the value at ``where`` replaced, and
        the lines of every diagnostic of an eager load of it."""
        raw = json.load(open(FIXTURE))
        *steps, last = where
        parent = raw
        for step in steps:
            parent = parent[step]
        parent[last] = value
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        return str(path), "".join(f"ITEM {s}/{n}: FAIL {e}\n"
                                  for s, n, e in eager_diagnostics(raw))

    def assert_eval_and_migrate_fail(self, tmp_path, path: str, lines: str):
        assert run(["eval", "-w", path, "-s", "M", "Emp"]) == (2, lines)
        assert run(["migrate", "-w", path, "M.Emp", "collapse", "levo",
                    "--out", str(tmp_path / "out.json")]) == (2, lines)

    @pytest.mark.parametrize("where, value, error", [
        (("structures", "M", "tables", "Emp", "rows", "k1"), 3,
         "structures.M.tables.Emp.rows.k1: expected a list, got 3"),
        (("structures", "M", "tables", "Emp", "signature"), "x",
         "structures.M.tables.Emp.signature: expected a list, got a string"),
    ], ids=["row", "signature"])
    def test_read_table_of_the_wrong_shape(self, tmp_path, where, value,
                                           error):
        """A table that eval or migrate reads and whose row or signature has
        the wrong JSON shape ends as if its structure failed to load, with a
        ``ShapeError`` naming the JSON path."""
        path, lines = self.broken(tmp_path, where, value)
        assert lines.startswith(f"ITEM structures/M: FAIL ShapeError: {error}\n")
        self.assert_eval_and_migrate_fail(tmp_path, path, lines)

    def test_read_structure_over_a_non_string_extent(self, tmp_path):
        """An extent value that is not a string fails its type domain's
        shape, and so every structure over it, before any table is read."""
        path, lines = self.broken(tmp_path, ("typeDomains", "A", "S"),
                                  ["ann", ["bob"]])
        assert lines.startswith(
            "ITEM typeDomains/A: FAIL ShapeError: typeDomains.A.S[1]: "
            "expected a string, got a list\n")
        assert "ITEM structures/M: FAIL UnresolvedReference: " in lines
        self.assert_eval_and_migrate_fail(tmp_path, path, lines)

    def test_loading_builds_nothing_until_looked_up(self, monkeypatch):
        counts = self.count_validators(monkeypatch)
        ws = load_workspace(FIXTURE)
        assert counts == {"Table.validate": 0, "validate_database": 0}
        assert not ws.diagnostics
        assert counts == {"Table.validate": 3 + 1 + 3, "validate_database": 1}
        ws.databases["DB"]  # memoised
        assert counts["validate_database"] == 1

    def test_unreferenced_failure_does_not_stop_a_command(self, tmp_path):
        zed = zed_fixture(tmp_path)
        out = str(tmp_path / "out.json")
        assert run(["eval", "-w", zed, "-s", "M", "Emp"]) == \
            run(["eval", "-w", FIXTURE, "-s", "M", "Emp"])
        assert run(["convert", "-w", zed, "snd-to-db", "M:FK", "--out", out]) \
            == (0, f"WROTE {out}\n")
        assert run(["migrate", "-w", zed, "M.Emp", "collapse", "levo",
                    "--out", out]) == (0, f"WROTE {out}\n")
        assert run(["check", "-w", zed, "database", "DB"]) == (1, (
            "ITEM DB: FAIL SignatureMismatch no table for predicate 'Zed'\n"))

    def test_referenced_failure_reports_every_diagnostic(self, tmp_path):
        zed = zed_fixture(tmp_path)
        lines = "".join(f"ITEM {d.section}/{d.name}: FAIL {d.error}\n"
                        for d in load_workspace(zed).diagnostics)
        assert [line.split(":")[0] for line in lines.splitlines()] == [
            "ITEM databases/DB", "ITEM specMorphisms/idFK",
            "ITEM structureMorphisms/idM", "ITEM dbMorphisms/idDB"]
        assert run(["convert", "-w", zed, "db-image", "DB",
                    "--out", str(tmp_path / "out.json")]) == (2, lines)

    def test_eval_builds_only_the_morphisms_it_names(self, tmp_path):
        raw = json.load(open(FIXTURE))
        raw["sigMorphisms"]["p0"]["map"] = {"0": "nope"}
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        assert run(["eval", "-w", str(path), "-s", "M", "exists[h] Emp"]) == \
            run(["eval", "-w", FIXTURE, "-s", "M", "exists[h] Emp"])
        code, text = run(["eval", "-w", str(path), "-s", "N", "exists[p0] PairC"])
        assert (code, text.split(":")[0]) == (2, "ITEM sigMorphisms/p0")

    @pytest.mark.parametrize("kind", ["row", "keyMap", "keyBridge", "sigAttr",
                                      "valueMap", "reference"])
    def test_diagnostics_match_an_eager_load(self, kind):
        for seed in range(8):
            raw = json.load(open(FIXTURE))
            break_fixture(raw, random.Random(seed), kind)
            expected = eager_diagnostics(raw)
            assert expected == [(d.section, d.name, d.error)
                                for d in load_workspace_data(raw).diagnostics]
            # building the last sections first does not change them
            ws = load_workspace_data(raw)
            for section in reversed(SECTIONS.values()):
                list(getattr(ws, section.field))
            assert expected == [(d.section, d.name, d.error)
                                for d in ws.diagnostics]


def pairs(sig: Signature) -> list:
    return [list(p) for p in sig.pairs()]


def generated_workspace(rng: random.Random):
    """A seeded structure G: predicates P0..P3 over one signature, Q over
    its first attribute, and the morphism ``h`` from Q's signature into P0's.
    Returns the workspace JSON, G as built here, and ``h``."""
    td = rand_type_domain(rng, min_extent=1)
    sig = rand_signature(rng, td, min_len=1)
    h = SignatureMorphism.of(Signature(sig.attrs[:1], sig.sorts[:1]), sig,
                             {sig.attrs[0]: sig.attrs[0]})
    schema = Schema(td.sorts, dict({f"P{i}": sig for i in range(4)},
                                   Q=h.source))
    m = rand_lax_structure(rng, schema, td)
    raw = {"typeDomains": {"A": {s: list(td.extent(s)) for s in td.sorts}},
           "schemas": {"Sch": {"sorts": list(td.sorts), "predicates": {
               r: pairs(s) for r, s in schema.predicates.items()}}},
           "sigMorphisms": {"h": {"source": pairs(h.source),
                                  "target": pairs(sig), "map": h.map}},
           "structures": {"G": {"schema": "Sch", "typeDomain": "A", "tables": {
               r: {"rows": {k: list(t) for k, t in table.rows.items()}}
               for r, table in m.table_of.items()}}}}
    return raw, m, h


def plant(raw: dict, m, predicate: str, kind: str) -> dict:
    """A copy of ``raw`` whose table of ``predicate`` in G is bad: a row with
    a value outside its extent or of the wrong arity, or a signature that
    is not the schema's."""
    raw = json.loads(json.dumps(raw))
    table = raw["structures"]["G"]["tables"][predicate]
    sig = m.schema.signature_of(predicate)
    row = list(enumerate_tuples(sig, m.type_domain)[0])
    if kind == "value":
        table["rows"]["bad"] = ["zzz"] + row[1:]
    elif kind == "arity":
        table["rows"]["bad"] = row + row[:1]
    else:
        table["signature"] = [[a + "x", s] for a, s in sig.pairs()]
    return raw


def sig_formula(rng: random.Random, atoms: list, depth: int) -> str:
    """A random connective formula over ``atoms``, texts over P0's fiber."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(atoms)
    op = rng.choice(["/\\", "\\/", "=>", "\\\\", "~"])
    if op == "~":
        return "~" + sig_formula(rng, atoms, depth - 1)
    return (f"({sig_formula(rng, atoms, depth - 1)} {op} "
            f"{sig_formula(rng, atoms, depth - 1)})")


class TestUnreadTables:
    """``eval`` reads only the tables its formula names: on a generated
    structure with one bad table, a formula that does not name it prints
    what it prints on the repaired structure, which the tuple oracle
    confirms; one that names it ends as if the structure failed to load."""

    @pytest.mark.parametrize("kind", ["value", "arity", "signature"])
    def test_differential(self, tmp_path, kind):
        outcomes = set()
        for seed in range(12):
            rng = random.Random(seed)
            raw, m, h = generated_workspace(rng)
            bad = rng.choice(sorted(m.schema.predicates))
            planted = plant(raw, m, bad, kind)
            paths = []
            for name, data in (("good", raw), ("bad", planted)):
                paths.append(tmp_path / f"{name}.json")
                paths[-1].write_text(json.dumps(data))
            good, broken = (str(p) for p in paths)
            lines = "".join(f"ITEM {s}/{n}: FAIL {e}\n"
                            for s, n, e in eager_diagnostics(planted))
            assert lines.startswith("ITEM structures/G: FAIL SignatureMismatch")
            code, detail = lines.split(": FAIL ")[1].split(": ", 1)
            assert run(["check", "-w", broken, "structure", "G"]) == \
                (1, f"ITEM G: FAIL {code} {detail}")
            atoms = [f"P{i}" for i in range(4)] + ["subst[h] Q"]
            unread = [a for a in atoms if a.split()[-1] != bad]
            for _ in range(6):
                phi = sig_formula(rng, unread, 3)
                shapes = [phi, f"exists[h] {phi}", f"forall[h] {phi}"]
                if bad != "Q":
                    shapes.append(f"(exists[h] {phi} \\/ Q)")
                text = rng.choice(shapes)
                code, out = run(["eval", "-w", good, "-s", "G", text, "--json"])
                assert code == 0
                assert run(["eval", "-w", broken, "-s", "G", text, "--json"]) \
                    == (0, out)
                oracle = interpret_by_oracle(
                    m, parse_formula(text, m.schema, {"h": h}))
                assert set(map(tuple, json.loads(out)["tuples"])) == \
                    oracle.tuples
                named = next(a for a in atoms if a.split()[-1] == bad)
                text = rng.choice([f"({phi} /\\ {named})",
                                   f"~({named} => {phi})"])
                assert run(["eval", "-w", broken, "-s", "G", text]) == (2, lines)
                outcomes.add(bool(oracle.tuples))
        assert outcomes == {True, False}


class TestConvert:
    def test_snd_to_db_revalidates(self, tmp_path):
        out = tmp_path / "db.json"
        code, text = run(["convert", "-w", FIXTURE, "snd-to-db", "M:FK",
                          "--out", str(out)])
        assert code == 0 and f"WROTE {out}" in text
        ws = load_workspace(str(out))
        assert not ws.diagnostics
        db = ws.databases["M__FK"]
        validate_database(db)
        assert set(db.table_of["Emp"].rows.values()) == \
            {("ann", "hr"), ("bob", "hr")}

    def test_snd_to_db_over_another_schema_is_an_error(self, tmp_path):
        """A sound logic is a structure and a spec over one schema: a spec
        over a wider schema ends ``snd-to-db`` in one ERROR line, while
        ``spec-sat`` still decides the spec's constraints on the structure."""
        raw = json.load(open(FIXTURE))
        big = raw["schemas"]["Big"] = json.loads(json.dumps(raw["schemas"]["Company"]))
        big["predicates"]["Extra"] = [["dept", "D"]]
        raw["specs"]["BigSpec"] = {**raw["specs"]["FK"], "schema": "Big"}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        assert run(["convert", "-w", str(path), "snd-to-db", "M:BigSpec",
                    "--out", str(tmp_path / "o.json")]) == (
            2, "ERROR SignatureMismatch: structure and spec are over different "
               "schemas\n")
        assert not (tmp_path / "o.json").exists()
        assert run(["check", "-w", str(path), "spec-sat", "M", "BigSpec"]) == (
            0, "ITEM BigSpec.empDept: OK\n")

    def test_db_image_idempotent_on_disk(self, tmp_path):
        out1 = tmp_path / "img1.json"
        out2 = tmp_path / "img2.json"
        run(["convert", "-w", FIXTURE, "db-image", "DB", "--out", str(out1)])
        ws1 = load_workspace(str(out1))
        assert not ws1.diagnostics
        run(["convert", "-w", str(out1), "db-image", "DB_image",
             "--out", str(out2)])
        d1 = json.load(open(out1))["databases"]["DB_image"]
        d2 = json.load(open(out2))["databases"]["DB_image_image"]
        assert d1["tables"] == d2["tables"]
        assert d1["constraintKeyMaps"] == d2["constraintKeyMaps"]

    def test_reflection_on_disk(self, tmp_path):
        # db-to-snd then snd-to-db matches db-image pointwise up to keys
        snd = tmp_path / "snd.json"
        back = tmp_path / "back.json"
        img = tmp_path / "img.json"
        run(["convert", "-w", FIXTURE, "db-to-snd", "DB", "--out", str(snd)])
        ws = load_workspace(str(snd))
        assert not ws.diagnostics
        run(["convert", "-w", str(snd), "snd-to-db", "DB_structure:spec",
             "--out", str(back)])
        run(["convert", "-w", FIXTURE, "db-image", "DB", "--out", str(img)])
        db_back = load_workspace(str(back)).databases["DB_structure__spec"]
        db_img = load_workspace(str(img)).databases["DB_image"]
        for r in db_img.table_of:
            assert key_equivalent(db_back.table_of[r], db_img.table_of[r])

    def test_db_to_snd_validates_no_table_again(self, tmp_path):
        """The loader validates the database's tables once; the passage to
        a sound logic decides satisfaction without validating them again."""
        key = "tables.Table.validate"
        loaded = traced(lambda: load_workspace(FIXTURE).diagnostics)[1][key].calls
        (code, _), stats = traced(lambda: run([
            "convert", "-w", FIXTURE, "db-to-snd", "DB",
            "--out", str(tmp_path / "snd.json")]))
        assert (code, stats[key].calls) == (0, loaded)


class TestMigrate:
    def test_dextro_hand_enumerated(self, tmp_path):
        out = tmp_path / "mig.json"
        code, text = run(["migrate", "-w", FIXTURE, "N.PairC", "collapse",
                          "dextro", "--out", str(out)])
        assert code == 0
        ws = load_workspace(str(out))
        assert not ws.diagnostics
        table = ws.structures["migrated"].lax.table_of["migrated"]
        # PairC row (c,c) pulls back to all four S-pairs
        assert sorted(table.rows.values()) == [
            ("ann", "ann"), ("ann", "bob"), ("bob", "ann"), ("bob", "bob")]

    def test_levo_pushes_values(self, tmp_path):
        out = tmp_path / "mig.json"
        code, _ = run(["migrate", "-w", FIXTURE, "M.Emp", "collapse",
                       "levo", "--out", str(out)])
        assert code == 0
        ws = load_workspace(str(out))
        assert not ws.diagnostics
        table = ws.structures["migrated"].lax.table_of["migrated"]
        assert table.rows == {"k1": ("c", "e"), "k2": ("c", "e")}

    def test_flows_do_not_recheck_the_morphism(self, tmp_path):
        """The loader checks each type-domain morphism once; neither flow
        checks it again."""
        key = "core.check_type_domain_morphism"
        loaded = traced(lambda: load_workspace(FIXTURE).diagnostics)[1][key].calls
        for table, direction in (("M.Emp", "levo"), ("N.PairC", "dextro")):
            (code, _), stats = traced(lambda: run([
                "migrate", "-w", FIXTURE, table, "collapse", direction,
                "--out", str(tmp_path / "mig.json")]))
            assert (code, stats[key].calls) == (0, loaded)


class TestMigrateConvertErrors:
    """A bad argument to migrate, convert or check spec-sat ends in exit 2
    and one ERROR line, and writes nothing."""

    @pytest.mark.parametrize("argv, line", [
        (["migrate", "-w", FIXTURE, "M.nope", "collapse", "dextro"],
         "UnresolvedReference: unresolved predicate reference 'nope'"),
        (["migrate", "-w", FIXTURE, "N.PairC", "nope", "dextro"],
         "UnresolvedReference: unresolved typeDomainMorphism reference 'nope'"),
        (["migrate", "-w", FIXTURE, "N", "collapse", "dextro"],
         "UnresolvedReference: unresolved STRUCTURE.PREDICATE reference 'N'"),
        (["migrate", "-w", FIXTURE, "M.Emp", "collapse", "dextro"],
         "UnknownSort: unknown sort 'S'"),
        (["convert", "-w", FIXTURE, "snd-to-db", "nocolon"],
         "UnresolvedReference: unresolved STRUCTURE:SPEC reference 'nocolon'"),
        (["migrate", "-w", FIXTURE, "N.PairC", "idA", "levo"],
         "UnknownSort: unknown sort 'C'"),
        (["check", "-w", FIXTURE, "spec-sat", "M"],
         "UnresolvedReference: unresolved STRUCTURE SPEC reference 'M'"),
        (["check", "-w", FIXTURE, "spec-sat", "M", "FK", "FK"],
         "UnresolvedReference: unresolved STRUCTURE SPEC reference 'M FK FK'"),
    ])
    def test_exit_2_with_error_line(self, tmp_path, argv, line):
        out = tmp_path / "out.json"
        if argv[0] != "check":  # check takes no --out
            argv = argv + ["--out", str(out)]
        code, text = run(argv)
        assert code == 2
        assert text == f"ERROR {line}\n"
        assert not out.exists()

    def test_levo_value_outside_target_domain(self, tmp_path):
        raw = json.load(open(FIXTURE))
        raw["typeDomains"]["Z"] = {"S": ["ann", "bob", "zed"], "D": ["hr", "it"]}
        m = raw["structures"]["M"]
        raw["structures"]["Z"] = dict(m, typeDomain="Z", tables=dict(
            m["tables"], Emp={"rows": {"k1": ["ann", "hr"], "k2": ["zed", "it"]}}))
        path, out = tmp_path / "ws.json", tmp_path / "out.json"
        path.write_text(json.dumps(raw))
        code, text = run(["migrate", "-w", str(path), "Z.Emp", "collapse",
                          "levo", "--out", str(out)])
        assert (code, text) == (2, "ERROR SignatureMismatch: row 'k2' = "
                                   "('zed', 'it') is not well-sorted over "
                                   "(name:S,dept:D)\n")
        assert not out.exists()

    def test_dextro_value_outside_source_domain(self, tmp_path):
        raw = json.load(open(FIXTURE))
        raw["typeDomains"]["B2"] = {"C": ["c", "x"], "E": ["e"]}
        raw["structures"]["Y"] = dict(raw["structures"]["N"], typeDomain="B2",
                                      tables={"PairC": {"rows": {
                                          "p1": ["c", "c"], "p2": ["x", "c"]}}})
        path, out = tmp_path / "ws.json", tmp_path / "out.json"
        path.write_text(json.dumps(raw))
        code, text = run(["migrate", "-w", str(path), "Y.PairC", "collapse",
                          "dextro", "--out", str(out)])
        assert (code, text) == (2, "ERROR SignatureMismatch: row 'p2' = "
                                   "('x', 'c') is not well-sorted over "
                                   "(0:C,1:C)\n")
        assert not out.exists()


class TestWorkspaceLoadErrors:
    """A workspace file that cannot be read or parsed ends in exit 2 and one
    ERROR line."""

    def test_missing_file(self, tmp_path):
        code, text = run(["check", "-w", str(tmp_path / "absent.json"),
                          "structure", "M"])
        assert code == 2
        assert text.startswith("ERROR FileNotFoundError: ")
        assert text.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{bad")
        code, text = run(["eval", "-w", str(path), "-s", "M", "Emp"])
        assert code == 2
        assert text.startswith("ERROR JSONDecodeError: ")
        assert text.count("\n") == 1

    @pytest.mark.parametrize("content, line", [
        (b"\xff\xfe{}", "ERROR ShapeError: workspace: 'utf-8' codec can't "
                        "decode byte 0xff in position 0: invalid start byte\n"),
        (b"[" * 100000 + b"]" * 100000,
         "ERROR ShapeError: workspace: maximum recursion depth exceeded "
         "while decoding a JSON array from a unicode string\n"),
    ], ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_file(self, tmp_path, content, line):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(["check", "-w", str(path), "structure", "M"]) == (2, line)


class TestShapeErrorsExit2:
    """A workspace of the wrong JSON shape ends in exit 2, never in a
    traceback or in silently accepted input."""

    def test_section_not_an_object(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text('{"typeDomains": []}')
        code, text = run(["check", "-w", str(path), "structure", "M"])
        assert code == 2
        assert text == ("ERROR UnresolvedReference: "
                        "unresolved structure reference 'M'\n")
        code, text = run(["eval", "-w", str(path), "-s", "M", "P"])
        assert code == 2
        assert text == ("ITEM workspace/typeDomains: FAIL ShapeError: "
                        "typeDomains: expected an object, got a list\n")

    def test_string_extent_not_split(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "typeDomains": {"A": {"S": "xy"}},
            "schemas": {"Sch": {"sorts": ["S"],
                                "predicates": {"P": [["0", "S"]]}}},
            "structures": {"M": {"schema": "Sch", "typeDomain": "A",
                                 "tables": {"P": {"rows": {"k": ["x"]}}}}},
        }))
        code, text = run(["eval", "-w", str(path), "-s", "M", "P"])
        assert code == 2
        assert text.split("\n")[0] == (
            "ITEM typeDomains/A: FAIL ShapeError: "
            "typeDomains.A.S: expected a list, got a string")


class TestBugsEndInATraceback:
    """Bad data is a ``FoleError`` diagnostic; any other exception is a bug
    in ``fole`` and propagates out of ``main``, even when some unrelated
    item has a diagnostic to report."""

    @staticmethod
    def bug(*args, **kwargs):
        raise TypeError("bug")

    def test_builder_bug(self, monkeypatch):
        section = SECTIONS["typeDomainMorphism"]
        monkeypatch.setitem(SECTIONS, "typeDomainMorphism",
                            section._replace(build=self.bug))
        with pytest.raises(TypeError, match="^bug$"):
            main(["check", "-w", FIXTURE, "morphism", "collapse"])

    def test_evaluation_bug_beside_a_bad_item(self, tmp_path, monkeypatch):
        raw = json.load(open(FIXTURE))
        raw["dbMorphisms"]["idDB"]["source"] = "nope"
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(raw))
        monkeypatch.setattr(cli, "interpret_relation", self.bug)
        with pytest.raises(TypeError, match="^bug$"):
            main(["eval", "-w", str(path), "-s", "M", "Emp"])


class TestKeyCollision:
    """Two keys that would be written under one name end in exit 2 instead
    of a file that silently drops a row."""

    def test_dextro_collision_exit_2(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({
            "typeDomains": {"A": {"S": ["a,b", "a"], "T": ["c", "b,c"]},
                            "B": {"U": ["u"], "V": ["v"]}},
            "typeDomainMorphisms": {"g": {
                "source": "B", "target": "A", "sortMap": {"U": "S", "V": "T"},
                "valueMap": {"a,b": "u", "a": "u", "c": "v", "b,c": "v"}}},
            "schemas": {"Sch": {"sorts": ["U", "V"],
                                "predicates": {"P": [["x", "U"], ["y", "V"]]}}},
            "structures": {"M": {"schema": "Sch", "typeDomain": "B",
                                 "tables": {"P": {"rows": {"k": ["u", "v"]}}}}},
        }))
        out = tmp_path / "o.json"
        code, text = run(["migrate", "-w", str(path), "M.P", "g", "dextro",
                          "--out", str(out)])
        assert code == 2
        assert text == (
            "ERROR KeyCollision: keys ('k', ('a,b', 'c')) and "
            "('k', ('a', 'b,c')) are both written as '(k,(a,b,c))'\n")
        assert not out.exists()


FIXTURE_WRITES = [
    ["convert", "snd-to-db", "M:FK"],
    ["convert", "db-to-snd", "DB"],
    ["convert", "db-image", "DB"],
    ["migrate", "N.PairC", "collapse", "dextro"],
    ["migrate", "M.Emp", "collapse", "levo"],
]


def written(argv, tmp_path):
    out = tmp_path / "out.json"
    code, _ = run(argv[:1] + ["-w", FIXTURE] + argv[1:] + ["--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


class TestWriter:
    """Every JSON output is ``json.dumps(indent=2, sort_keys=True)`` of its
    own content, and every written fragment loads back to what was
    written."""

    @pytest.mark.parametrize("argv", FIXTURE_WRITES,
                             ids=[" ".join(a) for a in FIXTURE_WRITES])
    def test_files_are_canonical(self, tmp_path, argv):
        text = written(argv, tmp_path)
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "-s", "M", "top@n2", "--json"],
        ["eval", "-s", "M", "exists[h] Emp", "--json", "--as-table"],
        ["eval", "-s", "N", "PairC", "--json", "--as-table"],
        ["check", "spec-sat", "M", "Broken", "--json"],
        ["check", "structure", "M", "N", "--json"],
        ["check", "morphism", "idM", "idDB", "collapse", "--json"],
    ])
    def test_json_outputs_are_canonical(self, argv):
        _, text = run(argv[:1] + ["-w", FIXTURE] + argv[1:])
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_fragments_load_back_to_what_was_written(self, tmp_path):
        ws = load_workspace(FIXTURE)
        db = ws.databases["DB"]
        m, a2, a1 = (ws.type_domain_morphisms["collapse"][0],
                     ws.type_domains["B"], ws.type_domains["A"])
        n_pair = ws.structures["N"].lax.table_of["PairC"]
        m_emp = ws.structures["M"].lax.table_of["Emp"]
        sent = snd_to_db(SoundLogic(ws.structures["M"].lax, ws.specs["FK"]))
        image = db_image(db)
        dextro = table_flow_type_domain("dextro", m, n_pair, a2, a1)
        levo = table_flow_type_domain("levo", m, m_emp, a2, a1)
        company, fk = ws.schemas["Company"], ws.specs["FK"]
        # (section, item name, written tables, written key maps, and the
        # type domain, schema and specs that the fragment holds)
        expected = {
            "convert snd-to-db M:FK": ("databases", "M__FK", sent.table_of,
                                       sent.constraint_morphism, a1, company, [fk]),
            "convert db-to-snd DB": ("structures", "DB_structure",
                                     db_to_snd(db).structure.table_of, {},
                                     a1, company, [fk]),
            "convert db-image DB": ("databases", "DB_image", image.table_of,
                                    image.constraint_morphism, a1, company, [fk]),
            "migrate N.PairC collapse dextro": (
                "structures", "migrated", {"migrated": dextro}, {}, a1,
                Schema(a1.sorts, {"migrated": dextro.signature}, {}), []),
            "migrate M.Emp collapse levo": (
                "structures", "migrated", {"migrated": levo}, {}, a2,
                Schema(a2.sorts, {"migrated": levo.signature}, {}), []),
        }
        schema_keys = set()
        for argv in FIXTURE_WRITES:
            section, name, tables, key_maps, td, schema, specs = \
                expected[" ".join(argv)]
            path = tmp_path / "frag.json"
            text = written(argv, tmp_path)
            path.write_text(text, encoding="utf-8")
            back = load_workspace(str(path))
            assert not back.diagnostics
            item = getattr(back, section)[name]
            loaded = item.lax.table_of if section == "structures" \
                else item.table_of
            assert {r: (t.signature, t.rows) for r, t in loaded.items()} == {
                r: (t.signature, {key_name(k): v for k, v in t.rows.items()})
                for r, t in tables.items()}
            if section == "databases":
                assert {p: tm.key_map
                        for p, tm in item.constraint_morphism.items()} == {
                    p: {key_name(k): key_name(v)
                        for k, v in tm.key_map.items()}
                    for p, tm in key_maps.items()}
            assert list(back.type_domains.values()) == [td]
            assert list(back.schemas.values()) == [schema]
            assert list(back.specs.values()) == specs
            schema_keys.add(tuple(sorted(json.loads(text)["schemas"]["schema"])))
        assert schema_keys == {("predicates", "signatures", "sorts")}


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_no_option_carries_over(self):
        argv = ["eval", "-w", FIXTURE, "-s", "M", "Emp"]
        code, text = run(argv + ["--json"])
        assert (code, json.loads(text)["tuples"]) == (0, [["ann", "hr"],
                                                          ["bob", "hr"]])
        assert run(argv) == (0, "name:S\tdept:D\nann\thr\nbob\thr\n")


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        commands = [
            ["eval", "-w", FIXTURE, "-s", "M", "~Emp \\/ Salaried",
             "--as-table"],
            ["check", "-w", FIXTURE, "spec-sat", "M", "FK", "--json"],
            ["check", "-w", FIXTURE, "morphism", "idDB"],
        ]
        for argv in commands:
            assert run(argv) == run(argv)
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        run(["convert", "-w", FIXTURE, "snd-to-db", "M:FK", "--out", str(out1)])
        run(["convert", "-w", FIXTURE, "snd-to-db", "M:FK", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        run(["migrate", "-w", FIXTURE, "N.PairC", "collapse", "dextro",
             "--out", str(out1)])
        run(["migrate", "-w", FIXTURE, "N.PairC", "collapse", "dextro",
             "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
