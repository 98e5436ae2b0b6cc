"""The workspace writer against ``json.dumps(indent=2, sort_keys=True)``."""

import io
import json
import os
import random
import sys
from collections import OrderedDict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fole import (Schema, Signature, SignatureMorphism, Table, TableMorphism,
                  cli, key_equivalent)
from fole.errors import KeyCollision
from fole.workspace import (SECTIONS, _named, dump_json, fragment, key_name,
                            key_names, load_workspace_data, table_to_json)
from generators import (rand_database, rand_lax_structure, rand_schema,
                        rand_signature, rand_spec, rand_type_domain,
                        unit_composite_pair)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "workspace.json")


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# quotes, backslashes, control characters and non-ASCII text next to
# arbitrary text, so escaping is hit often
texts = st.text(alphabet=st.sampled_from('a,()"\\\n\t\x00\x1f\x7fé€😀'),
                max_size=6) | st.text(max_size=6)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | texts)
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(texts, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_matches_json_dumps(obj):
    assert dump_json(obj) == reference(obj)


class Text(str):
    pass


@pytest.mark.parametrize("leaf", [
    {}, [], (), OrderedDict(), True, False, None, 0, -7, 2 ** 70, 1.5, -0.0, 1e300,
    float("nan"), float("inf"), -float("inf"), "", "é\n", Text("t\"")])
def test_leaves_match_json_dumps(leaf):
    """A scalar or an empty container, alone, in lists and as a value."""
    for payload in (leaf, [leaf], [leaf, "x"], (leaf, leaf), {"a": leaf, "b": [leaf]}):
        assert dump_json(payload) == reference(payload)


@settings(max_examples=50, deadline=None)
@given(json_values)
def test_tuples_written_as_lists(obj):
    assert dump_json((obj, (obj,))) == reference([obj, [obj]])


_STRINGS = [("a", "b\"q"), ("c\\", "d\u00e9"), ("e\n", "f"), ("", "")]
ROW_LISTS = {
    "strings": [("x", "y"), ("z", "w\t"), ("", "é")],
    "repeated": [_STRINGS[i % 3 + (i % 7 == 0)] for i in range(200)],
    "repeated-tuple": tuple(_STRINGS[i % 2] for i in range(64)),
    "one-true-float-none": [(1,), (True,), (1.0,), (None,), (1,), ("1",)] * 20,
    "lengths": [("x", "y"), ("z",), ("x", "y"), ()] * 10,
    "empty-rows": [()] * 20,
    "one-empty-row": [()],
    "nested": [(("a", "b"), ("c",)), (("a", "b"), ()), ((("d",),),)],
    "unhashable": [(["a"], "b"), ({"k": ("v",)}, "c"), (["a"], "b")],
    "tuples-and-lists": [("a", "b"), ["a", "b"], ("c",), []],
    "at-depth": {"outer": [{"rows": [("a", "b")] * 9 + [("c", "d")],
                            "more": {"x": [(1, None), (True, "t")]}}],
                 "also": ([("q",)], (("r",),))},
}


@pytest.mark.parametrize("obj", ROW_LISTS.values(), ids=ROW_LISTS.keys())
def test_tuple_lists_match_json_dumps(obj):
    """Lists whose items are all tuples are written as a table's rows are."""
    assert dump_json(obj) == reference(obj)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(json_values, json_values) | st.tuples(texts, texts)
                | st.tuples(json_values) | st.tuples(), max_size=12))
def test_lists_of_tuples_match_json_dumps(rows):
    assert dump_json(rows) == reference(rows)
    assert dump_json({"k": [rows, tuple(rows)]}) == reference({"k": [rows, rows]})


keys = st.recursive(texts, lambda children: st.tuples(children, children)
                    | st.tuples(children), max_leaves=4)


def reference_key_name(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "(" + ",".join(reference_key_name(k) for k in key) + ")"
    return str(key)


any_keys = st.recursive(texts | st.integers() | st.booleans() | st.none(),
                        lambda children: st.lists(children, max_size=3).map(tuple),
                        max_leaves=6)


# Pullback keys (k, t): heads are names, integers, None or pullback keys
# (nested substitution); tails are tuples of strings, save in some batches,
# which hold tails with other members or a string for a tail.
string_tails = st.lists(texts, max_size=3).map(tuple)
pullback_heads = st.recursive(texts | st.integers() | st.none(),
                              lambda heads: st.tuples(heads, string_tails),
                              max_leaves=3)
odd_tails = st.lists(texts | st.integers() | st.none(), max_size=3).map(tuple) | texts
pullback_batches = st.sampled_from([string_tails, string_tails | odd_tails]).flatmap(
    lambda tails: st.lists(st.tuples(pullback_heads, tails), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.lists(any_keys, max_size=8) | st.lists(keys, max_size=8)
       | st.integers(0, 3).flatmap(lambda n: st.lists(
           st.tuples(*[keys] * n), max_size=8)) | pullback_batches)
def test_key_names_match_recursive_naming(batch):
    """Batches of mixed shapes, of tuples of one length and of pullback keys
    (the one-pass shapes, where their members are strings)."""
    assert key_names(batch) == [reference_key_name(k) for k in batch]
    assert [key_name(k) for k in batch] == key_names(batch)


@pytest.mark.parametrize("batch", [
    [("k", ("a",)), "ab", ("m", ("b", "c"))],
    [("k", ("a",)), ("m", ("b", 1)), ("n", (None,))],
    [(("k", ("a",)), ("b",)), (("m", ("c", "d")), ("e",))],
    [],
], ids=["two-character-string", "non-string-tail", "tuple-heads", "empty"])
def test_key_names_beside_the_one_pass_shapes(batch):
    """Batches that look like pullback keys but are not, and the empty one."""
    assert key_names(batch) == [reference_key_name(k) for k in batch]


@pytest.mark.parametrize("key", [
    lambda i: ((f"k{i}", (f"a{i % 7}", f"b{i % 5}")), (f"a{i % 7}", f"b{i % 5}", f"c{i}")),
    lambda i: ((f"b{i % 12}",), (f"a{i // 12}", f"b{i % 12}")),
], ids=["subst-of-subst", "subst-of-compound"])
def test_nested_keys_are_named_a_column_at_a_time(monkeypatch, key):
    """Pullback keys whose head is a tuple fit no one-pass shape: their
    columns do, so naming 200 of them takes a call per column, not per key."""
    batch = [key(i) for i in range(200)]
    calls = []
    monkeypatch.setattr("fole.workspace._named",
                        lambda ks: calls.append(len(ks)) or _named(ks))
    assert key_names(batch) == [reference_key_name(k) for k in batch]
    assert calls == [200] * 3  # the batch, then its two columns


def test_equal_nested_key_sets_of_one_and_true_keep_their_own_names():
    """A key set named a column at a time is reused only if each column
    held strings alone."""
    sig = Signature.of([("x", "S")])
    ones = Table(sig, {((1,), ("a",)): ("a",), (("x",), ("b",)): ("b",)})
    trues = Table(sig, {((True,), ("a",)): ("c",), (("x",), ("b",)): ("d",)})
    payload = {"a": ones, "b": trues}
    assert dump_json(payload) == payload_reference(payload)
    assert json.loads(dump_json(payload))["b"]["rows"] == {
        "((True),(a))": ["c"], "((x),(b))": ["d"]}


@st.composite
def tables(draw):
    arity = draw(st.integers(0, 3))
    sig = Signature(tuple(f"a{i}" for i in range(arity)),
                    tuple(draw(st.lists(texts, min_size=arity, max_size=arity))))
    value = texts | st.integers() | st.booleans() | st.none()
    rows = draw(st.dictionaries(
        keys, st.tuples(*[value] * arity), max_size=5))
    return Table(sig, rows)


def table_reference(table: Table) -> dict:
    return {"signature": [list(p) for p in table.signature.pairs()],
            "rows": {key_name(k): list(v) for k, v in table.rows.items()}}


def distinct_names(mapping) -> bool:
    return len({key_name(k) for k in mapping}) == len(mapping)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(texts, tables(), max_size=3), json_values)
def test_tables_match_json_dumps(named_tables, extra):
    assume(all(distinct_names(t.rows) for t in named_tables.values()))
    payload = {"tables": named_tables, "extra": extra,
               "nested": [named_tables]}
    expected = {"tables": {n: table_reference(t)
                           for n, t in named_tables.items()},
                "extra": extra}
    expected["nested"] = [expected["tables"]]
    assert dump_json(payload) == reference(expected)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, keys, max_size=6))
def test_key_maps_match_json_dumps(key_map):
    assume(distinct_names(key_map))
    sig = Signature.of([])
    tm = TableMorphism(SignatureMorphism.of(sig, sig, {}), key_map)
    expected = {key_name(k): key_name(v) for k, v in key_map.items()}
    assert dump_json({"maps": {"p": tm}}) == \
        reference({"maps": {"p": expected}})


def test_signature_written_as_pairs():
    sig = Signature.of([("x", "S"), ("y", "T")])
    assert dump_json({"s": sig, "e": Signature.of([])}) == \
        reference({"s": [["x", "S"], ["y", "T"]], "e": []})


@pytest.mark.parametrize("rows", [
    {("a", "b"): ("v",), "(a,b)": ("w",)},
    {("k", ("a,b", "c")): ("v",), ("k", ("a", "b,c")): ("w",)},
    {(1, ("a",)): ("v",), ("1", ("a",)): ("w",)},
    {(("k", ("a",)), ("b",)): ("v",), ("(k,(a))", ("b",)): ("w",)},
])
def test_colliding_key_names_raise(rows):
    table = Table(Signature.of([("0", "S")]), rows)
    first, second = rows
    with pytest.raises(KeyCollision) as info:
        dump_json(table)
    assert repr(first) in str(info.value) and repr(second) in str(info.value)


def test_colliding_key_map_names_raise():
    sig = Signature.of([])
    tm = TableMorphism(SignatureMorphism.of(sig, sig, {}),
                       {("a", "b"): "x", "(a,b)": "y"})
    with pytest.raises(KeyCollision):
        dump_json({"p": tm})


# The writer names a tuple of strings in one join, and writes each distinct
# row of strings once where many repeat.  1, True and 1.0 are one dict key
# but three JSON texts, so values that are not strings take neither path.

def test_equal_non_string_rows_keep_their_own_text():
    table = Table(Signature.of([("x", "S")]),
                  {"a": (1,), "b": (True,), "c": (1.0,)})
    assert dump_json(table) == reference(table_reference(table))
    assert json.loads(dump_json(table))["rows"] == {
        "a": [1], "b": [True], "c": [1.0]}


@pytest.mark.parametrize("rows", [
    {f"k{i}": ("x", "y") if i % 2 else ("z",) for i in range(20)},
    {f"k{i}": ("x", "y") if i % 5 else ("z",) for i in range(3)},
    {f"k{i}": () for i in range(20)},
], ids=["lengths-repeated", "lengths-distinct", "empty"])
def test_string_rows_of_other_lengths(rows):
    """Rows of two lengths (an unchecked table) and rows of none."""
    table = Table(Signature.of([("x", "S"), ("y", "S")]), rows)
    assert dump_json(table) == reference(table_reference(table))


def test_equal_non_string_key_members_keep_their_own_names():
    batch = [("a", (1,)), ("b", (True,))]
    assert key_names(batch) == ["(a,(1))", "(b,(True))"]
    assert key_names(batch) == [reference_key_name(k) for k in batch]
    targets = [(1,), (True,), (1.0,), (1,)]
    assert key_names(targets) == [reference_key_name(k) for k in targets]


def test_key_map_targets_mixing_one_and_true():
    sig = Signature.of([])
    key_map = {"x": (1,), "y": (True,), "z": (1,), "w": ("1",)}
    tm = TableMorphism(SignatureMorphism.of(sig, sig, {}), key_map)
    assert dump_json({"p": tm}) == reference(
        {"p": {k: reference_key_name(v) for k, v in key_map.items()}})
    assert json.loads(dump_json({"p": tm}))["p"] == \
        {"x": "(1)", "y": "(True)", "z": "(1)", "w": "(1)"}


def large_keyed(seed: int):
    """A table of 2500 (k, t)-keyed rows drawn from 64 distinct tuples, and
    a key map onto it whose targets are (k, t) keys, most of them repeated;
    values and keys need escaping now and then."""
    rng = random.Random(seed)
    values = ["a", "b\"q", "c\\", "d\u00e9", "e\n", "f", "g,h", "(i)"]
    tuples = [(x, y) for x in values for y in values]
    keys = [(f"k{i}", t) for i in range(50) for t in rng.sample(tuples, 50)]
    table = Table(Signature.of([("x", "S"), ("y", "S")]),
                  {k: rng.choice(tuples) for k in keys})
    targets = rng.sample(keys, 40)
    sig = table.signature
    tm = TableMorphism(SignatureMorphism.identity(sig),
                       {(f"m{i}", t): rng.choice(targets)
                        for i in range(30) for t in rng.sample(tuples, 40)})
    return table, tm


@pytest.mark.parametrize("seed", [1, 2])
def test_large_repeated_rows_and_key_maps_match_json_dumps(seed):
    table, tm = large_keyed(seed)
    assert len(table.rows) >= 2000 and len(set(table.rows.values())) == 64
    assert len(set(tm.key_map.values())) < len(tm.key_map) // 10
    expected = {"signature": [list(p) for p in table.signature.pairs()],
                "rows": {reference_key_name(k): list(v)
                         for k, v in table.rows.items()}}
    assert table_to_json(table) == reference(expected)
    key_map = {reference_key_name(k): reference_key_name(v)
               for k, v in tm.key_map.items()}
    assert dump_json({"tables": {"t": table}, "maps": [{"c": tm}]}) == \
        reference({"tables": {"t": expected}, "maps": [{"c": key_map}]})


def written(monkeypatch, argv: list) -> dict:
    """The payload that the command ``argv`` hands to the writer."""
    payloads = []
    monkeypatch.setattr(cli, "_write",
                        lambda path, payload, out: payloads.append(payload) or 0)
    assert cli.main(argv + ["--out", "unused.json"], out=io.StringIO()) == 0
    return payloads[0]


def benchmark_workspace(tmp_path, workload: str) -> str:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import migrate_plan, integrity_workspace
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    raw = (migrate_plan(1).workspaces["migrate.json"] if workload == "migrate"
           else integrity_workspace(random.Random(5), 400)[0])
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.mark.parametrize("table", ["N.PairC", "MU.D14"])
def test_dextro_output_loads_back(tmp_path, monkeypatch, table):
    ws = FIXTURE if table == "N.PairC" else benchmark_workspace(tmp_path, "migrate")
    morphism = "collapse" if table == "N.PairC" else "g"
    payload = written(monkeypatch, ["migrate", "-w", ws, table, morphism, "dextro"])
    sent = payload["structures"]["migrated"]["tables"]["migrated"]
    back = load_workspace_data(json.loads(dump_json(payload)))
    assert not back.diagnostics
    loaded = back.structures["migrated"].lax.table_of["migrated"]
    assert key_equivalent(loaded, sent)
    assert set(loaded.rows) == set(map(key_name, sent.rows))


@pytest.mark.parametrize("workspace", ["fixture", "integrity"])
def test_db_image_output_loads_back(tmp_path, monkeypatch, workspace):
    ws = FIXTURE if workspace == "fixture" else benchmark_workspace(tmp_path, "integrity")
    payload = written(monkeypatch, ["convert", "-w", ws, "db-image", "DB"])
    sent = payload["databases"]["DB_image"]
    back = load_workspace_data(json.loads(dump_json(payload)))
    assert not back.diagnostics
    db = back.databases["DB_image"]
    for r, table in sent["tables"].items():
        assert key_equivalent(db.table_of[r], table)
    assert {p: tm.key_map for p, tm in db.constraint_morphism.items()} == {
        p: {key_name(k): key_name(v) for k, v in tm.key_map.items()}
        for p, tm in sent["constraintKeyMaps"].items()}


# dump_json names and sorts each key set of strings and tuples once per
# call: a mapping with equal keys, as a constraint key map has its target
# table's, reuses those names and that order.

def payload_reference(payload: dict) -> str:
    return reference({
        n: table_reference(v) if isinstance(v, Table)
        else {reference_key_name(k): reference_key_name(t)
              for k, t in v.key_map.items()}
        for n, v in payload.items()})


def test_equal_key_sets_of_one_and_true_keep_their_own_names():
    sig = Signature.of([("x", "S")])
    ones = Table(sig, {(1,): ("a",), ("x",): ("b",)})
    trues = Table(sig, {(True,): ("c",), ("x",): ("d",)})
    assert ones.rows.keys() == trues.rows.keys()
    payload = {"a": ones, "b": trues}
    assert dump_json(payload) == payload_reference(payload)
    assert json.loads(dump_json(payload))["b"]["rows"] == {
        "(True)": ["c"], "(x)": ["d"]}


def key_map_onto(table: Table, keys) -> TableMorphism:
    """A key map with ``keys``, onto every tenth key of ``table``."""
    targets = list(table.rows)[::10]
    return TableMorphism(SignatureMorphism.identity(table.signature),
                         {k: targets[i % len(targets)] for i, k in enumerate(keys)})


@pytest.mark.parametrize("first", ["table", "map"])
def test_key_map_over_a_tables_keys_in_another_order(monkeypatch, first):
    table, _ = large_keyed(3)
    keys = list(table.rows)
    random.Random(3).shuffle(keys)
    names = ("a", "b") if first == "table" else ("b", "a")
    payload = dict(zip(names, (table, key_map_onto(table, keys))))
    named = []
    monkeypatch.setattr("fole.workspace._named", lambda ks: named.append(
        set(ks) == table.rows.keys()) or _named(ks))
    assert dump_json(payload) == payload_reference(payload)
    assert named.count(True) == 1  # the key set is named once


def test_key_map_whose_keys_differ_from_a_tables_by_one():
    table, _ = large_keyed(4)
    keys = list(table.rows)
    keys[len(keys) // 2] = ("other", ("a", "b"))
    payload = {"a": table, "b": key_map_onto(table, keys)}
    assert len(payload["b"].key_map) == len(table.rows)
    assert dump_json(payload) == payload_reference(payload)


@pytest.mark.parametrize("first", ["table", "map"])
def test_colliding_names_in_a_shared_key_set_raise(first):
    rows = {("k", ("a,b", "c")): ("v",), ("k", ("a", "b,c")): ("w",),
            ("m", ("d",)): ("x",)}
    table = Table(Signature.of([("0", "S")]), rows)
    names = ("a", "b") if first == "table" else ("b", "a")
    payload = dict(zip(names, (table, key_map_onto(table, reversed(list(rows))))))
    with pytest.raises(KeyCollision) as info:
        dump_json(payload)
    assert "('k', ('a,b', 'c'))" in str(info.value)
    assert "('k', ('a', 'b,c'))" in str(info.value)


# ``fragment`` writes each item by its section's ``dump``, the inverse of the
# section's ``build``; an item that another refers to is written as its name.

def test_the_written_sections_and_no_other_have_a_dump():
    assert {s.name for s in SECTIONS.values() if s.dump} == {
        "typeDomain", "schema", "spec", "structure", "database"}


def named_tables(tables) -> dict:
    return {r: (t.signature, {key_name(k): v for k, v in t.rows.items()})
            for r, t in tables.items()}


def test_fragments_load_back_to_their_items():
    """200 seeded workspaces: a type domain, some of whose extents are empty;
    a schema with named signatures; a spec, a quarter of them declaring a
    composite; a lax structure and a database, some of whose tables are
    empty; and the schemas and spec that the spec and the database hold."""
    _, composite = unit_composite_pair()
    empty_extents = empty_tables = 0
    for seed in range(200):
        rng = random.Random(seed)
        td = rand_type_domain(rng)
        drawn = rand_schema(rng, td)
        schema = Schema(drawn.sorts, drawn.predicates, {
            f"n{i}": rand_signature(rng, td) for i in range(rng.randint(1, 2))})
        spec = composite if seed % 4 == 0 else rand_spec(rng, td)
        m = rand_lax_structure(rng, schema, td)
        db = rand_database(rng, td)
        items = {"typeDomain": {"A": td},
                 "schema": {"S": schema, "specS": spec.schema, "dbS": db.schema.schema},
                 "spec": {"T": spec, "dbT": db.schema},
                 "structure": {"M": m}, "database": {"DB": db}}
        back = load_workspace_data(json.loads(dump_json(fragment(items))))
        assert not back.diagnostics, seed
        assert back.type_domains["A"] == td
        assert {n: back.schemas[n] for n in items["schema"]} == items["schema"]
        assert {n: back.specs[n] for n in items["spec"]} == items["spec"]
        assert named_tables(back.structures["M"].lax.table_of) == named_tables(m.table_of)
        loaded = back.databases["DB"]
        assert named_tables(loaded.table_of) == named_tables(db.table_of)
        assert {p: tm.key_map for p, tm in loaded.constraint_morphism.items()} == {
            p: {key_name(k): key_name(v) for k, v in tm.key_map.items()}
            for p, tm in db.constraint_morphism.items()}
        empty_extents += not all(td.extents.values())
        empty_tables += not all(t.rows for t in [*m.table_of.values(),
                                                 *db.table_of.values()])
    assert empty_extents and empty_tables


def test_fragments_of_loaded_structures_load_back():
    """A structure the loader built reads its tables on demand: each fixture
    structure, by both lookups, and a strict one, write and load back."""
    raw = json.load(open(FIXTURE))
    raw["structures"]["S"] = {
        "schema": "Company", "typeDomain": "A", "kind": "strict",
        "keys": ["k1", "k2", "d1"],
        "classifies": [["k1", "Emp"], ["k2", "Emp"], ["d1", "Dept"],
                       ["k1", "Salaried"]],
        "tuples": {"k1": ["ann", "hr"], "k2": ["bob", "it"], "d1": ["hr"]}}
    for name, data in raw["structures"].items():
        for lookup in (lambda ws: ws.structure(name),
                       lambda ws: ws.require("structure", name).lax):
            m = lookup(load_workspace_data(raw))
            items = {"typeDomain": {data["typeDomain"]: m.type_domain},
                     "schema": {data["schema"]: m.schema}, "structure": {name: m}}
            back = load_workspace_data(json.loads(dump_json(fragment(items))))
            assert not back.diagnostics, name
            assert list(back.type_domains.values()) == [m.type_domain]
            assert list(back.schemas.values()) == [m.schema]
            tables = {r: m.table_of[r] for r in m.schema.predicates}
            assert named_tables(back.structures[name].lax.table_of) == \
                named_tables(tables), name
