"""The workspace writer against ``json.dumps(indent=2, sort_keys=True)``."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fole import Signature, SignatureMorphism, Table, TableMorphism
from fole.errors import KeyCollision
from fole.workspace import dump_json, key_name, key_names


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


@settings(max_examples=50, deadline=None)
@given(json_values)
def test_tuples_written_as_lists(obj):
    assert dump_json((obj, (obj,))) == reference([obj, [obj]])


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


@settings(max_examples=200, deadline=None)
@given(st.lists(any_keys, max_size=8) | st.lists(keys, max_size=8)
       | st.integers(0, 3).flatmap(lambda n: st.lists(
           st.tuples(*[keys] * n), max_size=8)))
def test_key_names_match_recursive_naming(batch):
    """Batches of mixed shapes, and of tuples of one length (the
    column-at-a-time path)."""
    assert key_names(batch) == [reference_key_name(k) for k in batch]
    assert [key_name(k) for k in batch] == key_names(batch)


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
