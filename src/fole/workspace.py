"""Workspace files: one JSON file holding every named item.

Top-level keys, in load order (``SECTIONS``): "typeDomains", "schemas",
"sigMorphisms", "typeDomainMorphisms", "structures", "specs", "databases",
"specMorphisms", "structureMorphisms", "dbMorphisms".  All sections are
optional; an item refers by name only to items of earlier sections.  Loading
checks the JSON shape of the file, of each section and of each item.  Each
section is a ``Lazy`` mapping: an item is built and validated on its first
lookup.  A structure's tables are a ``Lazy`` mapping too, each table built
and checked on its first read: its section reads every table, while
``Workspace.structure`` reads none.  Failures are kept as diagnostics, not
raised.  ``fragment`` writes items back, each by its section's ``dump``.
"""

from __future__ import annotations

import json
from contextlib import suppress
from functools import partial
from itertools import chain, repeat
from typing import Any, Callable, NamedTuple, Optional

from .core import (
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    entry,
    pushed_signature,
)
from .errors import KeyCollision, ShapeError, UnresolvedReference
from .formula import Schema
from .logic_db import (
    Database,
    DatabaseMorphism,
    validate_db_morphism,
)
from .specs import (
    AbstractSpec,
    CompositeDeclaration,
    GeneratingConstraint,
    SpecMorphism,
    validate_spec_morphism,
)
from .structure import (
    LaxStructure,
    LaxStructureMorphism,
    Lazy,
    StrictStructure,
    StrictStructureMorphism,
    check_table,
    check_tables_for,
    strict_morphism_to_lax,
    to_lax,
    validate_lax_morphism,
)
from .tables import Table, TableMorphism


def _table(data, signature: Signature, path: str) -> Table:
    """The table at ``path``, its shape walked; its values are left to its check."""
    rows = _shaped(data, _TABLE, path)["rows"]
    sig = Signature.of(data["signature"]) if "signature" in data else signature
    return Table(sig, dict(zip(rows, map(tuple, rows.values()))))


def key_name(key) -> str:
    """Stable string form for composite keys in serialized output."""
    return key_names([key])[0]


def key_names(keys) -> list:
    """``key_name`` of each key: a tuple's members' names, comma-joined in parentheses."""
    return _named(keys)[0]


_SHAPES = (lambda keys: [k for k in keys if k.__class__ is str],  # loaded keys
           lambda keys: [f"({','.join(k)})" for k in keys if k.__class__ is tuple],  # images'
           lambda keys: [f"({h},({','.join(t)}))" for h, t in keys  # pullbacks' (k, t)
                         if h.__class__ is str and t.__class__ is tuple])


def _named(keys) -> tuple:
    """``key_names(keys)``, and whether they were named in bulk: by one pass of
    ``_SHAPES``, or, for tuples of one length such as ``((k, t), t')``, a
    column at a time, each column in bulk."""
    for shape in _SHAPES[bool(keys) and keys[0].__class__ is tuple:]:  # a tuple is no string
        with suppress(TypeError, ValueError):  # from a join or an unpacking
            if len(names := shape(keys)) == len(keys):
                return names, True
    if keys and set(map(type, keys)) == {tuple}:
        with suppress(ValueError):  # from tuples of different lengths
            names, plain = zip(*map(_named, map(list, zip(*keys, strict=True))))
            return [f"({','.join(parts)})" for parts in zip(*names)], all(plain)
    return [f"({','.join(key_names(k))})" if isinstance(k, tuple) else str(k)
            for k in keys], False


_ENC = json.encoder.encode_basestring_ascii
# a string or an empty container as json.dumps writes it; other leaves by json.dumps
_LEAF = {str: _ENC, dict: lambda _: "{}", list: lambda _: "[]", tuple: lambda _: "[]"}


def _object(mapping: dict, texts, pad: str, seen) -> str:
    """``mapping`` at ``pad``: keys by name, sorted, valued by ``texts(values)``.
    Two keys with one name raise ``KeyCollision``, as JSON keeps only one.
    A key set kept in ``seen`` lends its names and order to an equal set."""
    for keys, names, order, encoded in seen or ():
        if keys == mapping.keys():
            named = dict(zip(names, map(mapping.__getitem__, keys)))
            break
    else:
        names, plain = _named(list(mapping))
        named = dict(zip(names, mapping.values()))
        if len(named) < len(mapping):
            first = {}
            for k, name in zip(mapping, names):
                if first.setdefault(name, k) != k:
                    raise KeyCollision(f"keys {first[name]!r} and {k!r} are both "
                                       f"written as {name!r}")
        encoded = list(map(_ENC, order := sorted(named)))
        if plain and seen is not None:  # of strings and tuples: equal keys, one name
            seen.append((mapping.keys(), names, order, encoded))
    entries = zip(encoded, texts(list(map(named.__getitem__, order))))
    body = f",{pad}  ".join([f"{n}: {t}" for n, t in entries])
    return "".join(("{", pad, "  ", body, pad, "}")) if order else "{}"


def _rows(rows: list, pad: str):
    """The text of each row at ``pad``; where all values are strings and many
    rows repeat, of each distinct row once."""
    try:  # _ENC raises TypeError on a value that is not a string
        sample = rows[::8]  # whether many rows repeat, at an eighth of the cost
        distinct = dict.fromkeys(rows) if 2 * len(set(sample)) < len(sample) else rows
        columns = zip(*map(map, repeat(_ENC), zip(*distinct, strict=True)))
        texts = [f"[{pad}  {s}{pad}]" for s in map(f",{pad}  ".join, columns)] \
            or ["[]"] * len(distinct)  # or every row is ()
    except (TypeError, ValueError):  # or rows of different lengths
        return [_dump(row, pad) for row in rows]
    return texts if distinct is rows else map(dict(zip(distinct, texts)).get, rows)


def table_to_json(table: Table, pad: str = "\n", seen=None) -> str:
    """The table as ``dump_json`` writes it at ``pad``, rows sorted by name."""
    p2 = pad + "  "
    rows = _object(table.rows, partial(_rows, pad=p2 + "  "), p2, seen)
    return "".join(("{", p2, '"rows": ', rows, ",", p2, '"signature": ',
                    _dump(table.signature, p2), pad, "}"))


def dump_json(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True)``; the payload
    may also hold a ``Signature`` (written as its pairs), a ``Table`` (as
    ``table_to_json``) and a ``TableMorphism`` (its key map, by ``key_name``)."""
    return _dump(payload, "\n", [])


def _dump(obj, pad: str, seen=None) -> str:
    """``obj`` as ``dump_json`` writes it at ``pad``: a newline and its indent."""
    _render(obj, pad, out := [], seen)  # every piece of the text, joined once
    return "".join(out)


def _render(obj, pad: str, out: list, seen) -> None:
    if isinstance(obj, Table):
        return out.append(table_to_json(obj, pad, seen))
    if isinstance(obj, TableMorphism):
        return out.append(_object(obj.key_map, lambda ts: map(_ENC, key_names(ts)), pad, seen))
    if isinstance(obj, Signature):
        obj = obj.pairs()
    if not obj or not isinstance(obj, (dict, list, tuple)):  # a scalar, {} or []
        return out.append(_LEAF.get(obj.__class__, json.dumps)(obj))
    keyed, inner = isinstance(obj, dict), pad + "  "
    if not keyed and all(map(isinstance, obj, repeat(str))):  # one piece, not one per value
        return out.append(f"[{inner}{(',' + inner).join(map(_ENC, obj))}{pad}]")
    if not keyed and all(map(isinstance, obj, repeat(tuple))):  # rows, as a table's
        return out.append(f"[{inner}{(',' + inner).join(_rows(obj, inner))}{pad}]")
    lead, sep = ("{" if keyed else "[") + inner, "," + inner
    for v in sorted(obj) if keyed else obj:
        out.append(f"{lead}{_ENC(v)}: " if keyed else lead)
        _render(obj[v] if keyed else v, inner, out, seen)
        lead = sep  # one object, not a new string per entry
    out.append(pad + ("}" if keyed else "]"))


class StructureEntry(NamedTuple):
    lax: LaxStructure
    strict: Optional[StrictStructure] = None


class Diagnostic(NamedTuple):
    section: str
    name: str
    error: str


class Workspace:
    """One ``Lazy`` mapping per section, in the field ``SECTIONS`` names:
    shapes are checked when loading, each item built when first looked up."""

    def __init__(self, raw):
        self.shape = {}  # ShapeError of the file (key "") and of each section
        raw = _shape(self.shape, "", raw, dict, "workspace") or {}
        for s in SECTIONS.values():
            found = _shape(self.shape, s.key, raw.get(s.key, {}), dict, s.key)
            items = Lazy(found or {}, partial(s.make, self))
            if found and not _fits(dict, found.values()):  # as one column
                items.data = {n: d for n, d in found.items() if _shape(
                    items.failed, n, d, dict, f"{s.key}.{n}") is not None}
            setattr(self, s.field, items)
        self.misshapen = bool(self.shape) or any(
            getattr(self, s.field).failed for s in SECTIONS.values())

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """Every diagnostic, building every item: the file's shape, then each
        section in load order with its shape, its items' shapes and builds."""
        found = [("workspace", "", self.shape.get(""))]
        for s in SECTIONS.values():
            items = getattr(self, s.field)
            shapes = [n for n in items.failed if n not in items.data]
            found += [("workspace", s.key, self.shape.get(s.key))] + [
                (s.key, n, items.failed[n])
                for n in shapes + [n for n in items.data if n not in items]]
        return [Diagnostic(section, name, f"{type(exc).__name__}: {exc}")
                for section, name, exc in found if exc is not None]

    def require(self, section: str, name: str):
        """The validated item ``name`` of ``section``."""
        items = getattr(self, SECTIONS[section].field)
        if name not in items:
            raise UnresolvedReference(section, name)
        return items[name]

    def structure(self, name: str) -> LaxStructure:
        """Structure ``name`` in lax form: the structures section's entry if it
        has made one, else made as it does, each table built on its first read."""
        if name in self.structures.made:
            return self.structures.made[name].lax
        if name not in self.structures.data:
            raise UnresolvedReference("structure", name)
        section = SECTIONS["structure"]._replace(build=_structure)
        return section.make(self, name, self.structures.data[name]).lax


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            # bytes that are not UTF-8, or nesting too deep to decode
            raise ShapeError(f"workspace: {exc}") from None
    return Workspace(raw)


load_workspace_data = Workspace


# ------------------------------------------------------------------- shapes
# A JSON shape is ``str``, ``list`` or ``dict`` (a value of that type, its
# entries not walked); ``[s]``, a list of values of shape ``s``, or ``(s, s)``,
# of exactly two; ``Map(s)``, an object of values of shape ``s``; or a dict of
# an object's keys and their shapes ("k?" may be absent; other keys are ignored).

class Map(NamedTuple):
    value: Any  # the shape of each value


_KINDS = {list: list, tuple: list, Map: dict, dict: dict}
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _fits(shape, column) -> bool:
    """Whether every value in ``column`` has ``shape``, a level at a time."""
    cls = shape.__class__
    if cls is type:
        return all(map(isinstance, column, repeat(shape)))
    if not all(map(isinstance, column, repeat(_KINDS[cls]))):
        return False
    if cls is dict:  # objects of declared keys: a key at a time
        for key, sub in shape.items():
            name = key.rstrip("?")
            values = [d[name] for d in column if name in d]
            if len(values) < len(column) and name == key \
                    or values and not _fits(sub, values):
                return False
        return True
    entries = chain.from_iterable(map(dict.values, column) if cls is Map else column)
    return (cls is not tuple or set(map(len, column)) <= {len(shape)}) and _fits(
        shape[0], entries if shape[0].__class__ is type else list(entries))


def _faults(shape, value, path: str):
    """The message of each place under ``path`` where ``value`` leaves ``shape``."""
    cls, kind = shape.__class__, _KINDS.get(shape.__class__, shape)
    if not isinstance(value, kind) or cls is tuple and len(value) != len(shape):
        got = (f"a list of {len(value)}" if cls is tuple and type(value) is list
               else _KIND_NAMES.get(type(value)) or json.dumps(value))
        kind = f"a list of {len(shape)}" if cls is tuple else _KIND_NAMES[kind]
        yield f"{path}: expected {kind}, got {got}"
    elif cls is dict:
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in value:
                yield from _faults(sub, value[name], f"{path}.{name}")
            elif name == key:
                yield f"{path}: missing key {name!r}"
    elif cls is not type:
        for step, v in ([(f".{k}", v) for k, v in value.items()] if cls is Map
                        else [(f"[{i}]", v) for i, v in enumerate(value)]):
            yield from _faults(shape[0], v, path + step)


def _shaped(value, shape, path: str):
    """``value`` if it has ``shape``, else a ``ShapeError`` at its first fault."""
    if not (isinstance(value, shape) if shape.__class__ is type else _fits(shape, [value])):
        raise ShapeError(next(_faults(shape, value, path)))
    return value


def _shape(failed: dict, name: str, *args):
    """``_shaped(*args)``, or None with its ``ShapeError`` in ``failed[name]``."""
    try:
        return _shaped(*args)
    except ShapeError as exc:
        failed[name] = exc


def _type_domain(ws: Workspace, name: str, data) -> TypeDomain:
    return TypeDomain(tuple(sorted(data)), data)


def _schema(ws: Workspace, name: str, data) -> Schema:
    return Schema(  # sorts, predicates, named signatures
        tuple(data["sorts"]),
        {r: Signature.of(sig) for r, sig in data["predicates"].items()},
        {n: Signature.of(sig) for n, sig in data.get("signatures", {}).items()})


def _sig_morphism(ws: Workspace, name: str, data) -> SignatureMorphism:
    h = SignatureMorphism.of(Signature.of(data["source"]),
                             Signature.of(data["target"]), data["map"])
    check_signature_morphism(h)
    return h


def _td_morphism(ws: Workspace, name: str, data):
    m = TypeDomainMorphism.of(data["sortMap"], data["valueMap"])
    a2 = ws.require("typeDomain", data["source"])
    a1 = ws.require("typeDomain", data["target"])
    check_type_domain_morphism(m, a2, a1)
    return m, data["source"], data["target"]


def _structure(ws: Workspace, name: str, data) -> StructureEntry:
    """Structure ``name``, each table built and checked on its first read."""
    schema = ws.require("schema", data["schema"])
    td = ws.require("typeDomain", data["typeDomain"])
    if data.get("kind") == "strict":
        strict = StrictStructure(
            schema=schema, type_domain=td, keys=tuple(data["keys"]),
            classifies=frozenset(map(tuple, data["classifies"])),
            tuple_of_key={k: tuple(v) for k, v in data["tuples"].items()})
        return StructureEntry(to_lax(strict), strict)
    tables = data["tables"]
    check_tables_for(schema, tables)
    return StructureEntry(LaxStructure(schema, td, Lazy(tables, lambda r, t: check_table(
        r, _table(t, schema.signature_of(r), f"structures.{name}.tables.{r}"),
        schema, td))))


def _checked_structure(ws: Workspace, name: str, data) -> StructureEntry:
    """``_structure``, every table read: the structure's full check."""
    entry = _structure(ws, name, data)
    for r in entry.lax.schema.predicates:
        entry.lax.table_of[r]
    return entry


def _spec(ws: Workspace, name: str, data) -> AbstractSpec:
    schema = ws.require("schema", data["schema"])
    constraints = {}
    for pname, c in data.get("constraints", {}).items():
        src, tgt = c["sourcePredicate"], c["targetPredicate"]
        constraints[pname] = GeneratingConstraint(pname, src, tgt, SignatureMorphism.of(
            schema.signature_of(src), schema.signature_of(tgt), c["h"]))
    spec = AbstractSpec(schema, constraints, tuple(
        CompositeDeclaration(tuple(d["path"]), d["equals"])
        for d in data.get("composites", [])))
    spec.validate()
    return spec


def _dump_spec(spec: AbstractSpec, names: dict) -> dict:
    return {"schema": names[id(spec.schema)], "constraints": {
        p: {"sourcePredicate": c.source_predicate, "targetPredicate": c.target_predicate,
            "h": dict(c.morphism.mapping)} for p, c in spec.constraints.items()},
        "composites": [{"path": d.path, "equals": d.equals} for d in spec.composites]}


def _database(ws: Workspace, name: str, data) -> Database:
    spec = ws.require("spec", data["schema"])
    td = ws.require("typeDomain", data["typeDomain"])
    tables = {r: _table(t, spec.schema.signature_of(r), f"databases.{name}.tables.{r}")
              for r, t in data["tables"].items()}
    return Database(spec, td, tables, {
        p: TableMorphism(entry(spec.constraints, p, "constraint").morphism, dict(kmap))
        for p, kmap in data.get("constraintKeyMaps", {}).items()})


def _spec_morphism(ws: Workspace, name: str, data):
    t2 = ws.require("spec", data["source"])
    t1 = ws.require("spec", data["target"])
    sm = _spec_morphism_of(data, t2, t1)
    validate_spec_morphism(sm, t2, t1)
    return sm, data["source"], data["target"]


def _structure_morphism(ws: Workspace, name: str, data):
    m2 = ws.require("structure", data["source"])
    m1 = ws.require("structure", data["target"])
    td_mor, _, _ = ws.require("typeDomainMorphism", data["typeDomainMorphism"])
    bridges = _bridges(data, m2.lax.schema, m1.lax.schema, td_mor.f)
    if data.get("kind") == "strict":
        if m2.strict is None or m1.strict is None:
            raise UnresolvedReference("strict structure", data["source"])
        sm = StrictStructureMorphism(
            predicate_map=dict(data["predicateMap"]), key_map=dict(data["keyMap"]),
            schema_bridge=bridges, td_morphism=td_mor)
        lax = strict_morphism_to_lax(sm, m2.strict, m1.strict)
    else:
        lax = LaxStructureMorphism(
            predicate_map=dict(data["predicateMap"]), schema_bridge=bridges,
            td_morphism=td_mor,
            key_bridge={r: dict(km) for r, km in data["keyBridges"].items()})
    validate_lax_morphism(lax, m2.lax, m1.lax)
    return lax, data["source"], data["target"]


def _db_morphism(ws: Workspace, name: str, data):
    db2 = ws.require("database", data["source"])
    db1 = ws.require("database", data["target"])
    td_mor, _, _ = ws.require("typeDomainMorphism", data["typeDomainMorphism"])
    if isinstance(data.get("specMorphism"), str):
        sm, _, _ = ws.require("specMorphism", data["specMorphism"])
    else:
        sm = _spec_morphism_of(data, db2.schema, db1.schema)
    dm = DatabaseMorphism(
        spec_morphism=sm, td_morphism=td_mor,
        key_bridge={r: dict(km) for r, km in data["keyBridges"].items()})
    validate_db_morphism(dm, db2, db1)
    return dm, data["source"], data["target"]


def fragment(items: dict) -> dict:
    """The workspace data that loads back to ``items``, ``{section: {name: item}}``:
    each item by its section's ``dump``, an item it refers to by its name there."""
    names = {id(item): n for named in items.values() for n, item in named.items()}
    return {SECTIONS[s].key: {n: SECTIONS[s].dump(item, names) for n, item in named.items()}
            for s, named in items.items()}


class Section(NamedTuple):
    name: str  # as ``Workspace.require`` names it
    key: str  # the top-level JSON key
    field: str  # the ``Workspace`` field holding its items
    build: Callable  # (ws, name, data) -> the item, validated
    shape: Any  # an item's shape, or a function of the item choosing it
    dump: Optional[Callable] = None  # (item, {id(item): name}) -> the data ``build`` takes

    def make(self, ws: Workspace, name: str, data):
        """The item ``name``: its shape walked, then built."""
        shape = self.shape(data) if callable(self.shape) else self.shape
        return self.build(ws, name, _shaped(data, shape, f"{self.key}.{name}"))


_NAMES = Map(str)  # a name map, such as a sort map or a key map
_SIGNATURE = [(str, str)]  # (attribute, sort) pairs
_ROWS = Map(list)  # keyed rows; their values are left to the table's check
_TABLE = {"rows": _ROWS, "signature?": _SIGNATURE}  # walked on a table's first read
_OVER = {"schema": str, "typeDomain": str}
_BRIDGED = {"source": str, "target": str, "predicateMap": _NAMES, "bridges": Map(_NAMES)}
_SPEC_MORPHISM = {**_BRIDGED, "sortMap": _NAMES, "constraintMap?": _NAMES}
_KEYED = {"typeDomainMorphism": str, "keyBridges": Map(_NAMES)}
_STRICT = {**_OVER, "keys": [str], "classifies": [(str, str)], "tuples": _ROWS}
_LAX = {**_OVER, "tables": Map({"rows": dict})}  # the rest of a table: on its first read
_CONSTRAINT = {"sourcePredicate": str, "targetPredicate": str, "h": _NAMES}

# Every section, in load order: an item refers only to earlier sections.
SECTIONS = {s.name: s for s in (
    Section("typeDomain", "typeDomains", "type_domains", _type_domain, Map([str]),
            lambda td, names: td.extents),
    Section("schema", "schemas", "schemas", _schema, {
        "sorts": [str], "predicates": Map(_SIGNATURE), "signatures?": Map(_SIGNATURE)},
        lambda s, names: {"sorts": s.sorts, "predicates": s.predicates,
                          "signatures": s.signatures}),
    Section("sigMorphism", "sigMorphisms", "sig_morphisms", _sig_morphism,
            {"source": _SIGNATURE, "target": _SIGNATURE, "map": _NAMES}),
    Section("typeDomainMorphism", "typeDomainMorphisms", "type_domain_morphisms",
            _td_morphism, {"source": str, "target": str, "sortMap": _NAMES, "valueMap": _NAMES}),
    Section("structure", "structures", "structures", _checked_structure,
            lambda d: _STRICT if d.get("kind") == "strict" else _LAX,
            lambda m, names: {"schema": names[id(m.schema)], "kind": "lax",  # no command writes strict
                              "typeDomain": names[id(m.type_domain)],
                              "tables": {r: m.table_of[r] for r in m.schema.predicates}}),
    Section("spec", "specs", "specs", _spec, {
        "schema": str, "constraints?": Map(_CONSTRAINT),
        "composites?": [{"path": [str], "equals": str}]}, _dump_spec),
    Section("database", "databases", "databases", _database, {
        **_OVER, "tables": dict, "constraintKeyMaps?": Map(_NAMES)},
        lambda db, names: {"schema": names[id(db.schema)], "tables": db.table_of,
                           "typeDomain": names[id(db.type_domain)],
                           "constraintKeyMaps": db.constraint_morphism}),
    Section("specMorphism", "specMorphisms", "spec_morphisms", _spec_morphism,
            _SPEC_MORPHISM),
    Section("structureMorphism", "structureMorphisms", "structure_morphisms",
            _structure_morphism,
            lambda d: {**_BRIDGED, "typeDomainMorphism": str, "keyMap": _NAMES}
            if d.get("kind") == "strict" else {**_BRIDGED, **_KEYED}),
    Section("dbMorphism", "dbMorphisms", "db_morphisms", _db_morphism,
            lambda d: {"source": str, "target": str, "specMorphism": str, **_KEYED}
            if isinstance(d.get("specMorphism"), str) else {**_SPEC_MORPHISM, **_KEYED}),
)}


def _bridges(data, schema2: Schema, schema1: Schema,
             sort_map: dict) -> dict[str, SignatureMorphism]:
    return {r2: SignatureMorphism.of(
                pushed_signature(schema2.signature_of(r2), sort_map),
                schema1.signature_of(entry(data["predicateMap"], r2,
                                           "predicate map")), mapping)
            for r2, mapping in data["bridges"].items()}


def _spec_morphism_of(data, t2: AbstractSpec,
                      t1: AbstractSpec) -> SpecMorphism:
    f = dict(data["sortMap"])
    bridge = _bridges(data, t2.schema, t1.schema, f)
    return SpecMorphism(
        predicate_map=dict(data["predicateMap"]),
        constraint_map=dict(data.get("constraintMap", {})),
        sort_map=f,
        bridge=bridge,
    )
