"""Workspace file loading: one JSON file holding every named item.

Top-level keys, in load order (``SECTIONS``): "typeDomains", "schemas",
"sigMorphisms", "typeDomainMorphisms", "structures", "specs", "databases",
"specMorphisms", "structureMorphisms", "dbMorphisms".  All sections are
optional; an item refers by name only to items of earlier sections.  Loading
checks the JSON shape of the file, of each section and of each item.  Each
section is a ``Lazy`` mapping: an item is built and validated on its first
lookup.  A structure's tables are a ``Lazy`` mapping too, each table built
and checked on its first read: its section reads every table, while
``Workspace.structure`` reads none.  Failures are kept as diagnostics, not
raised.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from .core import (
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
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
    check_has_table,
    check_table,
    strict_morphism_to_lax,
    to_lax,
    validate_lax_morphism,
)
from .tables import Table, TableMorphism


def _signature(pairs) -> Signature:
    return Signature.of([(a, s) for a, s in pairs])


def _table(data, signature: Signature | None = None) -> Table:
    sig = _signature(data["signature"]) if "signature" in data else signature
    rows = {k: tuple(v) for k, v in data["rows"].items()}
    return Table(sig, rows)


def key_name(key) -> str:
    """Stable string form for composite keys in serialized output."""
    return key_names([key])[0]


def key_names(keys) -> list:
    """``key_name`` of each key (a tuple: its members' names, comma-joined in
    parentheses), a column at a time where all are tuples of one length."""
    if all(map(isinstance, keys, repeat(str))):
        return list(keys)
    if keys[0] and all(map(isinstance, keys, repeat(tuple))) \
            and len(set(map(len, keys))) == 1:
        return [f"({s})" for s in map(",".join, zip(*map(key_names, zip(*keys))))]
    return [f"({','.join(key_names(k))})" if isinstance(k, tuple) else str(k)
            for k in keys]


_ENC = json.encoder.encode_basestring_ascii


def _named(mapping: dict) -> tuple[list, list]:
    """The key names of ``mapping``, sorted, and its values in their order.
    Two keys with one name raise ``KeyCollision``: JSON keeps only one."""
    names = key_names(list(mapping))
    named = dict(zip(names, mapping.values()))
    if len(named) < len(mapping):
        first = {}
        for k, name in zip(mapping, names):
            if first.setdefault(name, k) != k:
                raise KeyCollision(f"keys {first[name]!r} and {k!r} are both "
                                   f"written as {name!r}")
    names = sorted(named)
    return names, list(map(named.__getitem__, names))


def table_to_json(table: Table) -> str:
    """The table as ``dump_json`` writes it at depth 0, rows sorted by name."""
    rows = [f"{_ENC(n)}: [\n      " + ",\n      ".join(
                [_ENC(v) if v.__class__ is str else _render(v, 3) for v in row])
            + "\n    ]" if row else _ENC(n) + ": []"
            for n, row in zip(*_named(table.rows))]
    return _block(['"rows": ' + _block(rows, "{}", 1),
                   '"signature": ' + _render(table.signature, 1)], "{}", 0)


def dump_json(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True)``; the payload
    may also hold a ``Signature`` (written as its pairs), a ``Table`` (as
    ``table_to_json``) and a ``TableMorphism`` (its key map, by ``key_name``)."""
    return _render(payload, 0)


def _render(obj, depth: int) -> str:
    if isinstance(obj, Table):
        return table_to_json(obj).replace("\n", "\n" + "  " * depth)
    if isinstance(obj, Signature):
        obj = obj.pairs()
    if isinstance(obj, TableMorphism):
        names, targets = _named(obj.key_map)
        obj = dict(zip(names, key_names(targets)))
    if isinstance(obj, dict):
        return _block([_ENC(k) + ": " + (_ENC(v) if v.__class__ is str
                                         else _render(v, depth + 1))
                       for k, v in sorted(obj.items())], "{}", depth)
    if isinstance(obj, (list, tuple)):
        return _block([_ENC(v) if v.__class__ is str else _render(v, depth + 1)
                       for v in obj], "[]", depth)
    return _ENC(obj) if isinstance(obj, str) else json.dumps(obj)


def _block(parts: list, ends: str, depth: int) -> str:
    if not parts:
        return ends
    pad = "\n" + "  " * depth
    return ends[0] + pad + "  " + ("," + pad + "  ").join(parts) + pad + ends[1]


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
            items = Lazy({}, partial(s.build, self))
            for n, d in (_shape(self.shape, s.key, raw.get(s.key, {}), dict,
                                s.key) or {}).items():
                if _shape(items.failed, n, d, dict, f"{s.key}.{n}") is not None:
                    items.data[n] = d
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
        """Structure ``name`` in lax form: the structures section's entry if
        it has made one, else built as that section builds it but with each
        table built and checked only when first read."""
        if name in self.structures.made:
            return self.structures.made[name].lax
        if name not in self.structures.data:
            raise UnresolvedReference("structure", name)
        return _structure(self, name, self.structures.data[name]).lax


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (UnicodeDecodeError, RecursionError) as exc:
            # bytes that are not UTF-8, or nesting too deep to decode
            raise ShapeError(f"workspace: {exc}") from None
    return Workspace(raw)


load_workspace_data = Workspace


def _shaped(value, kind: type, path: str):
    """``value`` if it is a ``kind``, else a ``ShapeError`` naming ``path``."""
    if not isinstance(value, kind):
        names = {dict: "an object", list: "a list", str: "a string"}
        raise ShapeError(f"{path}: expected {names[kind]}, "
                         f"got {names.get(type(value)) or json.dumps(value)}")
    return value


def _shape(failed: dict, name: str, *args):
    """``_shaped(*args)``, or None with its ``ShapeError`` in ``failed[name]``."""
    try:
        return _shaped(*args)
    except ShapeError as exc:
        failed[name] = exc


def _strings(values, path: str) -> tuple:
    """``values``, a list of strings, as a tuple, else a ``ShapeError``
    naming the path of the list or of its first value that is not one."""
    for i, v in enumerate(_shaped(values, list, path)):
        if v.__class__ is not str:
            _shaped(v, str, f"{path}[{i}]")
    return tuple(values)


def _type_domain(ws: Workspace, name: str, data) -> TypeDomain:
    return TypeDomain(tuple(data), {
        x: _strings(vs, f"typeDomains.{name}.{x}") for x, vs in data.items()})


def _schema(ws: Workspace, name: str, data) -> Schema:
    return Schema(  # sorts, predicates, named signatures
        _strings(data["sorts"], f"schemas.{name}.sorts"),
        {r: _signature(sig) for r, sig in data["predicates"].items()},
        {n: _signature(sig) for n, sig in data.get("signatures", {}).items()})


def _sig_morphism(ws: Workspace, name: str, data) -> SignatureMorphism:
    h = SignatureMorphism.of(_signature(data["source"]),
                             _signature(data["target"]), data["map"])
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
    if data.get("kind", "lax") == "strict":
        strict = StrictStructure(
            schema=schema, type_domain=td, keys=tuple(data["keys"]),
            classifies=frozenset((k, r) for k, r in data["classifies"]),
            tuple_of_key={k: tuple(v) for k, v in data["tuples"].items()})
        return StructureEntry(to_lax(strict), strict)
    path = f"structures.{name}.tables"
    tables = _shaped(data["tables"], dict, path)
    for r, tdata in tables.items():
        schema.signature_of(r)  # a table of no predicate fails here
        rows = _shaped(tdata, dict, f"{path}.{r}")["rows"]
        _shaped(rows, dict, f"{path}.{r}.rows")
    for r in schema.predicates:
        check_has_table(r, tables)
    return StructureEntry(LaxStructure(schema, td, Lazy(
        tables, lambda r, t: check_table(
            r, _table(t, schema.signature_of(r)), schema, td))))


def _checked_structure(ws: Workspace, name: str, data) -> StructureEntry:
    """``_structure``, every table read: the structure's full check."""
    entry = _structure(ws, name, data)
    for r in entry.lax.schema.predicates:
        entry.lax.table_of[r]
    return entry


def _spec(ws: Workspace, name: str, data) -> AbstractSpec:
    schema = ws.require("schema", data["schema"])
    constraints = {}
    for pname, cdata in data.get("constraints", {}).items():
        src = schema.signature_of(cdata["sourcePredicate"])
        tgt = schema.signature_of(cdata["targetPredicate"])
        h = SignatureMorphism.of(src, tgt, cdata["h"])
        constraints[pname] = GeneratingConstraint(
            pname, cdata["sourcePredicate"], cdata["targetPredicate"], h)
    spec = AbstractSpec(schema, constraints, tuple(
        CompositeDeclaration(tuple(d["path"]), d["equals"])
        for d in data.get("composites", [])))
    spec.validate()
    return spec


def _database(ws: Workspace, name: str, data) -> Database:
    spec = ws.require("spec", data["schema"])
    td = ws.require("typeDomain", data["typeDomain"])
    tables = {r: _table(tdata, spec.schema.signature_of(r))
              for r, tdata in data["tables"].items()}
    return Database(spec, td, tables, {
        pname: TableMorphism(spec.constraints[pname].morphism, dict(kmap))
        for pname, kmap in data.get("constraintKeyMaps", {}).items()})


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


class Section(NamedTuple):
    name: str  # as ``Workspace.require`` names it
    key: str  # the top-level JSON key
    field: str  # the ``Workspace`` field holding its items
    build: Callable  # (ws, name, data) -> the item, validated


# Every section, in load order: an item refers only to earlier sections.
SECTIONS = {s.name: s for s in (
    Section("typeDomain", "typeDomains", "type_domains", _type_domain),
    Section("schema", "schemas", "schemas", _schema),
    Section("sigMorphism", "sigMorphisms", "sig_morphisms", _sig_morphism),
    Section("typeDomainMorphism", "typeDomainMorphisms",
            "type_domain_morphisms", _td_morphism),
    Section("structure", "structures", "structures", _checked_structure),
    Section("spec", "specs", "specs", _spec),
    Section("database", "databases", "databases", _database),
    Section("specMorphism", "specMorphisms", "spec_morphisms", _spec_morphism),
    Section("structureMorphism", "structureMorphisms", "structure_morphisms",
            _structure_morphism),
    Section("dbMorphism", "dbMorphisms", "db_morphisms", _db_morphism),
)}


def _bridges(data, schema2: Schema, schema1: Schema,
             sort_map: dict) -> dict[str, SignatureMorphism]:
    return {r2: SignatureMorphism.of(
                pushed_signature(schema2.signature_of(r2), sort_map),
                schema1.signature_of(data["predicateMap"][r2]), mapping)
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
