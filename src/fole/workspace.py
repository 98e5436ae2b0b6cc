"""Workspace file loading: one JSON file holding every named item.

Top-level keys: "typeDomains", "schemas", "sigMorphisms", "structures",
"specs", "databases", "specMorphisms", "structureMorphisms", "dbMorphisms",
"typeDomainMorphisms".  All sections are optional; items resolve against
each other by name.  Loading validates every item and collects diagnostics
instead of aborting on the first failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from .core import (
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    pushed_signature,
)
from .errors import FoleError, KeyCollision, ShapeError, UnresolvedReference
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
    StrictStructure,
    StrictStructureMorphism,
    strict_morphism_to_lax,
    to_lax,
    validate_lax_morphism,
    validate_strict,
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


@dataclass
class StructureEntry:
    kind: str  # "lax" | "strict"
    lax: LaxStructure
    strict: Optional[StrictStructure] = None


@dataclass
class Diagnostic:
    section: str
    name: str
    error: str

    def __str__(self) -> str:
        return f"{self.section} {self.name}: {self.error}"


@dataclass
class Workspace:
    type_domains: dict[str, TypeDomain] = field(default_factory=dict)
    schemas: dict[str, Schema] = field(default_factory=dict)
    sig_morphisms: dict[str, SignatureMorphism] = field(default_factory=dict)
    type_domain_morphisms: dict[str, tuple[TypeDomainMorphism, str, str]] = \
        field(default_factory=dict)
    structures: dict[str, StructureEntry] = field(default_factory=dict)
    specs: dict[str, AbstractSpec] = field(default_factory=dict)
    databases: dict[str, Database] = field(default_factory=dict)
    spec_morphisms: dict[str, tuple[SpecMorphism, str, str]] = \
        field(default_factory=dict)
    structure_morphisms: dict[str, tuple[LaxStructureMorphism, str, str]] = \
        field(default_factory=dict)
    db_morphisms: dict[str, tuple[DatabaseMorphism, str, str]] = \
        field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def require(self, section: str, name: str):
        table = {
            "typeDomain": self.type_domains,
            "schema": self.schemas,
            "sigMorphism": self.sig_morphisms,
            "typeDomainMorphism": self.type_domain_morphisms,
            "structure": self.structures,
            "spec": self.specs,
            "database": self.databases,
            "specMorphism": self.spec_morphisms,
            "structureMorphism": self.structure_morphisms,
            "dbMorphism": self.db_morphisms,
        }[section]
        if name not in table:
            raise UnresolvedReference(section, name)
        return table[name]


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        return load_workspace_data(json.load(fh))


def _shaped(value, kind: type, path: str):
    """``value`` if it is a ``kind``, else a ``ShapeError`` naming ``path``."""
    if not isinstance(value, kind):
        names = {dict: "an object", list: "a list", str: "a string"}
        raise ShapeError(f"{path}: expected {names[kind]}, "
                         f"got {names.get(type(value), json.dumps(value))}")
    return value


def load_workspace_data(raw: dict) -> Workspace:
    ws = Workspace()

    def attempt(section: str, name: str, fn) -> bool:
        try:
            fn()
            return True
        except (FoleError, KeyError, ValueError, TypeError, AttributeError) as exc:
            ws.diagnostics.append(Diagnostic(section, name, f"{type(exc).__name__}: {exc}"))
            return False

    def items(section: str) -> list:
        """A section's (name, item) pairs; a wrong shape is a diagnostic."""
        found = []
        attempt("workspace", section, lambda: found.extend(
            _shaped(raw.get(section, {}), dict, section).items()))
        return [(n, d) for n, d in found if attempt(
            section, n, lambda: _shaped(d, dict, f"{section}.{n}"))]

    if not attempt("workspace", "", lambda: _shaped(raw, dict, "workspace")):
        raw = {}

    for name, data in items("typeDomains"):
        attempt("typeDomains", name, lambda: ws.type_domains.__setitem__(
            name, TypeDomain(tuple(data), {
                x: tuple(_shaped(vs, list, f"typeDomains.{name}.{x}"))
                for x, vs in data.items()})
        ))

    for name, data in items("schemas"):
        def build_schema(name=name, data=data):
            schema = Schema(
                sorts=tuple(data["sorts"]),
                predicates={r: _signature(sig) for r, sig in data["predicates"].items()},
                signatures={n: _signature(sig)
                            for n, sig in data.get("signatures", {}).items()},
            )
            ws.schemas[name] = schema
        attempt("schemas", name, build_schema)

    for name, data in items("sigMorphisms"):
        def build_sig_mor(name=name, data=data):
            h = SignatureMorphism.of(
                _signature(data["source"]), _signature(data["target"]), data["map"]
            )
            check_signature_morphism(h)
            ws.sig_morphisms[name] = h
        attempt("sigMorphisms", name, build_sig_mor)

    for name, data in items("typeDomainMorphisms"):
        def build_td_mor(name=name, data=data):
            m = TypeDomainMorphism.of(data["sortMap"], data["valueMap"])
            a2 = ws.require("typeDomain", data["source"])
            a1 = ws.require("typeDomain", data["target"])
            check_type_domain_morphism(m, a2, a1)
            ws.type_domain_morphisms[name] = (m, data["source"], data["target"])
        attempt("typeDomainMorphisms", name, build_td_mor)

    for name, data in items("structures"):
        def build_structure(name=name, data=data):
            schema = ws.require("schema", data["schema"])
            td = ws.require("typeDomain", data["typeDomain"])
            kind = data.get("kind", "lax")
            if kind == "strict":
                strict = StrictStructure(
                    schema=schema,
                    type_domain=td,
                    keys=tuple(data["keys"]),
                    classifies=frozenset((k, r) for k, r in data["classifies"]),
                    tuple_of_key={k: tuple(v) for k, v in data["tuples"].items()},
                )
                validate_strict(strict)
                ws.structures[name] = StructureEntry("strict", to_lax(strict), strict)
            else:
                tables = {
                    r: _table(tdata, schema.signature_of(r))
                    for r, tdata in data["tables"].items()
                }
                lax = LaxStructure(schema, td, tables)
                lax.validate()
                ws.structures[name] = StructureEntry("lax", lax)
        attempt("structures", name, build_structure)

    for name, data in items("specs"):
        def build_spec(name=name, data=data):
            schema = ws.require("schema", data["schema"])
            constraints = {}
            for pname, cdata in data.get("constraints", {}).items():
                src = schema.signature_of(cdata["sourcePredicate"])
                tgt = schema.signature_of(cdata["targetPredicate"])
                h = SignatureMorphism.of(src, tgt, cdata["h"])
                constraints[pname] = GeneratingConstraint(
                    pname, cdata["sourcePredicate"], cdata["targetPredicate"], h
                )
            composites = tuple(
                CompositeDeclaration(tuple(d["path"]), d["equals"])
                for d in data.get("composites", [])
            )
            spec = AbstractSpec(schema, constraints, composites)
            spec.validate()
            ws.specs[name] = spec
        attempt("specs", name, build_spec)

    for name, data in items("databases"):
        def build_db(name=name, data=data):
            spec = ws.require("spec", data["schema"])
            td = ws.require("typeDomain", data["typeDomain"])
            tables = {
                r: _table(tdata, spec.schema.signature_of(r))
                for r, tdata in data["tables"].items()
            }
            morphisms = {}
            for pname, kmap in data.get("constraintKeyMaps", {}).items():
                morphisms[pname] = TableMorphism(
                    spec.constraints[pname].morphism, dict(kmap)
                )
            ws.databases[name] = Database(spec, td, tables, morphisms)
        attempt("databases", name, build_db)

    for name, data in items("specMorphisms"):
        def build_spec_mor(name=name, data=data):
            t2 = ws.require("spec", data["source"])
            t1 = ws.require("spec", data["target"])
            sm = _spec_morphism(data, t2, t1)
            validate_spec_morphism(sm, t2, t1)
            ws.spec_morphisms[name] = (sm, data["source"], data["target"])
        attempt("specMorphisms", name, build_spec_mor)

    for name, data in items("structureMorphisms"):
        def build_struc_mor(name=name, data=data):
            m2 = ws.require("structure", data["source"])
            m1 = ws.require("structure", data["target"])
            td_mor, _, _ = ws.require("typeDomainMorphism",
                                      data["typeDomainMorphism"])
            bridges = _bridges(data, m2.lax.schema, m1.lax.schema, td_mor.f)
            if data.get("kind") == "strict":
                if m2.strict is None or m1.strict is None:
                    raise UnresolvedReference("strict structure", data["source"])
                sm = StrictStructureMorphism(
                    predicate_map=dict(data["predicateMap"]),
                    key_map=dict(data["keyMap"]),
                    schema_bridge=bridges,
                    td_morphism=td_mor,
                )
                lax = strict_morphism_to_lax(sm, m2.strict, m1.strict)
            else:
                lax = LaxStructureMorphism(
                    predicate_map=dict(data["predicateMap"]),
                    schema_bridge=bridges,
                    td_morphism=td_mor,
                    key_bridge={r: dict(km) for r, km in data["keyBridges"].items()},
                )
            validate_lax_morphism(lax, m2.lax, m1.lax)
            ws.structure_morphisms[name] = (lax, data["source"], data["target"])
        attempt("structureMorphisms", name, build_struc_mor)

    for name, data in items("dbMorphisms"):
        def build_db_mor(name=name, data=data):
            db2 = ws.require("database", data["source"])
            db1 = ws.require("database", data["target"])
            td_mor, _, _ = ws.require("typeDomainMorphism",
                                      data["typeDomainMorphism"])
            if isinstance(data.get("specMorphism"), str):
                sm, _, _ = ws.require("specMorphism", data["specMorphism"])
            else:
                sm = _spec_morphism(data, db2.schema, db1.schema)
            dm = DatabaseMorphism(
                spec_morphism=sm,
                td_morphism=td_mor,
                key_bridge={r: dict(km) for r, km in data["keyBridges"].items()},
            )
            validate_db_morphism(dm, db2, db1)
            ws.db_morphisms[name] = (dm, data["source"], data["target"])
        attempt("dbMorphisms", name, build_db_mor)

    return ws


def _bridges(data, schema2: Schema, schema1: Schema,
             sort_map: dict) -> dict[str, SignatureMorphism]:
    return {r2: SignatureMorphism.of(
                pushed_signature(schema2.signature_of(r2), sort_map),
                schema1.signature_of(data["predicateMap"][r2]), mapping)
            for r2, mapping in data["bridges"].items()}


def _spec_morphism(data, t2: AbstractSpec, t1: AbstractSpec) -> SpecMorphism:
    f = dict(data["sortMap"])
    bridge = _bridges(data, t2.schema, t1.schema, f)
    return SpecMorphism(
        predicate_map=dict(data["predicateMap"]),
        constraint_map=dict(data.get("constraintMap", {})),
        sort_map=f,
        bridge=bridge,
    )
