"""Sound logics, databases, and the conversion passages between them.

A sound logic is a structure that satisfies a specification; a database is
a table-valued diagram over the same specification.  The two are connected
by ``snd_to_db`` and ``db_to_snd``, and the round trips collapse tables to
their tuple images.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, NamedTuple

from .core import (
    Record,
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    entry,
)
from .errors import (
    FunctorialityViolation,
    InternalSatisfactionFailure,
    SignatureMismatch,
)
from .specs import (
    AbstractSpec,
    SpecMorphism,
    satisfies_spec,
    validate_spec_morphism,
)
from .structure import (
    LaxStructure,
    LaxStructureMorphism,
    validate_lax_morphism,
)
from .tables import (
    Table,
    TableMorphism,
    check_table_morphism,
)

Key = Hashable


class SoundLogic(Record):
    """Structure + specification over one schema, with satisfaction decided
    at construction; the loader or a ``Database`` has validated both parts."""

    structure: LaxStructure
    spec: AbstractSpec

    def __post_init__(self):
        if self.structure.schema != self.spec.schema:
            raise SignatureMismatch("structure and spec are over different schemas")
        failure = self.report.first_failure()
        if failure is not None:
            raise InternalSatisfactionFailure(
                f"structure does not satisfy constraint {failure.constraint!r}"
            )

    @cached_property
    def report(self):
        """Satisfaction, decided once; its witnesses are the canonical key maps."""
        return satisfies_spec(self.structure, self.spec)


def _assembled(cls, *fields):
    """``cls(*fields)`` without ``__post_init__``: for a passage's result only."""
    record = object.__new__(cls)
    vars(record).update(zip(cls._fields, fields))
    return record


class Database(Record):
    """A table per predicate and a table morphism per constraint, all over
    one type domain, validated at construction."""

    schema: AbstractSpec
    type_domain: TypeDomain
    table_of: dict[str, Table]
    constraint_morphism: dict[str, TableMorphism]

    def __post_init__(self):
        validate_database(self)

    @property
    def structure(self) -> LaxStructure:
        """The constraint-free aspect: the tables as a lax structure."""
        return LaxStructure(self.schema.schema, self.type_domain, self.table_of)


class DatabaseProjection(NamedTuple):
    """The three projections of a database: signatures, key diagram, tuples."""

    signature_of: dict[str, Signature]
    signature_arrow: dict[str, SignatureMorphism]
    keys_of: dict[str, list]
    key_arrow: dict[str, dict]
    tuple_of: dict[str, dict]


def validate_database(db: Database) -> None:
    """Check typing and per-constraint naturality, with exact key maps; a key
    map for no constraint of the spec is an ``UnresolvedReference``, as in
    the loader.

    Declared composites follow, as the spec checks ``h_decl = h_path``: at each
    key ``k`` of the end table T, ``rows_S[declared[k]] = h_decl(rows_T[k]) =
    h_path(rows_T[k]) = rows_S[composed[k]]``, where S is the start table."""
    db.schema.validate()
    for name in db.constraint_morphism:
        entry(db.schema.constraints, name, "constraint")
    db.structure.validate()
    for name, c in db.schema.constraints.items():
        tm = db.constraint_morphism.get(name)
        if tm is None:
            raise FunctorialityViolation(name, "no table morphism")
        if tm.sig_morphism != c.morphism:
            raise FunctorialityViolation(name, "signature morphism disagrees")
        check_table_morphism(tm, db.table_of[c.source_predicate],
                             db.table_of[c.target_predicate])


def db_project(db: Database) -> DatabaseProjection:
    """Read off the signature passage, key diagram, and tuple bridge."""
    return DatabaseProjection(
        signature_of={r: t.signature for r, t in db.table_of.items()},
        signature_arrow={p: c.morphism for p, c in db.schema.constraints.items()},
        keys_of={r: t.keys() for r, t in db.table_of.items()},
        key_arrow={p: dict(db.constraint_morphism[p].key_map)
                   for p in db.schema.constraints},
        tuple_of={r: dict(t.rows) for r, t in db.table_of.items()},
    )


def _tuple_keyed(spec: AbstractSpec, m: LaxStructure, arrows=None) -> Database:
    """The database whose tables are the tuple images of ``m``'s, keyed by
    their own tuples, and whose key maps (``arrows``, if given) precompose
    along each constraint's signature morphism: the interpretation functor of
    a satisfied specification.  It is not validated: the image of a valid
    structure is well-sorted, and its maps are exact by construction."""
    images = {r: m.image(r) for r in spec.schema.predicates}
    tables = {r: Table(i.signature, dict(zip(i.tuples, i.tuples)))
              for r, i in images.items()}
    if arrows is None:
        arrows = {}
        for name, c in spec.constraints.items():
            rows = tables[c.target_predicate].rows
            arrows[name] = TableMorphism(
                c.morphism, dict(zip(rows, map(c.morphism.project, rows))))
    return _assembled(Database, spec, m.type_domain, tables, arrows)


def snd_to_db(logic: SoundLogic) -> Database:
    """Interpret the specification in the structure; tables are tuple-keyed
    relation images and arrows are the satisfaction witnesses, natural
    because satisfaction puts every projection in the source image."""
    return _tuple_keyed(logic.spec, logic.structure,
                        {p: v.witness for p, v in logic.report.verdicts.items()})


def db_to_snd(db: Database) -> SoundLogic:
    """Keep the tables as the structure (constraint-free aspect); the schema
    becomes the specification.  Naturality implies satisfaction, so the logic
    is not decided again: it works out its witnesses on first use."""
    return _assembled(SoundLogic, db.structure, db.schema)


def db_image(db: Database) -> Database:
    """Collapse every table to its tuple image and transport the key maps to
    the canonical tuple-precomposition maps."""
    return _tuple_keyed(db.schema, db.structure)


# ----------------------------------------------------------------- morphisms

class SoundLogicMorphism(Record):
    """A spec morphism and a structure morphism along a common schema map."""

    spec_morphism: SpecMorphism
    structure_morphism: LaxStructureMorphism

    def __post_init__(self):
        if self.spec_morphism.predicate_map != self.structure_morphism.predicate_map:
            raise SignatureMismatch("predicate maps of the two parts disagree")
        if self.spec_morphism.bridge != self.structure_morphism.schema_bridge:
            raise SignatureMismatch("signature bridges of the two parts disagree")


class DatabaseMorphism(Record):
    """Spec morphism + type-domain morphism + per-predicate key bridge."""

    spec_morphism: SpecMorphism
    td_morphism: TypeDomainMorphism
    key_bridge: dict[str, dict[Key, Key]]


def validate_db_morphism(dm: DatabaseMorphism, db2: Database, db1: Database) -> None:
    """Check the spec morphism and the key condition, with exact key bridges.

    Naturality squares follow: at each key ``k1`` of ``c1``'s target table, the
    rows of ``kappa_src[k1_map[k1]]`` and ``k2_map[kappa_tgt[k1]]`` both read
    ``g(rows1[k1])`` through ``bridge_tgt o h2 = h1 o bridge_src``, a square
    that ``validate_spec_morphism`` checks."""
    validate_spec_morphism(dm.spec_morphism, db2.schema, db1.schema)
    validate_lax_morphism(_db_mor_to_lax(dm), db2.structure, db1.structure)


def _db_mor_to_lax(dm: DatabaseMorphism) -> LaxStructureMorphism:
    return LaxStructureMorphism(
        predicate_map=dict(dm.spec_morphism.predicate_map),
        schema_bridge=dict(dm.spec_morphism.bridge),
        td_morphism=dm.td_morphism,
        key_bridge=dm.key_bridge,
    )


def snd_mor_to_db_mor(lm: SoundLogicMorphism,
                      l2: SoundLogic, l1: SoundLogic) -> DatabaseMorphism:
    """Assemble a database morphism between the interpreted databases.

    Tables of ``snd_to_db`` are tuple-keyed, so the key bridge is transported
    to the forced tuple form (precompose along the bridge, then push values).
    The key condition and naturality on the tuple images follow from those of
    the two parts, checked here: pushing values commutes with reindexing."""
    validate_lax_morphism(lm.structure_morphism, l2.structure, l1.structure)
    validate_spec_morphism(lm.spec_morphism, l2.spec, l1.spec)
    g_push = lm.structure_morphism.td_morphism.map_row
    key_bridge = {}
    for r2 in l2.spec.schema.predicates:
        r1 = lm.spec_morphism.predicate_map[r2]
        bridge = lm.structure_morphism.schema_bridge[r2]
        tuples1 = l1.structure.image(r1).tuples
        key_bridge[r2] = dict(zip(tuples1, map(g_push, map(bridge.project,
                                                            tuples1))))
    return DatabaseMorphism(
        spec_morphism=lm.spec_morphism,
        td_morphism=lm.structure_morphism.td_morphism,
        key_bridge=key_bridge,
    )


def db_mor_to_snd_mor(dm: DatabaseMorphism,
                      db2: Database, db1: Database) -> SoundLogicMorphism:
    """Disassemble: the constraint-free aspect is the structure morphism and
    the schema bridge is the spec morphism; components are reused as-is."""
    validate_db_morphism(dm, db2, db1)
    return SoundLogicMorphism(
        spec_morphism=dm.spec_morphism,
        structure_morphism=_db_mor_to_lax(dm),
    )
