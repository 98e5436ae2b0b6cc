"""Structures in strict and lax form, formula interpretation, satisfaction.

All interpretation runs on the lax form; the strict form converts via
``to_lax``.  Interpretation returns relations (connective semantics) or
tables (keyed semantics); the two agree through ``table_image``.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from functools import cached_property
from typing import Any, Callable, Hashable, Optional

from .core import (
    Record,
    Row,
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    entry,
    enumerate_tuples,
    pushed_signature,
    tuple_along,
)
from .errors import (
    DefiningConditionViolation,
    EntityInfomorphismViolation,
    FoleError,
    KeyBridgeViolation,
    NaturalityViolation,
    SignatureMismatch,
    UnresolvedReference,
)
from .formula import (
    Atom,
    Bottom,
    Constraint,
    Diff,
    Exists,
    Flow,
    Forall,
    Formula,
    Impl,
    Join,
    Meet,
    Neg,
    Schema,
    Sequent,
    Subst,
    Top,
    infer_signature,
)
from .tables import (
    Relation,
    Table,
    TableMorphism,
    check_table_morphism,
    fiber_boolean,
    fiber_flow,
    relation_include,
    table_image,
    table_sigma,
    table_substitution,
)

Key = Hashable


class StrictStructure(Record):
    """A global key set classified by predicates, with one tuple per key."""

    schema: Schema
    type_domain: TypeDomain
    keys: tuple[Key, ...]
    classifies: frozenset[tuple[Key, str]]  # (key, predicate)
    tuple_of_key: dict[Key, Row]

    @cached_property
    def extents(self) -> dict[str, list[Key]]:
        """Each predicate's classified keys in ``keys`` order, grouped by one
        pass over ``classifies``.  A pair whose key is outside ``keys`` or whose
        predicate is outside the schema fails, the least by ``repr`` named; then
        a key listed twice, or a tuple for a key outside them, in file order."""
        rank = dict(zip(self.keys, range(len(self.keys))))
        ranks: dict[str, list[int]] = {r: [] for r in self.schema.predicates}
        try:
            for k, r in self.classifies:
                ranks[r].append(rank[k])
        except KeyError:
            k, r = min(((k, r) for k, r in self.classifies
                        if k not in rank or r not in ranks), key=repr)
            self.schema.signature_of(r)  # an UnknownPredicate, if r is the fault
            raise UnresolvedReference("key", k) from None
        if len(rank) < len(self.keys):  # the first key listed again
            k = next(k for i, k in enumerate(self.keys) if rank[k] != i)
            raise FoleError(f"key set lists key {k!r} twice")
        for k in (k for k in self.tuple_of_key if k not in rank):
            raise UnresolvedReference("key", k)
        return {r: [self.keys[i] for i in sorted(rs)] for r, rs in ranks.items()}

    def extent(self, predicate: str) -> list[Key]:
        return self.extents.get(predicate, [])


def validate_strict(m: StrictStructure) -> None:
    """The defining condition's full check: each table of ``to_lax(m)`` read."""
    lax = to_lax(m)
    for r in m.schema.predicates:
        lax.table_of[r]


def check_tables_for(schema: Schema, tables: Collection[str]) -> None:
    """Each of ``tables`` names a predicate of ``schema`` (the first that does
    not is an ``UnknownPredicate``), and each predicate names one of them."""
    for r in tables:
        schema.signature_of(r)
    for r in schema.predicates:
        if r not in tables:
            raise SignatureMismatch(f"no table for predicate {r!r}")


def check_table(r: str, table: Table, schema: Schema, td: TypeDomain) -> Table:
    """Predicate ``r``'s table in a structure over ``schema`` and ``td``,
    checked: it lies over ``r``'s signature and passes ``validate(td)``."""
    sig = schema.signature_of(r)
    if table.signature != sig:
        raise SignatureMismatch(
            f"table for {r!r} over {table.signature}, expected {sig}"
        )
    table.validate(td)
    return table


class Lazy(Mapping):
    """A read-only mapping of the names declared in ``data``: a name's first
    lookup makes its value by ``make(name, data[name])`` and keeps it in
    ``made``.  A ``FoleError`` from ``make`` (bad data; any other error is a
    bug, and propagates) is kept in ``failed`` and raised again on each later
    lookup; a failed name, like an undeclared one, is not ``in`` it.
    Iteration follows ``data``, making each."""

    def __init__(self, data: Mapping, make: Callable[[Any, Any], Any]):
        self.data, self._make, self.made = data, make, {}
        self.failed: dict = {}  # name -> the exception its make raised

    def __getitem__(self, name):
        if name not in self.made:
            if name in self.failed:
                raise self.failed[name]
            data = self.data[name]
            try:
                self.made[name] = self._make(name, data)
            except FoleError as exc:
                self.failed[name] = exc
                raise
        return self.made[name]

    def __contains__(self, name) -> bool:
        if name not in self.data:  # an unhashable name raises, as in a dict
            return False
        try:
            self[name]
        except FoleError:
            return False
        return True

    def __iter__(self):
        return (n for n in self.data if n in self)

    def __len__(self) -> int:
        return sum(1 for _ in self)


class LaxStructure(Record):
    """Per-predicate tables over one type domain."""

    schema: Schema
    type_domain: TypeDomain
    table_of: Mapping[str, Table]

    def validate(self) -> None:
        """The full check of plain-dict tables: ``check_tables_for``, then
        ``check_table`` predicate by predicate in schema order.  A ``Lazy``
        family checks each table on its first lookup instead: looking up
        every predicate is its full check, and the loader never calls this."""
        check_tables_for(self.schema, self.table_of)
        for r in self.schema.predicates:
            check_table(r, self.table_of[r], self.schema, self.type_domain)

    def image(self, r: str) -> Relation:
        """``table_image`` of ``r``'s table, built once while the structure holds it."""
        images, table = vars(self).setdefault("_images", {}), self.table_of[r]
        if r not in images or images[r][0] is not table:
            images[r] = table, table_image(table)
        return images[r][1]


def to_lax(m: StrictStructure) -> LaxStructure:
    """Forget the global key set; keep one table per predicate, each checked
    by ``check_table`` when first read.  There a bad row, or a classified key
    with no tuple, breaks the defining condition at its key."""
    def table(r: str, keys: list[Key]) -> Table:
        rows = dict(zip(keys, map(m.tuple_of_key.get, keys)))
        try:
            return check_table(r, Table(m.schema.signature_of(r), rows),
                               m.schema, m.type_domain)
        except SignatureMismatch as exc:  # from the row loop, naming the key
            raise DefiningConditionViolation(exc.key, r) from None
    return LaxStructure(m.schema, m.type_domain, Lazy(m.extents, table))


# ----------------------------------------------------------- interpretation

def interpret_relation(m: LaxStructure, phi: Formula) -> Relation:
    """Structural recursion into the relation fibers, after one type check
    of the whole formula: each node reads its operands' fibers off them."""
    infer_signature(phi, m.schema)
    return _interpret(m, phi)


def _interpret(m: LaxStructure, phi: Formula) -> Relation:
    td = m.type_domain
    if isinstance(phi, Atom):
        return m.image(phi.predicate)
    if isinstance(phi, Flow):
        return fiber_flow(phi.mode, phi.morphism, _interpret(m, phi.body), td)
    args = [_interpret(m, getattr(phi, o)) for o in phi.operands]
    return fiber_boolean(phi.op, args[0].signature if args else phi.signature,
                         td, *args)


def interpret_table(m: LaxStructure, phi: Formula) -> Table:
    """Keyed interpretation, after one type check of the whole formula:
    atoms keep their stored keys, projection and inflation act on keys,
    everything else routes through relations."""
    infer_signature(phi, m.schema)
    return _keyed(m, phi)


def _keyed(m: LaxStructure, phi: Formula) -> Table:
    if isinstance(phi, Atom):
        return m.table_of[phi.predicate]
    if isinstance(phi, Exists):
        return table_sigma(phi.morphism, _keyed(m, phi.body))
    if isinstance(phi, Subst):
        return table_substitution(phi.morphism, _keyed(m, phi.body),
                                  m.type_domain)
    return relation_include(_interpret(m, phi))


def tuple_satisfies(m: LaxStructure, t: Row, phi: Formula) -> bool:
    """Independent tuple-calculus oracle: decide membership of one tuple by
    direct recursion, never building intermediate relations."""
    td = m.type_domain
    if isinstance(phi, Atom):
        return tuple(t) in set(m.table_of[phi.predicate].rows.values())
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bottom):
        return False
    if isinstance(phi, Meet):
        return tuple_satisfies(m, t, phi.lhs) and tuple_satisfies(m, t, phi.rhs)
    if isinstance(phi, Join):
        return tuple_satisfies(m, t, phi.lhs) or tuple_satisfies(m, t, phi.rhs)
    if isinstance(phi, Impl):
        return (not tuple_satisfies(m, t, phi.lhs)) or tuple_satisfies(m, t, phi.rhs)
    if isinstance(phi, Diff):
        return tuple_satisfies(m, t, phi.lhs) and not tuple_satisfies(m, t, phi.rhs)
    if isinstance(phi, Neg):
        return not tuple_satisfies(m, t, phi.body)
    if isinstance(phi, Exists):
        h = phi.morphism
        return any(
            tuple_along(h, full) == tuple(t) and tuple_satisfies(m, full, phi.body)
            for full in enumerate_tuples(h.target, td)
        )
    if isinstance(phi, Forall):
        h = phi.morphism
        return all(
            tuple_satisfies(m, full, phi.body)
            for full in enumerate_tuples(h.target, td)
            if tuple_along(h, full) == tuple(t)
        )
    if isinstance(phi, Subst):
        return tuple_satisfies(m, tuple_along(phi.morphism, t), phi.body)
    raise TypeError(f"not a formula node: {phi!r}")


def interpret_by_oracle(m: LaxStructure, phi: Formula) -> Relation:
    sig = infer_signature(phi, m.schema)
    return Relation.of(
        sig,
        (t for t in enumerate_tuples(sig, m.type_domain)
         if tuple_satisfies(m, t, phi)),
    )


# --------------------------------------------------------------- satisfaction

def satisfies_sequent(m: LaxStructure, q: Sequent) -> bool:
    q.check(m.schema)  # the one type check of both sides
    return _interpret(m, q.lhs).tuples <= _interpret(m, q.rhs).tuples


class ConstraintVerdict(Record):
    constraint: str
    satisfied: bool
    violating_tuple: Optional[Row] = None

    def __bool__(self) -> bool:
        return self.satisfied

    @cached_property
    def witness(self) -> Optional[TableMorphism]:
        """``k -> h.project(k)`` from the kept projections, built on first read;
        ``None`` for a refuted verdict, which keeps none."""
        h, targets, projected = vars(self).pop("_kept", (None, (), ()))
        return None if h is None else TableMorphism(h, dict(zip(targets, projected)))


def satisfies_constraint(m: LaxStructure, c: Constraint) -> ConstraintVerdict:
    """Decide a constraint by its direct form: the target projects into the
    source.  (The adjoint form, target within the preimage of the source, is
    equivalent; tests check that the two agree.)

    On success the verdict keeps the projections; its witness, built when
    first read, is the table morphism between the tuple-keyed interpretations,
    with the canonical key choice (precomposition along ``c``'s morphism)."""
    c.check(m.schema)  # the one type check of both sides
    h = c.morphism
    targets = list(_interpret(m, c.target).tuples)   # over h.target
    r_source = _interpret(m, c.source)   # over h.source
    projected = list(map(h.project, targets))
    if not r_source.tuples.issuperset(projected):
        bad = min(t for t, s in zip(targets, projected)
                  if s not in r_source.tuples)
        return ConstraintVerdict(c.name, False, bad)
    verdict = ConstraintVerdict(c.name, True, None)
    verdict._kept = h, targets, projected
    return verdict


def intent_contains(m: LaxStructure, c: Constraint) -> bool:
    """Membership predicate of the structure's conceptual intent."""
    return satisfies_constraint(m, c).satisfied


# ----------------------------------------------------------------- morphisms

class LaxStructureMorphism(Record):
    """Per-predicate bridges between two lax structures.

    ``predicate_map`` sends source-structure predicates to target-structure
    predicates; ``schema_bridge[r2]`` reindexes the pushed source signature
    into the target signature; ``key_bridge[r2]`` sends target-table keys
    back to source-table keys.
    """

    predicate_map: dict[str, str]
    schema_bridge: dict[str, SignatureMorphism]
    td_morphism: TypeDomainMorphism
    key_bridge: dict[str, dict[Key, Key]]

    @staticmethod
    def identity(m: LaxStructure) -> "LaxStructureMorphism":
        return LaxStructureMorphism(
            predicate_map={r: r for r in m.schema.predicates},
            schema_bridge={
                r: SignatureMorphism.identity(sig)
                for r, sig in m.schema.predicates.items()
            },
            td_morphism=TypeDomainMorphism.identity(m.type_domain),
            key_bridge={
                r: {k: k for k in m.table_of[r].rows}
                for r in m.schema.predicates
            },
        )


def check_bridge(r2: str, sig2: Signature, sort_map: Mapping[str, str],
                 bridge: SignatureMorphism, schema1: Schema, r1: str) -> None:
    """The bridge condition at ``r2``, shared by structure and spec morphisms:
    ``bridge`` goes from ``sig2`` pushed along ``sort_map`` to the signature
    of ``r1`` in ``schema1``, and preserves sorts."""
    pushed = pushed_signature(sig2, sort_map)
    if bridge.source != pushed:
        raise SignatureMismatch(
            f"bridge at {r2!r} has source {bridge.source}, expected {pushed}"
        )
    if bridge.target != schema1.signature_of(r1):
        raise SignatureMismatch(
            f"bridge at {r2!r} has target {bridge.target}, expected "
            f"{schema1.signature_of(r1)}"
        )
    check_signature_morphism(bridge)


def validate_lax_morphism(lm: LaxStructureMorphism, m2: LaxStructure,
                          m1: LaxStructure) -> None:
    """Check the bridge and, by ``check_table_morphism``, the key condition at
    every predicate; a key bridge is exact: it maps ``m1``'s table's keys only."""
    check_type_domain_morphism(lm.td_morphism, m2.type_domain, m1.type_domain)
    for r2, sig2 in m2.schema.predicates.items():
        r1 = entry(lm.predicate_map, r2, "predicate map")
        bridge = entry(lm.schema_bridge, r2, "bridge")
        check_bridge(r2, sig2, lm.td_morphism.f, bridge, m1.schema, r1)
        kappa = entry(lm.key_bridge, r2, "key bridge")
        t2 = Table(bridge.source, m2.table_of[r2].rows)
        rows1 = m1.table_of[r1].rows
        t1 = Table(bridge.target,
                   dict(zip(rows1, map(lm.td_morphism.map_row, rows1.values()))))
        try:  # pushing values along g commutes with projecting along the bridge
            check_table_morphism(TableMorphism(bridge, kappa), t2, t1)
        except NaturalityViolation as exc:
            raise KeyBridgeViolation(r2, exc.key) from None


class StrictStructureMorphism(Record):
    """Strict morphism data: a global key map plus the shared bridges.

    The tuple bridge between universes is derived data and is recomputed
    from the key condition, never stored."""

    predicate_map: dict[str, str]
    key_map: dict[Key, Key]  # K1 -> K2
    schema_bridge: dict[str, SignatureMorphism]
    td_morphism: TypeDomainMorphism


def strict_morphism_to_lax(sm: StrictStructureMorphism,
                           m2: StrictStructure,
                           m1: StrictStructure) -> LaxStructureMorphism:
    """Restrict the global key map per predicate, after checking that it sends
    keys of ``m1`` to keys of ``m2`` and the entity infomorphism biconditional."""
    keys1, keys2 = set(m1.keys), set(m2.keys)
    for k1, k2 in sm.key_map.items():
        if k1 not in keys1 or k2 not in keys2:
            raise UnresolvedReference("key", k2 if k1 in keys1 else k1)
    for r2 in m2.schema.predicates:
        r1 = entry(sm.predicate_map, r2, "predicate map")
        for k1 in m1.keys:
            left = (entry(sm.key_map, k1, "key map"), r2) in m2.classifies
            right = (k1, r1) in m1.classifies
            if left != right:
                raise EntityInfomorphismViolation(r2, k1)
    key_bridge = {
        r2: {k1: sm.key_map[k1] for k1 in m1.extent(sm.predicate_map[r2])}
        for r2 in m2.schema.predicates
    }
    lm = LaxStructureMorphism(
        predicate_map=dict(sm.predicate_map),
        schema_bridge=dict(sm.schema_bridge),
        td_morphism=sm.td_morphism,
        key_bridge=key_bridge,
    )
    return lm
