"""Specifications: diagrams of constraints between predicates.

An abstract specification stores a finite generating graph of constraints
between atomic formulas, plus optional declared composition equations; the
free category is never materialized.  Abstract specifications double as
database schemas.
"""

from __future__ import annotations

from typing import Optional

from .core import Record, SignatureMorphism, check_signature_morphism, entry
from .errors import NaturalityViolation, SignatureMismatch, Unsatisfied
from .formula import Atom, Constraint, Schema
from .structure import (
    ConstraintVerdict,
    LaxStructure,
    check_bridge,
    interpret_relation,
    satisfies_constraint,
)
from .tables import Relation, TableMorphism


class GeneratingConstraint(Record, frozen=True):
    """An arrow between two predicates, carrying its signature morphism."""

    name: str
    source_predicate: str
    target_predicate: str
    morphism: SignatureMorphism

    def as_constraint(self) -> Constraint:
        return Constraint(self.name, Atom(self.source_predicate),
                          Atom(self.target_predicate), self.morphism)


class CompositeDeclaration(Record, frozen=True):
    """Declares that following ``path`` (in diagrammatic order) equals the
    single named constraint ``equals``."""

    path: tuple[str, ...]
    equals: str


class AbstractSpec(Record):
    schema: Schema
    constraints: dict[str, GeneratingConstraint]
    composites: tuple[CompositeDeclaration, ...] = ()

    def validate(self) -> None:
        for c in self.constraints.values():
            src = self.schema.signature_of(c.source_predicate)
            tgt = self.schema.signature_of(c.target_predicate)
            if c.morphism.source != src or c.morphism.target != tgt:
                raise SignatureMismatch(
                    f"constraint {c.name!r} morphism does not connect "
                    f"{src} to {tgt}"
                )
            check_signature_morphism(c.morphism)
        for decl in self.composites:
            composed = self._compose_path(decl.path)
            declared = entry(self.constraints, decl.equals, "constraint")
            if (composed.source_predicate != declared.source_predicate
                    or composed.target_predicate != declared.target_predicate
                    or composed.morphism != declared.morphism):
                raise SignatureMismatch(
                    f"declared composite {decl.equals!r} does not match the "
                    f"composition of {decl.path}"
                )

    def _compose_path(self, path: tuple[str, ...]) -> GeneratingConstraint:
        """Compose constraint arrows listed in diagrammatic order."""
        if not path:
            raise SignatureMismatch("a composite's path is empty")
        first = entry(self.constraints, path[0], "constraint")
        src = first.source_predicate
        tgt = first.target_predicate
        h = first.morphism
        for name in path[1:]:
            nxt = entry(self.constraints, name, "constraint")
            if nxt.source_predicate != tgt:
                raise SignatureMismatch(
                    f"path {path} breaks at {name!r}: expected source "
                    f"{tgt!r}, found {nxt.source_predicate!r}"
                )
            h = h.then(nxt.morphism)
            tgt = nxt.target_predicate
        return GeneratingConstraint("&".join(path), src, tgt, h)


class FormalSpec(Record):
    """Constraints between arbitrary formulas."""

    schema: Schema
    constraints: dict[str, Constraint]

    def validate(self) -> None:
        for c in self.constraints.values():
            c.check(self.schema)


def companion_formal(t: AbstractSpec) -> FormalSpec:
    """Read the generating arrows as constraints between atomic formulas."""
    return FormalSpec(
        t.schema,
        {name: c.as_constraint() for name, c in t.constraints.items()},
    )


class SatisfactionReport(Record):
    satisfied: bool
    verdicts: dict[str, ConstraintVerdict]

    def __bool__(self) -> bool:
        return self.satisfied

    def first_failure(self) -> Optional[ConstraintVerdict]:
        for v in self.verdicts.values():
            if not v.satisfied:
                return v
        return None


def satisfies_spec(m: LaxStructure, t: "AbstractSpec | FormalSpec") -> SatisfactionReport:
    """Check every generating constraint; abstract satisfaction delegates to
    the companion formal specification."""
    if isinstance(t, AbstractSpec):
        return satisfies_spec(m, companion_formal(t))
    verdicts = {name: satisfies_constraint(m, c)
                for name, c in t.constraints.items()}
    return SatisfactionReport(all(v.satisfied for v in verdicts.values()), verdicts)


class TablePassage(Record):
    """The interpretation functor induced by a satisfied specification:
    relations on predicates, relation morphisms on constraints."""

    objects: dict[str, Relation]
    arrows: dict[str, TableMorphism]


def abstract_table_passage(m: LaxStructure, t: AbstractSpec) -> TablePassage:
    """Build the functor if the spec is satisfied; raise Unsatisfied with the
    refuting tuple otherwise.  ``t`` must be validated.

    Functoriality on declared composites follows: the arrow of each
    constraint ``h`` is the canonical witness ``k -> h.project(k)``, so a
    path's composite maps ``k`` to ``h_path.project(k)``, which is
    ``h_decl.project(k)`` because ``AbstractSpec.validate`` checks
    ``h_decl = h_path``."""
    report = satisfies_spec(m, t)
    failure = report.first_failure()
    if failure is not None:
        raise Unsatisfied(failure.constraint, failure.violating_tuple)
    objects = {r: interpret_relation(m, Atom(r)) for r in t.schema.predicates}
    arrows = {name: report.verdicts[name].witness
              for name in t.constraints}
    return TablePassage(objects, arrows)


class SpecMorphism(Record):
    """A map of predicates and constraints with a per-predicate signature
    bridge over a sort map."""

    predicate_map: dict[str, str]
    constraint_map: dict[str, str]
    sort_map: dict[str, str]
    bridge: dict[str, SignatureMorphism]

    @staticmethod
    def identity(t: AbstractSpec, sorts: tuple[str, ...]) -> "SpecMorphism":
        return SpecMorphism(
            predicate_map={r: r for r in t.schema.predicates},
            constraint_map={p: p for p in t.constraints},
            sort_map={x: x for x in sorts},
            bridge={r: SignatureMorphism.identity(sig)
                    for r, sig in t.schema.predicates.items()},
        )


def validate_spec_morphism(sm: SpecMorphism,
                           t2: AbstractSpec, t1: AbstractSpec) -> None:
    """Check bridge typing and the naturality square on every generator."""
    for r2, sig2 in t2.schema.predicates.items():
        check_bridge(r2, sig2, sm.sort_map, entry(sm.bridge, r2, "bridge"),
                     t1.schema, entry(sm.predicate_map, r2, "predicate map"))
    for p2_name, c2 in t2.constraints.items():
        if p2_name not in sm.constraint_map:
            raise NaturalityViolation(p2_name, "constraint not mapped")
        c1 = entry(t1.constraints, sm.constraint_map[p2_name], "constraint")
        if (sm.predicate_map[c2.source_predicate] != c1.source_predicate
                or sm.predicate_map[c2.target_predicate] != c1.target_predicate):
            raise NaturalityViolation(p2_name, "endpoint predicates disagree")
        bridge_src = sm.bridge[c2.source_predicate].map
        bridge_tgt = sm.bridge[c2.target_predicate].map
        h2, h1 = c2.morphism.map, c1.morphism.map
        for i2p in c2.morphism.source.attrs:
            if bridge_tgt[h2[i2p]] != h1[bridge_src[i2p]]:
                raise NaturalityViolation(p2_name, f"square breaks at {i2p!r}")
