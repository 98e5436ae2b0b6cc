"""Specifications, the companion construction, table passage, spec morphisms."""

import random

import pytest

from fole import (
    AbstractSpec,
    Atom,
    CompositeDeclaration,
    Constraint,
    Exists,
    FormalSpec,
    GeneratingConstraint,
    LaxStructure,
    Meet,
    Schema,
    Signature,
    SignatureMorphism,
    SoundLogic,
    SpecMorphism,
    Table,
    TableMorphism,
    TypeDomain,
    abstract_table_passage,
    check_table_morphism,
    companion_formal,
    infer_signature,
    interpret_relation,
    relation_include,
    satisfies_constraint,
    satisfies_spec,
    snd_to_db,
    validate_spec_morphism,
)
from fole.errors import (
    FiberMismatch,
    FlowMismatch,
    NaturalityViolation,
    SignatureMismatch,
    Unsatisfied,
)
from generators import (
    rand_formula,
    rand_lax_structure,
    rand_satisfied_pair,
    rand_sig_morphism,
    rand_spec,
    rand_type_domain,
    unit_composite_pair,
)

SIG1 = Signature.of([("dept", "D")])
SIG2 = Signature.of([("name", "S"), ("dept", "D")])
SCHEMA = Schema(sorts=("S", "D"), predicates={"Emp": SIG2, "Dept": SIG1})
TD = TypeDomain(("S", "D"), {"S": ("ann", "bob"), "D": ("hr", "it")})
H = SignatureMorphism.of(SIG1, SIG2, {"dept": "dept"})
FK = AbstractSpec(SCHEMA, {
    "empDept": GeneratingConstraint("empDept", "Dept", "Emp", H),
})


def consistent_structure() -> LaxStructure:
    return LaxStructure(SCHEMA, TD, {
        "Emp": Table(SIG2, {"k1": ("ann", "hr"), "k2": ("bob", "hr")}),
        "Dept": Table(SIG1, {"d1": ("hr",), "d2": ("it",)}),
    })


def dangling_structure() -> LaxStructure:
    return LaxStructure(SCHEMA, TD, {
        "Emp": Table(SIG2, {"k1": ("ann", "hr")}),
        "Dept": Table(SIG1, {"d2": ("it",)}),
    })


class TestCompanion:
    def test_companion_mirrors_generators(self):
        formal = companion_formal(FK)
        assert set(formal.constraints) == {"empDept"}
        c = formal.constraints["empDept"]
        assert c.source == Atom("Dept") and c.target == Atom("Emp")
        assert c.morphism == H

    def test_abstract_satisfaction_delegates(self):
        m = consistent_structure()
        assert satisfies_spec(m, FK).satisfied == \
            satisfies_spec(m, companion_formal(FK)).satisfied


class TestSatisfiesSpec:
    def test_empty_spec_satisfied(self):
        spec = AbstractSpec(SCHEMA, {})
        assert satisfies_spec(consistent_structure(), spec).satisfied

    def test_foreign_key_satisfied(self):
        report = satisfies_spec(consistent_structure(), FK)
        assert report.satisfied and report.first_failure() is None

    def test_dangling_dept_refuted(self):
        report = satisfies_spec(dangling_structure(), FK)
        assert not report.satisfied
        failure = report.first_failure()
        assert failure.constraint == "empDept"
        assert failure.violating_tuple == ("ann", "hr")

    def test_random_repaired_pairs_satisfied(self):
        rng = random.Random(79)
        for _ in range(60):
            td = rand_type_domain(rng)
            m, spec = rand_satisfied_pair(rng, td)
            assert satisfies_spec(m, spec).satisfied


def witness_cases():
    """Constraints over seeded structures, each with its structure: the
    generating constraints of a repaired (satisfied) or random spec, with a
    target table emptied now and then, plus one between random formulas."""
    for i in range(240):
        rng = random.Random(2300 + i)
        td = rand_type_domain(rng, min_extent=i % 2)
        if i % 2:
            m, spec = rand_satisfied_pair(rng, td)
        else:
            spec = rand_spec(rng, td)
            m = rand_lax_structure(rng, spec.schema, td)
        constraints = list(companion_formal(spec).constraints.values())
        if i % 5 == 0 and constraints:
            r = rng.choice(constraints).target.predicate
            m.table_of[r] = Table(m.table_of[r].signature, {})
        target = rand_formula(rng, spec.schema, td, depth=2)
        h = rand_sig_morphism(rng, infer_signature(target, spec.schema))
        source = rand_formula(rng, spec.schema, td, h.source, depth=2)
        for c in constraints + [Constraint(f"f{i}", source, target, h)]:
            yield m, c


class TestWitness:
    def test_witness_matches_the_projection_oracle(self):
        """The witness built on first read is the map from each tuple of the
        target's image to its projection; a refuted verdict has none."""
        seen = dict.fromkeys(["satisfied", "refuted", "empty target",
                              "one attribute", "not injective"], 0)
        cases = list(witness_cases())
        assert len(cases) >= 200
        for m, c in cases:
            h, verdict = c.morphism, satisfies_constraint(m, c)
            image = interpret_relation(m, c.target).tuples
            if not verdict.satisfied:
                seen["refuted"] += 1
                assert verdict.witness is None
                continue
            expected = TableMorphism(h, {t: h.project(t) for t in image})
            assert verdict.witness == expected
            assert verdict.witness is verdict.witness  # built once
            check_table_morphism(
                verdict.witness,
                relation_include(interpret_relation(m, c.source)),
                relation_include(interpret_relation(m, c.target)))
            seen["satisfied"] += 1
            seen["empty target"] += not image
            seen["one attribute"] += len(h.source) == 1
            seen["not injective"] += len(set(map(h.project, image))) < len(image)
        assert all(seen.values()), seen

    def test_deciding_builds_no_key_map(self):
        """``satisfies_spec`` decides by the projections it keeps; a
        verdict's key map is built only when its witness is read."""
        rng = random.Random(23)
        for _ in range(40):
            m, spec = rand_satisfied_pair(rng, rand_type_domain(rng, min_extent=1))
            report = satisfies_spec(m, spec)
            assert report.satisfied
            assert not any("witness" in vars(v) for v in report.verdicts.values())
        report = satisfies_spec(consistent_structure(), FK)
        assert "witness" not in vars(report.verdicts["empDept"])
        assert report.verdicts["empDept"].witness.key_map == {
            ("ann", "hr"): ("hr",), ("bob", "hr"): ("hr",)}

    def test_snd_to_db_projects_no_tuple_again(self, monkeypatch):
        """The passage's key maps are the verdicts' witnesses, built from
        the projections that deciding satisfaction kept."""
        logic = SoundLogic(consistent_structure(), FK)
        calls = []
        for c in FK.constraints.values():  # past the cached ``project``
            monkeypatch.setitem(vars(c.morphism), "project",
                                lambda t, p=c.morphism.project: calls.append(t) or p(t))
        db = snd_to_db(logic)
        assert calls == []
        assert db.constraint_morphism["empDept"] is \
            logic.report.verdicts["empDept"].witness


class TestTablePassage:
    def test_objects_and_arrows(self):
        m = consistent_structure()
        passage = abstract_table_passage(m, FK)
        assert passage.objects["Emp"] == interpret_relation(m, Atom("Emp"))
        arrow = passage.arrows["empDept"]
        check_table_morphism(
            arrow,
            relation_include(passage.objects["Dept"]),
            relation_include(passage.objects["Emp"]),
        )

    def test_unsatisfied_raises_with_tuple(self):
        with pytest.raises(Unsatisfied):
            abstract_table_passage(dangling_structure(), FK)

    def test_succeeds_iff_satisfied_random(self):
        rng = random.Random(83)
        for _ in range(80):
            td = rand_type_domain(rng)
            spec = rand_spec(rng, td)
            m = rand_lax_structure(rng, spec.schema, td)
            sat = satisfies_spec(m, spec).satisfied
            try:
                passage = abstract_table_passage(m, spec)
                assert sat
                for name, c in spec.constraints.items():
                    check_table_morphism(
                        passage.arrows[name],
                        relation_include(passage.objects[c.source_predicate]),
                        relation_include(passage.objects[c.target_predicate]),
                    )
            except Unsatisfied:
                assert not sat

    def test_declared_composite_respected(self):
        # chain Dept <- Emp plus an identity-extended arrow, composed exactly
        m, spec = unit_composite_pair()
        spec.validate()
        passage = abstract_table_passage(m, spec)
        assert passage.arrows["pq"].key_map == {("ann", "hr"): ()}

    def test_bad_composite_declaration_rejected(self):
        sig0 = Signature((), ())
        schema = Schema(sorts=("S", "D"), predicates={
            "Emp": SIG2, "Dept": SIG1, "Unit": sig0})
        h2 = SignatureMorphism.of(sig0, SIG1, {})
        wrong = SignatureMorphism.of(sig0, SIG1, {})  # wrong endpoints
        spec = AbstractSpec(schema, {
            "p": GeneratingConstraint("p", "Dept", "Emp", H),
            "q": GeneratingConstraint("q", "Unit", "Dept", h2),
            "pq": GeneratingConstraint("pq", "Unit", "Dept", wrong),
        }, composites=(CompositeDeclaration(("q", "p"), "pq"),))
        with pytest.raises(SignatureMismatch):
            spec.validate()


class TestFormalSpec:
    def test_well_typed_constraints_pass(self):
        FormalSpec(SCHEMA, {
            "c": Constraint("c", Atom("Dept"), Atom("Emp"), H),
            "d": Constraint("d", Exists(H, Atom("Emp")), Atom("Emp"), H),
        }).validate()

    @pytest.mark.parametrize("source, target, error", [
        (Atom("Emp"), Atom("Emp"), FlowMismatch(
            "constraint 'c': source fiber (name:S,dept:D) != morphism "
            "source (dept:D)")),
        (Atom("Dept"), Atom("Dept"), FlowMismatch(
            "constraint 'c': target fiber (dept:D) != morphism target "
            "(name:S,dept:D)")),
        (Atom("Dept"), Exists(H, Atom("Dept")), FlowMismatch(
            "exists body over (dept:D), expected (name:S,dept:D)")),
        (Meet(Atom("Dept"), Atom("Emp")), Atom("Emp"), FiberMismatch(
            "operands of /\\ live in different fibers: (dept:D) vs "
            "(name:S,dept:D)")),
    ])
    def test_ill_typed_constraint_rejected(self, source, target, error):
        with pytest.raises(type(error)) as exc:
            FormalSpec(SCHEMA, {"c": Constraint("c", source, target, H)}).validate()
        assert str(exc.value) == str(error)


class TestSpecMorphism:
    def test_identity_accepts(self):
        sm = SpecMorphism.identity(FK, ("S", "D"))
        validate_spec_morphism(sm, FK, FK)

    def test_mismatched_bridge_rejected(self):
        sm = SpecMorphism.identity(FK, ("S", "D"))
        # break the Dept bridge: map dept to name (wrong sort) is rejected by
        # typing; break naturality instead via the constraint map on a second
        # morphism with swapped endpoints
        sm.bridge["Dept"] = SignatureMorphism(
            SIG1, SIG1, (("dept", "dept"),))
        validate_spec_morphism(sm, FK, FK)  # still identity-shaped
        # now a genuinely broken square: Emp bridge permutes nothing but the
        # constraint arrow is redirected through a different attribute
        schema = Schema(sorts=("D",), predicates={
            "P": Signature.of([("x", "D"), ("y", "D")]),
            "Q": Signature.of([("z", "D")]),
        })
        h_a = SignatureMorphism.of(schema.predicates["Q"],
                                   schema.predicates["P"], {"z": "x"})
        h_b = SignatureMorphism.of(schema.predicates["Q"],
                                   schema.predicates["P"], {"z": "y"})
        t_a = AbstractSpec(schema, {
            "c": GeneratingConstraint("c", "Q", "P", h_a)})
        t_b = AbstractSpec(schema, {
            "c": GeneratingConstraint("c", "Q", "P", h_b)})
        sm2 = SpecMorphism.identity(t_a, ("D",))
        with pytest.raises(NaturalityViolation):
            validate_spec_morphism(sm2, t_a, t_b)
