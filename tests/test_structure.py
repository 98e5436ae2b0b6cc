"""Strict/lax structures, interpretation, satisfaction, structure morphisms."""

import random

import pytest

from fole import (
    AbstractSpec,
    Atom,
    Bottom,
    Constraint,
    Database,
    DatabaseMorphism,
    Exists,
    LaxStructure,
    LaxStructureMorphism,
    Meet,
    Neg,
    Schema,
    Sequent,
    Signature,
    SignatureMorphism,
    SpecMorphism,
    StrictStructure,
    StrictStructureMorphism,
    Subst,
    Table,
    Top,
    TypeDomain,
    TypeDomainMorphism,
    check_table_morphism,
    enumerate_tuples,
    fiber_flow,
    infer_signature,
    intent_contains,
    interpret_by_oracle,
    interpret_relation,
    interpret_table,
    key_equivalent,
    parse_formula,
    satisfies_constraint,
    satisfies_sequent,
    strict_morphism_to_lax,
    table_image,
    to_lax,
    validate_db_morphism,
    validate_lax_morphism,
    validate_strict,
)
from fole import core as core_module
from fole import formula as formula_module
from fole import structure as structure_module
from fole.errors import (
    DefiningConditionViolation,
    EntityInfomorphismViolation,
    FiberMismatch,
    FlowMismatch,
    FoleError,
    KeyBridgeViolation,
    SignatureMismatch,
    UnknownSort,
    UnresolvedReference,
)
from fole.structure import Lazy
from generators import (
    KEY_FAULTS,
    STRICT_FAULTS,
    break_key_condition,
    break_strict_morphism,
    check_strict_by_rows,
    key_condition_by_keys,
    rand_formula,
    rand_lax_morphism_setup,
    rand_lax_structure,
    rand_schema,
    rand_sig_morphism,
    rand_strict_morphism_setup,
    rand_strict_structure,
    rand_type_domain,
    strict_condition_by_pairs,
    strict_key_bridges_by_scan,
    strict_tables_by_scan,
)

SIG1 = Signature.of([("dept", "D")])
SIG2 = Signature.of([("name", "S"), ("dept", "D")])
SCHEMA = Schema(
    sorts=("S", "D"),
    predicates={"Emp": SIG2, "Dept": SIG1, "Salaried": SIG2},
)
TD = TypeDomain(("S", "D"), {"S": ("ann", "bob"), "D": ("hr", "it")})
H = SignatureMorphism.of(SIG1, SIG2, {"dept": "dept"})


def fixture_structure() -> LaxStructure:
    return LaxStructure(SCHEMA, TD, {
        "Emp": Table(SIG2, {"k1": ("ann", "hr"), "k2": ("bob", "hr")}),
        "Dept": Table(SIG1, {"d1": ("hr",), "d2": ("it",)}),
        "Salaried": Table(SIG2, {"s1": ("ann", "hr")}),
    })


class TestStrict:
    def test_validate_accepts(self):
        m = StrictStructure(
            SCHEMA, TD, ("k1", "k2", "d1"),
            frozenset([("k1", "Emp"), ("k1", "Salaried"), ("d1", "Dept")]),
            {"k1": ("ann", "hr"), "k2": ("x",), "d1": ("it",)},
        )
        validate_strict(m)

    def test_validate_rejects_wrong_arity(self):
        m = StrictStructure(
            SCHEMA, TD, ("k1",), frozenset([("k1", "Emp")]), {"k1": ("hr",)})
        with pytest.raises(DefiningConditionViolation):
            validate_strict(m)

    def test_to_lax_extents(self):
        m = StrictStructure(
            SCHEMA, TD, ("k1", "k2", "u"),
            frozenset([("k1", "Emp"), ("k1", "Salaried"), ("k2", "Emp")]),
            {"k1": ("ann", "hr"), "k2": ("bob", "it"), "u": ()},
        )
        lax = to_lax(m)
        assert set(lax.table_of["Emp"].rows) == {"k1", "k2"}
        assert set(lax.table_of["Salaried"].rows) == {"k1"}
        assert lax.table_of["Dept"].rows == {}
        # unclassified key u appears nowhere
        assert all("u" not in t.rows for t in lax.table_of.values())


class TestLaxValidate:
    def test_empty_table_over_a_sort_outside_the_domain(self):
        """An empty table has no row that reaches its sorts, so validation
        looks each predicate's sorts up in the type domain itself."""
        zed = Signature.of([("z", "Z")])
        m = LaxStructure(Schema(sorts=("S", "Z"), predicates={"Zed": zed}),
                         TD, {"Zed": Table(zed, {})})
        with pytest.raises(UnknownSort, match="unknown sort 'Z'"):
            m.validate()

    def test_empty_tables_over_known_sorts_pass(self):
        LaxStructure(SCHEMA, TD, {r: Table(sig, {}) for r, sig
                                  in SCHEMA.predicates.items()}).validate()


class TestLazy:
    """The mapping behind workspace sections and a structure's tables."""

    def lazy(self, calls: list) -> Lazy:
        def make(name, data):
            calls.append(name)
            if data is None:
                raise SignatureMismatch(f"no data for {name!r}")
            return data * 2
        return Lazy({"b": 1, "a": None, "c": 3}, make)

    def test_make_runs_once_per_name(self):
        calls = []
        lazy = self.lazy(calls)
        assert (lazy["c"], lazy["c"], lazy["b"]) == (6, 6, 2)
        assert "c" in lazy and dict(lazy) == {"b": 2, "c": 6}
        assert calls == ["c", "b", "a"]

    def test_failed_make_is_kept_and_raised_again(self):
        calls = []
        lazy = self.lazy(calls)
        with pytest.raises(SignatureMismatch) as first:
            lazy["a"]
        assert lazy.failed == {"a": first.value}
        with pytest.raises(SignatureMismatch) as again:
            lazy["a"]
        assert again.value is first.value and calls == ["a"]

    def test_failed_and_undeclared_names_are_not_in(self):
        calls = []
        lazy = self.lazy(calls)
        assert "a" not in lazy and "zz" not in lazy
        with pytest.raises(KeyError):
            lazy["zz"]
        assert calls == ["a"] and list(lazy.failed) == ["a"]

    def test_iteration_follows_declaration_and_skips_failures(self):
        calls = []
        lazy = self.lazy(calls)
        lazy["c"]
        assert list(lazy) == ["b", "c"] and len(lazy) == 2
        assert calls == ["c", "b", "a"]

    def test_unhashable_name_raises_from_in(self):
        calls = []
        lazy = self.lazy(calls)
        with pytest.raises(TypeError, match="unhashable"):
            ["a"] in lazy
        assert calls == [] and not lazy.failed

    def test_to_lax_checks_a_table_on_its_first_lookup(self):
        m = StrictStructure(
            Schema(sorts=("S", "D", "Z"), predicates=dict(
                SCHEMA.predicates, Zed=Signature.of([("z", "Z")]))),
            TD, ("k1",), frozenset([("k1", "Emp")]), {"k1": ("ann", "hr")})
        lax = to_lax(m)
        assert lax.table_of["Emp"].rows == {"k1": ("ann", "hr")}
        with pytest.raises(UnknownSort):
            lax.table_of["Zed"]
        assert "Zed" not in lax.table_of and "Emp" in lax.table_of


class TestInterpretation:
    def test_atom_image(self):
        m = fixture_structure()
        assert interpret_relation(m, Atom("Emp")).tuples == \
            {("ann", "hr"), ("bob", "hr")}

    def test_top(self):
        m = fixture_structure()
        rel = interpret_relation(m, Top(SIG2))
        assert rel.tuples == frozenset(enumerate_tuples(SIG2, TD))

    def test_exists_projects_dept(self):
        m = fixture_structure()
        assert interpret_relation(m, Exists(H, Atom("Emp"))).tuples == \
            {("hr",)}

    def test_interpret_table_atom_keeps_keys(self):
        m = fixture_structure()
        t = interpret_table(m, Atom("Emp"))
        assert t.rows == m.table_of["Emp"].rows

    def test_interpret_table_exists_keeps_keys(self):
        m = fixture_structure()
        t = interpret_table(m, Exists(H, Atom("Emp")))
        assert t.rows == {"k1": ("hr",), "k2": ("hr",)}

    def test_table_image_law_random(self):
        rng = random.Random(53)
        for _ in range(150):
            td = rand_type_domain(rng)
            schema = rand_schema(rng, td)
            m = rand_lax_structure(rng, schema, td)
            phi = rand_formula(rng, schema, td, depth=3)
            assert table_image(interpret_table(m, phi)) == \
                interpret_relation(m, phi)

    def test_oracle_equivalence_random(self):
        rng = random.Random(59)
        for _ in range(150):
            td = rand_type_domain(rng)
            schema = rand_schema(rng, td)
            m = rand_lax_structure(rng, schema, td)
            phi = rand_formula(rng, schema, td, depth=4)
            assert interpret_relation(m, phi) == interpret_by_oracle(m, phi)

    def test_reflection_squares_random(self):
        rng = random.Random(61)
        for _ in range(150):
            td = rand_type_domain(rng)
            schema = rand_schema(rng, td)
            m = rand_lax_structure(rng, schema, td)
            sig = schema.predicates[rng.choice(list(schema.predicates))]
            h = rand_sig_morphism(rng, sig)
            phi = rand_formula(rng, schema, td, sig, depth=2)
            body = interpret_relation(m, phi)
            assert interpret_relation(m, Exists(h, Top(sig))) == \
                fiber_flow("exists", h, interpret_relation(m, Top(sig)), td)
            assert interpret_relation(m, Subst(h, rand_formula(
                rng, schema, td, h.source, depth=1))) is not None
            # flow squares on the generated body
            from fole import Forall
            assert interpret_relation(m, Forall(h, phi)) == \
                fiber_flow("forall", h, body, td)
            assert interpret_relation(m, Exists(h, phi)) == \
                fiber_flow("exists", h, body, td)


def ast_size(phi) -> int:
    return 1 + sum(ast_size(getattr(phi, child)) for child in ("lhs", "rhs", "body")
                   if hasattr(phi, child))


class TestTypeCheckOnce:
    def test_one_infer_signature_call_per_node(self, monkeypatch):
        """Evaluation type-checks the whole formula once, at the root, not
        again below every connective."""
        calls = []

        def counting(phi, schema):
            calls.append(phi)
            return original(phi, schema)

        original = formula_module.infer_signature
        monkeypatch.setattr(formula_module, "infer_signature", counting)
        monkeypatch.setattr(structure_module, "infer_signature", counting)
        rng = random.Random(67)
        for _ in range(200):
            td = rand_type_domain(rng)
            schema = rand_schema(rng, td)
            m = rand_lax_structure(rng, schema, td)
            phi = rand_formula(rng, schema, td, depth=rng.randint(0, 4))
            for interpret in (interpret_relation, interpret_table):
                calls.clear()
                interpret(m, phi)
                assert len(calls) == ast_size(phi)

    def test_ill_typed_formula_fails_before_evaluating(self, monkeypatch):
        def evaluated(*args):
            raise AssertionError("evaluated an ill-typed formula")

        monkeypatch.setattr(structure_module, "fiber_boolean", evaluated)
        monkeypatch.setattr(structure_module, "fiber_flow", evaluated)
        monkeypatch.setattr(structure_module, "table_image", evaluated)
        monkeypatch.setattr(structure_module, "table_sigma", evaluated)
        monkeypatch.setattr(structure_module, "table_substitution", evaluated)
        m = fixture_structure()
        for phi in (Exists(H, Atom("Dept")), Subst(H, Atom("Emp")),
                    Meet(Top(SIG2), Neg(Meet(Atom("Emp"), Atom("Dept"))))):
            for interpret in (interpret_relation, interpret_table):
                with pytest.raises((FiberMismatch, FlowMismatch)):
                    interpret(m, phi)


class TestFiberMemo:
    def test_each_fiber_enumerated_once(self, monkeypatch):
        """top@, negation and implication over one signature share one
        enumeration of its fiber, which the type domain keeps; the result is
        the oracle's, and the domain compares and prints as before."""
        calls = []

        def counting(sig, td):
            calls.append(sig)
            return original(sig, td)

        original = core_module.enumerate_tuples
        schema = Schema(SCHEMA.sorts, SCHEMA.predicates, {"X": SIG2})
        td = TypeDomain(("S", "D"), {"S": ("ann", "bob", "cy"), "D": ("hr", "it")})
        m = LaxStructure(schema, td, fixture_structure().table_of)
        phi = parse_formula("(top@X \\/ ~Salaried) => top@X", schema)
        expected = interpret_by_oracle(m, phi)
        assert expected.tuples == set(enumerate_tuples(SIG2, td))
        monkeypatch.setattr(core_module, "enumerate_tuples", counting)
        assert interpret_relation(m, phi) == expected
        assert calls == [SIG2]
        assert interpret_relation(m, phi) == expected
        assert calls == [SIG2]
        assert not interpret_relation(m, parse_formula("~Dept", schema)).tuples
        assert calls == [SIG2, SIG1]
        fresh = TypeDomain(("S", "D"), {"S": ("ann", "bob", "cy"), "D": ("hr", "it")})
        assert td == fresh and repr(td) == repr(fresh)


class TestSatisfaction:
    def test_sequent_reflexive_and_bounds(self):
        m = fixture_structure()
        phi = Atom("Emp")
        assert satisfies_sequent(m, Sequent(phi, phi))
        assert satisfies_sequent(m, Sequent(Bottom(SIG2), phi))
        assert satisfies_sequent(m, Sequent(phi, Top(SIG2)))

    def test_sequent_counterexample(self):
        m = fixture_structure()
        assert not satisfies_sequent(m, Sequent(Atom("Emp"), Atom("Salaried")))
        assert satisfies_sequent(m, Sequent(Atom("Salaried"), Atom("Emp")))

    def test_constraint_witness(self):
        m = fixture_structure()
        c = Constraint("fk", Atom("Dept"), Atom("Emp"), H)
        verdict = satisfies_constraint(m, c)
        assert verdict.satisfied
        # the witness lives between the tuple-keyed relation inclusions
        from fole import relation_include
        check_table_morphism(
            verdict.witness,
            relation_include(interpret_relation(m, Atom("Dept"))),
            relation_include(interpret_relation(m, Atom("Emp"))),
        )

    def test_constraint_refutation_names_tuple(self):
        # shrink Dept so (hr) is missing
        m = fixture_structure()
        m.table_of["Dept"] = Table(SIG1, {"d2": ("it",)})
        c = Constraint("fk", Atom("Dept"), Atom("Emp"), H)
        verdict = satisfies_constraint(m, c)
        assert not verdict.satisfied
        assert verdict.violating_tuple in {("ann", "hr"), ("bob", "hr")}

    def test_identity_constraints_in_intent(self):
        m = fixture_structure()
        for r in SCHEMA.predicates:
            phi = Atom(r)
            c = Constraint("id", phi, phi,
                           SignatureMorphism.identity(SCHEMA.predicates[r]))
            assert intent_contains(m, c)

    def test_direct_form_agrees_with_adjoint_random(self):
        # satisfaction is decided by projecting the target into the source;
        # the adjoint form, target within the preimage of the source, agrees
        rng = random.Random(113)
        outcomes = set()
        for _ in range(150):
            td = rand_type_domain(rng)
            schema = rand_schema(rng, td)
            m = rand_lax_structure(rng, schema, td)
            target = rand_formula(rng, schema, td, depth=2)
            h = rand_sig_morphism(rng, infer_signature(target, schema))
            source = rand_formula(rng, schema, td, h.source, depth=2)
            preimage = fiber_flow("preimage", h, interpret_relation(m, source), td)
            adjoint = interpret_relation(m, target).tuples <= preimage.tuples
            verdict = satisfies_constraint(m, Constraint("c", source, target, h))
            assert verdict.satisfied == adjoint
            outcomes.add(adjoint)
        assert outcomes == {True, False}

    def test_enfolding_matches_satisfaction(self):
        m = fixture_structure()
        for dept_rows in ({"d1": ("hr",)}, {"d2": ("it",)}):
            m.table_of["Dept"] = Table(SIG1, dict(dept_rows))
            c = Constraint("fk", Atom("Dept"), Atom("Emp"), H)
            sat = satisfies_constraint(m, c).satisfied
            from fole import enfold_constraint
            for side in ("source", "target"):
                phi = enfold_constraint(c, side)
                sig = infer_signature(phi, SCHEMA)
                is_top = interpret_relation(m, phi).tuples == \
                    frozenset(enumerate_tuples(sig, TD))
                assert is_top == sat


class TestLaxMorphism:
    def test_identity_accepts(self):
        m = fixture_structure()
        validate_lax_morphism(LaxStructureMorphism.identity(m), m, m)

    def test_broken_key_bridge_rejected(self):
        m = fixture_structure()
        lm = LaxStructureMorphism.identity(m)
        lm.key_bridge["Emp"]["k1"] = "k2"  # k2's tuple differs from k1's
        with pytest.raises(KeyBridgeViolation):
            validate_lax_morphism(lm, m, m)

    def test_random_constructed_morphisms_validate(self):
        rng = random.Random(67)
        for _ in range(60):
            lm, m2, m1 = rand_lax_morphism_setup(rng)
            validate_lax_morphism(lm, m2, m1)


def as_databases(lm, m2, m1):
    """``(dm, db2, db1)``: ``lm``'s data as a database morphism between the
    constraint-free databases of ``m2`` and ``m1``."""
    def db(m):
        return Database(AbstractSpec(m.schema, {}), m.type_domain, m.table_of, {})
    sm = SpecMorphism(lm.predicate_map, {}, lm.td_morphism.f, lm.schema_bridge)
    return DatabaseMorphism(sm, lm.td_morphism, lm.key_bridge), db(m2), db(m1)


class TestKeyConditionAgainstKeyLoop:
    """The key condition as one ``check_table_morphism`` per predicate against
    the key loop it replaced (``key_condition_by_keys``): seeded morphisms,
    each unchanged or with one fault, get the same outcome, error class and
    message, also through ``validate_db_morphism``."""

    def test_same_verdict_as_the_key_loop(self):
        """100 cases of each kind, 600 in all, every fourth also as databases."""
        rng = random.Random(109)
        for kind in (None,) + KEY_FAULTS:
            done = 0
            while done < 100:
                lm, m2, m1 = rand_lax_morphism_setup(rng)
                if kind and not break_key_condition(rng, lm, m2, kind):
                    continue
                expected = outcome(key_condition_by_keys, lm, m2, m1)
                assert (expected is None) == (kind is None), (kind, done)
                assert outcome(validate_lax_morphism, lm, m2, m1) == expected, (kind, done)
                if done % 4 == 0:
                    assert outcome(validate_db_morphism, *as_databases(lm, m2, m1)) \
                        == expected, (kind, done)
                done += 1

    def test_several_faults_name_the_first_bad_key(self):
        """Up to three faults at once: the first bad key in row order, then a
        junk entry, is the one both name."""
        rng, failed = random.Random(127), 0
        for _ in range(300):
            lm, m2, m1 = rand_lax_morphism_setup(rng)
            for kind in rng.sample(KEY_FAULTS, rng.randint(1, 3)):
                break_key_condition(rng, lm, m2, kind)
            expected = outcome(key_condition_by_keys, lm, m2, m1)
            assert outcome(validate_lax_morphism, lm, m2, m1) == expected
            failed += expected is not None
        assert failed >= 200


class TestStrictMorphism:
    def test_random_strict_morphisms_convert(self):
        rng = random.Random(71)
        for _ in range(60):
            sm, m2, m1 = rand_strict_morphism_setup(rng)
            lm = strict_morphism_to_lax(sm, m2, m1)
            validate_lax_morphism(lm, to_lax(m2), to_lax(m1))
            # per-predicate key bridge agrees with the global key map
            for r2, kappa in lm.key_bridge.items():
                for k1, k2 in kappa.items():
                    assert sm.key_map[k1] == k2

    def test_violated_iff_condition_rejected(self):
        rng = random.Random(73)
        sm, m2, m1 = rand_strict_morphism_setup(rng)
        while not m1.classifies:
            sm, m2, m1 = rand_strict_morphism_setup(rng)
        (k1, r1) = next(iter(m1.classifies))
        r2 = next(q2 for q2, q1 in sm.predicate_map.items() if q1 == r1)
        # remove the matching classification on the 2-side
        broken = StrictStructure(
            m2.schema, m2.type_domain, m2.keys,
            m2.classifies - {(sm.key_map[k1], r2)}, m2.tuple_of_key)
        with pytest.raises(EntityInfomorphismViolation):
            strict_morphism_to_lax(sm, broken, m1)

    def test_key_map_total_over_a_schema_with_no_predicates(self):
        """The key map is total on K1 whatever the schema: with no predicate
        to loop over, a key of K1 that it misses still fails the morphism."""
        td = TypeDomain(("S",), {"S": ("a",)})
        schema = Schema(sorts=("S",), predicates={})
        z1 = StrictStructure(schema, td, ("k1", "k2"), frozenset(), {})
        z2 = StrictStructure(schema, td, ("u",), frozenset(), {})
        sm = StrictStructureMorphism({}, {"k1": "u"}, {}, TypeDomainMorphism.identity(td))
        assert outcome(strict_morphism_to_lax, sm, z2, z1) == \
            (UnresolvedReference, "unresolved key map reference 'k2'")
        sm.key_map["k2"] = "u"
        assert strict_morphism_to_lax(sm, z2, z1).key_bridge == {}


def first_strict_fault(sm, m2, m1):
    """``(error class, message)`` of the fault that the documented order names
    first, or None: a key-map entry outside K1 or K2, a predicate missing from
    the predicate map (schema order), a key of K1 missing from the key map
    (``keys`` order), then the first (predicate, key) pair that breaks the
    biconditional."""
    refs = [("key", k2 if k1 in m1.keys else k1) for k1, k2 in sm.key_map.items()
            if k1 not in m1.keys or k2 not in m2.keys]
    refs += [("predicate map", r2) for r2 in m2.schema.predicates
             if r2 not in sm.predicate_map]
    refs += [("key map", k1) for k1 in m1.keys if k1 not in sm.key_map]
    if refs:
        return UnresolvedReference, str(UnresolvedReference(*refs[0]))
    for r2 in m2.schema.predicates:
        for k1 in m1.keys:
            if ((sm.key_map[k1], r2) in m2.classifies) != \
                    ((k1, sm.predicate_map[r2]) in m1.classifies):
                return EntityInfomorphismViolation, str(EntityInfomorphismViolation(r2, k1))
    return None


class TestStrictMorphismAgainstPairLoop:
    """The strict infomorphism condition decided over the grouped extents,
    each map resolved once, against the pair loop it replaced
    (``strict_condition_by_pairs``)."""

    def test_same_verdict_as_the_pair_loop(self):
        """100 cases of each kind, 600 in all: unchanged, or with one fault,
        each gets the pair loop's outcome, error class and message."""
        rng = random.Random(131)
        for kind in (None,) + STRICT_FAULTS:
            done = 0
            while done < 100:
                sm, m2, m1 = rand_strict_morphism_setup(rng)
                if kind:
                    broken = break_strict_morphism(rng, sm, m2, m1, [kind])
                    if broken is None:
                        continue
                    sm, m2 = broken
                expected = outcome(strict_condition_by_pairs, sm, m2, m1)
                assert (expected is None) == (kind is None), (kind, done)
                assert outcome(strict_morphism_to_lax, sm, m2, m1) == expected, (kind, done)
                done += 1

    def test_several_faults_are_named_in_the_documented_order(self):
        """200 cases with two or three faults: both checks reject each, and
        the message names the fault that comes first in the documented order."""
        rng, done = random.Random(137), 0
        while done < 200:
            sm, m2, m1 = rand_strict_morphism_setup(rng)
            kinds = rng.choices(STRICT_FAULTS, k=rng.randint(2, 3))
            broken = break_strict_morphism(rng, sm, m2, m1, kinds)
            if broken is None:
                continue
            sm, m2 = broken
            assert outcome(strict_condition_by_pairs, sm, m2, m1) is not None
            got = outcome(strict_morphism_to_lax, sm, m2, m1)
            assert got is not None and got == first_strict_fault(sm, m2, m1), kinds
            done += 1


def outcome(check, *args):
    """``(error class, message)`` of ``check(*args)``, or ``None`` if it passes."""
    try:
        check(*args)
    except FoleError as exc:
        return type(exc), str(exc)
    return None


# Each mutation puts one fault into a strict structure, or gives None where
# the structure has no place for it.  A fault in a row is put on a key that
# exactly one predicate classifies, so that it fails one classification.
def _once_classified(m: StrictStructure, min_len=0) -> list:
    counts = {}
    for k, r in m.classifies:
        counts[k] = counts.get(k, 0) + 1
    return [k for k in m.keys if counts.get(k) == 1 and k in m.tuple_of_key
            and len(m.tuple_of_key[k]) >= min_len]


def _with_row(rng, m, make_row, min_len=1):
    keys = _once_classified(m, min_len)
    if not keys:
        return None
    k = rng.choice(keys)
    tuples = dict(m.tuple_of_key)
    if make_row is None:
        del tuples[k]
    else:
        tuples[k] = make_row(list(tuples[k]), rng.randrange(len(tuples[k]) or 1))
    return StrictStructure(m.schema, m.type_domain, m.keys, m.classifies, tuples)


def _put(row, i, value):
    row[i] = value
    return tuple(row)


def _classified_outside(rng, m):
    pools = {r: p for r, sig in m.schema.predicates.items()
             if set(sig.sorts) <= set(m.type_domain.sorts)
             and (p := enumerate_tuples(sig, m.type_domain))}
    if not pools:
        return None
    r = rng.choice(sorted(pools))
    k = f"zz{len(m.tuple_of_key)}"
    return StrictStructure(m.schema, m.type_domain, m.keys, m.classifies | {(k, r)},
                           dict(m.tuple_of_key, **{k: rng.choice(pools[r])}))


def _sort_outside(rng, m):
    if "Zed" in m.schema.predicates:
        return None
    zed = Signature.of([("z", "Zout")])
    schema = Schema(m.schema.sorts + ("Zout",), dict(m.schema.predicates, Zed=zed))
    if rng.random() < 0.5:  # an empty table over the sort
        return StrictStructure(schema, m.type_domain, m.keys, m.classifies, m.tuple_of_key)
    return StrictStructure(schema, m.type_domain, m.keys + ("kz",),
                           m.classifies | {("kz", "Zed")}, dict(m.tuple_of_key, kz=("v",)))


MUTATIONS = {
    "ill-sorted value": lambda rng, m: _with_row(
        rng, m, lambda row, i: _put(row, i, "ill-sorted!")),
    "wrong arity": lambda rng, m: _with_row(
        rng, m, lambda row, i: tuple(row[:-1] if row and rng.random() < 0.5
                                     else row + ["extra"]), min_len=0),
    "missing tuple": lambda rng, m: _with_row(rng, m, None, min_len=0),
    "unknown predicate": lambda rng, m: m.keys and StrictStructure(
        m.schema, m.type_domain, m.keys, m.classifies | {(rng.choice(m.keys), "Nope")},
        m.tuple_of_key) or None,
    "key outside keys": _classified_outside,
    "unhashable value": lambda rng, m: _with_row(
        rng, m, lambda row, i: _put(row, i, ["unhashable"])),
    "sort outside the domain": _sort_outside,
}


def _strict_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        td = rand_type_domain(rng)
        yield rng, rand_strict_structure(rng, rand_schema(rng, td), td, max_keys=12)


class TestStrictAgainstRowOracle:
    """The strict form read through ``Table.validate`` against the row loop
    and the extent scan that it replaced."""

    def test_tables_equal_in_row_order(self):
        for _, m in _strict_cases(101, 600):
            lax, scanned = to_lax(m), strict_tables_by_scan(m)
            assert list(lax.table_of) == list(scanned)
            for r, table in scanned.items():
                assert lax.table_of[r].signature == table.signature
                assert list(lax.table_of[r].rows.items()) == list(table.rows.items())
                assert m.extents.get(r, []) == list(table.rows)
            assert outcome(validate_strict, m) is None is outcome(check_strict_by_rows, m)

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_one_fault_fails_as_the_oracle_does(self, kind):
        tried = 0
        for rng, m in _strict_cases(200 + sorted(MUTATIONS).index(kind), 500):
            broken = MUTATIONS[kind](rng, m)
            if broken is None:
                continue
            tried += 1
            got = outcome(validate_strict, broken)
            if kind == "key outside keys":  # the oracle lets it through
                outside = next(k for k, _ in broken.classifies if k not in broken.keys)
                assert outcome(check_strict_by_rows, broken) is None
                assert got[0].__name__ == "UnresolvedReference"
                assert got[1] == f"unresolved key reference {outside!r}"
            else:
                assert got is not None and got == outcome(check_strict_by_rows, broken)
        assert tried >= 100

    def test_several_faults_fail_exactly_where_the_oracle_does(self):
        kinds, failed = sorted(MUTATIONS), 0
        for rng, m in _strict_cases(103, 800):
            for kind in rng.sample(kinds, rng.randint(0, 3)):
                m = MUTATIONS[kind](rng, m) or m
            outside = any(k not in m.keys for k, _ in m.classifies)
            expected = outside or outcome(check_strict_by_rows, m) is not None
            assert (outcome(validate_strict, m) is not None) == expected
            failed += expected
        assert failed >= 300

    def test_key_bridges_equal_the_scan(self):
        rng = random.Random(107)
        for _ in range(300):
            sm, m2, m1 = rand_strict_morphism_setup(rng)
            lm = strict_morphism_to_lax(sm, m2, m1)
            scanned = strict_key_bridges_by_scan(sm, m2, m1)
            assert list(lm.key_bridge) == list(scanned)
            for r2, bridge in scanned.items():
                assert list(lm.key_bridge[r2].items()) == list(bridge.items())


# (call, error class, message): each guard rejects a misuse with its own error
GUARDS = [
    (lambda: structure_module.tuple_satisfies(fixture_structure(), ("hr",), "Dept"),
     TypeError, "not a formula node: 'Dept'"),
    (lambda: structure_module.check_bridge("Dept", SIG1, {"S": "S", "D": "D"}, H,
                                           SCHEMA, "Dept"),
     SignatureMismatch, "bridge at 'Dept' has target (name:S,dept:D), expected (dept:D)"),
]


@pytest.mark.parametrize("call, error, message", GUARDS, ids=["tuple", "bridge-target"])
def test_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
