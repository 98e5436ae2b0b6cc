"""Formula AST, DSL parser, signature inference, sequents, constraints."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fole import (
    Atom,
    Bottom,
    Constraint,
    Diff,
    Exists,
    Forall,
    Impl,
    Join,
    Meet,
    Neg,
    Schema,
    Sequent,
    Signature,
    SignatureMorphism,
    Subst,
    Top,
    enfold_constraint,
    enfold_sequent,
    infer_signature,
    parse_formula,
    print_formula,
)
from fole.errors import (
    FiberMismatch,
    FlowMismatch,
    ParseError,
    SignatureMismatch,
    UnknownMorphism,
    UnknownPredicate,
    UnknownSignature,
)

from fole.formula import Constant, Flow
from generators import rand_formula, rand_schema, rand_type_domain

SIG1 = Signature.of([("name", "S")])
SIG2 = Signature.of([("name", "S"), ("dept", "D")])
SCHEMA = Schema(
    sorts=("S", "D"),
    predicates={"Salaried": SIG1, "Married": SIG1, "Emp": SIG2},
    signatures={"n2": Signature.of([("0", "S"), ("1", "S")])},
)
H = SignatureMorphism.of(Signature.of([("dept", "D")]), SIG2,
                         {"dept": "dept"})
MORPHISMS = {"h": H}


class TestParser:
    def test_meet_of_atoms(self):
        assert parse_formula("Salaried /\\ Married", SCHEMA) == \
            Meet(Atom("Salaried"), Atom("Married"))

    def test_named_top(self):
        phi = parse_formula("top@n2", SCHEMA)
        assert phi == Top(SCHEMA.signatures["n2"])

    def test_exists(self):
        phi = parse_formula("exists[h] Emp", SCHEMA, MORPHISMS)
        assert phi == Exists(H, Atom("Emp"))

    def test_precedence(self):
        phi = parse_formula("~Salaried /\\ Married \\/ Salaried", SCHEMA)
        assert phi == Join(Meet(Neg(Atom("Salaried")), Atom("Married")),
                           Atom("Salaried"))

    def test_impl_right_assoc(self):
        phi = parse_formula("Salaried => Married => Salaried", SCHEMA)
        assert phi == Impl(Atom("Salaried"),
                           Impl(Atom("Married"), Atom("Salaried")))

    def test_diff_binds_looser_than_join(self):
        phi = parse_formula("Salaried \\/ Married \\\\ Salaried", SCHEMA)
        assert phi == Diff(Join(Atom("Salaried"), Atom("Married")),
                           Atom("Salaried"))

    def test_parens(self):
        phi = parse_formula("Salaried /\\ (Married \\/ Salaried)", SCHEMA)
        assert phi == Meet(Atom("Salaried"),
                           Join(Atom("Married"), Atom("Salaried")))

    def test_flow_binds_tighter_than_binary(self):
        phi = parse_formula("exists[h] Emp /\\ Salaried", SCHEMA, MORPHISMS)
        assert isinstance(phi, Meet)
        assert isinstance(phi.lhs, Exists)

    def test_errors(self):
        with pytest.raises(UnknownPredicate):
            parse_formula("Nope", SCHEMA)
        with pytest.raises(UnknownMorphism):
            parse_formula("exists[nope] Emp", SCHEMA)
        with pytest.raises(UnknownSignature):
            parse_formula("top@nope", SCHEMA)
        with pytest.raises(ParseError):
            parse_formula("Salaried /\\", SCHEMA)
        with pytest.raises(ParseError):
            parse_formula("Salaried Married", SCHEMA)
        with pytest.raises(ParseError):
            parse_formula("Salaried $ Married", SCHEMA)

    @pytest.mark.parametrize("text, message, offset", [
        ("(Salaried", "expected ')', found end of input", 9),
        ("(Salaried  Married)", "expected ')', found 'Married'", 11),
        ("Salaried /\\  ", "unexpected end of input", 13),
        ("  ", "unexpected end of input", 2),
        ("Salaried   ) ", "trailing input ')'", 11),
        ("Salaried  $", "unexpected character '$'", 10),
        ("  )", "unexpected token ')'", 2),
    ])
    def test_error_offset_is_the_tokens(self, text, message, offset):
        """A parse error points at its token's first character, or at the
        end of the text when the input ran out."""
        with pytest.raises(ParseError) as err:
            parse_formula(text, SCHEMA)
        assert (str(err.value), err.value.position) == \
            (f"{message} (at offset {offset})", offset)

    def test_print_parse_round_trip(self):
        texts = [
            "Salaried /\\ Married",
            "~(Salaried \\/ Married) => Salaried",
            "exists[h] Emp",
            "forall[h] Emp \\\\ subst[h] (top@n2 => top@n2)",
            "bot@n2",
        ]
        for text in texts:
            phi = parse_formula(text, SCHEMA, MORPHISMS)
            assert parse_formula(print_formula(phi), SCHEMA, MORPHISMS) == phi


@st.composite
def named_formulas(draw):
    """(formula, schema, morphisms): a random well-typed formula, any of the
    11 node classes at each node, whose flow morphisms and ``top@``/``bot@``
    signatures are registered under fresh names, so that it prints."""
    rng = draw(st.randoms(use_true_random=False))
    td = rand_type_domain(rng)
    schema = rand_schema(rng, td)
    phi = rand_formula(rng, schema, td, depth=draw(st.integers(0, 4)))
    signatures, morphisms = {}, {}

    def named(phi):
        if isinstance(phi, Constant):
            name = f"s{len(signatures)}"
            signatures[name] = phi.signature
            return type(phi)(phi.signature, name)
        if isinstance(phi, Flow):
            name = f"h{len(morphisms)}"
            morphisms[name] = phi.morphism
            return type(phi)(phi.morphism, named(phi.body), name)
        if isinstance(phi, Atom):
            return phi
        return type(phi)(*[named(getattr(phi, o)) for o in phi.operands])

    phi = named(phi)
    return phi, Schema(schema.sorts, schema.predicates, signatures), morphisms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(named_formulas())
def test_print_parse_round_trip_random(case):
    """``parse(print(phi)) == phi``, names included, and both infer one
    fiber."""
    phi, schema, morphisms = case
    back = parse_formula(print_formula(phi), schema, morphisms)
    assert back == phi
    assert print_formula(back) == print_formula(phi)
    assert infer_signature(back, schema) == infer_signature(phi, schema)


class TestNodes:
    def test_equality_hash_repr(self):
        """Nodes of one family differ by class; names do not count."""
        a, b = Atom("Salaried"), Atom("Married")
        assert Meet(a, b) == Meet(Atom("Salaried"), Atom("Married"))
        assert hash(Meet(a, b)) == hash(Meet(Atom("Salaried"), Atom("Married")))
        assert len({Meet(a, b), Join(a, b), Impl(a, b), Diff(a, b)}) == 4
        assert Top(SIG1) != Bottom(SIG1)
        assert Top(SIG1, name="x") == Top(SIG1)
        assert Exists(H, a) != Forall(H, a)
        assert Exists(H, a, name="h") == Exists(H, a)
        assert repr(Diff(a, b)) == \
            "Diff(lhs=Atom(predicate='Salaried'), rhs=Atom(predicate='Married'))"
        assert repr(Subst(H, a, name="h")) == \
            f"Subst(morphism={H!r}, body=Atom(predicate='Salaried'), name='h')"
        assert repr(Bottom(SIG1, name="n")) == f"Bottom(signature={SIG1!r}, name='n')"
        with pytest.raises(AttributeError):
            Meet(a, b).lhs = b


class TestInferSignature:
    def test_atom(self):
        assert infer_signature(Atom("Emp"), SCHEMA) == SIG2

    def test_exists_lands_in_source(self):
        phi = Exists(H, Atom("Emp"))
        assert infer_signature(phi, SCHEMA) == H.source

    def test_subst_lands_in_target(self):
        phi = Subst(H, Top(H.source))
        assert infer_signature(phi, SCHEMA) == SIG2

    def test_fiber_mismatch(self):
        with pytest.raises(FiberMismatch):
            infer_signature(Meet(Atom("Salaried"), Atom("Emp")), SCHEMA)

    def test_flow_mismatch(self):
        with pytest.raises(FlowMismatch):
            infer_signature(Exists(H, Atom("Salaried")), SCHEMA)
        with pytest.raises(FlowMismatch):
            infer_signature(Subst(H, Atom("Emp")), SCHEMA)

    def test_total_on_random_formulas(self):
        rng = random.Random(47)
        for _ in range(200):
            td = rand_type_domain(rng)
            from generators import rand_schema
            schema = rand_schema(rng, td)
            phi = rand_formula(rng, schema, td, depth=4)
            infer_signature(phi, schema)  # must not raise


class TestSequentsConstraints:
    def test_sequent_fibers_must_agree(self):
        q = Sequent(Atom("Salaried"), Atom("Emp"))
        with pytest.raises(FiberMismatch):
            q.check(SCHEMA)

    def test_enfold_sequent(self):
        q = Sequent(Atom("Salaried"), Atom("Married"))
        assert enfold_sequent(q) == Impl(Atom("Salaried"), Atom("Married"))

    def test_constraint_check(self):
        c = Constraint("p", Top(H.source), Atom("Emp"), H)
        c.check(SCHEMA)
        bad = Constraint("p", Atom("Salaried"), Atom("Emp"), H)
        with pytest.raises(FlowMismatch):
            bad.check(SCHEMA)

    def test_enfold_constraint_sides(self):
        c = Constraint("p", Top(H.source), Atom("Emp"), H)
        assert enfold_constraint(c, "source") == \
            Impl(Exists(H, Atom("Emp")), Top(H.source))
        assert enfold_constraint(c, "target") == \
            Impl(Atom("Emp"), Subst(H, Top(H.source)))
        assert infer_signature(enfold_constraint(c, "source"), SCHEMA) == \
            H.source
        assert infer_signature(enfold_constraint(c, "target"), SCHEMA) == SIG2

    def test_identity_constraint_enfolds_to_sequent_shape(self):
        h = SignatureMorphism.identity(SIG1)
        c = Constraint("p", Atom("Married"), Atom("Salaried"), h)
        # target side: Impl(target, Subst(id, source)) has the sequent fiber
        phi = enfold_constraint(c, "target")
        assert infer_signature(phi, SCHEMA) == SIG1


# (call, error class, message): each guard rejects a misuse with its own error
GUARDS = [
    (lambda: infer_signature("Emp", SCHEMA), TypeError, "not a formula node: 'Emp'"),
    (lambda: print_formula(("Emp",)), TypeError, "not a formula node: ('Emp',)"),
    (lambda: enfold_constraint(Constraint("p", Top(H.source), Atom("Emp"), H), "middle"),
     ValueError, "unknown side 'middle'"),
    (lambda: Schema(("S",), {}, {"Ghost": Signature.of([("g", "Z")])}),
     SignatureMismatch, "signature 'Ghost' mentions unknown sort 'Z'"),
]


@pytest.mark.parametrize("call, error, message", GUARDS,
                         ids=["infer", "print", "side", "named-signature"])
def test_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_named_signature_checked_after_predicates():
    """A schema checks its named signatures by the predicates' rule, after
    the predicates."""
    Z = Signature.of([("z", "Z")])
    with pytest.raises(SignatureMismatch, match="predicate 'P' mentions unknown sort 'Z'"):
        Schema(("S",), {"P": Z}, {"Ghost": Z})
    assert Schema(("S", "Z"), {"P": Z}, {"Ghost": Z}).signatures == {"Ghost": Z}
