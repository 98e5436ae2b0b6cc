"""Frozen examples and laws for records, signatures, type domains, and their
morphisms."""

import os
import random
import subprocess
import sys

import pytest

import fole
from fole import (
    Bottom,
    Exists,
    Relation,
    Signature,
    SignatureMorphism,
    SoundLogic,
    Table,
    Top,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    classify,
    enumerate_tuples,
    load_workspace,
    tuple_along,
)
from fole.core import Record
from fole.errors import (FoleError, InfomorphismViolation, SignatureMismatch,
                         SortMismatch, UnknownSort)

from generators import INFOMORPHISM_FAULTS, break_infomorphism, classify_pairwise, \
    rand_infomorphism, rand_shared_type_domain, rand_sig_morphism, rand_signature, \
    rand_type_domain, type_domain_condition_by_pairs


S2 = Signature.of([("0", "S"), ("1", "S")])
S1 = Signature.of([("0", "S")])
T1 = Signature.of([("0", "T")])
AB = TypeDomain(("S",), {"S": ("a", "b")})
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "workspace.json")


class TestClassify:
    def test_single_sort_partitioned(self):
        rep = classify(AB)
        assert rep.disjoint and rep.partitioned

    def test_shared_value_not_disjoint(self):
        td = TypeDomain(("S", "T"), {"S": ("a",), "T": ("a",)})
        rep = classify(td)
        assert not rep.disjoint
        assert rep.separated  # vacuous: only one value
        assert not rep.extensional  # equal extents

    def test_empty_extent_disjoint_extensional(self):
        td = TypeDomain(("S", "T"), {"S": ("a",), "T": ()})
        rep = classify(td)
        assert rep.extensional and rep.disjoint and rep.partitioned

    def test_separated(self):
        td = TypeDomain(("S", "T"), {"S": ("a", "b"), "T": ("b",)})
        rep = classify(td)
        assert rep.separated  # intents {S}, {S,T} differ
        assert not rep.disjoint

    def test_hashing_agrees_with_pairwise_comparison(self):
        rng, flags = random.Random(29), set()
        for _ in range(400):
            td = rand_shared_type_domain(rng) if rng.random() < 0.75 else \
                rand_type_domain(rng)
            rep = classify(td)
            assert rep == classify_pairwise(td)
            flags.add((rep.separated, rep.extensional, rep.disjoint))
        assert len(flags) == 8  # every combination of the three flags is met


class Point(Record, frozen=True):
    x: int
    y: int = 0
    unit = "m"  # a class attribute, not a field: it has no annotation


class Labelled(Point, uncompared=("label",)):
    label: str = ""


class Box(Record):
    items: list

    def __post_init__(self):
        self.items = list(self.items)


class Tally(Record):
    count: int = 0


class TestRecord:
    def test_construction_and_defaults(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(2 - 1, y=2)
        assert Point(1).y == 0 and Point(1) == Point(1, 0)
        assert (Labelled(1).x, Labelled(1).y, Labelled(1).label) == (1, 0, "")
        assert repr(Labelled(1, label="a")) == "Labelled(x=1, y=0, label='a')"
        assert repr(Box([1])) == "Box(items=[1])"

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),  # x is missing
        ((1, 2, 3), {}),  # one positional too many
        ((1,), {"z": 2}),  # no field z
        ((1,), {"x": 2}),  # x given twice
        ((), {"y": 2}),  # x is missing, y is given
    ])
    def test_bad_arguments_are_type_errors(self, args, kwargs):
        with pytest.raises(TypeError):
            Point(*args, **kwargs)

    def test_written_out_constructors_take_keywords(self):
        sig = Signature(attrs=("0",), sorts=("S",))
        assert sig == Signature(("0",), ("S",))
        assert Relation(signature=sig, tuples=frozenset()) == \
            Relation(sig, frozenset())
        assert Table(signature=sig, rows={}) == Table(sig, {})
        with pytest.raises(TypeError):
            Signature(("0",))

    def test_post_init_runs_and_is_looked_up_at_call_time(self, monkeypatch):
        assert Box((1, 2)).items == [1, 2]
        seen = []
        monkeypatch.setattr(Box, "__post_init__", lambda box: seen.append(box))
        box = Box((3,))
        assert seen == [box] and box.items == (3,)

    def test_sound_logic_post_init_patch_is_seen(self, monkeypatch):
        """The traced ``logic_db.SoundLogic.init`` span wraps this method."""
        assert "__post_init__" in vars(SoundLogic)
        db = load_workspace(FIXTURE).require("database", "DB")
        seen = []
        monkeypatch.setattr(SoundLogic, "__post_init__",
                            lambda logic: seen.append(logic))
        assert seen == [SoundLogic(db.structure, db.schema)]

    def test_equality_within_one_class(self):
        assert Point(1, 2) != Labelled(1, 2) and Labelled(1, 2) != Point(1, 2)
        assert Point(1) != (1, 0) and Point(1) != Point(2)
        assert Top(S1) != Bottom(S1) and Top(S1) == Top(S1)
        assert Box([1]) == Box([1]) and Box([1]) != Box([2])

    def test_uncompared_fields(self):
        assert Labelled(1, label="a") == Labelled(1, label="b")
        assert hash(Labelled(1, label="a")) == hash(Labelled(1, label="b"))
        assert Top(S1, name="n") == Top(S1)
        assert hash(Top(S1, name="n")) == hash(Top(S1))
        h = SignatureMorphism.identity(S1)
        assert Exists(h, Top(S1), name="h") == Exists(h, Top(S1))

    def test_frozen_records_hash_and_refuse_assignment(self):
        p = Point(1, 2)
        assert hash(p) == hash(Point(1, 2)) and len({p, Point(1, 2)}) == 1
        for record, name in ((p, "x"), (p, "z"), (S1, "attrs"),
                             (Labelled(1), "label"), (Top(S1), "name")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert (p.x, p.y) == (1, 2)

    def test_mutable_records_are_unhashable(self):
        box = Box([1])
        box.items = [2]
        assert box == Box([2])
        for record in (box, Tally(), Table(S1, {}), AB):
            with pytest.raises(TypeError):
                hash(record)

    def test_cached_property_on_a_frozen_record(self):
        h = SignatureMorphism.identity(S2)
        fresh = SignatureMorphism.identity(S2)
        assert h.positions is h.positions == (0, 1)
        assert "positions" in vars(h) and "positions" not in vars(fresh)
        assert h == fresh and hash(h) == hash(fresh)
        assert fresh.project(("a", "b")) == ("a", "b")
        assert h == fresh and h != SignatureMorphism.identity(S1)


def test_cli_import_leaves_out_dataclasses():
    """Generating record code at import costs each CLI process start-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fole.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fole.cli; "
         "print(sorted({'dataclasses', 'fole.cli'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['fole.cli']"


class TestSignature:
    def test_order_sensitive_equality(self):
        assert Signature.of([("0", "S"), ("1", "T")]) != \
            Signature.of([("1", "T"), ("0", "S")])

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(SignatureMismatch, match="duplicate attribute"):
            Signature(("0", "0"), ("S", "S"))


class TestCheckSignatureMorphism:
    def test_identity_accepts(self):
        check_signature_morphism(SignatureMorphism.identity(S2))

    def test_sort_preserving_accepts(self):
        h = SignatureMorphism.of(S1, S2, {"0": "0"})
        check_signature_morphism(h)

    def test_sort_mismatch(self):
        h = SignatureMorphism.of(T1, S2, {"0": "0"})
        with pytest.raises(SortMismatch):
            check_signature_morphism(h)


class TestEnumerateTuples:
    def test_empty_signature_one_tuple(self):
        assert enumerate_tuples(Signature((), ()), AB) == [()]

    def test_product_enumeration(self):
        assert enumerate_tuples(S2, AB) == [
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]

    def test_empty_extent_no_tuples(self):
        td = TypeDomain(("S",), {"S": ()})
        assert enumerate_tuples(S1, td) == []

    def test_unknown_sort(self):
        with pytest.raises(UnknownSort):
            enumerate_tuples(T1, AB)

    def test_cardinality_is_product(self):
        rng = random.Random(11)
        for _ in range(100):
            td = rand_type_domain(rng)
            sig = rand_signature(rng, td)
            n = 1
            for s in sig.sorts:
                n *= len(td.extent(s))
            assert len(enumerate_tuples(sig, td)) == n


class TestTupleAlong:
    def test_identity(self):
        h = SignatureMorphism.identity(S2)
        assert tuple_along(h, ("a", "b")) == ("a", "b")

    def test_projection(self):
        h = SignatureMorphism.of(S1, S2, {"0": "1"})
        assert tuple_along(h, ("a", "b")) == ("b",)

    def test_diagonal(self):
        h = SignatureMorphism.of(S2, S1, {"0": "0", "1": "0"})
        assert tuple_along(h, ("a",)) == ("a", "a")

    def test_functorial(self):
        rng = random.Random(23)
        for _ in range(200):
            td = rand_type_domain(rng)
            sig = rand_signature(rng, td)
            h = rand_sig_morphism(rng, sig)        # h: h.source -> sig
            h2 = rand_sig_morphism(rng, h.source)  # h2: h2.source -> h.source
            comp = h2.then(h)
            for t in enumerate_tuples(sig, td):
                assert tuple_along(comp, t) == \
                    tuple_along(h2, tuple_along(h, t))
                assert tuple_along(SignatureMorphism.identity(sig), t) == t


class TestTypeDomainMorphism:
    def test_identity_accepts(self):
        m = TypeDomainMorphism.identity(AB)
        check_type_domain_morphism(m, AB, AB)

    def test_collapse_accepts(self):
        a2 = TypeDomain(("S2",), {"S2": ("a",)})
        a1 = TypeDomain(("S1",), {"S1": ("1", "2")})
        m = TypeDomainMorphism.of({"S2": "S1"}, {"1": "a", "2": "a"})
        check_type_domain_morphism(m, a2, a1)

    def test_unclassified_image_violation(self):
        a2 = TypeDomain(("S2",), {"S2": ("a",)})
        a1 = TypeDomain(("S1",), {"S1": ("1", "2")})
        m = TypeDomainMorphism.of({"S2": "S1"}, {"1": "a", "2": "b"})
        with pytest.raises(InfomorphismViolation):
            check_type_domain_morphism(m, a2, a1)

    def test_maps_built_once(self):
        m = TypeDomainMorphism.of({"S2": "S1"}, {"1": "a", "2": "a"})
        assert m.f is m.f and m.g is m.g
        assert (m.f, m.g) == ({"S2": "S1"}, {"1": "a", "2": "a"})

    def test_partial_sort_map_rejected(self):
        a2 = TypeDomain(("S2",), {"S2": ("a",)})
        a1 = TypeDomain(("S1",), {"S1": ()})
        m = TypeDomainMorphism.of({}, {})
        with pytest.raises(InfomorphismViolation):
            check_type_domain_morphism(m, a2, a1)

    def test_random_valid_infomorphisms(self):
        rng = random.Random(37)
        for _ in range(100):
            m, a2, a1 = rand_infomorphism(rng)
            check_type_domain_morphism(m, a2, a1)

    def test_g_postcomposition_lands_in_a2(self):
        # accepted infomorphisms push pushed-signature tuples into a2
        rng = random.Random(41)
        for _ in range(100):
            m, a2, a1 = rand_infomorphism(rng)
            sig2 = rand_signature(rng, a2, max_len=2)
            pushed = Signature(sig2.attrs,
                               tuple(m.f[s] for s in sig2.sorts))
            for t1 in enumerate_tuples(pushed, a1):
                t2 = m.map_row(t1)
                assert all(v in a2.extent(s)
                           for v, s in zip(t2, sig2.sorts))


def outcome(check, *args):
    """``(error class, message)`` of ``check(*args)``, or ``None`` if it passes."""
    try:
        check(*args)
    except FoleError as exc:
        return type(exc), str(exc)
    return None


class TestInfomorphismAgainstPairLoop:
    """The type-domain infomorphism condition decided over extent sets, the
    values of ``a1`` listed once, against the pair loop it replaced
    (``type_domain_condition_by_pairs``)."""

    def test_same_verdict_as_the_pair_loop(self):
        """100 cases of each kind, 500 in all: unchanged, or with one fault,
        each gets the pair loop's outcome, error class and message."""
        rng = random.Random(139)
        for kind in (None,) + INFOMORPHISM_FAULTS:
            done = 0
            while done < 100:
                m, a2, a1 = rand_infomorphism(rng)
                if kind:
                    m = break_infomorphism(rng, m, a2, a1, [kind])
                    if m is None:
                        continue
                expected = outcome(type_domain_condition_by_pairs, m, a2, a1)
                assert (expected is None) == (kind is None), (kind, done)
                assert outcome(check_type_domain_morphism, m, a2, a1) == expected, (kind, done)
                done += 1

    def test_several_faults_are_named_as_the_pair_loop_names_them(self):
        """200 cases with two or three faults: both reject each, naming the
        same fault (totality by sort then value, then the first pair by sort
        then value)."""
        rng, done = random.Random(149), 0
        while done < 200:
            m, a2, a1 = rand_infomorphism(rng)
            kinds = rng.choices(INFOMORPHISM_FAULTS, k=rng.randint(2, 3))
            broken = break_infomorphism(rng, m, a2, a1, kinds)
            if broken is None:
                continue
            expected = outcome(type_domain_condition_by_pairs, broken, a2, a1)
            assert expected is not None, kinds
            assert outcome(check_type_domain_morphism, broken, a2, a1) == expected, kinds
            done += 1


# (call, error class, message): each guard rejects a misuse with its own error
GUARDS = [
    (lambda: Signature(("0", "1"), ("S",)), ValueError,
     "attrs and sorts must have equal length"),
    (lambda: TypeDomain(("S",), {"S": ("a",), "T": ("b",)}), UnknownSort,
     "unknown sort 'T'"),
    (lambda: SignatureMorphism.of(S1, S2, {"0": "0"}).then(
        SignatureMorphism.of(S1, S2, {"0": "1"})), ValueError,
     "morphisms are not composable"),
    (lambda: check_signature_morphism(SignatureMorphism(S2, S2, (("0", "0"),))),
     SortMismatch, "sort mismatch at index '1': expected '<mapped>', found '<missing>'"),
]


@pytest.mark.parametrize("call, error, message", GUARDS,
                         ids=["signature-lengths", "extent-sort", "then", "unmapped-attr"])
def test_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_all_names_no_module():
    """``from fole import *`` binds the public classes and functions, not the
    submodules they come from."""
    names = set(fole.__all__)
    assert len(names) == len(fole.__all__) == 83
    assert names == {n for n in dir(fole) if not n.startswith("_")
                     and not isinstance(getattr(fole, n), type(fole))}
    scope = {}
    exec("from fole import *", scope)
    assert not [n for n, v in scope.items() if isinstance(v, type(fole))]
