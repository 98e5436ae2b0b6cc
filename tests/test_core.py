"""Frozen examples and laws for signatures, type domains, and their morphisms."""

import random

import pytest

from fole import (
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_signature_morphism,
    check_type_domain_morphism,
    classify,
    enumerate_tuples,
    tuple_along,
)
from fole.errors import InfomorphismViolation, SortMismatch, UnknownSort

from generators import rand_infomorphism, rand_sig_morphism, rand_signature, \
    rand_type_domain


S2 = Signature.of([("0", "S"), ("1", "S")])
S1 = Signature.of([("0", "S")])
T1 = Signature.of([("0", "T")])
AB = TypeDomain(("S",), {"S": ("a", "b")})


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


class TestSignature:
    def test_order_sensitive_equality(self):
        assert Signature.of([("0", "S"), ("1", "T")]) != \
            Signature.of([("1", "T"), ("0", "S")])

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(ValueError):
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
