"""Tables, relations, fiber operations, quantifier flow, type-domain flow."""

import operator
import random
import re
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from fole import (
    LaxStructure,
    Relation,
    Schema,
    Signature,
    SignatureMorphism,
    Table,
    TableMorphism,
    TypeDomain,
    TypeDomainMorphism,
    check_table_morphism,
    check_type_domain_morphism,
    enumerate_tuples,
    fiber_boolean,
    fiber_flow,
    interpret_by_oracle,
    interpret_relation,
    key_equivalent,
    parse_formula,
    relation_include,
    table_flow_type_domain,
    table_image,
    table_sigma,
    table_substitution,
    tuple_along,
)
from fole.errors import NaturalityViolation, SignatureMismatch, UnknownSort

from generators import (
    rand_infomorphism,
    rand_relation,
    rand_sig_morphism,
    rand_signature,
    rand_table,
    rand_type_domain,
)

S2 = Signature.of([("0", "S"), ("1", "S")])
S1 = Signature.of([("0", "S")])
AB = TypeDomain(("S",), {"S": ("a", "b")})
H = SignatureMorphism.of(S1, S2, {"0": "0"})  # project first column


class TestReflection:
    def test_image_collapses_duplicates(self):
        t = Table(S2, {"k1": ("a", "b"), "k2": ("a", "b")})
        assert table_image(t) == Relation.of(S2, [("a", "b")])

    def test_include_keys_by_tuples(self):
        r = Relation.of(S2, [("a", "b")])
        t = relation_include(r)
        assert t.rows == {("a", "b"): ("a", "b")}

    def test_image_include_identity(self):
        rng = random.Random(3)
        for _ in range(100):
            td = rand_type_domain(rng)
            r = rand_relation(rng, rand_signature(rng, td), td)
            assert table_image(relation_include(r)) == r

    def test_include_image_key_equivalent_iff_injective(self):
        rng = random.Random(5)
        for _ in range(100):
            td = rand_type_domain(rng)
            t = rand_table(rng, rand_signature(rng, td), td)
            injective = len(set(t.rows.values())) == len(t.rows)
            assert key_equivalent(relation_include(table_image(t)), t) \
                == injective

    def test_readme_python_example(self, capsys):
        """README's Python API example runs as written, through
        ``Relation.sorted_tuples``, and prints the complement of ``Emp``."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example = readme.read_text(encoding="utf-8").split("```python\n")[1]
        exec(example.split("```")[0], {})
        assert capsys.readouterr().out == "[('ann', 'it'), ('bob', 'it')]\n"


class TestTableValidate:
    def test_well_sorted_rows_pass(self):
        Table(S2, {"k1": ("a", "b"), "k2": ("b", "b")}).validate(AB)

    @pytest.mark.parametrize("rows, bad", [
        ({"ok": ("a", "b"), "out": ("a", "c"), "later": ("c", "c")}, "out"),
        ({"ok": ("a", "a"), "short": ("a",)}, "short"),
        ({"list": ("a", ["b"])}, "list"),
    ])
    def test_first_ill_sorted_row_named(self, rows, bad):
        with pytest.raises(SignatureMismatch, match=f"row '{bad}'"):
            Table(S2, rows).validate(AB)

    def test_sort_outside_the_domain(self):
        sig = Signature.of([("0", "S"), ("1", "Z")])
        with pytest.raises(UnknownSort):
            Table(sig, {}).validate(AB)
        with pytest.raises(UnknownSort):
            Table(sig, {"k1": ("c", "z"), "k2": ("a", "z")}).validate(AB)
        with pytest.raises(UnknownSort):
            Table(sig, {"k1": ("a", "z")}).validate(AB)


def validate_by_rows(table: Table, td: TypeDomain) -> None:
    """The oracle: ``Table.validate`` as a row loop alone."""
    sig = table.signature
    members = [frozenset(td.extent(s)) for s in sig.sorts]
    for k, t in table.rows.items():
        try:
            ok = len(t) == len(members) and all(
                map(frozenset.__contains__, members, t))
        except TypeError:
            ok = False
        if not ok:
            raise SignatureMismatch(
                f"row {k!r} = {t!r} is not well-sorted over {sig}")


def check_by_rows(m: TableMorphism, src: Table, tgt: Table) -> None:
    """The oracle: ``check_table_morphism`` as a loop over target keys, then
    one over the key map's keys."""
    h = m.sig_morphism
    for k in tgt.rows:
        if k not in m.key_map:
            raise NaturalityViolation(k, "key not mapped")
        k_src = m.key_map[k]
        if k_src not in src.rows:
            raise NaturalityViolation(k, f"mapped key {k_src!r} missing in source")
        if src.rows[k_src] != tuple_along(h, tgt.rows[k]):
            raise NaturalityViolation(k)
    for k in m.key_map:
        if k not in tgt.rows:
            raise NaturalityViolation(k, "not a key of the target table")


def outcome(fn, *args):
    """None if ``fn(*args)`` returns, else its exception's class and text."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the verdict
        return type(exc), str(exc)
    return None


# Z lies outside the oracle domain; "zz" and ["a"] lie in no extent
ORACLE_TD = TypeDomain(("S", "T"), {"S": ("a", "b", "c"), "T": ("b", "d")})
STRAY = ["a", "b", "d", "zz", ["a"]]
SIZES = st.sampled_from([0, 1, 2, 7, 40, 600])


def planted(draw, rng: random.Random, rows: dict, kinds) -> None:
    """Plant up to three defects of ``kinds`` at rows hypothesis draws."""
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if not rows:
            return
        k = sorted(rows)[draw(st.integers(0, len(rows) - 1))]
        row = list(rows[k])
        if kind == "short":
            row = row[:-1]
        elif kind == "long":
            row.append("a")
        elif row:
            row[rng.randrange(len(row))] = rng.choice(STRAY)
        rows[k] = tuple(row)


@st.composite
def oracle_tables(draw) -> Table:
    """A table over up to three sorts (zero-arity and unknown sorts too),
    well-sorted but for planted bad values, unhashable values and rows of
    the wrong length."""
    sorts = draw(st.lists(st.sampled_from(["S", "T", "Z"]), max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    rows = {f"k{i}": tuple(rng.choice(ORACLE_TD.extents.get(s, ("z",)))
                           for s in sorts) for i in range(draw(SIZES))}
    planted(draw, rng, rows, ["value", "short", "long"])
    return Table(Signature(tuple(map(str, range(len(sorts)))), tuple(sorts)),
                 rows)


@st.composite
def oracle_morphisms(draw):
    """A table morphism with its source and target tables: a projection
    that may merge or drop attributes, a key map that may send several
    keys to one, and planted faults in the key map (a junk entry too) and
    the tables."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    tgt_sig = Signature.of((str(i), "S") for i in range(draw(st.integers(0, 3))))
    n_src = draw(st.integers(0, 3)) if len(tgt_sig) else 0
    src_sig = Signature.of((f"s{i}", "S") for i in range(n_src))
    h = SignatureMorphism.of(src_sig, tgt_sig, {
        a: rng.choice(tgt_sig.attrs) for a in src_sig.attrs})
    tgt = {f"t{i}": tuple(rng.choice("abc") for _ in tgt_sig.attrs)
           for i in range(draw(SIZES))}
    # keyed by the projection, so equal projections share one source key
    key_map = {k: "s" + "".join(h.project(t)) for k, t in tgt.items()}
    src = {key_map[k]: h.project(t) for k, t in tgt.items()}
    planted(draw, rng, tgt, ["value", "short"])
    planted(draw, rng, src, ["value"])
    for fault in draw(st.lists(st.sampled_from(
            ["unmapped", "missing", "unhashable", "junk"]), max_size=2)):
        if fault == "junk":  # an entry for a key the target table lacks
            key_map["junk"] = next(iter(src), "nowhere")
        elif key_map:
            k = sorted(key_map)[draw(st.integers(0, len(key_map) - 1))]
            if fault == "unmapped":
                del key_map[k]
            else:
                key_map[k] = "nowhere" if fault == "missing" else ["s"]
    return (TableMorphism(h, key_map), Table(src_sig, src),
            Table(tgt_sig, tgt))


class TestFastPathsAgainstRowLoops:
    """The column-wise ``Table.validate`` and the bulk
    ``check_table_morphism`` give the row loops' verdict: the same
    exception class and message, or none."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(oracle_tables())
    def test_validate(self, table):
        assert outcome(table.validate, ORACLE_TD) == \
            outcome(validate_by_rows, table, ORACLE_TD)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(oracle_morphisms())
    def test_check_table_morphism(self, case):
        assert outcome(check_table_morphism, *case) == \
            outcome(check_by_rows, *case)

    @pytest.mark.parametrize("wanted", [
        "pass", "pass 500", "SignatureMismatch", "SignatureMismatch 500",
        "SignatureMismatch unhashable", "UnknownSort", "UnknownSort 500"])
    def test_tables_reach(self, wanted):
        verdict, _, extra = wanted.partition(" ")

        def reached(table):
            found = outcome(validate_by_rows, table, ORACLE_TD)
            if (found[0].__name__ if found else "pass") != verdict:
                return False
            if extra == "unhashable":
                return any(isinstance(v, list)
                           for t in table.rows.values() for v in t)
            return not extra or len(table.rows) >= int(extra)
        find(oracle_tables(), reached, settings=REACH)

    @pytest.mark.parametrize("wanted", [
        "pass", "key not mapped", "missing in source", "naturality fails at",
        "IndexError", "TypeError", "not a key of the target table",
        "pass 500", "naturality fails at 500"])
    def test_morphisms_reach(self, wanted):
        verdict, _, size = wanted.partition(" 500")

        def reached(case):
            found = outcome(check_by_rows, *case)
            text = "pass" if found is None else \
                found[0].__name__ + ": " + found[1]
            return verdict in text and (not size or len(case[2].rows) >= 500)
        find(oracle_morphisms(), reached, settings=REACH)


# hypothesis.find settings for the reach tests: deterministic, no database,
# the first example found is enough
REACH = settings(max_examples=2000, deadline=None, derandomize=True,
                 database=None, phases=[Phase.generate])


class TestFiberBoolean:
    def test_meet(self):
        lhs = Relation.of(S2, [("a", "a"), ("a", "b")])
        rhs = Relation.of(S2, [("a", "b"), ("b", "b")])
        assert fiber_boolean("meet", S2, AB, lhs, rhs) == \
            Relation.of(S2, [("a", "b")])

    def test_top_enumerates_fiber(self):
        top = fiber_boolean("top", S2, AB)
        assert top.tuples == frozenset(enumerate_tuples(S2, AB))
        assert len(top) == 4

    def test_negation_of_extremes(self):
        bot = fiber_boolean("bottom", S2, AB)
        top = fiber_boolean("top", S2, AB)
        assert fiber_boolean("negation", S2, AB, bot) == top
        assert fiber_boolean("negation", S2, AB, top) == bot

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            fiber_boolean("meet", S2, AB, Relation.of(S1, []),
                          Relation.of(S2, []))

    @pytest.mark.parametrize("op, operands, error, message", [
        ("xor", [], ValueError, "unknown fiber operation 'xor'"),
        ("meet", [S2], ValueError, "meet expects 2 operand(s), got 1"),
        ("top", [S2], ValueError, "top expects 0 operand(s), got 1"),
        ("negation", [S1], SignatureMismatch,
         "operand over (0:S), expected (0:S,1:S)"),
    ])
    def test_rejected_call_messages(self, op, operands, error, message):
        with pytest.raises(error) as exc:
            fiber_boolean(op, S2, AB, *[Relation.of(s, []) for s in operands])
        assert str(exc.value) == message

    def test_boolean_algebra_laws(self):
        rng = random.Random(7)
        for _ in range(60):
            td = rand_type_domain(rng)
            sig = rand_signature(rng, td, max_len=2)
            a = rand_relation(rng, sig, td)
            b = rand_relation(rng, sig, td)
            c = rand_relation(rng, sig, td)
            op = lambda name, x=None, y=None: fiber_boolean(name, sig, td, x, y)
            assert op("meet", a, op("join", b, c)) == \
                op("join", op("meet", a, b), op("meet", a, c))
            assert op("meet", op("meet", a, b), c) == \
                op("meet", a, op("meet", b, c))
            assert op("negation", op("meet", a, b)) == \
                op("join", op("negation", a), op("negation", b))
            assert op("negation", op("negation", a)) == a
            assert op("implication", a, b) == op("join", op("negation", a), b)
            assert op("difference", a, b) == op("meet", a, op("negation", b))


class TestFiberFlow:
    def test_exists_projects(self):
        r = Relation.of(S2, [("a", "b"), ("a", "a")])
        assert fiber_flow("exists", H, r, AB) == Relation.of(S1, [("a",)])

    def test_preimage_enumerates_fiber(self):
        r = Relation.of(S1, [("a",)])
        assert fiber_flow("preimage", H, r, AB) == \
            Relation.of(S2, [("a", "a"), ("a", "b")])

    def test_forall_requires_whole_fiber(self):
        r = Relation.of(S2, [("a", "b"), ("a", "a")])
        assert fiber_flow("forall", H, r, AB) == Relation.of(S1, [("a",)])

    def test_galois_adjunctions(self):
        rng = random.Random(13)
        for _ in range(150):
            td = rand_type_domain(rng)
            tgt = rand_signature(rng, td)
            h = rand_sig_morphism(rng, tgt)
            r = rand_relation(rng, tgt, td)        # over h.target
            rp = rand_relation(rng, h.source, td)  # over h.source
            assert (fiber_flow("exists", h, r, td).tuples <= rp.tuples) == \
                (r.tuples <= fiber_flow("preimage", h, rp, td).tuples)
            assert (fiber_flow("preimage", h, rp, td).tuples <= r.tuples) == \
                (rp.tuples <= fiber_flow("forall", h, r, td).tuples)


class TestTableFlow:
    def test_sigma_identity(self):
        t = Table(S2, {"k": ("a", "b")})
        assert table_sigma(SignatureMorphism.identity(S2), t).rows == t.rows

    def test_sigma_projects_keeping_keys(self):
        t = Table(S2, {"k1": ("a", "b"), "k2": ("b", "a")})
        out = table_sigma(H, t)
        assert out.rows == {"k1": ("a",), "k2": ("b",)}

    def test_sigma_commutes_with_image(self):
        rng = random.Random(17)
        for _ in range(100):
            td = rand_type_domain(rng)
            tgt = rand_signature(rng, td)
            h = rand_sig_morphism(rng, tgt)
            t = rand_table(rng, tgt, td)
            assert table_image(table_sigma(h, t)) == \
                fiber_flow("exists", h, table_image(t), td)

    def test_sigma_functorial_up_to_key_equivalence(self):
        rng = random.Random(19)
        for _ in range(100):
            td = rand_type_domain(rng)
            tgt = rand_signature(rng, td)
            h = rand_sig_morphism(rng, tgt)
            h2 = rand_sig_morphism(rng, h.source)
            t = rand_table(rng, tgt, td)
            assert key_equivalent(table_sigma(h2.then(h), t),
                                  table_sigma(h2, table_sigma(h, t)))

    def test_substitution_identity_key_equivalent(self):
        t = Table(S2, {"k": ("a", "b")})
        out = table_substitution(SignatureMorphism.identity(S2), t, AB)
        assert key_equivalent(out, t)
        assert list(out.rows) == [("k", ("a", "b"))]

    def test_substitution_pullback_keys(self):
        t = Table(S1, {"k": ("a",)})
        out = table_substitution(H, t, AB)
        assert out.rows == {("k", ("a", "a")): ("a", "a"),
                            ("k", ("a", "b")): ("a", "b")}

    def test_substitution_commutes_with_image(self):
        rng = random.Random(29)
        for _ in range(100):
            td = rand_type_domain(rng)
            tgt = rand_signature(rng, td)
            h = rand_sig_morphism(rng, tgt)
            t = rand_table(rng, h.source, td)
            assert table_image(table_substitution(h, t, td)) == \
                fiber_flow("preimage", h, table_image(t), td)


class TestCheckTableMorphism:
    def test_identity_accepts(self):
        t = Table(S2, {"k": ("a", "b")})
        check_table_morphism(TableMorphism.identity(t), t, t)

    def test_projection_accepts(self):
        tgt = Table(S2, {"k": ("a", "b")})
        src = Table(S1, {"j": ("a",)})
        check_table_morphism(TableMorphism(H, {"k": "j"}), src, tgt)

    def test_mismatched_tuple_rejected(self):
        tgt = Table(S2, {"k": ("a", "b")})
        src = Table(S1, {"j": ("b",)})
        with pytest.raises(NaturalityViolation):
            check_table_morphism(TableMorphism(H, {"k": "j"}), src, tgt)


class TestKeyEquivalent:
    def test_reflexive(self):
        t = Table(S2, {"k": ("a", "b")})
        assert key_equivalent(t, t)

    def test_renamed_keys(self):
        t1 = Table(S2, {"k1": ("a", "b"), "k2": ("a", "a")})
        t2 = Table(S2, {"x": ("a", "a"), "y": ("a", "b")})
        assert key_equivalent(t1, t2)

    def test_multiplicities_matter(self):
        dup = Table(S2, {"k1": ("a", "b"), "k2": ("a", "b")})
        assert not key_equivalent(dup, relation_include(table_image(dup)))


class TestTypeDomainFlow:
    def test_dextro_identity_key_equivalent(self):
        t = Table(S2, {"k": ("a", "b")})
        m = TypeDomainMorphism.identity(AB)
        out = table_flow_type_domain("dextro", m, t, AB, AB)
        assert key_equivalent(out, t)

    def test_dextro_pullback_hand_enumerated(self):
        # collapse two values to one: every a1 tuple mapping onto the stored
        # a2 tuple becomes a pullback key
        a2 = TypeDomain(("C",), {"C": ("c",)})
        a1 = TypeDomain(("S",), {"S": ("a", "b")})
        m = TypeDomainMorphism.of({"C": "S"}, {"a": "c", "b": "c"})
        t = Table(Signature.of([("0", "C"), ("1", "C")]), {"p": ("c", "c")})
        out = table_flow_type_domain("dextro", m, t, a2, a1)
        assert out.signature == S2
        assert out.rows == {
            ("p", ("a", "a")): ("a", "a"),
            ("p", ("a", "b")): ("a", "b"),
            ("p", ("b", "a")): ("b", "a"),
            ("p", ("b", "b")): ("b", "b"),
        }

    def test_levo_pulled_signature_and_pushed_values(self):
        a2 = TypeDomain(("C",), {"C": ("c",)})
        a1 = TypeDomain(("S",), {"S": ("a", "b")})
        m = TypeDomainMorphism.of({"C": "S"}, {"a": "c", "b": "c"})
        t = Table(S2, {"k": ("a", "b")})
        out = table_flow_type_domain("levo", m, t, a2, a1)
        assert out.signature == Signature.of([("0.C", "C"), ("1.C", "C")])
        assert out.rows == {"k": ("c", "c")}

    def test_levo_empty_pulled_signature(self):
        # no a2 sort maps onto S: the pulled signature is empty and every key
        # carries the empty tuple
        a2 = TypeDomain(("C",), {"C": ("c",)})
        a1 = TypeDomain(("S", "T"), {"S": ("a",), "T": ("u",)})
        # a must land outside ext(C) since a is not in ext(T) = ext(f(C))
        m = TypeDomainMorphism.of({"C": "T"}, {"a": "junk", "u": "c"})
        t = Table(Signature.of([("0", "S")]), {"k1": ("a",), "k2": ("a",)})
        out = table_flow_type_domain("levo", m, t, a2, a1)
        assert out.signature == Signature((), ())
        assert out.rows == {"k1": (), "k2": ()}

    def test_levo_rejects_table_outside_target_domain(self):
        # levo reads a table over a1; C is a sort of a2 only
        a2 = TypeDomain(("C",), {"C": ("c",)})
        a1 = TypeDomain(("S",), {"S": ("a", "b")})
        m = TypeDomainMorphism.of({"C": "S"}, {"a": "c", "b": "c"})
        t = Table(Signature.of([("0", "C")]), {"k": ("c",)})
        with pytest.raises(UnknownSort):
            table_flow_type_domain("levo", m, t, a2, a1)

    def test_dextro_against_brute_force_oracle(self):
        rng = random.Random(31)
        for _ in range(100):
            m, a2, a1 = rand_infomorphism(rng)
            sig2 = rand_signature(rng, a2, max_len=2)
            t = rand_table(rng, sig2, a2, max_keys=3)
            out = table_flow_type_domain("dextro", m, t, a2, a1)
            pushed, expected = oracle_dextro(m, t, a1)
            assert out.signature == pushed
            assert list(out.rows.items()) == list(expected.items())

    def test_levo_against_brute_force_oracle(self):
        rng = random.Random(43)
        for _ in range(100):
            m, a2, a1 = rand_infomorphism(rng)
            sig1 = rand_signature(rng, a1, max_len=2)
            t = rand_table(rng, sig1, a1, max_keys=3)
            out = table_flow_type_domain("levo", m, t, a2, a1)
            pairs = [(i, x2) for i, s1 in sig1.pairs()
                     for x2 in a2.sorts if m.f[x2] == s1]
            assert out.signature == Signature(
                tuple(f"{i}.{x2}" for i, x2 in pairs),
                tuple(x2 for _, x2 in pairs))
            for k, t1 in t.rows.items():
                assert out.rows[k] == tuple(
                    m.g[t1[sig1.position(i)]] for i, _ in pairs)
            assert out.keys() == t.keys()


# ------------------------------------------- differential tests, wide scale
#
# The oracles below restate each flow from its definition, by scanning whole
# fibers, and project with their own attribute lookup.  The domains are
# above desk scale: 3 sorts of 8 values and signatures of up to 4 attributes.

def wide_domain(rng, empty_sort=False):
    sorts = ("P", "Q", "R")
    extents = {x: tuple(f"{x.lower()}{j}" for j in range(8)) for x in sorts}
    if empty_sort:
        extents[rng.choice(sorts)] = ()
    return TypeDomain(sorts, extents)


def wide_signature(rng, td, length):
    return Signature(tuple(f"t{i}" for i in range(length)),
                     tuple(rng.choice(td.sorts) for _ in range(length)))


def wide_morphism(rng, target, diagonal=False):
    """A morphism into ``target``; with ``diagonal`` two source attributes
    land on one target attribute."""
    picks = [rng.randrange(len(target)) for _ in range(rng.randint(0, 3))] \
        if len(target) else []
    if diagonal and len(target):
        p = rng.randrange(len(target))
        picks[rng.randint(0, len(picks)):0] = [p, p]
    source = Signature(tuple(f"s{i}" for i in range(len(picks))),
                       tuple(target.sorts[p] for p in picks))
    return SignatureMorphism.of(
        source, target, {a: target.attrs[p] for a, p in zip(source.attrs, picks)})


def oracle_along(h, t):
    return tuple(t[h.target.attrs.index(b)] for _, b in h.mapping)


def oracle_preimage(h, rel, td):
    return {t for t in enumerate_tuples(h.target, td)
            if oracle_along(h, t) in rel.tuples}


def oracle_forall(h, rel, td):
    holds = {s: True for s in enumerate_tuples(h.source, td)}
    for t in enumerate_tuples(h.target, td):
        if t not in rel.tuples:
            holds[oracle_along(h, t)] = False
    return {s for s, ok in holds.items() if ok}


def oracle_substitution(h, table, td):
    rows = {}
    for k, t_src in table.rows.items():
        for t in enumerate_tuples(h.target, td):
            if oracle_along(h, t) == t_src:
                rows[(k, t)] = t
    return rows


def sparse_relation(rng, sig, td, density):
    fiber = enumerate_tuples(sig, td)
    return Relation.of(sig, (t for t in fiber if rng.random() < density))


def dense_relation(rng, h, td):
    """A relation over ``h.target`` holding whole fibers over some source
    tuples, and all but one tuple over others, so forall has work to do."""
    groups = {}
    for t in enumerate_tuples(h.target, td):
        groups.setdefault(oracle_along(h, t), []).append(t)
    tuples = []
    for group in groups.values():
        pick = rng.random()
        if pick < 0.4:
            tuples += group
        elif pick < 0.7:
            tuples += group[1:]
        elif pick < 0.85:
            tuples += [t for t in group if rng.random() < 0.5]
    return Relation.of(h.target, tuples)


def wide_cases(seed, count):
    """(td, h) pairs covering diagonal morphisms, empty extents, identities
    and length-0 sources."""
    rng = random.Random(seed)
    for i in range(count):
        td = wide_domain(rng, empty_sort=(i % 5 == 4))
        target = wide_signature(rng, td, rng.randint(0, 4))
        kind = i % 4
        if kind == 0:
            h = SignatureMorphism.identity(target)
        elif kind == 1:
            h = SignatureMorphism.of(Signature((), ()), target, {})
        else:
            h = wide_morphism(rng, target, diagonal=(kind == 3))
        yield rng, td, h


class TestWideDifferential:
    def test_cases_cover_the_edge_shapes(self):
        cases = list(wide_cases(101, 40))
        assert any(len(set(h.positions)) < len(h.positions) for _, _, h in cases)
        assert any(len(h.source) == 0 for _, _, h in cases)
        assert any(h == SignatureMorphism.identity(h.target) and len(h.target) == 4
                   for _, _, h in cases)
        assert any(not all(td.extents.values()) for _, td, _ in cases)
        assert max(len(h.target) for _, _, h in cases) == 4

    def test_projection_plan_matches_attribute_lookup(self):
        for rng, td, h in wide_cases(103, 40):
            for t in sparse_relation(rng, h.target, td, 0.05).tuples:
                assert tuple_along(h, t) == oracle_along(h, t)

    def test_forall_against_oracle(self):
        for rng, td, h in wide_cases(107, 40):
            for rel in (dense_relation(rng, h, td),
                        Relation.of(h.target, []),
                        sparse_relation(rng, h.target, td, 0.9)):
                out = fiber_flow("forall", h, rel, td)
                assert out.signature == h.source
                assert out.tuples == oracle_forall(h, rel, td)

    def test_preimage_against_oracle(self):
        for rng, td, h in wide_cases(109, 40):
            for rel in (sparse_relation(rng, h.source, td, 0.3),
                        Relation.of(h.source, [])):
                out = fiber_flow("preimage", h, rel, td)
                assert out.signature == h.target
                assert out.tuples == oracle_preimage(h, rel, td)

    def test_substitution_against_oracle_in_order(self):
        for rng, td, h in wide_cases(113, 40):
            table = rand_table(rng, h.source, td, max_keys=5)
            out = table_substitution(h, table, td)
            assert out.signature == h.target
            assert list(out.rows.items()) == \
                list(oracle_substitution(h, table, td).items())

    def test_substitution_of_ill_sorted_and_diagonal_rows(self):
        td = wide_domain(random.Random(0))
        target = Signature(("t0", "t1"), ("P", "Q"))
        h = SignatureMorphism.of(Signature(("s0", "s1"), ("P", "P")), target,
                                 {"s0": "t0", "s1": "t0"})
        table = Table(h.source, {"agree": ("p1", "p1"), "differ": ("p1", "p2"),
                                 "outside": ("x", "x"), "short": ("p1",)})
        out = table_substitution(h, table, td)
        assert list(out.rows) == [("agree", ("p1", q)) for q in td.extent("Q")]
        assert list(out.rows.items()) == \
            list(oracle_substitution(h, table, td).items())

    def test_substitution_of_repeated_rows_against_oracle_in_order(self):
        """240 keys over at most 8 distinct rows: well-sorted ones (which
        disagree where a diagonal h merges two attributes), one outside its
        extents and one short; keys that share a row share its fiber."""
        shapes = set()
        for rng, td, h in wide_cases(139, 40):
            if len(h.target) > 3:  # the oracle scans the target fiber per key
                continue
            pool = enumerate_tuples(h.source, td)
            distinct = rng.sample(pool, min(6, len(pool)))
            distinct += [("x",) * len(h.source), (distinct or [("x",)])[0][1:]]
            table = Table(h.source, {f"k{i}": rng.choice(distinct)
                                     for i in range(240)})
            out = table_substitution(h, table, td)
            assert list(out.rows.items()) == \
                list(oracle_substitution(h, table, td).items())
            assert_keys_share_fibers(table, out)
            shapes.add((len(set(h.positions)) < len(h.positions),
                        not all(td.extents.values()), bool(out.rows)))
        assert {(True, False, True), (False, True, True),
                (False, False, True)} <= shapes


def assert_keys_share_fibers(table, out):
    """Each key of ``out`` is ``(k, t)`` valued by ``t`` itself, and the keys
    ``k`` of ``table`` that hold one row list the very same tuple objects."""
    fibers = {}
    for (k, t), row in out.rows.items():
        assert row is t
        fibers.setdefault(k, []).append(t)
    first = {}  # row -> the tuples of the first key that holds it
    for k, row in table.rows.items():
        mine = fibers.get(k, [])
        theirs = first.setdefault(row, mine)
        assert len(mine) == len(theirs) and all(map(operator.is_, mine, theirs))


# The query workload's scale: 3 sorts of 12 values, fibers up to 1728 tuples;
# E has an empty extent.
QUERY_TD = TypeDomain(("A", "B", "C", "E"), {
    **{x: tuple(f"{x.lower()}{i}" for i in range(12)) for x in "ABC"}, "E": ()})


def query_morphisms():
    """(kind, h): forall counts alone where h is injective and no free
    extent is empty, and walks the source fiber otherwise."""
    sig = Signature.of
    abc = sig([("x", "A"), ("y", "B"), ("z", "C")])
    aab = sig([("x", "A"), ("y", "A"), ("z", "B")])
    ab = sig([("x", "A"), ("y", "B")])
    aa = sig([("x", "A"), ("y", "A")])
    ae = sig([("x", "A"), ("e", "E")])
    return [
        ("injective", SignatureMorphism.of(
            sig([("u", "C"), ("v", "A")]), abc, {"u": "z", "v": "x"})),
        ("injective-one", SignatureMorphism.of(sig([("u", "C")]), abc, {"u": "z"})),
        ("merging", SignatureMorphism.of(
            sig([("u", "A"), ("v", "B"), ("w", "A")]), aab,
            {"u": "x", "v": "z", "w": "x"})),
        ("merging-small", SignatureMorphism.of(
            sig([("u", "A"), ("v", "A")]), aa, {"u": "x", "v": "x"})),
        ("merging-all", SignatureMorphism.of(
            sig([("u", "A"), ("v", "A"), ("w", "A")]), aa,
            {"u": "y", "v": "y", "w": "y"})),
        ("identity", SignatureMorphism.identity(abc)),
        ("identity-small", SignatureMorphism.identity(ab)),
        ("empty-source", SignatureMorphism.of(Signature((), ()), abc, {})),
        ("empty-free", SignatureMorphism.of(sig([("u", "A")]), ae, {"u": "x"})),
        ("empty-free-merging", SignatureMorphism.of(
            sig([("u", "A"), ("v", "A")]), ae, {"u": "x", "v": "x"})),
    ]


class TestForallAtQueryScale:
    def test_against_oracle(self):
        rng = random.Random(137)
        for kind, h in query_morphisms():
            fiber = enumerate_tuples(h.target, QUERY_TD)
            rels = [Relation.of(h.target, []), Relation.of(h.target, fiber),
                    Relation.of(h.target, fiber[1:]),
                    dense_relation(rng, h, QUERY_TD),
                    sparse_relation(rng, h.target, QUERY_TD, 0.5),
                    sparse_relation(rng, h.target, QUERY_TD, 0.97)]
            held = 0
            for rel in rels:
                out = fiber_flow("forall", h, rel, QUERY_TD)
                assert out.signature == h.source
                assert out.tuples == oracle_forall(h, rel, QUERY_TD), kind
                held += len(out.tuples)
            assert held, kind  # each morphism's forall holds somewhere

    def test_interpretation_against_oracles(self):
        """``forall[h] ~(P /\\ Q)``, P and Q tables over ``h.target``.  The
        tuple oracle reads the whole target fiber for each source tuple, so
        the morphisms with large fibers at both ends are left to the test
        above."""
        rng = random.Random(139)
        for kind, h in query_morphisms():
            if len(enumerate_tuples(h.source, QUERY_TD)) * \
                    len(enumerate_tuples(h.target, QUERY_TD)) > 30000:
                continue
            schema = Schema(QUERY_TD.sorts, {"P": h.target, "Q": h.target})
            phi = parse_formula("forall[h] ~(P /\\ Q)", schema, {"h": h})
            fiber = enumerate_tuples(h.target, QUERY_TD)
            for q_density in (0.0, 0.02, 0.2):
                tables = {
                    "P": Table(h.target, {f"p{i}": t for i, t in enumerate(fiber)
                                          if rng.random() < 0.8}),
                    "Q": Table(h.target, {f"q{i}": t for i, t in enumerate(fiber)
                                          if rng.random() < q_density})}
                m = LaxStructure(schema, QUERY_TD, tables)
                body = interpret_relation(m, phi.body)
                out = interpret_relation(m, phi)
                assert out.tuples == oracle_forall(h, body, QUERY_TD), kind
                assert out == interpret_by_oracle(m, phi), kind

    def test_interpretation_covers_every_kind(self):
        kinds = [kind for kind, h in query_morphisms()
                 if len(enumerate_tuples(h.source, QUERY_TD)) *
                 len(enumerate_tuples(h.target, QUERY_TD)) <= 30000]
        assert {k.split("-")[0] for k in kinds} == {
            "injective", "merging", "identity", "empty"}
        assert "empty-source" in kinds and "empty-free" in kinds


def oracle_dextro(m, t, a1):
    """The pushed signature, and the pullback rows: for each key of ``t``, in
    order, each tuple of the pushed fiber that ``m.g`` sends onto its row."""
    pushed = Signature(t.signature.attrs, tuple(m.f[s] for s in t.signature.sorts))
    expected = {}
    for k2, t2 in t.rows.items():
        for t1 in enumerate_tuples(pushed, a1):
            if tuple(m.g[v] for v in t1) == t2:
                expected[(k2, t1)] = t1
    return pushed, expected


def wide_infomorphism(rng):
    """(m, a2, a1): a1 has 3 disjoint sorts of 8 values (one sometimes
    empty); g sends each a1 sort onto blocks of a2 values, and each a2 sort
    also holds values outside g's image."""
    a1 = wide_domain(rng, empty_sort=rng.random() < 0.25)
    f, extents2, g = {}, {}, {}
    for x1 in a1.sorts:
        blocks = [f"{x1}B{j}" for j in range(rng.randint(1, 4))]
        for y1 in a1.extent(x1):
            g[y1] = rng.choice(blocks)
        for n in range(rng.randint(1, 2)):
            x2 = f"{x1}{n}"
            f[x2] = x1
            extents2[x2] = tuple(blocks) + tuple(
                f"{x2}z{j}" for j in range(rng.randint(0, 2)))
    a2 = TypeDomain(tuple(f), extents2)
    m = TypeDomainMorphism.of(f, g)
    check_type_domain_morphism(m, a2, a1)
    return m, a2, a1


class TestWideDextro:
    def test_dextro_against_oracle_in_order(self):
        rng = random.Random(127)
        for _ in range(40):
            m, a2, a1 = wide_infomorphism(rng)
            sig2 = wide_signature(rng, a2, rng.randint(0, 4))
            rows = {f"k{i}": tuple(rng.choice(a2.extent(x) or ("none",))
                                   for x in sig2.sorts)
                    for i in range(rng.randint(0, 5))}
            t = Table(sig2, rows)
            out = table_flow_type_domain("dextro", m, t, a2, a1)
            pushed, expected = oracle_dextro(m, t, a1)
            assert out.signature == pushed
            assert list(out.rows.items()) == list(expected.items())

    def test_dextro_of_repeated_rows_against_oracle_in_order(self):
        """240 keys over at most 8 distinct rows, some empty (no attributes)
        or unmapped (a value outside g's image, so no tuple lies over it),
        over some a1 with an empty extent; keys that share a row share its
        fiber, and a short row among them is still refused."""
        rng = random.Random(151)
        shapes = set()
        for _ in range(16):
            m, a2, a1 = wide_infomorphism(rng)
            sig2 = wide_signature(rng, a2, rng.randint(0, 3))
            image = set(m.g.values())
            distinct = [tuple(rng.choice(a2.extent(x)) for x in sig2.sorts)
                        for _ in range(6)]
            distinct.append(tuple(([y for y in a2.extent(x) if y not in image]
                                   or a2.extent(x))[0] for x in sig2.sorts))
            t = Table(sig2, {f"k{i}": rng.choice(distinct) for i in range(240)})
            out = table_flow_type_domain("dextro", m, t, a2, a1)
            pushed, expected = oracle_dextro(m, t, a1)
            assert out.signature == pushed
            assert list(out.rows.items()) == list(expected.items())
            assert_keys_share_fibers(t, out)
            shapes.add((len(sig2) == 0, not all(a1.extents.values()),
                        any(set(row) - image for row in distinct), bool(out.rows)))
            if len(sig2):
                t.rows["k120"] = distinct[0][1:]
                with pytest.raises(SignatureMismatch, match="row 'k120'"):
                    table_flow_type_domain("dextro", m, t, a2, a1)
        assert {(True, False, False, True), (False, True, True, True),
                (False, False, True, True)} <= shapes

    def test_dextro_of_empty_short_and_unmapped_rows(self):
        m, a2, a1 = wide_infomorphism(random.Random(131))
        x2 = a2.sorts[0]
        sig2 = Signature(("0", "1"), (x2, x2))
        out = table_flow_type_domain("dextro", m, Table(sig2, {}), a2, a1)
        assert out.rows == {}
        block = a2.extent(x2)[0]
        pre = [y1 for y1 in a1.extent(m.f[x2]) if m.g[y1] == block]
        for bad in ({"short": (block,)}, {"unmapped": (block, "nowhere")}):
            (k, row), = bad.items()
            t = Table(sig2, dict(bad, good=(block, block)))
            with pytest.raises(SignatureMismatch, match=f"row '{k}' = "
                               f"{re.escape(repr(row))} is not well-sorted"):
                table_flow_type_domain("dextro", m, t, a2, a1)
        t = Table(sig2, {"good": (block, block)})
        out = table_flow_type_domain("dextro", m, t, a2, a1)
        assert list(out.rows) == [("good", (y, z)) for y in pre for z in pre]
