"""Sound logics, databases, conversion passages, and the reflection laws."""

import copy
import functools
import io
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fole import (
    AbstractSpec,
    Database,
    DatabaseMorphism,
    GeneratingConstraint,
    LaxStructure,
    LaxStructureMorphism,
    Schema,
    Signature,
    SignatureMorphism,
    SoundLogic,
    SoundLogicMorphism,
    SpecMorphism,
    Table,
    TableMorphism,
    TypeDomain,
    TypeDomainMorphism,
    abstract_table_passage,
    db_image,
    db_mor_to_snd_mor,
    db_project,
    db_to_snd,
    key_equivalent,
    relation_include,
    snd_mor_to_db_mor,
    snd_to_db,
    table_image,
    tuple_along,
    validate_database,
    validate_db_morphism,
    validate_lax_morphism,
)
from fole.errors import (
    FunctorialityViolation,
    InternalSatisfactionFailure,
    NaturalityViolation,
    SignatureMismatch,
    UnknownPredicate,
    UnresolvedReference,
)
from fole import specs, tables
from fole.cli import cmd_check, main
from fole.errors import FoleError
from fole.specs import satisfies_spec
from fole.workspace import load_workspace, load_workspace_data
from generators import KEY_FAULTS, break_key_condition, key_condition_by_keys, \
    rand_database, rand_logic_morphism_setup, rand_satisfied_pair, \
    rand_type_domain, unit_composite_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "workspace.json")

SIG1 = Signature.of([("dept", "D")])
SIG2 = Signature.of([("name", "S"), ("dept", "D")])
SCHEMA = Schema(sorts=("S", "D"), predicates={"Emp": SIG2, "Dept": SIG1})
TD = TypeDomain(("S", "D"), {"S": ("ann", "bob"), "D": ("hr", "it")})
H = SignatureMorphism.of(SIG1, SIG2, {"dept": "dept"})
FK = AbstractSpec(SCHEMA, {
    "empDept": GeneratingConstraint("empDept", "Dept", "Emp", H),
})


def fixture_database() -> Database:
    tables = {
        "Emp": Table(SIG2, {"k1": ("ann", "hr"), "k2": ("bob", "hr")}),
        "Dept": Table(SIG1, {"d1": ("hr",), "d2": ("it",)}),
    }
    return Database(FK, TD, tables, {
        "empDept": TableMorphism(H, {"k1": "d1", "k2": "d1"}),
    })


def fixture_logic() -> SoundLogic:
    return SoundLogic(
        LaxStructure(SCHEMA, TD, {
            "Emp": Table(SIG2, {"k1": ("ann", "hr"), "k2": ("bob", "hr")}),
            "Dept": Table(SIG1, {"d1": ("hr",), "d2": ("it",)}),
        }),
        FK,
    )


class TestSoundLogic:
    def test_construction_revalidates(self):
        fixture_logic()  # must not raise

    def test_unsatisfied_rejected(self):
        with pytest.raises(InternalSatisfactionFailure):
            SoundLogic(
                LaxStructure(SCHEMA, TD, {
                    "Emp": Table(SIG2, {"k1": ("ann", "hr")}),
                    "Dept": Table(SIG1, {"d2": ("it",)}),
                }),
                FK,
            )

    def test_structure_over_another_schema_rejected(self):
        other = Schema(sorts=SCHEMA.sorts, predicates={**SCHEMA.predicates,
                                                       "Extra": SIG1})
        m = fixture_logic().structure
        tables = {**m.table_of, "Extra": m.table_of["Dept"]}
        with pytest.raises(SignatureMismatch) as exc:
            SoundLogic(LaxStructure(other, TD, tables), FK)
        assert str(exc.value) == "structure and spec are over different schemas"


class TestValidateDatabase:
    def test_fixture_accepts(self):
        validate_database(fixture_database())

    def test_discrete_accepts(self):
        spec = AbstractSpec(SCHEMA, {})
        db = Database(spec, TD, {
            "Emp": Table(SIG2, {}), "Dept": Table(SIG1, {"d1": ("hr",)})
        }, {})
        validate_database(db)

    def test_construction_rejects_broken_key_map(self):
        tables = fixture_database().table_of
        with pytest.raises(NaturalityViolation):
            Database(FK, TD, tables, {
                "empDept": TableMorphism(H, {"k1": "d2", "k2": "d1"}),
            })

    def test_broken_key_map_rejected(self):
        db = fixture_database()
        db.constraint_morphism["empDept"] = TableMorphism(
            H, {"k1": "d2", "k2": "d1"})  # d2 holds (it,) != (hr,)
        with pytest.raises(NaturalityViolation):
            validate_database(db)

    def test_table_for_no_predicate_rejected(self):
        """Both constructors reject a table of no predicate, as the loader
        does."""
        db = fixture_database()
        tables = {**db.table_of, "Junk": db.table_of["Dept"]}
        with pytest.raises(UnknownPredicate) as exc:
            LaxStructure(SCHEMA, TD, tables).validate()
        assert str(exc.value) == "unknown predicate 'Junk'"
        with pytest.raises(UnknownPredicate) as exc:
            Database(db.schema, db.type_domain, tables, db.constraint_morphism)
        assert str(exc.value) == "unknown predicate 'Junk'"
        raw = json.load(open(FIXTURE))
        raw["databases"]["DB"]["tables"]["Junk"] = raw["databases"]["DB"]["tables"]["Dept"]
        assert load_workspace_data(raw).diagnostics[0].error == \
            "UnknownPredicate: unknown predicate 'Junk'"

    def test_key_map_for_no_constraint_rejected(self):
        """The constructor rejects a key map for a constraint the spec lacks,
        as the loader does."""
        db = fixture_database()
        arrows = {**db.constraint_morphism,
                  "junk": db.constraint_morphism["empDept"]}
        with pytest.raises(UnresolvedReference) as exc:
            Database(db.schema, db.type_domain, db.table_of, arrows)
        assert str(exc.value) == "unresolved constraint reference 'junk'"
        raw = json.load(open(FIXTURE))
        raw["databases"]["DB"]["constraintKeyMaps"]["junk"] = {"k1": "d1"}
        assert load_workspace_data(raw).diagnostics[0] == (
            "databases", "DB",
            "UnresolvedReference: unresolved constraint reference 'junk'")

    def test_missing_constraint_morphism_rejected(self):
        db = fixture_database()
        db.constraint_morphism = {}
        with pytest.raises(FunctorialityViolation):
            validate_database(db)

    def test_random_databases_valid(self):
        rng = random.Random(89)
        for _ in range(60):
            td = rand_type_domain(rng)
            validate_database(rand_database(rng, td))


def integrity_workspace(rows=40):
    """The benchmark's integrity workspace: database DB declares the
    composite c21 & c10 = c20 over P2 <- P1 <- P0."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from workloads import integrity_workspace as generate
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    return generate(random.Random(5), rows)[0]


JUNK = ("NaturalityViolation: naturality fails at key 'zzz': "
        "not a key of the target table")


class TestDatabaseComposites:
    def test_clean_database_loads(self):
        ws = load_workspace_data(integrity_workspace())
        assert ws.diagnostics == []
        validate_database(ws.databases["DB"])

    def test_composite_disagreement_is_reported(self):
        """A composite can disagree with its declared constraint only at a
        key the target table lacks: the key-map check of the first
        constraint whose map holds it names it."""
        raw = integrity_workspace()
        key_maps = raw["databases"]["DB"]["constraintKeyMaps"]
        rows = raw["databases"]["DB"]["tables"]["P2"]["rows"]
        # "zzz" is no P0 key: through c10 and c21 it reaches one P2 tuple,
        # through c20 another
        p1_key = next(iter(key_maps["c21"]))
        reached = rows[key_maps["c21"][p1_key]]
        key_maps["c10"]["zzz"] = p1_key
        key_maps["c20"]["zzz"] = next(k for k, t in rows.items() if t != reached)
        assert [d.error for d in load_workspace_data(raw).diagnostics] == [JUNK]

    def test_entry_only_the_declared_map_has_is_reported(self):
        """A key-map entry for a key the target table lacks, in the declared
        map of a composite only, is named by that map's check."""
        raw = integrity_workspace()
        raw["databases"]["DB"]["constraintKeyMaps"]["c20"]["zzz"] = next(
            iter(raw["databases"]["DB"]["tables"]["P2"]["rows"]))
        assert [d.error for d in load_workspace_data(raw).diagnostics] == [JUNK]

    @pytest.mark.parametrize("constraint", ["c10", "c21"])
    def test_junk_key_map_entry_is_reported(self, constraint):
        """An entry for a key the target table lacks, in a map on the
        composite's path: to a real source key (c10's P1), or to none."""
        raw = integrity_workspace()
        key_maps = raw["databases"]["DB"]["constraintKeyMaps"]
        key_maps[constraint]["zzz"] = \
            next(iter(key_maps["c21"])) if constraint == "c10" else "nope"
        assert [d.error for d in load_workspace_data(raw).diagnostics] == [JUNK]

    def test_wrong_signature_morphism_rejected(self):
        db = load_workspace_data(integrity_workspace()).databases["DB"]
        arrows = dict(db.constraint_morphism)
        arrows["c20"] = TableMorphism(arrows["c21"].sig_morphism,
                                      arrows["c20"].key_map)
        with pytest.raises(FunctorialityViolation) as exc:
            Database(db.schema, db.type_domain, db.table_of, arrows)
        assert str(exc.value) == \
            "functoriality fails at c20: signature morphism disagrees"


class TestProjection:
    def test_read_off(self):
        db = fixture_database()
        proj = db_project(db)
        assert proj.signature_of["Emp"] == SIG2
        assert proj.signature_arrow["empDept"] == H
        assert proj.keys_of["Dept"] == ["d1", "d2"]
        assert proj.key_arrow["empDept"] == {"k1": "d1", "k2": "d1"}
        assert proj.tuple_of["Emp"]["k1"] == ("ann", "hr")


class TestConversions:
    def test_snd_to_db_tuple_keyed(self):
        db = snd_to_db(fixture_logic())
        assert set(db.table_of["Emp"].rows) == {("ann", "hr"), ("bob", "hr")}
        assert db.constraint_morphism["empDept"].key_map == {
            ("ann", "hr"): ("hr",), ("bob", "hr"): ("hr",)}

    def test_db_to_snd_keeps_tables(self):
        db = fixture_database()
        logic = db_to_snd(db)
        assert logic.spec is db.schema
        assert logic.structure.table_of["Emp"].rows == db.table_of["Emp"].rows

    def test_db_image_collapses_duplicates(self):
        db = fixture_database()
        db.table_of["Emp"].rows["k3"] = ("ann", "hr")  # duplicate tuple
        db.constraint_morphism["empDept"].key_map["k3"] = "d1"
        img = db_image(db)
        assert len(img.table_of["Emp"].rows) == 2
        img2 = db_image(img)
        assert all(img2.table_of[r].rows == img.table_of[r].rows
                   for r in img.table_of)

    def test_reflection_law_db_side(self):
        rng = random.Random(97)
        for _ in range(60):
            td = rand_type_domain(rng)
            db = rand_database(rng, td)
            back = snd_to_db(db_to_snd(db))
            img = db_image(db)
            for r in db.table_of:
                assert key_equivalent(back.table_of[r], img.table_of[r])

    def test_round_trip_equals_image_exactly(self):
        rng = random.Random(109)
        for _ in range(60):
            td = rand_type_domain(rng)
            db = rand_database(rng, td)
            assert snd_to_db(db_to_snd(db)) == db_image(db)

    def test_reflection_law_logic_side(self):
        rng = random.Random(101)
        for _ in range(60):
            td = rand_type_domain(rng)
            m, spec = rand_satisfied_pair(rng, td)
            logic = SoundLogic(m, spec)
            back = db_to_snd(snd_to_db(logic))
            assert back.spec is logic.spec
            for r, t in logic.structure.table_of.items():
                assert key_equivalent(
                    back.structure.table_of[r],
                    relation_include(table_image(t)))


class TestMorphismConversions:
    def test_random_logic_morphisms_assemble(self):
        rng = random.Random(103)
        for _ in range(30):
            lm, l2, l1 = rand_logic_morphism_setup(rng)
            dm = snd_mor_to_db_mor(lm, l2, l1)
            validate_db_morphism(dm, snd_to_db(l2), snd_to_db(l1))

    def test_round_trip_identity_on_image_side(self):
        rng = random.Random(107)
        for _ in range(30):
            lm, l2, l1 = rand_logic_morphism_setup(rng)
            dm = snd_mor_to_db_mor(lm, l2, l1)
            db2, db1 = snd_to_db(l2), snd_to_db(l1)
            lm2 = db_mor_to_snd_mor(dm, db2, db1)
            dm2 = snd_mor_to_db_mor(lm2, db_to_snd(db2), db_to_snd(db1))
            assert dm2.spec_morphism is dm.spec_morphism
            assert dm2.td_morphism == dm.td_morphism
            assert dm2.key_bridge == dm.key_bridge
            lm3 = db_mor_to_snd_mor(dm2, db2, db1)
            assert lm3.spec_morphism is lm2.spec_morphism
            assert lm3.structure_morphism.predicate_map == \
                lm2.structure_morphism.predicate_map
            assert lm3.structure_morphism.key_bridge == \
                lm2.structure_morphism.key_bridge

    def test_key_condition_through_renaming_bridges(self):
        """Each bridge of the logic setups renames every attribute, so the key
        condition is checked through a bridge that is not an identity: a
        fault in a key bridge, or in the row it reaches, fails the assembly
        with the key loop's error and message, and none passes it."""
        def verdict(fn, *args):
            try:
                fn(*args)
            except FoleError as exc:
                return type(exc), str(exc)
            return None

        rng, renamed = random.Random(113), 0
        for i in range(150):
            lm, l2, l1 = rand_logic_morphism_setup(rng)
            strm = lm.structure_morphism
            renamed += any(b.source.attrs != b.target.attrs
                           for b in strm.schema_bridge.values())
            broke = break_key_condition(rng, strm, l2.structure,
                                        KEY_FAULTS[i % len(KEY_FAULTS)])
            expected = verdict(key_condition_by_keys, strm, l2.structure, l1.structure)
            assert (expected is not None) == broke, i
            assert verdict(snd_mor_to_db_mor, lm, l2, l1) == expected, i
        assert renamed >= 100

    def test_passages_send_identities_to_identities(self):
        """Both endpoint logics of 200 seeded logic morphisms: each passage
        sends the identity morphism on one side to the identity on the other."""
        for seed in range(200):
            for logic in rand_logic_morphism_setup(random.Random(seed))[1:]:
                db, td = snd_to_db(logic), logic.structure.type_domain
                ident = SoundLogicMorphism(
                    SpecMorphism.identity(logic.spec, td.sorts),
                    LaxStructureMorphism.identity(logic.structure))
                assert snd_mor_to_db_mor(ident, logic, logic) == \
                    identity_db_morphism(db), seed
                back = db_mor_to_snd_mor(identity_db_morphism(db), db, db)
                assert back.spec_morphism == \
                    SpecMorphism.identity(db.schema, td.sorts), seed
                assert back.structure_morphism == \
                    LaxStructureMorphism.identity(db.structure), seed


def rebuilt_and_revalidated(lm, l2, l1) -> DatabaseMorphism:
    """The assembly checked by rebuilding both databases and validating the
    database morphism between them: the oracle for ``snd_mor_to_db_mor``."""
    validate_lax_morphism(lm.structure_morphism, l2.structure, l1.structure)
    g_push = lm.structure_morphism.td_morphism.map_row
    key_bridge = {
        r2: {t1: g_push(tuple_along(lm.structure_morphism.schema_bridge[r2], t1))
             for t1 in table_image(l1.structure.table_of[r1]).tuples}
        for r2, r1 in lm.spec_morphism.predicate_map.items()}
    dm = DatabaseMorphism(lm.spec_morphism,
                          lm.structure_morphism.td_morphism, key_bridge)
    validate_db_morphism(dm, snd_to_db(l2), snd_to_db(l1))
    return dm


def break_logic_morphism(lm, rng: random.Random, kind: str) -> bool:
    """Break ``lm`` in place in one way; False if it has nothing to break.
    Both parts share their predicate map and bridges, so a broken bridge is
    broken in both."""
    sm, kb = lm.spec_morphism, lm.structure_morphism.key_bridge
    if kind in ("drop", "redirect"):
        if not sm.constraint_map or (kind == "redirect" and
                                     len(set(sm.constraint_map.values())) < 2):
            return False
        p2 = rng.choice(sorted(sm.constraint_map))
        if kind == "drop":
            del sm.constraint_map[p2]
        else:
            sm.constraint_map[p2] = rng.choice(sorted(
                set(sm.constraint_map.values()) - {sm.constraint_map[p2]}))
    elif kind == "bridge":
        if len(sm.bridge) < 2:
            return False
        r2a, r2b = rng.sample(sorted(sm.bridge), 2)
        sm.bridge[r2a], sm.bridge[r2b] = sm.bridge[r2b], sm.bridge[r2a]
    else:  # a key's entry moves to another key, or to another table's key
        r2, other = (rng.choice(sorted(kb)) for _ in range(2))
        if not kb[r2] or not kb[other]:
            return False
        k1 = rng.choice(sorted(kb[r2]))
        target = rng.choice(sorted(kb[other]))
        if (other, target) == (r2, k1):
            return False
        if other == r2:
            kb[r2][target] = kb[r2].pop(k1)
        else:
            kb[r2][k1] = kb[other][target]
    return True


def outcome(fn, *args):
    try:
        return fn(*args).key_bridge
    except FoleError as exc:
        return type(exc)


@pytest.mark.parametrize("kind", ["drop", "redirect", "bridge", "key"])
def test_assembly_on_broken_morphisms_matches_revalidation(kind):
    """A broken sound-logic morphism fails assembly with the same error as
    rebuilding and revalidating both databases, and passes exactly when
    that does."""
    rng = random.Random(f"broken:{kind}")
    broken = 0
    for _ in range(60):
        lm, l2, l1 = rand_logic_morphism_setup(rng)
        if break_logic_morphism(lm, rng, kind):
            broken += 1
            assert outcome(snd_mor_to_db_mor, lm, l2, l1) == \
                outcome(rebuilt_and_revalidated, lm, l2, l1)
    assert broken >= 20


# ------------------------------------------- conditions that follow, as oracles

class TestJunkKeyBridges:
    @pytest.mark.parametrize("section, name", [
        ("structureMorphisms", "idM"), ("dbMorphisms", "idDB")])
    def test_junk_key_bridge_entry_is_reported(self, section, name):
        raw = json.load(open(FIXTURE))
        raw[section][name]["keyBridges"]["Emp"]["zzz"] = "k1"
        assert [(d.name, d.error) for d in load_workspace_data(raw).diagnostics] \
            == [(name, "KeyBridgeViolation: key bridge condition fails at "
                       "predicate 'Emp', key 'zzz'")]


def composites_hold(db: Database) -> bool:
    """The oracle for declared composites: at each key of a declared map,
    the path's key maps, followed back from the end table, reach a key with
    the same tuple (the loop ``validate_database`` ran before key maps were
    exact)."""
    for decl in db.schema.composites:
        rows = db.table_of[db.schema.constraints[decl.equals].source_predicate].rows
        for k, v in db.constraint_morphism[decl.equals].key_map.items():
            for p in reversed(decl.path):
                k = db.constraint_morphism[p].key_map.get(k)
            if k is None or rows.get(v) != rows.get(k):
                return False
    return True


def squares_hold(dm: DatabaseMorphism, db2: Database, db1: Database) -> bool:
    """The oracle for naturality squares: at each key of a constraint's
    target table in ``db1``, both ways round the square reach keys with the
    same tuple in ``db2`` (the loop ``validate_db_morphism`` ran before key
    bridges were exact)."""
    for p2, c2 in db2.schema.constraints.items():
        p1 = dm.spec_morphism.constraint_map[p2]
        k1_map = db1.constraint_morphism[p1].key_map
        k2_map = db2.constraint_morphism[p2].key_map
        kappa_src = dm.key_bridge[c2.source_predicate]
        kappa_tgt = dm.key_bridge[c2.target_predicate]
        rows = db2.table_of[c2.source_predicate].rows
        for k1 in db1.table_of[db1.schema.constraints[p1].target_predicate].rows:
            if rows[kappa_src[k1_map[k1]]] != rows[k2_map[kappa_tgt[k1]]]:
                return False
    return True


def passage_composites_hold(m: LaxStructure, spec: AbstractSpec) -> bool:
    """The oracle for the table passage's declared composites: the path's
    arrows compose to the declared arrow, on signatures and at each key
    (the loop ``abstract_table_passage`` ran before it relied on the spec's
    check)."""
    arrows = abstract_table_passage(m, spec).arrows
    for decl in spec.composites:
        declared = arrows[decl.equals]
        h = functools.reduce(lambda f, g: f.then(g),
                             [arrows[p].sig_morphism for p in decl.path])
        if (h != declared.sig_morphism or arrows[decl.path[-1]].key_map.keys()
                != declared.key_map.keys()):
            return False
        for k, v in declared.key_map.items():
            for p in reversed(decl.path):
                k = arrows[p].key_map[k]
            if k != v:
                return False
    return True


def identity_db_morphism(db: Database) -> DatabaseMorphism:
    return DatabaseMorphism(
        SpecMorphism.identity(db.schema, db.type_domain.sorts),
        TypeDomainMorphism.identity(db.type_domain),
        {r: {k: k for k in t.rows} for r, t in db.table_of.items()})


@functools.cache
def integrity_database() -> Database:
    """The integrity workspace's database; the tests below never mutate it."""
    return load_workspace_data(integrity_workspace()).databases["DB"]


class TestConditionsThatFollow:
    """Declared composites and naturality squares follow from exact, natural
    key maps and key bridges, and the table passage's composites from its
    canonical arrows: they hold wherever the checks accept."""

    def test_on_accepted_databases(self):
        rng = random.Random(113)
        dbs = [integrity_database()] + [
            rand_database(rng, rand_type_domain(rng)) for _ in range(60)]
        assert dbs[0].schema.composites
        for db in dbs:
            assert composites_hold(db)
            dm = identity_db_morphism(db)
            validate_db_morphism(dm, db, db)
            assert squares_hold(dm, db, db)

    def test_on_table_passages(self):
        """The integrity workspace's M and Good (c21 & c10 = c20) and a
        declared composite through a nullary predicate."""
        ws = load_workspace_data(integrity_workspace())
        good = ws.specs["Good"]
        assert good.composites
        assert passage_composites_hold(ws.structure("M"), good)
        assert passage_composites_hold(*unit_composite_pair())

    @pytest.mark.parametrize("kind", ["drop", "redirect", "bridge", "key"])
    def test_on_accepted_db_morphisms(self, kind):
        rng = random.Random(f"follow:{kind}")
        accepted = 0
        for _ in range(40):
            lm, l2, l1 = rand_logic_morphism_setup(rng)
            break_logic_morphism(lm, rng, kind)
            try:
                dm = rebuilt_and_revalidated(lm, l2, l1)
            except FoleError:
                continue
            accepted += 1
            assert squares_hold(dm, snd_to_db(l2), snd_to_db(l1))
        assert accepted

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["key map", "identity bridge", "logic bridge"]),
           st.sampled_from(["drop", "add", "redirect"]), st.randoms())
    def test_after_one_entry_changes(self, where, change, rng):
        """Drop, add or redirect one entry of a key map of the integrity
        database, or of a key bridge of its identity morphism or of a
        sound-logic morphism's database morphism: an added entry is
        rejected, and what is accepted keeps its composites and squares.
        Half the redirects keep the entry's tuple, so some are accepted."""
        if where == "key map":
            db = integrity_database()
            arrows = {p: TableMorphism(a.sig_morphism, dict(a.key_map))
                      for p, a in db.constraint_morphism.items()}
            p = rng.choice(sorted(arrows))
            entries = arrows[p].key_map
            rows = db.table_of[db.schema.constraints[p].source_predicate].rows
        else:
            if where == "identity bridge":
                db2 = db1 = integrity_database()
                dm = identity_db_morphism(db1)
            else:
                lm, l2, l1 = rand_logic_morphism_setup(rng)
                dm = snd_mor_to_db_mor(lm, l2, l1)
                db2, db1 = snd_to_db(l2), snd_to_db(l1)
            r2 = rng.choice(sorted(dm.key_bridge))
            entries = dm.key_bridge[r2]
            rows = db2.table_of[r2].rows
        if change == "add":
            entries["zzz"] = rng.choice(sorted(rows) or ["nope"])
        elif not entries:
            return
        elif change == "drop":
            del entries[rng.choice(sorted(entries))]
        else:
            k = rng.choice(sorted(entries))
            same = sorted(j for j in rows if rows[j] == rows[entries[k]])
            entries[k] = rng.choice(same if rng.random() < 0.5 else sorted(rows))
        try:
            if where == "key map":
                accepted = Database(db.schema, db.type_domain, db.table_of, arrows)
            else:
                validate_db_morphism(dm, db2, db1)
        except FoleError:
            return
        assert change != "add"
        if where == "key map":
            assert composites_hold(accepted)
        else:
            assert squares_hold(dm, db2, db1)


# ------------------------------------- passages assemble, and check nothing

@functools.cache
def passage_inputs() -> tuple[list, list]:
    """Sound logics and databases: 60 random of each, the fixture's, and the
    integrity workspace's at 400 rows."""
    rng = random.Random(131)
    dbs = [rand_database(rng, rand_type_domain(rng)) for _ in range(60)]
    logics = [SoundLogic(*rand_satisfied_pair(rng, rand_type_domain(rng)))
              for _ in range(60)]
    for ws, spec in ((load_workspace(FIXTURE), "FK"),
                     (load_workspace_data(integrity_workspace(400)), "Good")):
        dbs.append(ws.require("database", "DB"))
        logics.append(SoundLogic(ws.structure("M"), ws.require("spec", spec)))
    return logics, dbs


class TestPassagesNeedNoCheck:
    """Each check a passage no longer runs passes on what it builds."""

    def test_snd_to_db_is_a_valid_database(self):
        for logic in passage_inputs()[0]:
            validate_database(snd_to_db(logic))

    def test_db_image_is_a_valid_database(self):
        for db in passage_inputs()[1]:
            validate_database(db_image(db))

    def test_db_to_snd_is_satisfied(self):
        for db in passage_inputs()[1]:
            logic = db_to_snd(db)
            assert satisfies_spec(logic.structure, db.schema).satisfied
            assert logic == SoundLogic(db.structure, db.schema)


class TestPassagesCheckNothingTheyBuild:
    """Counted on the fixture: a conversion validates only what the loader
    reads."""

    def counts(self, monkeypatch) -> dict:
        counts = dict.fromkeys(["validate", "satisfies_constraint"], 0)
        for owner, name in [(tables.Table, "validate"), (specs, "satisfies_constraint")]:
            def counting(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)
        return counts

    def convert(self, tmp_path, *argv) -> int:
        return main(["convert", "-w", FIXTURE, *argv,
                     "--out", str(tmp_path / "out.json")], out=io.StringIO())

    @pytest.mark.parametrize("argv", [("snd-to-db", "M:FK"), ("db-image", "DB")])
    def test_image_database_is_not_validated(self, tmp_path, monkeypatch, argv):
        counts = self.counts(monkeypatch)
        assert self.convert(tmp_path, *argv) == 0
        assert counts["validate"] == 3  # the loader's, of the three tables read

    def test_db_to_snd_decides_nothing(self, tmp_path, monkeypatch):
        counts = self.counts(monkeypatch)
        assert self.convert(tmp_path, "db-to-snd", "DB") == 0
        assert counts["satisfies_constraint"] == 0

    @pytest.mark.parametrize("broken", ["none", "keyBridges", "bridges"])
    def test_named_and_inline_spec_morphisms_agree(self, broken):
        """``check morphism idDB`` decides the same with idFK named as with
        idFK written inline: on the fixture, with a broken key bridge, and
        with a bridge that breaks sorts, which the named form reports on idFK."""
        named = json.load(open(FIXTURE))
        if broken == "keyBridges":
            named["dbMorphisms"]["idDB"]["keyBridges"]["Emp"] = {"k1": "k2", "k2": "k1"}
        elif broken == "bridges":
            named["specMorphisms"]["idFK"]["bridges"]["Emp"] = {"name": "dept",
                                                                 "dept": "name"}
        inline = copy.deepcopy(named)
        db = inline["dbMorphisms"]["idDB"]
        sm = inline["specMorphisms"].pop(db.pop("specMorphism"))
        db.update({k: v for k, v in sm.items() if k not in ("source", "target")})

        def verdicts(raw, names):
            out = io.StringIO()
            cmd_check(load_workspace_data(raw), "morphism", names, out=out)
            return [line.split(": ", 1)[1] for line in out.getvalue().splitlines()]
        first = verdicts(named, ["idFK", "idDB"])
        assert verdicts(inline, ["idDB"]) == [next((v for v in first if v != "OK"), "OK")]
        assert (first == ["OK", "OK"]) == (broken == "none")

    def test_named_spec_morphism_over_other_specs_is_checked(self):
        """A named spec morphism is taken as checked only over the two
        databases' own specs."""
        raw = json.load(open(FIXTURE))
        raw["specs"]["Bare"] = {**raw["specs"]["FK"], "constraints": {}}
        raw["specMorphisms"]["idBare"] = {**raw["specMorphisms"]["idFK"],
                                          "source": "Bare", "target": "Bare",
                                          "constraintMap": {}}
        raw["dbMorphisms"]["idDB"]["specMorphism"] = "idBare"
        assert [(d.name, d.error) for d in load_workspace_data(raw).diagnostics] \
            == [("idDB", "NaturalityViolation: naturality fails at key "
                         "'empDept': constraint not mapped")]
