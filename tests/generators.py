"""Seeded random builders for desk-scale test artifacts.

Every generator takes a ``random.Random`` so suites are reproducible.
Scale caps: sorts <=3, extents <=3 values, predicates <=4, keys <=6,
formula depth <=4, signature length <=3.
"""

from __future__ import annotations

import itertools
import random

from fole import (
    AbstractSpec,
    Atom,
    Bottom,
    ClassificationReport,
    CompositeDeclaration,
    Constraint,
    Database,
    Diff,
    Exists,
    Forall,
    GeneratingConstraint,
    Impl,
    Join,
    LaxStructure,
    LaxStructureMorphism,
    Meet,
    Neg,
    Relation,
    Schema,
    Signature,
    SignatureMorphism,
    SoundLogic,
    SoundLogicMorphism,
    SpecMorphism,
    StrictStructure,
    StrictStructureMorphism,
    Subst,
    Table,
    TableMorphism,
    Top,
    TypeDomain,
    TypeDomainMorphism,
    check_type_domain_morphism,
    enumerate_tuples,
    pushed_signature,
    tuple_along,
)
from fole.core import entry
from fole.errors import DefiningConditionViolation, KeyBridgeViolation
from fole.structure import check_bridge, check_table

_FRESH = itertools.count()


def rand_type_domain(rng: random.Random, max_sorts=3, max_extent=3,
                     min_extent=0) -> TypeDomain:
    n = rng.randint(1, max_sorts)
    tag = next(_FRESH)
    sorts = tuple(f"X{tag}_{i}" for i in range(n))
    extents = {
        x: tuple(f"{x}v{j}" for j in range(rng.randint(min_extent, max_extent)))
        for x in sorts
    }
    return TypeDomain(sorts, extents)


def rand_shared_type_domain(rng: random.Random, max_sorts=4,
                            max_values=5) -> TypeDomain:
    """A type domain whose extents draw from one small value pool, so values
    are shared between sorts, extents may be empty, and two may be equal."""
    pool = [f"v{j}" for j in range(rng.randint(1, max_values))]
    sorts = tuple(f"X{i}" for i in range(rng.randint(1, max_sorts)))
    return TypeDomain(sorts, {x: tuple(rng.sample(pool, rng.randint(0, len(pool))))
                              for x in sorts})


def classify_pairwise(td: TypeDomain) -> ClassificationReport:
    """Oracle of ``classify``: every flag by exhaustive pairwise comparison
    of intents and extents."""
    values = td.values()
    intents = {y: frozenset(x for x in td.sorts if y in td.extents[x]) for y in values}
    separated = all(intents[y] != intents[z]
                    for y, z in itertools.combinations(values, 2))
    ext = {x: frozenset(td.extents[x]) for x in td.sorts}
    extensional = all(ext[x] != ext[z] for x, z in itertools.combinations(td.sorts, 2))
    disjoint = all(not (ext[x] & ext[z]) for x, z in itertools.combinations(td.sorts, 2))
    unclassified = [y for y in values if not intents[y]]
    return ClassificationReport(
        separated=separated,
        extensional=extensional,
        disjoint=disjoint,
        partitioned=disjoint and not unclassified,
    )


def rand_signature(rng: random.Random, td: TypeDomain, max_len=3,
                   min_len=0) -> Signature:
    n = rng.randint(min_len, max_len)
    tag = next(_FRESH)
    return Signature(
        tuple(f"a{tag}_{i}" for i in range(n)),
        tuple(rng.choice(td.sorts) for _ in range(n)),
    )


def rand_sig_morphism(rng: random.Random, target: Signature,
                      max_len=3) -> SignatureMorphism:
    """A random sort-preserving morphism into ``target`` (fresh source)."""
    n = rng.randint(0, min(max_len, 3))
    tag = next(_FRESH)
    picks = [rng.randrange(len(target)) for _ in range(n)] if len(target) else []
    source = Signature(
        tuple(f"b{tag}_{i}" for i in range(len(picks))),
        tuple(target.sorts[p] for p in picks),
    )
    return SignatureMorphism.of(
        source, target, {a: target.attrs[p] for a, p in zip(source.attrs, picks)}
    )


def rand_relation(rng: random.Random, sig: Signature, td: TypeDomain) -> Relation:
    pool = enumerate_tuples(sig, td)
    return Relation.of(sig, (t for t in pool if rng.random() < 0.5))


def rand_table(rng: random.Random, sig: Signature, td: TypeDomain,
               max_keys=6) -> Table:
    pool = enumerate_tuples(sig, td)
    if not pool:
        return Table(sig, {})
    n = rng.randint(0, max_keys)
    tag = next(_FRESH)
    return Table(sig, {f"k{tag}_{i}": rng.choice(pool) for i in range(n)})


def rand_schema(rng: random.Random, td: TypeDomain, max_preds=4,
                min_preds=1) -> Schema:
    n = rng.randint(min_preds, max_preds)
    tag = next(_FRESH)
    return Schema(
        sorts=td.sorts,
        predicates={f"P{tag}_{i}": rand_signature(rng, td) for i in range(n)},
    )


def rand_lax_structure(rng: random.Random, schema: Schema,
                       td: TypeDomain) -> LaxStructure:
    tables = {r: rand_table(rng, sig, td) for r, sig in schema.predicates.items()}
    return LaxStructure(schema, td, tables)


def rand_strict_structure(rng: random.Random, schema: Schema,
                          td: TypeDomain, max_keys=6) -> StrictStructure:
    keys = []
    classifies = set()
    tuple_of_key = {}
    tag = next(_FRESH)
    preds = list(schema.predicates)
    for i in range(rng.randint(0, max_keys)):
        k = f"e{tag}_{i}"
        keys.append(k)
        r = rng.choice(preds + [None])
        if r is None:
            tuple_of_key[k] = ()  # unclassified key, tuple unconstrained
            continue
        pool = enumerate_tuples(schema.signature_of(r), td)
        if not pool:
            tuple_of_key[k] = ()
            continue
        tuple_of_key[k] = rng.choice(pool)
        classifies.add((k, r))
        # every other predicate with the *same* signature may co-classify
        for r2 in preds:
            if r2 != r and schema.predicates[r2] == schema.predicates[r] \
                    and rng.random() < 0.3:
                classifies.add((k, r2))
    return StrictStructure(schema, td, tuple(keys), frozenset(classifies),
                           tuple_of_key)


def validate_strict_by_rows(m: StrictStructure) -> None:
    """Row-loop oracle of the strict defining condition: one classification
    at a time, the least by ``repr`` first, each classified key carrying a
    tuple of the predicate's arity whose values lie in their sorts' extents."""
    for k, r in sorted(m.classifies, key=repr):
        sig = m.schema.signature_of(r)
        row = m.tuple_of_key.get(k)
        if row is None or len(row) != len(sig) or not all(
                v in m.type_domain.extent(s) for v, s in zip(row, sig.sorts)):
            raise DefiningConditionViolation(k, r)


def strict_tables_by_scan(m: StrictStructure) -> dict[str, Table]:
    """Extent-scan oracle of ``to_lax``'s tables: each predicate's rows are the
    keys it classifies, found by a scan of every key, in ``keys`` order."""
    return {r: Table(sig, {k: m.tuple_of_key[k] for k in m.keys
                           if (k, r) in m.classifies})
            for r, sig in m.schema.predicates.items()}


def check_strict_by_rows(m: StrictStructure) -> None:
    """Full-check oracle of a strict structure: the row loop, then each
    scanned table checked by ``check_table`` in schema order."""
    validate_strict_by_rows(m)
    for r, table in strict_tables_by_scan(m).items():
        check_table(r, table, m.schema, m.type_domain)


def strict_key_bridges_by_scan(sm: StrictStructureMorphism, m2: StrictStructure,
                               m1: StrictStructure) -> dict[str, dict]:
    """Scan oracle of ``strict_morphism_to_lax``'s key bridges: each bridge is
    the key map restricted to the keys of ``m1`` that ``r1`` classifies, found
    by a scan of every key, in ``keys`` order."""
    return {r2: {k1: sm.key_map[k1] for k1 in m1.keys
                 if (k1, sm.predicate_map[r2]) in m1.classifies}
            for r2 in m2.schema.predicates}


# ------------------------------------------------------------------ formulas

def rand_formula(rng: random.Random, schema: Schema, td: TypeDomain,
                 sig: Signature | None = None, depth=4):
    """A well-typed random formula whose fiber is ``sig`` (random if None)."""
    if sig is None:
        sig = schema.predicates[rng.choice(list(schema.predicates))]
    if depth <= 0 or len(sig) > 4:
        atoms = [r for r, s in schema.predicates.items() if s == sig]
        choices = ["top", "bot"] + (["atom"] * 2 if atoms else [])
        pick = rng.choice(choices)
        if pick == "atom":
            return Atom(rng.choice(atoms))
        return (Top if pick == "top" else Bottom)(sig)
    pick = rng.choice(["meet", "join", "impl", "diff", "neg",
                       "exists", "forall", "subst", "leaf"])
    if pick == "leaf":
        return rand_formula(rng, schema, td, sig, 0)
    if pick == "neg":
        return Neg(rand_formula(rng, schema, td, sig, depth - 1))
    if pick in ("meet", "join", "impl", "diff"):
        node = {"meet": Meet, "join": Join, "impl": Impl, "diff": Diff}[pick]
        return node(rand_formula(rng, schema, td, sig, depth - 1),
                    rand_formula(rng, schema, td, sig, depth - 1))
    if pick in ("exists", "forall"):
        # extend the fiber: h.source = sig, body lives over the extension
        tag = next(_FRESH)
        extra = rng.randint(0, max(0, 4 - len(sig)))
        tgt_attrs = tuple(f"q{tag}_{a}" for a in sig.attrs) + tuple(
            f"x{tag}_{j}" for j in range(extra))
        tgt_sorts = sig.sorts + tuple(rng.choice(td.sorts) for _ in range(extra))
        target = Signature(tgt_attrs, tgt_sorts)
        h = SignatureMorphism.of(
            sig, target, {a: f"q{tag}_{a}" for a in sig.attrs})
        body = rand_formula(rng, schema, td, target, depth - 1)
        return (Exists if pick == "exists" else Forall)(h, body)
    # subst: h.target = sig, body lives over a precomposition of sig
    h = rand_sig_morphism(rng, sig)
    body = rand_formula(rng, schema, td, h.source, depth - 1)
    return Subst(h, body)


# -------------------------------------------------------------------- specs

def rand_spec(rng: random.Random, td: TypeDomain, max_preds=2,
              max_constraints=2) -> AbstractSpec:
    """A schema with constraint arrows whose endpoints are built to type.

    At most max_preds + max_constraints predicates, keeping desk scale.
    """
    schema = rand_schema(rng, td, max_preds=max_preds)
    predicates = dict(schema.predicates)
    constraints = {}
    tag = next(_FRESH)
    targets = list(predicates)
    for i in range(rng.randint(0, max_constraints)):
        r_tgt = rng.choice(targets)
        h0 = rand_sig_morphism(rng, predicates[r_tgt])
        # reuse an existing predicate with the needed signature, else mint one
        matches = [r for r, s in predicates.items() if s == h0.source]
        if matches and rng.random() < 0.5:
            r_src = rng.choice(matches)
        else:
            r_src = f"S{tag}_{i}"
            predicates[r_src] = h0.source
        constraints[f"c{tag}_{i}"] = GeneratingConstraint(
            f"c{tag}_{i}", r_src, r_tgt, h0)
    full = Schema(sorts=td.sorts, predicates=predicates)
    return AbstractSpec(full, constraints)


def unit_composite_pair() -> tuple[LaxStructure, AbstractSpec]:
    """A satisfied (structure, spec) whose spec declares the composite
    ``q & p = pq`` over Unit <- Dept <- Emp; ``rand_spec`` declares none."""
    sig0 = Signature((), ())
    sig1 = Signature.of([("dept", "D")])
    sig2 = Signature.of([("name", "S"), ("dept", "D")])
    schema = Schema(sorts=("S", "D"), predicates={
        "Emp": sig2, "Dept": sig1, "Unit": sig0})
    spec = AbstractSpec(schema, {
        "p": GeneratingConstraint("p", "Dept", "Emp", SignatureMorphism.of(
            sig1, sig2, {"dept": "dept"})),
        "q": GeneratingConstraint("q", "Unit", "Dept", SignatureMorphism.of(
            sig0, sig1, {})),
        "pq": GeneratingConstraint("pq", "Unit", "Emp", SignatureMorphism.of(
            sig0, sig2, {})),
    }, composites=(CompositeDeclaration(("q", "p"), "pq"),))
    td = TypeDomain(("S", "D"), {"S": ("ann", "bob"), "D": ("hr", "it")})
    m = LaxStructure(schema, td, {
        "Emp": Table(sig2, {"k1": ("ann", "hr")}),
        "Dept": Table(sig1, {"d1": ("hr",)}),
        "Unit": Table(sig0, {"u": ()}),
    })
    return m, spec


def repair_to_satisfy(rng: random.Random, m: LaxStructure,
                      spec: AbstractSpec) -> LaxStructure:
    """Add missing projected tuples to source tables until satisfied."""
    tables = {r: Table(t.signature, dict(t.rows))
              for r, t in m.table_of.items()}
    tag = next(_FRESH)
    fresh = itertools.count()
    for c in spec.constraints.values():
        src = tables[c.source_predicate]
        have = set(src.rows.values())
        for t in tables[c.target_predicate].rows.values():
            proj = tuple_along(c.morphism, t)
            if proj not in have:
                src.rows[f"r{tag}_{next(fresh)}"] = proj
                have.add(proj)
    return LaxStructure(m.schema, m.type_domain, tables)


def rand_satisfied_pair(rng: random.Random, td: TypeDomain):
    """(structure, spec) with satisfaction guaranteed by repair."""
    spec = rand_spec(rng, td)
    m = rand_lax_structure(rng, spec.schema, td)
    return repair_to_satisfy(rng, m, spec), spec


def rand_database(rng: random.Random, td: TypeDomain) -> Database:
    """A valid database with arbitrary (non-tuple) keys, built by repair."""
    m, spec = rand_satisfied_pair(rng, td)
    tables = {r: Table(t.signature, dict(t.rows)) for r, t in m.table_of.items()}
    morphisms = {}
    for name, c in spec.constraints.items():
        src = tables[c.source_predicate]
        by_tuple = {}
        for k, t in src.rows.items():
            by_tuple.setdefault(t, k)
        key_map = {}
        for k, t in tables[c.target_predicate].rows.items():
            key_map[k] = by_tuple[tuple_along(c.morphism, t)]
        morphisms[name] = TableMorphism(c.morphism, key_map)
    return Database(spec, td, tables, morphisms)


# ---------------------------------------------------------------- morphisms

def rand_infomorphism(rng: random.Random, max_sorts=3, max_extent=3,
                      surjective=True):
    """(m, a2, a1): a valid type-domain morphism from a2 to a1.

    a1 has pairwise disjoint extents; every a1 value g-collapses onto a
    per-sort anchor value of a2.
    """
    a1 = rand_type_domain(rng, max_sorts=max_sorts, max_extent=max_extent)
    tag = next(_FRESH)
    if surjective:
        x2_targets = list(a1.sorts)
        for _ in range(rng.randint(0, max_sorts - len(a1.sorts))):
            x2_targets.append(rng.choice(a1.sorts))
    else:
        x2_targets = [rng.choice(a1.sorts)
                      for _ in range(rng.randint(1, max_sorts))]
    sorts2 = tuple(f"Z{tag}_{i}" for i in range(len(x2_targets)))
    f = dict(zip(sorts2, x2_targets))
    anchor = {x1: f"w{tag}_{x1}" for x1 in a1.sorts}
    extents2 = {}
    for x2 in sorts2:
        vals = [anchor[f[x2]]]
        for j in range(rng.randint(0, max_extent - 1)):
            vals.append(f"z{tag}_{x2}_{j}")  # fresh, outside g's image
        extents2[x2] = tuple(vals)
    a2 = TypeDomain(sorts2, extents2)
    g = {}
    for x1 in a1.sorts:
        for y1 in a1.extent(x1):
            g[y1] = anchor[x1]
    m = TypeDomainMorphism.of(f, g)
    return m, a2, a1


def rand_lax_morphism_setup(rng: random.Random):
    """A validated lax structure morphism with all its context.

    Returns (lm, m2, m1): lm goes from m2 (over a2) to m1 (over a1), built so
    the key condition holds by construction; m2 may carry extra rows.
    """
    m, a2, a1 = rand_infomorphism(rng)
    schema1 = rand_schema(rng, a1)
    m1 = rand_lax_structure(rng, schema1, a1)
    f = m.f
    preimages = {x1: [x2 for x2 in a2.sorts if f[x2] == x1] for x1 in a1.sorts}
    predicate_map = {}
    schema_bridge = {}
    key_bridge = {}
    predicates2 = {}
    tables2 = {}
    tag = next(_FRESH)
    for r1, sig1 in schema1.predicates.items():
        r2 = f"Q{tag}_{r1}"
        # source signature: reindex into sig1, sorts chosen from f-preimages
        usable = [p for p in range(len(sig1)) if preimages[sig1.sorts[p]]]
        n = rng.randint(0, min(3, len(usable))) if usable else 0
        picks = [rng.choice(usable) for _ in range(n)]
        attrs2 = tuple(f"m{tag}_{i}" for i in range(n))
        sorts2 = tuple(rng.choice(preimages[sig1.sorts[p]]) for p in picks)
        sig2 = Signature(attrs2, sorts2)
        bridge = SignatureMorphism.of(
            pushed_signature(sig2, m.f), sig1,
            {a: sig1.attrs[p] for a, p in zip(attrs2, picks)},
        )
        rows2 = {}
        kappa = {}
        for k1, t1 in m1.table_of[r1].rows.items():
            k2 = f"n{tag}_{k1}"
            rows2[k2] = m.map_row(tuple_along(bridge, t1))
            kappa[k1] = k2
        # extra rows beyond the bridged image are allowed
        pool2 = enumerate_tuples(sig2, a2)
        for j in range(rng.randint(0, 2)):
            if pool2:
                rows2[f"extra{tag}_{j}"] = rng.choice(pool2)
        predicates2[r2] = sig2
        tables2[r2] = Table(sig2, rows2)
        predicate_map[r2] = r1
        schema_bridge[r2] = bridge
        key_bridge[r2] = kappa
    schema2 = Schema(sorts=a2.sorts, predicates=predicates2)
    m2 = LaxStructure(schema2, a2, tables2)
    lm = LaxStructureMorphism(predicate_map, schema_bridge, m, key_bridge)
    return lm, m2, m1


def key_condition_by_keys(lm: LaxStructureMorphism, m2: LaxStructure,
                          m1: LaxStructure) -> None:
    """Key-loop oracle of ``validate_lax_morphism``: the bridge at every
    predicate, then the key condition one key of ``m1``'s table at a time, in
    row order, then an entry of the key bridge for a key the table lacks."""
    check_type_domain_morphism(lm.td_morphism, m2.type_domain, m1.type_domain)
    for r2, sig2 in m2.schema.predicates.items():
        r1 = entry(lm.predicate_map, r2, "predicate map")
        bridge = entry(lm.schema_bridge, r2, "bridge")
        check_bridge(r2, sig2, lm.td_morphism.f, bridge, m1.schema, r1)
        kappa = entry(lm.key_bridge, r2, "key bridge")
        t2 = m2.table_of[r2]
        t1 = m1.table_of[r1]
        for k1 in t1.rows:
            if k1 not in kappa or kappa[k1] not in t2.rows:
                raise KeyBridgeViolation(r2, k1)
            expected = lm.td_morphism.map_row(tuple_along(bridge, t1.rows[k1]))
            if t2.rows[kappa[k1]] != expected:
                raise KeyBridgeViolation(r2, k1)
        if len(kappa) != len(t1.rows):
            raise KeyBridgeViolation(r2, next(k for k in kappa if k not in t1.rows))


KEY_FAULTS = ("dropped entry", "junk entry", "moved target", "target outside",
              "changed row")


def break_key_condition(rng: random.Random, lm: LaxStructureMorphism,
                        m2: LaxStructure, kind: str) -> bool:
    """Put one fault of ``kind`` (one of ``KEY_FAULTS``) into ``lm``'s key
    bridges, or into the ``m2`` row that one of them reaches, in place; False
    where the morphism has no place for it.  A changed row stays well-sorted."""
    if kind == "junk entry":
        r2 = rng.choice(sorted(lm.key_bridge))
        lm.key_bridge[r2][f"junk{next(_FRESH)}"] = rng.choice(
            list(m2.table_of[r2].rows) or ["nowhere"])
        return True
    places = sorted((r2, k1) for r2, kappa in lm.key_bridge.items()
                    for k1, k2 in kappa.items() if k2 in m2.table_of[r2].rows)
    if not places:
        return False
    r2, k1 = rng.choice(places)
    kappa, table2 = lm.key_bridge[r2], m2.table_of[r2]
    row = table2.rows[kappa[k1]]
    if kind == "dropped entry":
        del kappa[k1]
    elif kind == "target outside":
        kappa[k1] = f"nowhere{next(_FRESH)}"
    elif kind == "moved target":
        others = [k2 for k2, t in table2.rows.items() if t != row]
        if not others:
            return False
        kappa[k1] = rng.choice(others)
    else:  # changed row
        pool = [t for t in enumerate_tuples(table2.signature, m2.type_domain) if t != row]
        if not pool:
            return False
        table2.rows[kappa[k1]] = rng.choice(pool)
    return True


def rand_strict_morphism_setup(rng: random.Random):
    """A strict structure morphism built to pass both infomorphism checks.

    Returns (sm, m2, m1) with sm from strict m2 (over a2) to strict m1
    (over a1); the predicate map is a bijection so the derived tuple map
    of the m2 universe is single-valued.
    """
    m, a2, a1 = rand_infomorphism(rng)
    schema1 = rand_schema(rng, a1)
    m1 = rand_strict_structure(rng, schema1, a1)
    f = m.f
    preimages = {x1: [x2 for x2 in a2.sorts if f[x2] == x1] for x1 in a1.sorts}
    rho = {x1: rng.choice(preimages[x1]) for x1 in a1.sorts}
    tag = next(_FRESH)
    predicate_map = {}
    schema_bridge = {}
    predicates2 = {}
    for r1, sig1 in schema1.predicates.items():
        r2 = f"Q{tag}_{r1}"
        sig2 = Signature(sig1.attrs, tuple(rho[s] for s in sig1.sorts))
        predicates2[r2] = sig2
        predicate_map[r2] = r1
        schema_bridge[r2] = SignatureMorphism.of(
            pushed_signature(sig2, m.f), sig1, {a: a for a in sig1.attrs})
    schema2 = Schema(sorts=a2.sorts, predicates=predicates2)
    key_map = {k1: f"n{tag}_{k1}" for k1 in m1.keys}
    classifies2 = set()
    tuple2 = {}
    r1_to_r2 = {v: k for k, v in predicate_map.items()}
    for k1 in m1.keys:
        k2 = key_map[k1]
        tuple2[k2] = ()
        for (kk, r1) in m1.classifies:
            if kk != k1:
                continue
            r2 = r1_to_r2[r1]
            classifies2.add((k2, r2))
            tuple2[k2] = m.map_row(
                tuple_along(schema_bridge[r2], m1.tuple_of_key[k1]))
    m2 = StrictStructure(schema2, a2, tuple(key_map.values()),
                         frozenset(classifies2), tuple2)
    sm = StrictStructureMorphism(predicate_map, key_map, schema_bridge, m)
    return sm, m2, m1


def rand_logic_morphism_setup(rng: random.Random):
    """A validated sound-logic morphism with its endpoint logics.

    Returns (lm, l2, l1).  Built over a surjective infomorphism with a fixed
    per-sort preimage choice; each bridge renames every attribute ``a`` of
    the 1-side to ``n<tag>_a`` on the 2-side, and each constraint morphism is
    renamed to match, so spec-morphism naturality holds.  Structure tables
    are g-pushed copies, so satisfaction transports.
    """
    m, a2, a1 = rand_infomorphism(rng)
    spec1 = rand_spec(rng, a1)
    schema1 = spec1.schema
    struct1 = repair_to_satisfy(rng, rand_lax_structure(rng, schema1, a1), spec1)
    l1 = SoundLogic(struct1, spec1)
    f = m.f
    preimages = {x1: [x2 for x2 in a2.sorts if f[x2] == x1] for x1 in a1.sorts}
    rho = {x1: rng.choice(preimages[x1]) for x1 in a1.sorts}
    tag = next(_FRESH)
    renamed = f"n{tag}_{{}}".format
    predicates2 = {}
    predicate_map = {}
    bridge = {}
    key_bridge = {}
    tables2 = {}
    for r1, sig1 in schema1.predicates.items():
        r2 = f"Q{tag}_{r1}"
        sig2 = Signature(tuple(map(renamed, sig1.attrs)),
                         tuple(rho[s] for s in sig1.sorts))
        predicates2[r2] = sig2
        predicate_map[r2] = r1
        bridge[r2] = SignatureMorphism.of(
            pushed_signature(sig2, m.f), sig1, {renamed(a): a for a in sig1.attrs})
        rows2 = {}
        kappa = {}
        for k1, t1 in struct1.table_of[r1].rows.items():
            k2 = f"n{tag}_{k1}"
            rows2[k2] = m.map_row(t1)
            kappa[k1] = k2
        tables2[r2] = Table(sig2, rows2)
        key_bridge[r2] = kappa
    schema2 = Schema(sorts=a2.sorts, predicates=predicates2)
    r1_to_r2 = {v: k for k, v in predicate_map.items()}
    constraints2 = {}
    constraint_map = {}
    for p1, c1 in spec1.constraints.items():
        p2 = f"q{tag}_{p1}"
        src2, tgt2 = r1_to_r2[c1.source_predicate], r1_to_r2[c1.target_predicate]
        h2 = SignatureMorphism.of(
            predicates2[src2], predicates2[tgt2],
            {renamed(a): renamed(b) for a, b in c1.morphism.map.items()})
        constraints2[p2] = GeneratingConstraint(p2, src2, tgt2, h2)
        constraint_map[p2] = p1
    spec2 = AbstractSpec(schema2, constraints2)
    struct2 = LaxStructure(schema2, a2, tables2)
    l2 = SoundLogic(struct2, spec2)
    sm = SpecMorphism(predicate_map, constraint_map, f, bridge)
    strm = LaxStructureMorphism(predicate_map, bridge, m, key_bridge)
    lm = SoundLogicMorphism(sm, strm)
    return lm, l2, l1
