"""Seeded workload generators: workspace JSON plus the commands to run on it.

Everything here is plain Python over JSON-shaped data; nothing imports
``fole``, so the program sees only the files these generators write.  Each
generator returns a ``Plan``: the workspace files, the command schedule, and
the facts the correctness gate needs (what each command must print or
write).  The same seed gives byte-identical workspaces and schedules.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

SORTS = ("A", "B", "C")


@dataclass
class Command:
    """One CLI invocation: ``argv`` for ``fole.cli.main`` plus what to expect.

    ``kind`` is "read" (eval, check) or "write" (convert, migrate);
    ``check`` tells the gate how to verify the output.
    """

    argv: list
    kind: str
    expect_rc: int
    check: dict
    out: str | None = None  # file the command writes, relative to the run dir


@dataclass
class Plan:
    workspaces: dict  # file name -> workspace JSON
    commands: list  # distinct commands
    schedule: list  # indices into commands, in run order (one round)
    facts: dict = field(default_factory=dict)  # workload statistics


def values(sort: str, n: int) -> list:
    return [f"{sort.lower()}{i}" for i in range(n)]


def sig_json(sorts) -> list:
    return [[f"x{i}", s] for i, s in enumerate(sorts)]


def fiber(sorts, extents) -> list:
    return list(itertools.product(*(extents[s] for s in sorts)))


def interleave(reads: list, writes: list, rng: random.Random) -> list:
    """One round: the reads in seeded order, with the writes spread evenly
    among them, so any prefix keeps the mix.  The timed loop ends only at
    the end of a round, so no command's share of the samples depends on the
    seed or on how fast the machine was.

    Each workload grades its command costs, so that many commands of close
    cost lie near p50 and p90, and puts 5 modulo 10 entries of each kind in
    a round, so that p50 and p90 fall inside one command's samples rather
    than between two.  The percentiles then move smoothly with the speed of
    the machine.  They would jump between the fast and slow samples of a
    lone command when the host's speed is bimodal, and hang on the extreme
    samples of two commands when they fall between them."""
    order = list(reads)
    rng.shuffle(order)
    placed = [(n / len(order), 0, c) for n, c in enumerate(order)]
    placed += [((n + 0.5) / len(writes), 1, c) for n, c in enumerate(writes)]
    return [c for *_, c in sorted(placed)]


def collapse_domain(extents: dict, extra: int) -> tuple[dict, dict, dict]:
    """A type-domain morphism U -> T that collapses every T value onto one
    anchor per sort (the shape of ``rand_infomorphism`` in the tests).

    Returns (U extents, sortMap U->T, valueMap T values -> U values)."""
    u_ext, sort_map, value_map = {}, {}, {}
    for s in SORTS:
        z = f"Z{s}"
        sort_map[z] = s
        u_ext[z] = [f"w{s.lower()}"] + [f"z{s.lower()}{j}" for j in range(extra)]
        for v in extents[s]:
            value_map[v] = u_ext[z][0]
    return u_ext, sort_map, value_map


# ------------------------------------------------------------------ query

# Fiber signatures, named so formulas can use top@NAME / bot@NAME.
QUERY_SIGS = {
    "s0": (), "sA": ("A",), "sB": ("B",), "sC": ("C",),
    "sAB": ("A", "B"), "sBC": ("B", "C"), "sAA": ("A", "A"),
    "sABC": ("A", "B", "C"), "sAAB": ("A", "A", "B"),
}
QUERY_PREDS_PER_SIG = {"s0": 1, "sA": 3, "sB": 3, "sC": 2, "sAB": 4,
                       "sBC": 3, "sAA": 3, "sABC": 4, "sAAB": 2}
QUERY_VALUES = 12
QUERY_FORMULAS = 125
QUERY_MAX_DEPTH = 5
FORALL_MAX_STEPS = QUERY_VALUES ** 4  # outside the heavy share
HEAVY_STEPS = QUERY_VALUES ** 5
# Formulas come in fixed shares, so every seed has the same cost profile:
# a forall of HEAVY_STEPS at the root (the heavy tail; read p90 is about
# its median), a subformula built to occur twice, and the rest
# unconstrained.
HEAVY_SHARE = 0.2
REPEAT_SHARE = 0.25
AS_TABLE_SHARE = 0.2
JSON_SHARE = 0.2
BINARY = {"meet": "/\\", "join": "\\/", "impl": "=>", "diff": "\\\\"}


def sort_maps(src, tgt) -> list:
    """Every sort-preserving attribute map from ``src`` into ``tgt``."""
    choices = [[j for j, t in enumerate(tgt) if t == s] for s in src]
    return [tuple(c) for c in itertools.product(*choices)]


def show(phi) -> str:
    op = phi[0]
    if op == "atom":
        return phi[1]
    if op in ("top", "bot"):
        return f"{op}@{phi[1]}"
    if op == "neg":
        return "~" + show(phi[1])
    if op in ("exists", "forall", "subst"):
        return f"{op}[{phi[1]}] {show(phi[2])}"
    return f"({show(phi[1])} {BINARY[op]} {show(phi[2])})"


def subterms(phi):
    yield phi
    for child in phi[1:]:
        if isinstance(child, tuple):
            yield from subterms(child)


def repeats_subformula(phi) -> bool:
    """True if some non-leaf subformula occurs at least twice."""
    seen = set()
    for t in subterms(phi):
        if t[0] in ("atom", "top", "bot"):
            continue
        if t in seen:
            return True
        seen.add(t)
    return False


class FormulaGen:
    def __init__(self, rng, preds_by_sig, morphisms, forall_ok):
        self.rng = rng
        self.preds_by_sig = preds_by_sig
        self.forall_ok = forall_ok
        # exists/forall[h] land in h.source, subst[h] lands in h.target
        self.from_source = {}
        self.from_target = {}
        for name, (src, tgt, _) in morphisms.items():
            self.from_source.setdefault(src, []).append((name, tgt))
            self.from_target.setdefault(tgt, []).append((name, src))

    def leaf(self, sig):
        atoms = self.preds_by_sig.get(sig, [])
        if atoms and self.rng.random() < 0.8:
            return ("atom", self.rng.choice(atoms))
        return (self.rng.choice(("top", "bot")), sig)

    def gen(self, sig, depth):
        rng = self.rng
        if depth <= 0:
            return self.leaf(sig)
        pick = rng.choice(("meet", "join", "impl", "diff", "neg", "exists",
                           "forall", "subst", "leaf"))
        if pick == "leaf":
            return self.leaf(sig)
        if pick == "neg":
            return ("neg", self.gen(sig, depth - 1))
        if pick in BINARY:
            return (pick, self.gen(sig, depth - 1), self.gen(sig, depth - 1))
        if pick in ("exists", "forall"):
            options = [(name, body) for name, body in self.from_source.get(sig, [])
                       if pick == "exists" or name in self.forall_ok]
            if not options:
                return self.gen(sig, depth)
            name, body_sig = rng.choice(options)
            return (pick, name, self.gen(body_sig, depth - 1))
        options = self.from_target.get(sig)
        if not options:
            return self.gen(sig, depth)
        name, body_sig = rng.choice(options)
        return ("subst", name, self.gen(body_sig, depth - 1))

    def compound(self, sig, depth):
        """A formula whose root is not a leaf."""
        while True:
            phi = self.gen(sig, depth)
            if phi[0] not in ("atom", "top", "bot"):
                return phi

    def with_repeat(self, sig, depth):
        """``op(psi, chi)`` where ``chi`` contains ``psi`` again."""
        rng = self.rng
        psi = self.compound(sig, 2)
        other = self.gen(sig, depth - 3)
        inner = (rng.choice(list(BINARY)), other, psi) if rng.random() < 0.5 \
            else ("neg", psi)
        return (rng.choice(list(BINARY)), psi, inner)


def query_plan(seed: int) -> Plan:
    rng = random.Random(f"query:{seed}")
    extents = {s: values(s, QUERY_VALUES) for s in SORTS}
    preds_by_sig = {}
    predicates = {}
    tables = {}
    # table sizes are the same for every seed (8..64 keys, evenly spread),
    # so load cost does not depend on the seed; only their order does
    n_tables = sum(QUERY_PREDS_PER_SIG[s] for s, sorts in QUERY_SIGS.items()
                   if sorts)
    sizes = [8 + round(56 * i / (n_tables - 1)) for i in range(n_tables)]
    rng.shuffle(sizes)
    n = 0
    for sname, sorts in QUERY_SIGS.items():
        pool = fiber(sorts, extents)
        for _ in range(QUERY_PREDS_PER_SIG[sname]):
            p = f"P{n}"
            n += 1
            preds_by_sig.setdefault(sname, []).append(p)
            predicates[p] = sig_json(sorts)
            keys = sizes.pop() if sorts else 1
            tables[p] = {"rows": {f"{p}k{i}": list(rng.choice(pool))
                                  for i in range(keys)}}
    morphisms = {}  # name -> (source sig name, target sig name, attr map)
    names = iter(f"h{i}" for i in itertools.count())
    for (sn, ss), (tn, ts) in itertools.product(QUERY_SIGS.items(), repeat=2):
        if sn == tn or len(ss) > len(ts) + 1:
            continue
        maps = sort_maps(ss, ts)
        for m in rng.sample(maps, min(2, len(maps))):
            morphisms[next(names)] = (sn, tn, m)
    sig_morphisms = {
        name: {"source": sig_json(QUERY_SIGS[sn]),
               "target": sig_json(QUERY_SIGS[tn]),
               "map": {f"x{i}": f"x{j}" for i, j in enumerate(m)}}
        for name, (sn, tn, m) in morphisms.items()
    }
    u_ext, sort_map, value_map = collapse_domain(extents, extra=1)
    ws = {
        "typeDomains": {"T": extents, "U": u_ext},
        "schemas": {"Q": {"sorts": list(SORTS), "predicates": predicates,
                          "signatures": {k: sig_json(v)
                                         for k, v in QUERY_SIGS.items()}}},
        "sigMorphisms": sig_morphisms,
        "typeDomainMorphisms": {"g": {"source": "U", "target": "T",
                                      "sortMap": sort_map,
                                      "valueMap": value_map}},
        "structures": {"M": {"schema": "Q", "typeDomain": "T", "kind": "lax",
                             "tables": tables}},
    }
    # forall costs |source fiber| x |target fiber| steps; only the heavy
    # share goes above FORALL_MAX_STEPS, and nothing reaches 12^6 steps,
    # where one command takes seconds and dominates the whole run
    size = {k: QUERY_VALUES ** len(v) for k, v in QUERY_SIGS.items()}
    forall_ok = {name for name, (sn, tn, _) in morphisms.items()
                 if size[sn] * size[tn] <= FORALL_MAX_STEPS}
    gen = FormulaGen(rng, preds_by_sig, morphisms, forall_ok)
    roots = [s for s in QUERY_SIGS if s != "s0"]
    heavy = sorted(name for name, (sn, tn, _) in morphisms.items()
                   if size[sn] * size[tn] == HEAVY_STEPS)
    # root fibers and depths cycle instead of being drawn, which keeps the
    # cost profile of the light formulas alike from seed to seed
    repeat_roots = itertools.cycle(roots)
    shapes = itertools.cycle(itertools.product(
        roots, range(2, QUERY_MAX_DEPTH + 1)))
    strata = [(HEAVY_SHARE, lambda: ("forall", *heavy_body())),
              (REPEAT_SHARE, lambda: gen.with_repeat(next(repeat_roots),
                                                     QUERY_MAX_DEPTH)),
              (1.0, lambda: gen.gen(*next(shapes)))]

    heavy_cycle = itertools.cycle(heavy)

    def heavy_body():
        # the body ~(P /\ Q) of two sparse atoms is nearly the whole fiber,
        # so forall scans all of it for almost every source tuple instead of
        # stopping early: every heavy formula costs about the same
        name = next(heavy_cycle)
        p, q = rng.sample(preds_by_sig[morphisms[name][1]], 2)
        return name, ("neg", ("meet", ("atom", p), ("atom", q)))

    formulas = {}
    for share, make in strata:
        goal = min(QUERY_FORMULAS, len(formulas) + round(share * QUERY_FORMULAS))
        while len(formulas) < goal:
            phi = make()
            formulas.setdefault(show(phi), phi)
    # output options on the light formulas only, so the heavy ones cost alike
    light = list(formulas)[round(HEAVY_SHARE * QUERY_FORMULAS):]
    tabled = set(rng.sample(light, round(AS_TABLE_SHARE * QUERY_FORMULAS)))
    jsoned = set(rng.sample(light, round(JSON_SHARE * QUERY_FORMULAS)))
    commands = []
    for text, phi in formulas.items():
        argv = ["eval", "--workspace", "query.json", "--structure", "M", text]
        as_table, as_json = text in tabled, text in jsoned
        argv += ["--as-table"] * as_table + ["--json"] * as_json
        commands.append(Command(argv, "read", 0, {
            "type": "eval", "workspace": "query.json", "structure": "M",
            "formula": text, "as_table": as_table, "json": as_json,
            "cost": oracle_cost(phi, QUERY_SIGS, morphisms, QUERY_VALUES)}))
    reads = list(range(len(commands)))
    # levo migrations: the linear control write, present so query reports
    # write latency too; every predicate over T is moved to U
    for p in sorted(tables):
        out = f"out/levo_{p}.json"
        commands.append(Command(
            ["migrate", "--workspace", "query.json", f"M.{p}", "g", "levo",
             "--out", out],
            "write", 0, {"type": "migrate", "workspace": "query.json",
                         "structure": "M", "predicate": p, "morphism": "g",
                         "direction": "levo"}, out))
    writes = list(range(len(reads), len(commands)))
    shared = sum(repeats_subformula(phi) for phi in formulas.values())
    # each write twice a round, so that a run holds well over 100 writes
    return Plan({"query.json": ws}, commands,
                interleave(reads, writes * 2, rng),
                {"repeat_share": shared / len(formulas),
                 "formulas": len(formulas)})


def oracle_cost(phi, sigs, morphisms, n_values) -> int:
    """Rough step count of ``interpret_by_oracle`` on ``phi``: the gate uses
    it to decide which formulas the brute-force oracle can afford."""

    def size(sig):
        return n_values ** len(sigs[sig])

    def sig_of(phi):
        op = phi[0]
        if op == "atom":
            return None
        if op in ("top", "bot"):
            return phi[1]
        if op in ("exists", "forall"):
            return morphisms[phi[1]][0]
        if op == "subst":
            return morphisms[phi[1]][1]
        return sig_of(phi[1]) or (sig_of(phi[2]) if len(phi) > 2 else None)

    def per_tuple(phi):
        op = phi[0]
        if op == "atom":
            return 64
        if op in ("top", "bot"):
            return 1
        if op in ("exists", "forall"):
            return size(morphisms[phi[1]][1]) * (1 + per_tuple(phi[2]))
        if op == "subst":
            return 1 + per_tuple(phi[2])
        return 1 + sum(per_tuple(c) for c in phi[1:])

    sig = sig_of(phi)
    return (size(sig) if sig else n_values ** 3) * per_tuple(phi)


# -------------------------------------------------------------- integrity

INTEGRITY_VALUES = 16
# rows drawn for the largest table (a tenth more are repeated under fresh
# keys), one workspace each: graded sizes give a spread of command costs
# instead of a few clusters
INTEGRITY_KEYS = (500, 875, 1250, 1625, 2000)


def integrity_workspace(rng: random.Random, big: int):
    """A structure M and a database DB over five predicates with five
    constraints (one a declared composite), plus spec Bad, which adds one
    constraint that M violates at exactly one tuple."""
    extents = {s: values(s, INTEGRITY_VALUES) for s in SORTS}
    # one C value never occurs in P0, so the planted tuple's C value cannot
    # be covered by P3
    hidden_c = rng.choice(extents["C"])
    cs = [c for c in extents["C"] if c != hidden_c]
    sigs = {"P0": ("A", "B", "C"), "P1": ("A", "B"), "P2": ("A",),
            "P3": ("C",), "P4": ("B", "C")}
    p0 = [(rng.choice(extents["A"]), rng.choice(extents["B"]), rng.choice(cs))
          for _ in range(big)]
    p0 += rng.sample(p0, big // 10)  # duplicate tuples under fresh keys
    rows = {"P0": p0}

    def project(src_rows, picks, extra):
        out = [tuple(t[i] for i in picks) for t in src_rows]
        out = sorted(set(out))
        rng.shuffle(out)
        return out + [rng.choice(out) for _ in range(extra)]

    rows["P1"] = project(p0, (0, 1), len(p0) // 20)
    rows["P2"] = project(rows["P1"], (0,), 4)
    rows["P3"] = project(p0, (2,), 2)
    planted = (rng.choice(extents["B"]), hidden_c)
    rows["P4"] = project(p0, (1, 2), 10)
    rows["P4"].insert(rng.randrange(len(rows["P4"])), planted)
    keyed = {p: {f"{p.lower()}_{i}": list(t) for i, t in enumerate(rs)}
             for p, rs in rows.items()}
    # (source, target, map source attr -> target attr)
    constraints = {
        "c21": ("P2", "P1", {"x0": "x0"}),
        "c10": ("P1", "P0", {"x0": "x0", "x1": "x1"}),
        "c20": ("P2", "P0", {"x0": "x0"}),
        "c30": ("P3", "P0", {"x0": "x2"}),
        "c40": ("P4", "P0", {"x0": "x1", "x1": "x2"}),
    }
    planted_c = ("P3", "P4", {"x0": "x1"})

    def spec(cons):
        return {"schema": "I", "constraints": {
            name: {"sourcePredicate": s, "targetPredicate": t, "h": h}
            for name, (s, t, h) in cons.items()},
            "composites": [{"path": ["c21", "c10"], "equals": "c20"}]}

    def key_map(src, tgt, h):
        pos = {f"x{i}": i for i in range(3)}
        first = {}
        for k, t in keyed[src].items():
            first.setdefault(tuple(t), k)
        return {k: first[tuple(t[pos[h[a]]] for a in sorted(h))]
                for k, t in keyed[tgt].items()}

    ws = {
        "typeDomains": {"T": extents},
        "schemas": {"I": {"sorts": list(SORTS),
                          "predicates": {p: sig_json(s)
                                         for p, s in sigs.items()}}},
        "specs": {"Good": spec(constraints),
                  "Bad": spec({**constraints, "planted": planted_c})},
        "structures": {"M": {"schema": "I", "typeDomain": "T", "kind": "lax",
                             "tables": {p: {"rows": r}
                                        for p, r in keyed.items()}}},
        "databases": {"DB": {
            "schema": "Good", "typeDomain": "T",
            "tables": {p: {"rows": r} for p, r in keyed.items()},
            "constraintKeyMaps": {name: key_map(s, t, h)
                                  for name, (s, t, h) in constraints.items()},
        }},
    }
    return ws, sorted(constraints), planted


def integrity_plan(seed: int) -> Plan:
    rng = random.Random(f"integrity:{seed}")
    workspaces, commands = {}, []
    reads, writes = [], []
    for n, big in enumerate(INTEGRITY_KEYS):
        f = f"integrity{n}.json"
        ws, good, planted = integrity_workspace(rng, big)
        workspaces[f] = ws
        base = ["--workspace", f]

        def add(argv, kind, rc, check, out=None):
            (reads if kind == "read" else writes).append(len(commands))
            commands.append(Command(argv, kind, rc, check, out))

        add(["check", *base, "structure", "M"], "read", 0,
            {"type": "lines", "lines": ["ITEM M: OK"]})
        add(["check", *base, "database", "DB"], "read", 0,
            {"type": "lines", "lines": ["ITEM DB: OK"]})
        add(["check", *base, "database", "DB", "--json"], "read", 0,
            {"type": "json", "payload": {
                "ok": True, "items": [{"name": "DB", "ok": True}]}})
        add(["check", *base, "spec-sat", "M", "Good"], "read", 0,
            {"type": "lines", "lines": [f"ITEM Good.{c}: OK" for c in good]})
        bad = sorted(good + ["planted"])
        add(["check", *base, "spec-sat", "M", "Bad"], "read", 1,
            {"type": "lines", "lines": [
                f"ITEM Bad.{c}: OK" if c != "planted" else
                f"ITEM Bad.planted: FAIL Unsatisfied witness tuple {planted!r}"
                for c in bad]})
        for direction, name, item in (("snd-to-db", "M:Good", "M__Good"),
                                      ("db-to-snd", "DB", "DB_structure"),
                                      ("db-image", "DB", "DB_image")):
            out = f"out/{n}_{direction}.json"
            add(["convert", *base, direction, name, "--out", out], "write", 0,
                {"type": "convert", "workspace": f, "direction": direction,
                 "item": item}, out)
    return Plan(workspaces, commands, interleave(reads, writes, rng),
                {"largest_table": max(INTEGRITY_KEYS) * 11 // 10})


# ---------------------------------------------------------------- migrate

# 16 values per sort: a 2-attribute fiber holds 256 tuples, and dextro and
# keyed substitution scan all of it once per key
MIGRATE_VALUES = 16
# keys per table slot, 15 slots log-spaced over 25..250, so that one round
# of the schedule fits a run many times
MIGRATE_KEYS = tuple(round(25 * 10 ** (i / 14)) for i in range(15))
# chance that a dextro row holds a sort's anchor; only all-anchor rows
# survive the pullback, and each of them yields the whole fiber, so about
# an eighth of the keys produce output and the scan dominates
ANCHOR_SHARE = 0.35


def migrate_plan(seed: int) -> Plan:
    rng = random.Random(f"migrate:{seed}")
    extents = {s: values(s, MIGRATE_VALUES) for s in SORTS}
    u_ext, sort_map, value_map = collapse_domain(extents, extra=1)
    u_sorts = list(u_ext)
    src_tables, src_preds = {}, {}
    tgt_tables, tgt_preds = {}, {}
    sub_morphisms = {}
    for i, keys in enumerate(MIGRATE_KEYS):
        # dextro input over U
        sorts = rng.sample(u_sorts, 2)
        src_preds[f"D{i}"] = sig_json(sorts)
        src_tables[f"D{i}"] = {"rows": {
            f"d{i}_{k}": [u_ext[s][0] if rng.random() < ANCHOR_SHARE else
                          rng.choice(u_ext[s][1:]) for s in sorts]
            for k in range(keys)}}
        # levo and substitution input over T
        sort = rng.choice(SORTS)
        tgt_preds[f"L{i}"] = sig_json([sort])
        tgt_tables[f"L{i}"] = {"rows": {f"l{i}_{k}": [rng.choice(extents[sort])]
                                        for k in range(keys)}}
        # subst[s_i] L_i inflates each key over one more attribute
        wide = [sort, rng.choice(SORTS)]
        rng.shuffle(wide)
        sub_morphisms[f"s{i}"] = {
            "source": sig_json([sort]), "target": sig_json(wide),
            "map": {"x0": f"x{wide.index(sort)}"}}
    ws = {
        "typeDomains": {"T": extents, "U": u_ext},
        "schemas": {
            "SU": {"sorts": u_sorts, "predicates": src_preds},
            "ST": {"sorts": list(SORTS), "predicates": tgt_preds},
        },
        "sigMorphisms": sub_morphisms,
        "typeDomainMorphisms": {"g": {"source": "U", "target": "T",
                                      "sortMap": sort_map,
                                      "valueMap": value_map}},
        "structures": {
            "MU": {"schema": "SU", "typeDomain": "U", "kind": "lax",
                   "tables": src_tables},
            "MT": {"schema": "ST", "typeDomain": "T", "kind": "lax",
                   "tables": tgt_tables},
        },
    }
    commands = []
    dextro, levo, substs = [], [], []
    base = ["--workspace", "migrate.json"]

    def add(into, kind, argv, check, out=None):
        into.append(len(commands))
        commands.append(Command([argv[0], *base, *argv[1:]], kind, 0,
                                {"workspace": "migrate.json", **check}, out))

    for i, keys in enumerate(MIGRATE_KEYS):
        # levo, the linear control, on two slots of three: 10 of 25 writes,
        # so write p50 lies among the cheaper dextro costs
        for struct, pred, direction, into in (
                ("MU", f"D{i}", "dextro", dextro),
                ("MT", f"L{i}", "levo", levo))[:1 + (i % 3 != 2)]:
            out = f"out/{direction}_{pred}.json"
            add(into, "write", ["migrate", f"{struct}.{pred}", "g", direction,
                                "--out", out],
                {"type": "migrate", "structure": struct, "predicate": pred,
                 "morphism": "g", "direction": direction}, out)
        text = f"subst[s{i}] L{i}"
        # the oracle tests each tuple of the wide fiber against every row
        add(substs, "read", ["eval", "--structure", "MT", text, "--as-table"],
            {"type": "eval", "structure": "MT", "formula": text,
             "as_table": True, "json": False,
             "cost": MIGRATE_VALUES ** 2 * keys})
    return Plan({"migrate.json": ws}, commands,
                interleave(substs, dextro + levo, rng), {})


PLANS = {"query": query_plan, "integrity": integrity_plan,
         "migrate": migrate_plan}
