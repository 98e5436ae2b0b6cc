"""Correctness gate, run after the timed commands and outside their process.

Each distinct command's first output is checked against facts fixed by
construction or computed independently:

- ``eval``: well-typed, in enumeration order, and equal to
  ``interpret_by_oracle`` on a seeded sample of the formulas the oracle can
  afford, the rest against an evaluator written here; keyed substitution
  tables against a product construction written here.
- ``check``: the exact report lines, or the parsed JSON report, including
  the planted witness.
- ``convert``/``migrate``: the fragment re-loads without diagnostics and its
  tables are ``key_equivalent`` to those the reflection laws predict.

Every later attempt of a command must print the same bytes as the first.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from fole import (
    Relation,
    Table,
    interpret_by_oracle,
    interpret_table,
    key_equivalent,
    load_workspace,
    parse_formula,
    relation_include,
    table_image,
)
from fole.formula import (Atom, Bottom, Diff, Exists, Forall, Impl, Join,
                          Meet, Neg, Subst, Top)
from fole.workspace import key_name, load_workspace_data

ORACLE_COST = 400_000  # largest estimated oracle step count checked
ORACLE_SAMPLE = 40  # formulas checked by the oracle per run


class Gate:
    def __init__(self, run_dir: str, commands: list, seed: int):
        self.run_dir = run_dir
        self.commands = commands
        self._workspaces = {}
        evals = [i for i, c in enumerate(commands)
                 if c["check"]["type"] == "eval"
                 and c["check"]["cost"] <= ORACLE_COST]
        random.Random(f"oracle:{seed}").shuffle(evals)
        self.oracle = set(evals[:ORACLE_SAMPLE])

    def workspace(self, name):
        if name not in self._workspaces:
            self._workspaces[name] = load_workspace(
                os.path.join(self.run_dir, name))
        return self._workspaces[name]

    def verdict(self, i: int, rc, text: str) -> str | None:
        """None if command ``i``'s output is right, else the reason."""
        cmd = self.commands[i]
        if rc != cmd["expect_rc"]:
            return f"exit code {rc}, expected {cmd['expect_rc']}"
        check = cmd["check"]
        try:
            if check["type"] == "eval":
                return self.eval(i, check, text)
            if check["type"] == "lines":
                return None if text.splitlines() == check["lines"] \
                    else f"report {text!r}"
            if check["type"] == "json":
                return None if json.loads(text) == check["payload"] \
                    else f"report {text!r}"
            if text != f"WROTE {cmd['out']}\n":
                return f"stdout {text!r}"
            with open(os.path.join(self.run_dir, cmd["out"]),
                      encoding="utf-8") as fh:
                frag = load_workspace_data(json.load(fh))
            if frag.diagnostics:
                return f"fragment diagnostics {frag.diagnostics}"
            if check["type"] == "convert":
                return self.convert(check, frag)
            return self.migrate(check, frag)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def eval(self, i, check, text):
        ws = self.workspace(check["workspace"])
        m = ws.structures[check["structure"]].lax
        phi = parse_formula(check["formula"], m.schema, ws.sig_morphisms)
        expected = (interpret_by_oracle(m, phi) if i in self.oracle
                    else reference(m, phi))
        sig = expected.signature
        arity = len(sig)
        if check["json"]:
            payload = json.loads(text)
            header = [tuple(p) for p in payload["signature"]]
            tuples = [tuple(t) for t in payload["tuples"]]
            table = payload.get("table")
            rows = None if table is None else {
                k: tuple(v) for k, v in table["rows"].items()}
        else:
            lines = text.split("\n")
            if lines[-1] != "":
                return "output does not end in a newline"
            header = [tuple(p.split(":")) for p in lines[0].split("\t")
                      if p]
            body = lines[1:-1]
            rows = None
            if check["as_table"]:
                cut = body.index("-- table keys --")
                body, keyed = body[:cut], body[cut + 1:]
                rows = {}
                for line in keyed:
                    key, *vals = line.split("\t")
                    rows[key] = tuple(vals) if arity else ()
            tuples = [tuple(line.split("\t")) if arity else ()
                      for line in body]
        if header != list(sig.pairs()):
            return f"signature {header}, expected {list(sig.pairs())}"
        rank = {t: n for n, t in enumerate(
            itertools.product(*(m.type_domain.extent(s) for s in sig.sorts)))}
        if any(t not in rank for t in tuples):
            return "tuple outside the fiber"
        order = [rank[t] for t in tuples]
        if order != sorted(set(order)):
            return "tuples not in enumeration order"
        if set(tuples) != expected.tuples:
            return "relation differs from the reference"
        if check["as_table"]:
            if rows is None:
                return "table missing"
            if set(rows.values()) != expected.tuples:
                return "table image differs from the relation"
            keyed = (substitution(m, phi) if is_keyed_subst(phi)
                     else interpret_table(m, phi))
            if sorted(rows.items()) != sorted(
                    (key_name(k), t) for k, t in keyed.rows.items()):
                return "keyed table differs from the reference"
        return None

    def convert(self, check, frag):
        ws = self.workspace(check["workspace"])
        item = check["item"]
        if check["direction"] == "snd-to-db":
            got = frag.databases[item].table_of
            want = {r: relation_include(table_image(t))
                    for r, t in ws.structures["M"].lax.table_of.items()}
        elif check["direction"] == "db-to-snd":
            got = frag.structures[item].lax.table_of
            want = ws.databases["DB"].table_of
        else:
            got = frag.databases[item].table_of
            want = {r: relation_include(table_image(t))
                    for r, t in ws.databases["DB"].table_of.items()}
        if set(got) != set(want):
            return f"predicates {sorted(got)}, expected {sorted(want)}"
        for r, t in want.items():
            if not key_equivalent(got[r], t):
                return f"table {r} is not key-equivalent to the expected one"
        return None

    def migrate(self, check, frag):
        ws = self.workspace(check["workspace"])
        table = ws.structures[check["structure"]].lax.table_of[
            check["predicate"]]
        m, a2_name, a1_name = ws.type_domain_morphisms[check["morphism"]]
        a2, a1 = ws.type_domains[a2_name], ws.type_domains[a1_name]
        want = (dextro(m, table, a1) if check["direction"] == "dextro"
                else levo(m, table, a2))
        got = frag.structures["migrated"].lax.table_of["migrated"]
        if got.signature != want.signature or not key_equivalent(got, want):
            return "migrated table differs from the reference"
        return None


def reference(m, phi) -> Relation:
    """An evaluator written apart from ``fole.structure``: relations are
    sets of tuples, ``forall`` is relational division by counting, and
    ``subst`` filters the target fiber by projection."""
    td = m.type_domain

    def fiber(sig):
        return set(itertools.product(*(td.extent(s) for s in sig.sorts)))

    def along(h):
        pos = [h.target.attrs.index(b) for _, b in h.mapping]
        return lambda t: tuple(t[p] for p in pos)

    def ev(phi):
        if isinstance(phi, Atom):
            return (m.schema.signature_of(phi.predicate),
                    set(m.table_of[phi.predicate].rows.values()))
        if isinstance(phi, (Top, Bottom)):
            return phi.signature, fiber(phi.signature) if isinstance(
                phi, Top) else set()
        if isinstance(phi, Neg):
            sig, a = ev(phi.body)
            return sig, fiber(sig) - a
        if isinstance(phi, (Meet, Join, Diff, Impl)):
            (sig, a), (_, b) = ev(phi.lhs), ev(phi.rhs)
            if isinstance(phi, Meet):
                return sig, a & b
            if isinstance(phi, Join):
                return sig, a | b
            if isinstance(phi, Diff):
                return sig, a - b
            return sig, (fiber(sig) - a) | b
        h = phi.morphism
        project = along(h)
        _, body = ev(phi.body)
        if isinstance(phi, Exists):
            return h.source, {project(t) for t in body}
        if isinstance(phi, Forall):
            have, need = {}, {}
            for t in body:
                have[project(t)] = have.get(project(t), 0) + 1
            for t in fiber(h.target):
                need[project(t)] = need.get(project(t), 0) + 1
            return h.source, {s for s in fiber(h.source)
                              if have.get(s, 0) == need.get(s, 0)}
        return h.target, {t for t in fiber(h.target) if project(t) in body}

    sig, tuples = ev(phi)
    return Relation(sig, frozenset(tuples))


def is_keyed_subst(phi) -> bool:
    return isinstance(phi, Subst) and isinstance(phi.body, Atom)


def substitution(m, phi) -> Table:
    """``subst[h] P`` as a keyed table: each key of P extended over the
    extents of the target attributes outside the image of h."""
    h = phi.morphism
    td = m.type_domain
    source = m.table_of[phi.body.predicate]
    rows = {}
    for k, t_src in source.rows.items():
        choices = [set(td.extent(s)) for s in h.target.sorts]
        for (a, b), v in zip(h.mapping, t_src):
            choices[h.target.position(b)] &= {v}
        ordered = [[v for v in td.extent(s) if v in c]
                   for s, c in zip(h.target.sorts, choices)]
        for t in itertools.product(*ordered):
            rows[(k, t)] = t
    return Table(h.target, rows)


def dextro(m, table, a1) -> Table:
    """Pullback along the value map, through its inverse image."""
    f, g = m.f, m.g
    preimage = {}
    for y1, y2 in g.items():
        preimage.setdefault(y2, []).append(y1)
    sig = table.signature
    sorts = tuple(f[s] for s in sig.sorts)
    rows = {}
    for k, t2 in table.rows.items():
        options = [[y for y in preimage.get(v, []) if y in a1.extent(s)]
                   for v, s in zip(t2, sorts)]
        for t1 in itertools.product(*options):
            rows[(k, t1)] = t1
    return Table(type(sig)(sig.attrs, sorts), rows)


def levo(m, table, a2) -> Table:
    """Keys kept; each attribute fans out to the sorts the sort map sends
    onto its sort, with values pushed along the value map."""
    f, g = m.f, m.g
    attrs, sorts, picks = [], [], []
    for pos, (a, s1) in enumerate(table.signature.pairs()):
        for x2 in a2.sorts:
            if f[x2] == s1:
                attrs.append(f"{a}.{x2}")
                sorts.append(x2)
                picks.append(pos)
    sig = type(table.signature)(tuple(attrs), tuple(sorts))
    return Table(sig, {k: tuple(g[t[p]] for p in picks)
                       for k, t in table.rows.items()})


def judge(gate: Gate, attempts, keep) -> dict:
    """Verdict on each attempted command from its first attempt: (digest of
    that output, reason it is wrong or None).  ``keep`` holds the first
    stdout of every command as ``<index>.stdout``."""
    verdicts = {}
    for i, _, rc, fingerprint, err, *_ in attempts:
        if i not in verdicts:
            with open(os.path.join(keep, f"{i}.stdout"), encoding="utf-8") as fh:
                verdicts[i] = (fingerprint, "raised" if err
                               else gate.verdict(i, rc, fh.read()))
    return verdicts


def tally(attempts, verdicts: dict) -> tuple[int, list]:
    """Failed attempts and their reasons.  ``verdicts`` maps a command index
    to (digest of its first output, reason it is wrong or None)."""
    failed, reasons = 0, []
    for i, _, _, fingerprint, err, *_ in attempts:
        first, reason = verdicts[i]
        if err:
            reason = err.strip().splitlines()[-1]
        elif fingerprint != first:
            reason = reason or "output differs from the command's first run"
        if reason:
            failed += 1
            reasons.append(f"command {i}: {reason}")
    return failed, reasons
