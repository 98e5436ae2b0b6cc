"""Command-line interface: eval, check, convert, migrate.

Reports use a stable line grammar (``ITEM <name>: OK|FAIL <code> [detail]``)
so CI can grep them; ``--json`` mirrors each report as machine-readable
JSON.  Every command is deterministic: the same workspace and arguments
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .errors import FoleError, UnresolvedReference
from .formula import Schema, parse_formula
from .logic_db import SoundLogic, db_image, db_to_snd, snd_to_db
from .specs import satisfies_spec
from .structure import LaxStructure, interpret_relation, interpret_table
from .tables import table_flow_type_domain, table_image
from .workspace import SECTIONS, Workspace, dump_json, fragment, key_names, load_workspace


def _ordered_tuples(rel, td):
    """``rel``'s tuples in fiber order.  Where they fill an eighth of the
    fiber or more, a walk over the fiber keeps them; else they are sorted by
    the mixed-radix number of the indices of their values in the extents."""
    rank, stride = [], 1
    for s in reversed(rel.signature.sorts):
        rank.insert(0, {v: i * stride for i, v in enumerate(td.extent(s))})
        stride *= len(td.extent(s))
    if 8 * len(rel) >= stride:
        return list(filter(rel.tuples.__contains__, itertools.product(*rank)))
    return sorted(rel.tuples, key=lambda t: sum(map(dict.__getitem__, rank, t)))


def cmd_eval(ws: Workspace, structure: str, formula_text: str,
             as_table: bool = False, as_json: bool = False,
             out=sys.stdout) -> int:
    m = ws.structure(structure)  # only the tables phi names are built
    phi = parse_formula(formula_text, m.schema, ws.sig_morphisms)
    if as_table:
        table = interpret_table(m, phi)
        rel = table_image(table)
    else:
        rel = interpret_relation(m, phi)
    tuples = _ordered_tuples(rel, m.type_domain)
    if as_json:
        payload = {"signature": rel.signature, "tuples": tuples}
        if as_table:
            payload["table"] = table
        print(dump_json(payload), file=out)
        return 0
    lines = ["\t".join(f"{a}:{s}" for a, s in rel.signature.pairs()),
             *map("\t".join, tuples)]
    if as_table:
        rows = table.rows
        lines += ["-- table keys --", *map("\t".join, zip(
            key_names(list(rows)), map("\t".join, rows.values())))]
    print("\n".join(lines), file=out)
    return 0


def _report(out, as_json: bool, lines: list[dict]) -> int:
    ok = all(line["ok"] for line in lines)
    if as_json:
        print(dump_json({"ok": ok, "items": lines}), file=out)
    else:
        for line in lines:
            status = "OK" if line["ok"] else f"FAIL {line.get('code', 'ERROR')}"
            detail = line.get("detail", "")
            print(f"ITEM {line['name']}: {status}" + (f" {detail}" if detail else ""), file=out)
    return 0 if ok else 1


# The sections ``check`` looks a name up in, in this order, by their
# ``SECTIONS`` names.
_CHECKED = {
    "structure": ("structure",),
    "database": ("database",),
    "morphism": ("structureMorphism", "specMorphism", "dbMorphism",
                 "sigMorphism", "typeDomainMorphism"),
}


def _loaded(ws: Workspace, what: str, name: str) -> dict:
    """The loader's verdict on ``name``: OK from the first of ``what``'s
    sections that loaded it, FAIL with the diagnostic of one that did not."""
    for section in _CHECKED[what]:
        items = getattr(ws, SECTIONS[section].field)
        if name in items:
            return {"name": name, "ok": True}
        if name in items.failed:
            exc = items.failed[name]
            return {"name": name, "ok": False, "code": type(exc).__name__,
                    "detail": str(exc)}
    raise UnresolvedReference(what, name)


def cmd_check(ws: Workspace, what: str, names: list[str],
              as_json: bool = False, out=sys.stdout) -> int:
    if what in _CHECKED:
        lines = [_loaded(ws, what, name) for name in names]
    else:  # spec-sat, the one other target the parser admits
        if len(names) != 2:
            raise UnresolvedReference("STRUCTURE SPEC", " ".join(names))
        structure, spec_name = names
        m = ws.require("structure", structure).lax
        spec = ws.require("spec", spec_name)
        report = satisfies_spec(m, spec)
        lines = []
        for cname, verdict in sorted(report.verdicts.items()):
            line = {"name": f"{spec_name}.{cname}", "ok": verdict.satisfied}
            if not verdict.satisfied:
                line["code"] = "Unsatisfied"
                line["detail"] = "witness tuple " + repr(verdict.violating_tuple)
            lines.append(line)
    return _report(out, as_json, lines)


def _write(out_path: str, frag: dict, out) -> int:
    text = dump_json(frag) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"WROTE {out_path}", file=out)
    return 0


def cmd_convert(ws: Workspace, direction: str, name: str, out_path: str,
                out=sys.stdout) -> int:
    if direction == "snd-to-db":
        struct_name, colon, spec_name = name.partition(":")
        if not colon:
            raise UnresolvedReference("STRUCTURE:SPEC", name)
        m = ws.require("structure", struct_name).lax
        db = snd_to_db(SoundLogic(m, ws.require("spec", spec_name)))
        written = {"database": {f"{struct_name}__{spec_name}": db}}
    elif direction == "db-image":
        db = db_image(ws.require("database", name))
        written = {"database": {f"{name}_image": db}}
    else:  # db-to-snd, the one other direction the parser admits
        db = ws.require("database", name)
        written = {"structure": {f"{name}_structure": db_to_snd(db).structure}}
    return _write(out_path, fragment({
        "typeDomain": {"typeDomain": db.type_domain}, "schema": {"schema": db.schema.schema},
        "spec": {"spec": db.schema}, **written}), out)


def cmd_migrate(ws: Workspace, table_name: str, morphism_name: str,
                direction: str, out_path: str, out=sys.stdout) -> int:
    struct_name, dot, predicate = table_name.partition(".")
    if not dot:
        raise UnresolvedReference("STRUCTURE.PREDICATE", table_name)
    structure = ws.structure(struct_name)  # one table is built, and checked
    if predicate not in structure.table_of:
        raise UnresolvedReference("predicate", predicate)
    m, a2_name, a1_name = ws.require("typeDomainMorphism", morphism_name)
    a2 = ws.require("typeDomain", a2_name)
    a1 = ws.require("typeDomain", a1_name)
    migrated = table_flow_type_domain(direction, m, structure.table_of[predicate],
                                      a2, a1, checked=structure.type_domain)
    target_td, target_name = (a1, a1_name) if direction == "dextro" else (a2, a2_name)
    schema = Schema(target_td.sorts, {"migrated": migrated.signature}, {})
    return _write(out_path, fragment({
        "typeDomain": {target_name: target_td}, "schema": {"schema": schema},
        "structure": {"migrated": LaxStructure(schema, target_td, {"migrated": migrated})},
    }), out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs more
    than a parse."""
    parser = argparse.ArgumentParser(
        prog="fole",
        description="Finite many-sorted logic engine over relational tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="interpret a formula in a structure")
    p_eval.add_argument("--workspace", "-w", required=True)
    p_eval.add_argument("--structure", "-s", required=True)
    p_eval.add_argument("formula")
    p_eval.add_argument("--as-table", action="store_true")
    p_eval.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="validate an item or satisfaction")
    p_check.add_argument("--workspace", "-w", required=True)
    p_check.add_argument("what",
                         choices=["structure", "spec-sat", "morphism", "database"])
    p_check.add_argument("names", nargs="+")
    p_check.add_argument("--json", action="store_true")

    p_conv = sub.add_parser("convert", help="run a conversion passage")
    p_conv.add_argument("--workspace", "-w", required=True)
    p_conv.add_argument("direction", choices=["snd-to-db", "db-to-snd", "db-image"])
    p_conv.add_argument("name",
                        help="database name, or STRUCTURE:SPEC for snd-to-db")
    p_conv.add_argument("--out", required=True)

    p_mig = sub.add_parser("migrate", help="move a table along a type-domain morphism")
    p_mig.add_argument("--workspace", "-w", required=True)
    p_mig.add_argument("table", help="STRUCTURE.PREDICATE")
    p_mig.add_argument("morphism")
    p_mig.add_argument("direction", choices=["dextro", "levo"])
    p_mig.add_argument("--out", required=True)
    return parser


def main(argv=None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    ws = None
    try:
        ws = load_workspace(args.workspace)
        if args.command == "check":
            return cmd_check(ws, args.what, args.names,
                             as_json=args.json, out=out)
        if not ws.misshapen:  # else every diagnostic is reported below
            if args.command == "eval":
                return cmd_eval(ws, args.structure, args.formula,
                                args.as_table, args.json, out)
            if args.command == "convert":
                return cmd_convert(ws, args.direction, args.name, args.out, out)
            return cmd_migrate(ws, args.table, args.morphism, args.direction,
                               args.out, out=out)
    except (FoleError, OSError, json.JSONDecodeError) as exc:
        # a failed item may be the cause: then every diagnostic, below
        if ws is None or args.command == "check" or not ws.diagnostics:
            print(f"ERROR {type(exc).__name__}: {exc}", file=out)
            return 2
    for diag in ws.diagnostics:
        print(f"ITEM {diag.section}/{diag.name}: FAIL {diag.error}", file=out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
