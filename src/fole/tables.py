"""Tables and relations over a type domain.

A table is a keyed tuple assignment; a relation is its tuple-set image.
Connective semantics lives on relations; quantifier flow moves tables and
relations between signature fibers, and type-domain flow moves them between
type domains.
"""

from __future__ import annotations

import itertools
from collections import Counter
from contextlib import suppress
from math import prod
from typing import Callable, Hashable, Iterable

from .core import (
    Record,
    Row,
    Signature,
    SignatureMorphism,
    TypeDomain,
    TypeDomainMorphism,
    pushed_signature,
    tuple_along,
)
from .errors import NaturalityViolation, SignatureMismatch

Key = Hashable


class Table(Record):
    """A finite key set with a tuple assignment over one signature.

    ``rows`` preserves insertion order; key order is significant only for
    deterministic output, never for semantics.
    """

    signature: Signature
    rows: dict[Key, Row]

    def keys(self) -> list[Key]:
        return list(self.rows)

    def validate(self, td: TypeDomain) -> None:
        """The table lies over ``td``: each sort is ``td``'s, each row well-sorted."""
        sig = self.signature
        members = [frozenset(td.extent(s)) for s in sig.sorts]
        arity = len(members)
        # a column at a time; the row loop runs only to name the first bad row
        with suppress(TypeError):  # an unhashable value, a row with no length
            if set(map(len, self.rows.values())) <= {arity} and all(
                    map(frozenset.issuperset, members, zip(*self.rows.values()))):
                return
        for k, t in self.rows.items():
            try:
                ok = len(t) == arity and all(
                    map(frozenset.__contains__, members, t))
            except TypeError:  # an unhashable value lies in no extent
                ok = False
            if not ok:
                exc = SignatureMismatch(f"row {k!r} = {t!r} is not well-sorted over {sig}")
                exc.key = k  # for a caller that names the row in its own terms
                raise exc


class Relation(Record, frozen=True):
    signature: Signature
    tuples: frozenset[Row]

    @staticmethod
    def of(signature: Signature, tuples) -> "Relation":
        return Relation(signature, frozenset(map(tuple, tuples)))

    def sorted_tuples(self) -> list[Row]:
        return sorted(self.tuples)

    def __contains__(self, t: Row) -> bool:
        return tuple(t) in self.tuples

    def __len__(self) -> int:
        return len(self.tuples)


class TableMorphism(Record):
    """A signature morphism plus a contravariant key map.

    The source table lives over ``sig_morphism.source`` and the target table
    over ``sig_morphism.target``; ``key_map`` sends target-table keys to
    source-table keys.
    """

    sig_morphism: SignatureMorphism
    key_map: dict[Key, Key]

    @staticmethod
    def identity(table: Table) -> "TableMorphism":
        return TableMorphism(
            SignatureMorphism.identity(table.signature),
            {k: k for k in table.rows},
        )


def table_image(table: Table) -> Relation:
    """Collapse a table to its set of tuples."""
    return Relation.of(table.signature, table.rows.values())


def relation_include(rel: Relation) -> Table:
    """Key a relation by its own tuples; left inverse of table_image."""
    return Table(rel.signature, {t: t for t in rel.sorted_tuples()})


# op -> (arity, set operation on the operands' tuple sets); the operation's
# first argument yields the fiber's full tuple set, which only top, negation
# and implication ask for, and the type domain enumerates once
_FIBER_OPS: dict[str, tuple[int, Callable[..., frozenset]]] = {
    "top": (0, lambda top: top()),
    "bottom": (0, lambda top: frozenset()),
    "meet": (2, lambda top, a, b: a & b),
    "join": (2, lambda top, a, b: a | b),
    "negation": (1, lambda top, a: top() - a),
    "difference": (2, lambda top, a, b: a - b),
    "implication": (2, lambda top, a, b: (top() - a) | b),
}


def fiber_boolean(op: str, sig: Signature, td: TypeDomain,
                  lhs: Relation | None = None,
                  rhs: Relation | None = None) -> Relation:
    """Set-theoretic connective semantics inside one signature fiber."""
    if op not in _FIBER_OPS:
        raise ValueError(f"unknown fiber operation {op!r}")
    arity, apply = _FIBER_OPS[op]
    operands = [r for r in (lhs, rhs) if r is not None]
    if len(operands) != arity:
        raise ValueError(f"{op} expects {arity} operand(s), got {len(operands)}")
    for r in operands:
        if r.signature != sig:
            raise SignatureMismatch(f"operand over {r.signature}, expected {sig}")
    return Relation(sig, apply(lambda: td.fiber(sig), *(r.tuples for r in operands)))


def _target_tuples_over(h: SignatureMorphism,
                        td: TypeDomain) -> Callable[[Row], Iterable[Row]]:
    """Return the map sending a tuple ``s`` over ``h.source`` to the tuples
    over ``h.target`` that project onto it, in tuple enumeration order.

    Image positions are fixed by ``s``; the others range over their extents.
    ``s`` has no such tuples when it disagrees where ``h`` merges two
    attributes or when a fixed value lies outside its extent.
    """
    extents = [td.extent(x) for x in h.target.sorts]
    fixed: dict[int, int] = {}  # target position -> first source index on it
    merged: list[tuple[int, int]] = []  # source index pairs h sends together
    for i, p in enumerate(h.positions):
        if p in fixed:
            merged.append((i, fixed[p]))
        else:
            fixed[p] = i
    members = {p: frozenset(extents[p]) for p in fixed}
    arity = len(h.source)

    def over(s: Row) -> Iterable[Row]:
        if len(s) != arity or any(s[i] != s[j] for i, j in merged):
            return ()
        choices = list(extents)
        for p, i in fixed.items():
            if s[i] not in members[p]:
                return ()
            choices[p] = (s[i],)
        return itertools.product(*choices)

    return over


def fiber_flow(mode: str, h: SignatureMorphism, rel: Relation,
               td: TypeDomain) -> Relation:
    """Quantifier flow along a signature morphism.

    exists/forall take a relation over ``h.target`` and land in ``h.source``;
    preimage goes the other way.  ``rel`` holds tuples of its fiber.
    """
    if mode == "exists":
        if rel.signature != h.target:
            raise SignatureMismatch("exists expects a relation over h.target")
        return Relation(h.source, frozenset(map(h.project, rel.tuples)))
    if mode == "preimage":
        if rel.signature != h.source:
            raise SignatureMismatch("preimage expects a relation over h.source")
        over = _target_tuples_over(h, td)
        return Relation(
            h.target,
            frozenset(itertools.chain.from_iterable(map(over, rel.tuples))),
        )
    if mode == "forall":
        if rel.signature != h.target:
            raise SignatureMismatch("forall expects a relation over h.target")
        # Division by counting: s holds iff every tuple over s is in rel,
        # i.e. iff as many tuples of rel project onto s as lie over s: the
        # product of the free extents.  s holds vacuously where none lie over
        # it: where a free extent is empty, or where s disagrees at attributes
        # h merges; only then is the source fiber walked.
        extents = [td.extent(x) for x in h.target.sorts]
        image = set(h.positions)
        free = prod(len(e) for p, e in enumerate(extents) if p not in image)
        counts = Counter(map(h.project, rel.tuples))
        held = frozenset(itertools.compress(counts, map(free.__eq__, counts.values())))
        if not free or len(image) < len(h.positions):
            # the source tuples some tuple lies over: image values, any free
            lie = itertools.product(*(e if p in image else (None,)
                                      for p, e in enumerate(extents)))
            held |= td.fiber(h.source).difference(map(h.project, lie) if free else ())
        return Relation(h.source, held)
    raise ValueError(f"unknown flow mode {mode!r}")


def table_sigma(h: SignatureMorphism, table: Table) -> Table:
    """Projection: push a table over ``h.target`` down to ``h.source``."""
    if table.signature != h.target:
        raise SignatureMismatch("table_sigma expects a table over h.target")
    project = h.project
    return Table(h.source, {k: project(t) for k, t in table.rows.items()})


def table_substitution(h: SignatureMorphism, table: Table,
                       td: TypeDomain) -> Table:
    """Inflation: pull a table over ``h.source`` back to ``h.target``.

    Pullback keys are (original key, chosen tuple) pairs, ordered by key
    then by tuple enumeration order.
    """
    if table.signature != h.source:
        raise SignatureMismatch("table_substitution expects a table over h.source")
    return _pullback(h.target, table, _target_tuples_over(h, td))


def _pullback(sig: Signature, table: Table,
              fiber: Callable[[Row], Iterable[Row]]) -> Table:
    """The table over ``sig`` keyed by ``(k, t)``, ``t`` in the fiber above key
    ``k``'s row, by key, then in fiber order.  Each distinct row's fiber is
    built once, and the keys that hold that row share its tuples."""
    fibers = {row: list(fiber(row)) for row in dict.fromkeys(table.rows.values())}
    return Table(sig, {(k, t): t for k, row in table.rows.items() for t in fibers[row]})


def check_table_morphism(m: TableMorphism, src: Table, tgt: Table) -> None:
    """Check naturality: source tuples agree with precomposed target tuples,
    and the key map is exact: it maps the target table's keys and no other."""
    h = m.sig_morphism
    if src.signature != h.source or tgt.signature != h.target:
        raise SignatureMismatch("table morphism signatures do not line up")
    # in bulk; the loops below run only to name the first bad key
    with suppress(KeyError, IndexError, TypeError):
        if len(m.key_map) == len(tgt.rows) and list(map(
                h.project, tgt.rows.values())) == list(map(
                src.rows.__getitem__, map(m.key_map.__getitem__, tgt.rows))):
            return
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


def key_equivalent(t1: Table, t2: Table) -> bool:
    """True iff some key bijection identifies the two tuple assignments.

    Decided by multiset equality of the assigned tuples.
    """
    if t1.signature != t2.signature:
        raise SignatureMismatch("key equivalence needs equal signatures")
    return sorted(t1.rows.values()) == sorted(t2.rows.values())


def table_flow_type_domain(direction: str, m: TypeDomainMorphism, table: Table,
                           a2: TypeDomain, a1: TypeDomain, checked=None) -> Table:
    """Move a table between type domains along an infomorphism.

    dextro takes a table over ``a2`` to one over ``a1`` (signature pushed
    along the sort map, keys refined by a pullback); levo takes a table over
    ``a1`` to one over ``a2`` (signature pulled back along the sort map,
    keys preserved, values pushed along the value map).  ``m`` must be an
    infomorphism from ``a2`` to ``a1``, as the workspace loader checks.
    Each direction checks that the table lies over its source domain
    (``Table.validate``), unless that is ``checked``: a domain the caller
    knows the table to lie over, such as its structure's.  Both outputs are
    well-sorted by construction: dextro draws values from ``a1``'s extents,
    and the infomorphism condition carries levo's values into ``a2``'s.
    """
    if direction not in ("dextro", "levo"):
        raise ValueError(f"unknown direction {direction!r}")
    f, g = m.f, m.g
    dextro = direction == "dextro"
    if (a2 if dextro else a1) is not checked:
        table.validate(a2 if dextro else a1)
    if dextro:
        out_sig = pushed_signature(table.signature, f)
        # inverse[x1][y2]: the values y1 of sort x1 with g(y1) = y2, in
        # extent order, so each row's pullback is a product of these lists.
        inverse: dict[str, dict[str, list[str]]] = \
            {x1: {} for x1 in out_sig.sorts}
        for x1, inv in inverse.items():
            for y1 in a1.extent(x1):
                inv.setdefault(g[y1], []).append(y1)
        lookups = [inverse[x1] for x1 in out_sig.sorts]
        return _pullback(out_sig, table, lambda t2: itertools.product(
            *[inv.get(y2, ()) for inv, y2 in zip(lookups, t2)]))
    attrs: list[str] = []
    sorts: list[str] = []
    picks: list[int] = []  # source position feeding each output attribute
    for pos, (i, s1) in enumerate(table.signature.pairs()):
        for x2 in a2.sorts:
            if f[x2] == s1:
                attrs.append(f"{i}.{x2}")
                sorts.append(x2)
                picks.append(pos)
    out_sig = Signature(tuple(attrs), tuple(sorts))
    rows = {
        k: tuple(g[t[pos]] for pos in picks)
        for k, t in table.rows.items()
    }
    return Table(out_sig, rows)
