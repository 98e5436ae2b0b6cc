"""Formula syntax: AST, DSL parser, signature inference, sequents, constraints.

Grammar (loosest to tightest, ``=>`` right-associative)::

    formula := diff ("=>" formula)?
    diff    := join ("\\\\" join)*
    join    := meet ("\\/" meet)*
    meet    := unary ("/\\" unary)*
    unary   := ("~" | "exists[N]" | "forall[N]" | "subst[N]") unary | primary
    primary := IDENT | "top@"NAME | "bot@"NAME | "(" formula ")"

Flow operators carry a named signature morphism resolved against an
environment; atoms resolve against a schema.  Nesting is capped at
``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .core import Record, Signature, SignatureMorphism
from .errors import (
    FiberMismatch,
    FlowMismatch,
    ParseError,
    SignatureMismatch,
    UnknownMorphism,
    UnknownPredicate,
    UnknownSignature,
)


class Schema(Record):
    """Predicate names with their signatures over a fixed sort set."""

    sorts: tuple[str, ...]
    predicates: dict[str, Signature]
    signatures: dict[str, Signature] = None  # named fibers usable in top@/bot@

    def __post_init__(self):
        if self.signatures is None:
            self.signatures = {}
        for r, sig in self.predicates.items():
            for s in sig.sorts:
                if s not in self.sorts:
                    raise SignatureMismatch(f"predicate {r!r} mentions unknown sort {s!r}")

    def signature_of(self, predicate: str) -> Signature:
        if predicate not in self.predicates:
            raise UnknownPredicate(predicate)
        return self.predicates[predicate]


# ---------------------------------------------------------------- AST nodes
# Three families; consumers branch once per family and read class attributes.
# Atoms.  The seven fiber connectives, whose operands and result share one
# fiber: each declares ``operands`` (its operand fields), ``op`` (its
# ``fiber_boolean`` operation) and its DSL ``keyword`` or ``symbol``.  The
# flows along a signature morphism: ``keyword``, ``mode`` and ``fibers``.

class Atom(Record, frozen=True):
    predicate: str


class Constant(Record, frozen=True, uncompared=("name",)):
    """The whole fiber or the empty one: ``keyword@NAME`` in the DSL, the
    ``fiber_boolean`` operation ``op``."""

    signature: Signature
    name: str = ""
    operands = ()


class Top(Constant):
    keyword, op = "top", "top"


class Bottom(Constant):
    keyword, op = "bot", "bottom"


class Neg(Record, frozen=True):
    body: "Formula"
    symbol, op, operands = "~", "negation", ("body",)


class Binary(Record, frozen=True):
    """A connective whose operands and result share one fiber: the infix
    ``symbol`` in the DSL, the ``fiber_boolean`` operation ``op``."""

    lhs: "Formula"
    rhs: "Formula"
    operands = ("lhs", "rhs")


class Meet(Binary):
    symbol, op = "/\\", "meet"


class Join(Binary):
    symbol, op = "\\/", "join"


class Impl(Binary):
    symbol, op = "=>", "implication"


class Diff(Binary):
    symbol, op = "\\\\", "difference"


class Flow(Record, frozen=True, uncompared=("name",)):
    """A flow along a named signature morphism: ``keyword[NAME]`` in the
    DSL, the ``fiber_flow`` mode ``mode``."""

    morphism: SignatureMorphism
    body: "Formula"
    name: str = ""

    def fibers(self) -> tuple[Signature, Signature]:
        """The body's fiber and the result's: from ``h.target`` to ``h.source``."""
        return self.morphism.target, self.morphism.source


class Exists(Flow):
    keyword, mode = "exists", "exists"


class Forall(Flow):
    keyword, mode = "forall", "forall"


class Subst(Flow):
    keyword, mode = "subst", "preimage"

    def fibers(self) -> tuple[Signature, Signature]:  # the other way
        return self.morphism.source, self.morphism.target


Formula = Union[Atom, Top, Bottom, Meet, Join, Neg, Impl, Diff, Exists, Forall, Subst]


def infer_signature(phi: Formula, schema: Schema) -> Signature:
    """The unique fiber signature of a formula; rejects ill-typed nodes."""
    if isinstance(phi, Atom):
        return schema.signature_of(phi.predicate)
    if isinstance(phi, (Constant, Neg, Binary)):
        fibers = [infer_signature(getattr(phi, o), schema) for o in phi.operands]
        if len(set(fibers)) > 1:
            raise FiberMismatch(f"operands of {phi.symbol} live in different "
                                f"fibers: {fibers[0]} vs {fibers[1]}")
        return fibers[0] if fibers else phi.signature
    if isinstance(phi, Flow):
        expected, result = phi.fibers()
        body = infer_signature(phi.body, schema)
        if body != expected:
            raise FlowMismatch(f"{phi.keyword} body over {body}, expected {expected}")
        return result
    raise TypeError(f"not a formula node: {phi!r}")


# ------------------------------------------------------------------ parser

# Nesting levels a parsed formula may have, far below the recursion limit:
# each parenthesis, prefix and operator of a chain (``=>`` too) opens one.
MAX_DEPTH = 100
_FLOWS = {c.keyword: c for c in (Exists, Forall, Subst)}
_CONSTANTS = {c.keyword: c for c in (Top, Bottom)}
_CHAINS = (Diff, Join, Meet)  # left-associative, loosest first

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(
    r"(?:"
    rf"(?P<flow>{'|'.join(_FLOWS)})\[(?P<mname>[A-Za-z_][\w.]*)\]"
    rf"|(?P<nullary>{'|'.join(_CONSTANTS)})@(?P<sname>[A-Za-z_][\w.]*)"
    r"|(?P<ident>[A-Za-z_][\w.]*)"
    r"|(?P<op>/\\|\\/|\\\\|=>|~|\(|\))"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) of each token, the offset being the token's
    first character, then ``(None, None, len(text))`` for the end of input;
    the whitespace between tokens is skipped."""
    tokens, pos = [], _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m["flow"] or m["nullary"] or m["op"] or "ident"
        value = m["mname"] or m["sname"] or m["op"] or m["ident"]
        tokens.append((kind, value, pos))
        pos = _SPACE.match(text, m.end()).end()
    return tokens + [(None, None, len(text))]


class _Parser:
    def __init__(self, tokens, schema: Schema,
                 morphisms: Mapping[str, SignatureMorphism]):
        self.tokens = tokens
        self.i = 0
        self.schema = schema
        self.morphisms = morphisms

    def peek(self):
        return self.tokens[min(self.i, len(self.tokens) - 1)]

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def nest(self, depth: int) -> int:
        """Take the token that opens a level below ``depth``; the new depth."""
        pos = self.take()[2]
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def formula(self, depth: int) -> Formula:
        lhs = self.chain(depth)
        if self.peek()[0] == Impl.symbol:
            return Impl(lhs, self.formula(self.nest(depth)))
        return lhs

    def chain(self, depth: int, level: int = 0) -> Formula:
        """A left-associative chain of ``_CHAINS[level]`` operators."""
        if level == len(_CHAINS):
            return self.unary(depth)
        node = _CHAINS[level]
        lhs = self.chain(depth, level + 1)
        while self.peek()[0] == node.symbol:
            depth = self.nest(depth)
            lhs = node(lhs, self.chain(depth, level + 1))
        return lhs

    def unary(self, depth: int) -> Formula:
        kind, value, _ = self.peek()
        if kind == Neg.symbol:
            return Neg(self.unary(self.nest(depth)))
        if kind in _FLOWS:
            depth = self.nest(depth)
            if value not in self.morphisms:
                raise UnknownMorphism(value)
            return _FLOWS[kind](self.morphisms[value], self.unary(depth), value)
        return self.primary(depth)

    def primary(self, depth: int) -> Formula:
        if self.peek()[0] == "(":
            inner = self.formula(self.nest(depth))
            kind, value, pos = self.take()
            if kind != ")":
                found = "end of input" if kind is None else repr(value)
                raise ParseError(f"expected ')', found {found}", pos)
            return inner
        kind, value, pos = self.take()
        if kind == "ident":
            if value not in self.schema.predicates:
                raise UnknownPredicate(value)
            return Atom(value)
        if kind in _CONSTANTS:
            if value not in self.schema.signatures:
                raise UnknownSignature(value)
            return _CONSTANTS[kind](self.schema.signatures[value], value)
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_formula(text: str, schema: Schema,
                  morphisms: Mapping[str, SignatureMorphism] | None = None) -> Formula:
    """Parse the formula DSL; atoms resolve against ``schema``, flow
    annotations against ``morphisms``, top@/bot@ names against the schema's
    named signatures.  A formula nested more than ``MAX_DEPTH`` levels is a
    ``ParseError``."""
    parser = _Parser(_tokenize(text), schema, {} if morphisms is None else morphisms)
    phi = parser.formula(0)
    kind, value, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"trailing input {value!r}", pos)
    return phi


def print_formula(phi: Formula) -> str:
    """Canonical printer; parse(print(phi)) == phi for resolvable names."""
    if isinstance(phi, Atom):
        return phi.predicate
    if isinstance(phi, Constant):
        return f"{phi.keyword}@{phi.name or phi.signature}"
    if isinstance(phi, Neg):
        return f"{phi.symbol}{print_formula(phi.body)}"
    if isinstance(phi, Flow):
        return f"{phi.keyword}[{phi.name}] {print_formula(phi.body)}"
    if isinstance(phi, Binary):
        return f"({print_formula(phi.lhs)} {phi.symbol} {print_formula(phi.rhs)})"
    raise TypeError(f"not a formula node: {phi!r}")


# ----------------------------------------------------- sequents/constraints

class Sequent(Record, frozen=True):
    """An entailment assertion inside one fiber."""

    lhs: Formula
    rhs: Formula

    def check(self, schema: Schema) -> Signature:
        ls = infer_signature(self.lhs, schema)
        rs = infer_signature(self.rhs, schema)
        if ls != rs:
            raise FiberMismatch(f"sequent sides in different fibers: {ls} vs {rs}")
        return ls


class Constraint(Record, frozen=True):
    """A cross-fiber entailment: source formula, target formula, and a
    signature morphism from the source fiber to the target fiber."""

    name: str
    source: Formula
    target: Formula
    morphism: SignatureMorphism

    def check(self, schema: Schema) -> None:
        src = infer_signature(self.source, schema)
        tgt = infer_signature(self.target, schema)
        if src != self.morphism.source:
            raise FlowMismatch(
                f"constraint {self.name!r}: source fiber {src} != morphism source "
                f"{self.morphism.source}"
            )
        if tgt != self.morphism.target:
            raise FlowMismatch(
                f"constraint {self.name!r}: target fiber {tgt} != morphism target "
                f"{self.morphism.target}"
            )


def enfold_sequent(q: Sequent) -> Formula:
    return Impl(q.lhs, q.rhs)


def enfold_constraint(c: Constraint, side: str, name: str = "") -> Formula:
    """Collapse a constraint into a single formula.

    side="source" yields the implication in the source fiber (projection of
    the target formula implies the source formula); side="target" yields the
    one in the target fiber (target formula implies the substituted source
    formula).
    """
    if side == "source":
        return Impl(Exists(c.morphism, c.target, name=name), c.source)
    if side == "target":
        return Impl(c.target, Subst(c.morphism, c.source, name=name))
    raise ValueError(f"unknown side {side!r}")
