"""Formula syntax: AST, DSL parser, signature inference, sequents, constraints.

Grammar (loosest to tightest, ``=>`` right-associative)::

    formula := diff ("=>" formula)?
    diff    := join ("\\\\" join)*
    join    := meet ("\\/" meet)*
    meet    := unary ("/\\" unary)*
    unary   := ("~" | "exists[N]" | "forall[N]" | "subst[N]") unary | primary
    primary := IDENT | "top@"NAME | "bot@"NAME | "(" formula ")"

Flow operators carry a named signature morphism resolved against an
environment; atoms resolve against a schema.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Union

from .core import Signature, SignatureMorphism
from .errors import (
    FiberMismatch,
    FlowMismatch,
    ParseError,
    UnknownMorphism,
    UnknownPredicate,
    UnknownSignature,
)


@dataclass
class Schema:
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
                    raise ValueError(f"predicate {r!r} mentions unknown sort {s!r}")

    def signature_of(self, predicate: str) -> Signature:
        if predicate not in self.predicates:
            raise UnknownPredicate(predicate)
        return self.predicates[predicate]


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Atom:
    predicate: str


@dataclass(frozen=True)
class Top:
    signature: Signature
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Bottom:
    signature: Signature
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Meet:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Join:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class Impl:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Diff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class Exists:
    morphism: SignatureMorphism
    body: "Formula"
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Forall:
    morphism: SignatureMorphism
    body: "Formula"
    name: str = field(default="", compare=False)


@dataclass(frozen=True)
class Subst:
    morphism: SignatureMorphism
    body: "Formula"
    name: str = field(default="", compare=False)


Formula = Union[Atom, Top, Bottom, Meet, Join, Neg, Impl, Diff, Exists, Forall, Subst]

_BINARY = {Meet: "/\\", Join: "\\/", Diff: "\\\\", Impl: "=>"}
_FLOW = {Exists: "exists", Forall: "forall", Subst: "subst"}


def infer_signature(phi: Formula, schema: Schema) -> Signature:
    """The unique fiber signature of a formula; rejects ill-typed nodes."""
    if isinstance(phi, Atom):
        return schema.signature_of(phi.predicate)
    if isinstance(phi, (Top, Bottom)):
        return phi.signature
    if isinstance(phi, (Meet, Join, Impl, Diff)):
        ls = infer_signature(phi.lhs, schema)
        rs = infer_signature(phi.rhs, schema)
        if ls != rs:
            raise FiberMismatch(
                f"operands of {_BINARY[type(phi)]} live in different fibers: {ls} vs {rs}"
            )
        return ls
    if isinstance(phi, Neg):
        return infer_signature(phi.body, schema)
    if isinstance(phi, (Exists, Forall)):
        body = infer_signature(phi.body, schema)
        if body != phi.morphism.target:
            raise FlowMismatch(
                f"{_FLOW[type(phi)]} body over {body}, expected {phi.morphism.target}"
            )
        return phi.morphism.source
    if isinstance(phi, Subst):
        body = infer_signature(phi.body, schema)
        if body != phi.morphism.source:
            raise FlowMismatch(
                f"subst body over {body}, expected {phi.morphism.source}"
            )
        return phi.morphism.target
    raise TypeError(f"not a formula node: {phi!r}")


# ------------------------------------------------------------------ parser

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<flow>exists|forall|subst)\[(?P<mname>[A-Za-z_][\w.]*)\]"
    r"|(?P<nullary>top|bot)@(?P<sname>[A-Za-z_][\w.]*)"
    r"|(?P<ident>[A-Za-z_][\w.]*)"
    r"|(?P<op>/\\|\\/|\\\\|=>|~|\(|\))"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group("flow"):
            tokens.append(("flow:" + m.group("flow"), m.group("mname"), m.start()))
        elif m.group("nullary"):
            tokens.append((m.group("nullary"), m.group("sname"), m.start()))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start()))
        else:
            tokens.append((m.group("op"), m.group("op"), m.start()))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, schema: Schema,
                 morphisms: Mapping[str, SignatureMorphism],
                 signatures: Mapping[str, Signature]):
        self.tokens = tokens
        self.i = 0
        self.schema = schema
        self.morphisms = morphisms
        self.signatures = signatures

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        lhs = self.diff()
        if self.peek()[0] == "=>":
            self.take()
            return Impl(lhs, self.formula())
        return lhs

    def diff(self) -> Formula:
        lhs = self.join()
        while self.peek()[0] == "\\\\":
            self.take()
            lhs = Diff(lhs, self.join())
        return lhs

    def join(self) -> Formula:
        lhs = self.meet()
        while self.peek()[0] == "\\/":
            self.take()
            lhs = Join(lhs, self.meet())
        return lhs

    def meet(self) -> Formula:
        lhs = self.unary()
        while self.peek()[0] == "/\\":
            self.take()
            lhs = Meet(lhs, self.unary())
        return lhs

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "~":
            self.take()
            return Neg(self.unary())
        if kind in ("flow:exists", "flow:forall", "flow:subst"):
            self.take()
            if value not in self.morphisms:
                raise UnknownMorphism(value)
            h = self.morphisms[value]
            body = self.unary()
            node = {"flow:exists": Exists, "flow:forall": Forall,
                    "flow:subst": Subst}[kind]
            return node(h, body, name=value)
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "ident":
            if value not in self.schema.predicates:
                raise UnknownPredicate(value)
            return Atom(value)
        if kind in ("top", "bot"):
            if value not in self.signatures:
                raise UnknownSignature(value)
            sig = self.signatures[value]
            return (Top if kind == "top" else Bottom)(sig, name=value)
        if kind == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_formula(text: str, schema: Schema,
                  morphisms: Mapping[str, SignatureMorphism] | None = None,
                  signatures: Mapping[str, Signature] | None = None) -> Formula:
    """Parse the formula DSL; atoms resolve against ``schema``, flow
    annotations against ``morphisms``, top@/bot@ names against ``signatures``
    (falling back to the schema's named signatures)."""
    sig_env = dict(schema.signatures)
    if signatures:
        sig_env.update(signatures)
    parser = _Parser(_tokenize(text), schema, morphisms or {}, sig_env)
    phi = parser.formula()
    kind, value, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"trailing input {value!r}", pos)
    return phi


def print_formula(phi: Formula) -> str:
    """Canonical printer; parse(print(phi)) == phi for resolvable names."""
    if isinstance(phi, Atom):
        return phi.predicate
    if isinstance(phi, Top):
        return f"top@{phi.name}" if phi.name else f"top@{phi.signature}"
    if isinstance(phi, Bottom):
        return f"bot@{phi.name}" if phi.name else f"bot@{phi.signature}"
    if isinstance(phi, Neg):
        return f"~{print_formula(phi.body)}"
    if isinstance(phi, (Exists, Forall, Subst)):
        op = _FLOW[type(phi)]
        return f"{op}[{phi.name}] {print_formula(phi.body)}"
    op = _BINARY[type(phi)]
    return f"({print_formula(phi.lhs)} {op} {print_formula(phi.rhs)})"


# ----------------------------------------------------- sequents/constraints

@dataclass(frozen=True)
class Sequent:
    """An entailment assertion inside one fiber."""

    lhs: Formula
    rhs: Formula

    def check(self, schema: Schema) -> Signature:
        ls = infer_signature(self.lhs, schema)
        rs = infer_signature(self.rhs, schema)
        if ls != rs:
            raise FiberMismatch(f"sequent sides in different fibers: {ls} vs {rs}")
        return ls


@dataclass(frozen=True)
class Constraint:
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
