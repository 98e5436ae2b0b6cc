"""Finite foundations: type domains, signatures, tuples, and their morphisms.

Value atoms are plain strings compared by equality.  A tuple over a signature
is a Python tuple of atoms aligned with the signature's attribute order.
All values here are immutable after construction; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping

from .errors import (FoleError, InfomorphismViolation, SignatureMismatch,
                     SortMismatch, UnknownSort, UnresolvedReference)

Row = tuple  # tuple of value atoms, aligned with a Signature's attrs


class Record:
    """Named fields with value semantics and no generated code.  A subclass
    declares them as annotations; a value in the class body is a default.
    ``==`` holds within one class, over the fields not named ``uncompared``;
    ``frozen=True`` records hash those and refuse assignment."""

    _uncompared = frozenset()

    def __init_subclass__(cls, frozen=False, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._uncompared = cls._uncompared.union(uncompared)
        cls._fields = {}  # name -> annotation
        for klass in reversed(cls.__mro__):
            cls._fields.update(vars(klass).get("__annotations__", {}))
        cls._required = {n for n in cls._fields if not hasattr(cls, n)}
        cls._key = attrgetter(*[n for n in cls._fields if n not in cls._uncompared])
        if frozen:  # a subclass inherits both
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._assign

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):  # else the fast path
            given = dict(zip(self._fields, args), **kwargs)
            if len(given) < len(args) + len(kwargs) or not (
                    self._required <= given.keys() <= self._fields.keys()):
                raise TypeError(f"{type(self).__name__}() takes {tuple(self._fields)}")
            args = [given[n] if n in given else getattr(self, n) for n in self._fields]
        for name, value in zip(self._fields, args):  # past a frozen __setattr__
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Checks run after each construction; none by default."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def _hash(self):
        return hash(self._key(self))

    def _assign(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return type(self).__qualname__ + "(" + ", ".join(
            f"{n}={getattr(self, n)!r}" for n in self._fields) + ")"


class Signature(Record, frozen=True):
    """An ordered list of named attributes, each with a sort.

    Equality is order-sensitive: signatures are indexed families, not sets.
    """

    attrs: tuple[str, ...]
    sorts: tuple[str, ...]

    def __init__(self, attrs: tuple[str, ...], sorts: tuple[str, ...]):
        if len(attrs) != len(sorts):
            raise ValueError("attrs and sorts must have equal length")
        if len(set(attrs)) != len(attrs):
            raise SignatureMismatch(f"duplicate attribute names in {attrs}")
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "sorts", sorts)

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "Signature":
        return Signature(*(tuple(zip(*pairs)) or ((), ())))

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.attrs, self.sorts))

    def sort_of(self, attr: str) -> str:
        return self.sorts[self.position(attr)]

    def position(self, attr: str) -> int:
        return self.attrs.index(attr)

    def __len__(self) -> int:
        return len(self.attrs)

    def __str__(self) -> str:
        return "(" + ",".join(f"{a}:{s}" for a, s in self.pairs()) + ")"


class TypeDomain(Record):
    """Sort-indexed finite value extents; an extent lists a value once.

    The global value set is the union of the extents; extent enumeration
    order is insertion order and is significant for tuple enumeration.
    """

    sorts: tuple[str, ...]
    extents: dict[str, tuple[str, ...]]

    def __post_init__(self):
        self.sorts = tuple(self.sorts)
        self.extents = {x: tuple(vs) for x, vs in self.extents.items()}
        for x in self.sorts:
            self.extents.setdefault(x, ())
        for x, vs in self.extents.items():
            if x not in self.sorts:
                raise UnknownSort(x)
            if len(set(vs)) < len(vs):  # the first value listed again
                v = next(v for i, v in enumerate(vs) if v in vs[:i])
                raise FoleError(f"extent of sort {x!r} lists value {v!r} twice")
        self._fibers = {}  # sorts -> their fiber's tuple set, made by fiber()

    def extent(self, sort: str) -> tuple[str, ...]:
        if sort not in self.extents:
            raise UnknownSort(sort)
        return self.extents[sort]

    def fiber(self, sig: Signature) -> frozenset[Row]:
        """All well-sorted tuples over ``sig``, enumerated once per domain."""
        if sig.sorts not in self._fibers:
            self._fibers[sig.sorts] = frozenset(enumerate_tuples(sig, self))
        return self._fibers[sig.sorts]

    def values(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for x in self.sorts:
            for v in self.extents[x]:
                seen.setdefault(v)
        return tuple(seen)


class ClassificationReport(Record, frozen=True):
    separated: bool
    extensional: bool
    disjoint: bool
    partitioned: bool  # disjoint, and every value classified


def classify(td: TypeDomain) -> ClassificationReport:
    """The classification flags, by hashing intents and extents.  The values
    are the union of the extents, so none is unclassified: a disjoint domain
    is partitioned."""
    intents: dict[str, tuple[str, ...]] = {}  # value -> the sorts listing it
    for x in td.sorts:
        for v in td.extents[x]:
            intents[v] = intents.get(v, ()) + (x,)
    extents = [frozenset(td.extents[x]) for x in td.sorts]
    disjoint = sum(map(len, extents)) == len(intents)
    return ClassificationReport(
        separated=len(set(intents.values())) == len(intents),
        extensional=len(set(extents)) == len(extents),
        disjoint=disjoint,
        partitioned=disjoint,
    )


class SignatureMorphism(Record, frozen=True):
    """A sort-preserving reindexing from ``source`` attrs into ``target`` attrs."""

    source: Signature
    target: Signature
    mapping: tuple[tuple[str, str], ...]  # (source attr, target attr), in source order

    @staticmethod
    def of(source: Signature, target: Signature,
           mapping: Mapping[str, str]) -> "SignatureMorphism":
        return SignatureMorphism(source, target, tuple(
            (a, entry(mapping, a, "attribute map")) for a in source.attrs))

    @staticmethod
    def identity(sig: Signature) -> "SignatureMorphism":
        return SignatureMorphism.of(sig, sig, {a: a for a in sig.attrs})

    @property
    def map(self) -> dict[str, str]:
        return dict(self.mapping)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """The projection plan: the target position read by each source attr."""
        tgt = self.target
        return tuple(tgt.position(b) for _, b in self.mapping)

    @cached_property
    def project(self) -> Callable[[Row], Row]:
        """Precompose one tuple over ``target`` into one over ``source``."""
        pos = self.positions
        if len(pos) == 1:
            (p,) = pos
            return lambda values: (values[p],)
        if not pos:
            return lambda values: ()
        return itemgetter(*pos)

    def then(self, other: "SignatureMorphism") -> "SignatureMorphism":
        """Diagrammatic composition: self then other."""
        if self.target != other.source:
            raise ValueError("morphisms are not composable")
        om = other.map
        return SignatureMorphism(
            self.source, other.target,
            tuple((a, om[b]) for a, b in self.mapping),
        )


def pushed_signature(sig: Signature, sort_map: Mapping[str, str]) -> Signature:
    """Apply the sort map to every attribute sort (same attribute names)."""
    return Signature(sig.attrs, tuple(entry(sort_map, s, "sort map") for s in sig.sorts))


def entry(mapping: Mapping, key, kind: str):
    """``mapping[key]``; a key it lacks is an ``UnresolvedReference`` of ``kind``."""
    if key not in mapping:
        raise UnresolvedReference(kind, key)
    return mapping[key]


def check_signature_morphism(h: SignatureMorphism) -> None:
    """Raise SortMismatch at the first index where sort preservation fails."""
    tgt = h.target
    for a, b in h.mapping:
        if b not in tgt.attrs:
            raise SortMismatch(a, "<target attribute>", b)
        if h.source.sort_of(a) != tgt.sort_of(b):
            raise SortMismatch(a, tgt.sort_of(b), h.source.sort_of(a))
    for a in h.source.attrs:
        if a not in dict(h.mapping):
            raise SortMismatch(a, "<mapped>", "<missing>")


def enumerate_tuples(sig: Signature, td: TypeDomain) -> list[Row]:
    """All well-sorted tuples over ``sig``, in lexicographic extent order."""
    extents = [td.extent(s) for s in sig.sorts]
    return list(itertools.product(*extents))


def tuple_along(h: SignatureMorphism, values: Row) -> Row:
    """Precompose a tuple over ``h.target`` into one over ``h.source``."""
    return h.project(values)


class TypeDomainMorphism(Record, frozen=True):
    """An infomorphism between type domains: sorts forward, values backward.

    ``sort_map`` sends source-domain sorts to target-domain sorts;
    ``value_map`` sends target-domain values to source-domain values.
    """

    sort_map: tuple[tuple[str, str], ...]
    value_map: tuple[tuple[str, str], ...]

    @staticmethod
    def of(sort_map: Mapping[str, str],
           value_map: Mapping[str, str]) -> "TypeDomainMorphism":
        return TypeDomainMorphism(tuple(sort_map.items()), tuple(value_map.items()))

    @staticmethod
    def identity(td: TypeDomain) -> "TypeDomainMorphism":
        return TypeDomainMorphism.of(
            {x: x for x in td.sorts}, {y: y for y in td.values()}
        )

    # f and g are built once per morphism: callers must not mutate them
    @cached_property
    def f(self) -> dict[str, str]:
        return dict(self.sort_map)

    @cached_property
    def g(self) -> dict[str, str]:
        return dict(self.value_map)

    def map_row(self, values: Row) -> Row:
        g = self.g
        return tuple(g[v] for v in values)


def check_type_domain_morphism(m: TypeDomainMorphism,
                               a2: TypeDomain, a1: TypeDomain) -> None:
    """Check the infomorphism biconditional for every (sort, value) pair.

    ``m`` goes from ``a2`` to ``a1``: sorts of ``a2`` map into sorts of
    ``a1`` and values of ``a1`` map back into values of ``a2``.
    """
    f, g = m.f, m.g
    for x2 in a2.sorts:
        if x2 not in f:
            raise InfomorphismViolation(x2, "<any>", "sort map not total")
        if f[x2] not in a1.sorts:
            raise UnknownSort(f[x2])
    for y1 in a1.values():
        if y1 not in g:
            raise InfomorphismViolation("<any>", y1, "value map not total")
    for x2 in a2.sorts:
        for y1 in a1.values():
            left = g[y1] in a2.extent(x2)
            right = y1 in a1.extent(f[x2])
            if left and not right:
                raise InfomorphismViolation(x2, y1, "g(y) classified but y is not")
            if right and not left:
                raise InfomorphismViolation(x2, y1, "y classified but g(y) is not")
