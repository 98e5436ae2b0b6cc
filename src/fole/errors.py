"""Exception hierarchy shared by every module.

Validators raise the most specific subclass; every one derives from
``FoleError``.
"""


class FoleError(Exception):
    """Base class for all engine errors."""


class UnknownSort(FoleError):
    def __init__(self, sort: str):
        super().__init__(f"unknown sort {sort!r}")
        self.sort = sort


class SortMismatch(FoleError):
    def __init__(self, index: str, expected: str, found: str):
        super().__init__(
            f"sort mismatch at index {index!r}: expected {expected!r}, found {found!r}"
        )
        self.index = index
        self.expected = expected
        self.found = found


class SignatureMismatch(FoleError):
    pass


class InfomorphismViolation(FoleError):
    def __init__(self, sort: str, value: str, direction: str):
        super().__init__(
            f"infomorphism condition fails at sort {sort!r}, value {value!r} ({direction})"
        )
        self.sort = sort
        self.value = value
        self.direction = direction


class NaturalityViolation(FoleError):
    def __init__(self, key, detail: str = ""):
        super().__init__(f"naturality fails at key {key!r}" + (f": {detail}" if detail else ""))
        self.key = key


class ParseError(FoleError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownPredicate(FoleError):
    def __init__(self, name: str):
        super().__init__(f"unknown predicate {name!r}")
        self.name = name


class UnknownMorphism(FoleError):
    def __init__(self, name: str):
        super().__init__(f"unknown signature morphism {name!r}")
        self.name = name


class UnknownSignature(FoleError):
    def __init__(self, name: str):
        super().__init__(f"unknown signature {name!r}")
        self.name = name


class FiberMismatch(FoleError):
    pass


class FlowMismatch(FoleError):
    pass


class DefiningConditionViolation(FoleError):
    def __init__(self, key, predicate: str):
        super().__init__(
            f"key {key!r} classified by {predicate!r} has an ill-sorted tuple"
        )
        self.key = key
        self.predicate = predicate


class KeyBridgeViolation(FoleError):
    def __init__(self, predicate: str, key):
        super().__init__(f"key bridge condition fails at predicate {predicate!r}, key {key!r}")
        self.predicate = predicate
        self.key = key


class EntityInfomorphismViolation(FoleError):
    def __init__(self, predicate: str, key):
        super().__init__(
            f"entity infomorphism condition fails at predicate {predicate!r}, key {key!r}"
        )
        self.predicate = predicate
        self.key = key


class NaturalitySquareViolation(FoleError):
    def __init__(self, constraint: str, detail: str = ""):
        super().__init__(
            f"naturality square fails at constraint {constraint!r}"
            + (f": {detail}" if detail else "")
        )
        self.constraint = constraint


class FunctorialityViolation(FoleError):
    def __init__(self, what: str, detail: str = ""):
        super().__init__(f"functoriality fails at {what}" + (f": {detail}" if detail else ""))
        self.what = what


class Unsatisfied(FoleError):
    def __init__(self, constraint: str, tuple_):
        super().__init__(
            f"constraint {constraint!r} refuted by tuple {tuple_!r}"
        )
        self.constraint = constraint
        self.tuple = tuple_


class InternalSatisfactionFailure(FoleError):
    pass


class UnresolvedReference(FoleError):
    def __init__(self, kind: str, name: str):
        super().__init__(f"unresolved {kind} reference {name!r}")
        self.kind = kind
        self.name = name


class KeyCollision(FoleError):
    pass


class ShapeError(FoleError):
    pass
