"""Exception hierarchy: validators raise the most specific ``FoleError``."""


class FoleError(Exception):
    """Base class for all engine errors.

    A subclass with ``fields`` takes one argument per field, keeps each as an
    attribute and formats its ``template`` with them. A last field ``detail``
    may be left out; if given, ``: detail`` is appended. Others take a message.
    """

    fields: tuple[str, ...] = ()
    detail = ""

    def __init__(self, *args):
        names = self.fields
        if names:
            if not len(names) - (names[-1] == "detail") <= len(args) <= len(names):
                raise TypeError(f"{type(self).__name__}{names} got {len(args)} argument(s)")
            self.__dict__.update(zip(names, args))
            message = self.template.format_map(vars(self))
            args = (f"{message}: {self.detail}" if self.detail else message,)
        super().__init__(*args)


class UnknownSort(FoleError):
    fields = ("sort",)
    template = "unknown sort {sort!r}"


class SortMismatch(FoleError):
    fields = ("index", "expected", "found")
    template = "sort mismatch at index {index!r}: expected {expected!r}, found {found!r}"


class SignatureMismatch(FoleError):
    pass


class InfomorphismViolation(FoleError):
    fields = ("sort", "value", "direction")
    template = "infomorphism condition fails at sort {sort!r}, value {value!r} ({direction})"


class NaturalityViolation(FoleError):
    fields = ("key", "detail")
    template = "naturality fails at key {key!r}"


class ParseError(FoleError):
    fields = ("message", "position")
    template = "{message} (at offset {position})"


class UnknownPredicate(FoleError):
    fields = ("name",)
    template = "unknown predicate {name!r}"


class UnknownMorphism(FoleError):
    fields = ("name",)
    template = "unknown signature morphism {name!r}"


class UnknownSignature(FoleError):
    fields = ("name",)
    template = "unknown signature {name!r}"


class FiberMismatch(FoleError):
    pass


class FlowMismatch(FoleError):
    pass


class DefiningConditionViolation(FoleError):
    fields = ("key", "predicate")
    template = "key {key!r} classified by {predicate!r} has an ill-sorted tuple"


class KeyBridgeViolation(FoleError):
    fields = ("predicate", "key")
    template = "key bridge condition fails at predicate {predicate!r}, key {key!r}"


class EntityInfomorphismViolation(FoleError):
    fields = ("predicate", "key")
    template = "entity infomorphism condition fails at predicate {predicate!r}, key {key!r}"


class FunctorialityViolation(FoleError):
    fields = ("what", "detail")
    template = "functoriality fails at {what}"


class Unsatisfied(FoleError):
    fields = ("constraint", "tuple")
    template = "constraint {constraint!r} refuted by tuple {tuple!r}"


class InternalSatisfactionFailure(FoleError):
    pass


class UnresolvedReference(FoleError):
    fields = ("kind", "name")
    template = "unresolved {kind} reference {name!r}"


class KeyCollision(FoleError):
    pass


class ShapeError(FoleError):
    pass
