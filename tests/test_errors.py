"""Every error class keeps its message, its ``args`` and its attributes."""

import pytest

from fole import errors

# (class, arguments, str(exc), attributes): the values each class gave when it
# had a constructor of its own
CASES = [
    ("UnknownSort", ("S",), "unknown sort 'S'", {"sort": "S"}),
    ("SortMismatch", ("dept", "<mapped>", "<missing>"),
     "sort mismatch at index 'dept': expected '<mapped>', found '<missing>'",
     {"index": "dept", "expected": "<mapped>", "found": "<missing>"}),
    ("InfomorphismViolation", ("S", "v1", "value map not total"),
     "infomorphism condition fails at sort 'S', value 'v1' (value map not total)",
     {"sort": "S", "value": "v1", "direction": "value map not total"}),
    ("NaturalityViolation", (("k", 1),), "naturality fails at key ('k', 1)",
     {"key": ("k", 1)}),
    ("NaturalityViolation", ("k1", "key not mapped"),
     "naturality fails at key 'k1': key not mapped", {"key": "k1"}),
    ("NaturalityViolation", ("k1", ""), "naturality fails at key 'k1'",
     {"key": "k1"}),
    ("ParseError", ("unexpected end of input", 6),
     "unexpected end of input (at offset 6)", {"position": 6}),
    ("UnknownPredicate", ("Emp",), "unknown predicate 'Emp'", {"name": "Emp"}),
    ("UnknownMorphism", ("h",), "unknown signature morphism 'h'", {"name": "h"}),
    ("UnknownSignature", ("Pair",), "unknown signature 'Pair'",
     {"name": "Pair"}),
    ("DefiningConditionViolation", ("k1", "Emp"),
     "key 'k1' classified by 'Emp' has an ill-sorted tuple",
     {"key": "k1", "predicate": "Emp"}),
    ("KeyBridgeViolation", ("Emp", "k1"),
     "key bridge condition fails at predicate 'Emp', key 'k1'",
     {"predicate": "Emp", "key": "k1"}),
    ("EntityInfomorphismViolation", ("Emp", ("a", "b")),
     "entity infomorphism condition fails at predicate 'Emp', key ('a', 'b')",
     {"predicate": "Emp", "key": ("a", "b")}),
    ("FunctorialityViolation", ("c21&c10",), "functoriality fails at c21&c10",
     {"what": "c21&c10"}),
    ("FunctorialityViolation", ("c21&c10", "composite disagrees at key 'zzz'"),
     "functoriality fails at c21&c10: composite disagrees at key 'zzz'",
     {"what": "c21&c10"}),
    ("Unsatisfied", ("c1", ("a", "b")),
     "constraint 'c1' refuted by tuple ('a', 'b')",
     {"constraint": "c1", "tuple": ("a", "b")}),
    ("Unsatisfied", ("c1", None), "constraint 'c1' refuted by tuple None",
     {"constraint": "c1", "tuple": None}),
    ("UnresolvedReference", ("morphism", "nope"),
     "unresolved morphism reference 'nope'",
     {"kind": "morphism", "name": "nope"}),
    # the message-only classes take their message as it is
    ("FoleError", ("no such thing",), "no such thing", {}),
    ("SignatureMismatch", ("operand over (a:A)",), "operand over (a:A)", {}),
    ("FiberMismatch", ("m",), "m", {}),
    ("FlowMismatch", ("m",), "m", {}),
    ("InternalSatisfactionFailure", ("m",), "m", {}),
    ("KeyCollision", ("m",), "m", {}),
    ("ShapeError", ("m",), "m", {}),
]

# the least and most positional arguments each class with fields accepts
ARITY = {
    "UnknownSort": (1, 1), "SortMismatch": (3, 3),
    "InfomorphismViolation": (3, 3), "NaturalityViolation": (1, 2),
    "ParseError": (2, 2), "UnknownPredicate": (1, 1),
    "UnknownMorphism": (1, 1), "UnknownSignature": (1, 1),
    "DefiningConditionViolation": (2, 2), "KeyBridgeViolation": (2, 2),
    "EntityInfomorphismViolation": (2, 2), "FunctorialityViolation": (1, 2),
    "Unsatisfied": (2, 2), "UnresolvedReference": (2, 2),
}


@pytest.mark.parametrize("name, args, message, attributes", CASES,
                         ids=[f"{c[0]}-{len(c[1])}" for c in CASES])
def test_message_args_and_attributes(name, args, message, attributes):
    exc = getattr(errors, name)(*args)
    assert isinstance(exc, errors.FoleError)
    assert (str(exc), exc.args) == (message, (message,))
    assert {k: getattr(exc, k) for k in attributes} == attributes


def test_every_class_is_pinned():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.FoleError)}
    assert classes == {c[0] for c in CASES}
    assert set(ARITY) <= classes and len(ARITY) == 14


def test_empty_base_error_keeps_no_args():
    assert errors.FoleError().args == ()


@pytest.mark.parametrize("name", sorted(ARITY))
def test_wrong_argument_count(name):
    least, most = ARITY[name]
    cls = getattr(errors, name)
    for count in (least - 1, most + 1):
        with pytest.raises(TypeError):
            cls(*["x"] * count)
