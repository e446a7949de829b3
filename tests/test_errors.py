"""The package's typed errors: for each one built from sample values, its
exact text, type name, bases and attributes; and an integer too long to
print, alone or inside a label, keeps the error that reports it typed."""

import pytest

from schubertisom import (
    CohomologyOracle,
    EquivalenceWitness,
    chevalley_product,
    element_from_word,
    export_oracle,
    interval,
    reconstruct,
    simple_square_closed_form,
    support_closure,
    transport_interval,
    two_letter_leq,
    validate_cartan,
)
from schubertisom import errors
from schubertisom.cohomology import minimal_coset_reps
from schubertisom.errors import SchubertError
from schubertisom.freealg import ParseError

from conftest import A2

ERR = SchubertError
# (type, constructor arguments, str(exc), instance attributes, bases)
CASES = [
    (errors.NonSquareError, (3, 2), "matrix is not square over 3 labels: row count 2",
     {"nrows": 2, "ncols": None}, (ERR,)),
    (errors.NonSquareError, (3, 3, "b", 4),
     "matrix is not square over 3 labels: row 'b' has length 4",
     {"nrows": 3, "ncols": 4}, (ERR,)),
    (errors.DiagonalNotTwoError, ("a", 3), "diagonal entry at 'a' is 3, expected 2",
     {"label": "a", "value": 3}, (ERR,)),
    (errors.PositiveOffDiagonalError, ("a", "b", 1),
     "off-diagonal entry ('a','b') is 1, expected <= 0",
     {"s": "a", "t": "b", "value": 1}, (ERR,)),
    (errors.ZeroAsymmetryError, ("a", "b"),
     "entry ('a','b') is zero but ('b','a') is not (or vice versa)",
     {"s": "a", "t": "b"}, (ERR,)),
    (errors.InvalidIndexSetError, ("labels repeat",), "labels repeat", {}, (ERR, ValueError)),
    (errors.MalformedCartanError, ("no matrix",), "no matrix", {}, (ERR,)),
    (errors.UnknownLabelError, ("x",), "unknown generator label 'x'", {"label": "x"}, (ERR,)),
    (errors.UnknownLabelError, (7,), "unknown generator label 7", {"label": 7}, (ERR,)),
    (errors.TooLargeError, (13, 12), "index set of size 13 exceeds search cap 12",
     {"size": 13, "cap": 12}, (ERR,)),
    (errors.MixedContextsError, (), "elements belong to different Cartan matrices", {}, (ERR,)),
    (errors.InvalidWitnessError, ("not a bijection",), "not a bijection", {}, (ERR,)),
    (errors.NotInSupportError, ("c",), "generator 'c' is not in the support of the element",
     {"label": "c"}, (ERR,)),
    (errors.NotInIntervalError, (("a", "b"),), "element a b is not in the interval",
     {"word": ("a", "b")}, (ERR,)),
    (errors.NotInIntervalError, ((),), "element e is not in the interval", {"word": ()}, (ERR,)),
    (errors.EnumerationCapExceededError, (5,), "more than 5 elements enumerated (element cap 5)",
     {"cap": 5}, (ERR,)),
    (errors.RewriteCapExceededError, (7,),
     "normal form needs more than 7 monomial symbols (rewrite cap 7)", {"cap": 7}, (ERR,)),
    (errors.NotACoverError, (), "second element does not cover the first in Bruhat order",
     {}, (ERR,)),
    (errors.MalformedOracleError, ("no unit",), "no unit", {}, (ERR,)),
    (ParseError, ("trailing input",), "trailing input", {}, (ERR,)),
    (SchubertError, ("bad input",), "bad input", {}, (Exception,)),
]


@pytest.mark.parametrize(
    "kind, args, text, attributes, bases", CASES,
    ids=[f"{case[0].__name__}-{k}" for k, case in enumerate(CASES)],
)
def test_error_text_type_and_attributes(kind, args, text, attributes, bases):
    exc = kind(*args)
    assert str(exc) == text
    assert exc.args == (text,)
    assert type(exc).__name__ == kind.__name__
    assert type(exc).__bases__ == bases
    assert vars(exc) == attributes
    with pytest.raises(kind):
        raise exc


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_type_is_pinned():
    """A new SchubertError subclass in the package gets a case above."""
    package = {cls for cls in _subclasses(SchubertError)
               if cls.__module__.startswith("schubertisom.")}
    assert package == {case[0] for case in CASES} - {SchubertError}


# 10**5000 is past Python's default limit of 4300 digits for int-to-str.
HUGE = 10**5000
SHOWN = f"<int of {HUGE.bit_length()} bits>"


@pytest.mark.parametrize("call, kind, text", [
    (lambda: validate_cartan([[2, HUGE], [-1, 2]], ["a", "b"]), errors.PositiveOffDiagonalError,
     f"off-diagonal entry ('a','b') is {SHOWN}, expected <= 0"),
    (lambda: validate_cartan([[HUGE, -1], [-1, 2]], ["a", "b"]), errors.DiagonalNotTwoError,
     f"diagonal entry at 'a' is {SHOWN}, expected 2"),
    (lambda: element_from_word(A2, [HUGE]), errors.UnknownLabelError,
     f"unknown generator label {SHOWN}"),
    (lambda: element_from_word(A2, [(HUGE,)]), errors.UnknownLabelError,
     "unknown generator label <tuple too long to print>"),
], ids=["positive-off-diagonal", "diagonal", "unknown-label", "unknown-tuple-label"])
def test_too_long_integer_keeps_the_error_typed(call, kind, text):
    with pytest.raises(kind) as raised:
        call()
    assert str(raised.value) == text


def _w0_a2_oracle(coeff):
    """The oracle of w0 of A2, with one generator's square coefficient set to coeff."""
    oracle = export_oracle(element_from_word(A2, ["s1", "s2", "s1"]))
    products = dict(oracle.products)
    g = oracle.generators[0]
    products[g, g] = tuple((v, coeff) for v, _ in products[g, g])
    return CohomologyOracle(oracle.basis, oracle.generators, products)


@pytest.mark.parametrize("coeff", [-3, -HUGE], ids=["minus-3", "minus-huge"])
def test_too_long_oracle_coefficient_is_a_malformed_oracle(coeff):
    with pytest.raises(errors.MalformedOracleError, match="recovered matrix is not Cartan"):
        reconstruct(_w0_a2_oracle(coeff))


def test_too_long_integer_keeps_its_value():
    """Only the text renders the value; the attribute holds it whole."""
    exc = errors.DiagonalNotTwoError("a", HUGE)
    assert exc.value == HUGE
    assert str(exc) == f"diagonal entry at 'a' is {SHOWN}, expected 2"


S1S2 = element_from_word(A2, ["s1", "s2"])
S1S2_INTERVAL = interval(S1S2)


@pytest.mark.parametrize("call, kind", [
    (lambda s: chevalley_product(s, S1S2, S1S2_INTERVAL), errors.UnknownLabelError),
    (lambda s: simple_square_closed_form(s, S1S2_INTERVAL), errors.UnknownLabelError),
    (lambda s: two_letter_leq(A2, s, "s1", S1S2), errors.NotInSupportError),
    (lambda s: minimal_coset_reps([s], S1S2_INTERVAL), errors.UnknownLabelError),
    (lambda s: support_closure([s], S1S2_INTERVAL), errors.UnknownLabelError),
    (lambda s: transport_interval(EquivalenceWitness(S1S2, S1S2, {"s1": s, "s2": "s2"})),
     errors.InvalidWitnessError),
], ids=["chevalley_product", "simple_square_closed_form", "two_letter_leq",
        "minimal_coset_reps", "support_closure", "transport_interval"])
def test_unhashable_label_gets_the_typed_error(call, kind):
    """A label that cannot be hashed, such as ['s1'], gets the typed error
    that a hashable label A lacks gets, never a bare TypeError."""
    for label in ("x", ["s1"]):
        with pytest.raises(kind) as raised:
            call(label)
        assert repr(label) in str(raised.value)
