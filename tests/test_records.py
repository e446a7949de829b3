"""The package's five records: positional and keyword construction, equality
field by field and only within one type, the Name(field=value, ...) repr,
hashing, and assignment refused by the two frozen ones."""

import pytest

from schubertisom import (
    CohomologyOracle,
    EquivalenceWitness,
    ReconstructedPresentation,
    Reflection,
    SchubertClass,
    check_equivalence,
    cover_reflection,
    element_from_word,
    interval,
)

from conftest import A2, A3, C3

S1S2 = element_from_word(A3, ["s1", "s2"])
ITV = interval(S1S2)


def _records():
    """(record type, field names, field values) for each record."""
    u = element_from_word(A3, ["s1", "s2", "s3"])
    v = element_from_word(C3, ["s1", "s2", "s3"])
    oracle = ((("u", 0), ("g", 2)), ("g",), {("g", "u"): (("g", 1),)})
    return [
        (SchubertClass, ("interval", "coeffs"), (ITV, {S1S2: 1})),
        (CohomologyOracle, ("basis", "generators", "products"), oracle),
        (ReconstructedPresentation, ("cartan", "word", "free_entries"),
         (A2, ("s1", "s2"), frozenset())),
        (EquivalenceWitness, ("source", "target", "sigma"),
         (u, v, {"s1": "s1", "s2": "s2", "s3": "s3"})),
        (Reflection, ("element", "root", "coroot"),
         (element_from_word(A3, ["s1"]), (1, 0, 0), (1, 0, 0))),
    ]


def _params(*types):
    records = [r for r in _records() if not types or r[0] in types]
    return pytest.mark.parametrize(
        "cls, names, values", records, ids=[r[0].__name__ for r in records]
    )


@_params()
def test_keyword_construction_equals_positional(cls, names, values):
    record = cls(**dict(zip(names, values)))
    assert record == cls(*values)
    assert tuple(getattr(record, f) for f in names) == values


@_params()
def test_equality_is_field_wise_and_type_strict(cls, names, values):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    last = {S1S2: 2} if cls is SchubertClass else None
    assert record != cls(*values[:-1], last)
    assert record != values and values != record
    assert record != object()


def test_equal_fields_of_another_record_type_are_not_equal():
    assert CohomologyOracle(1, 2, 3) != ReconstructedPresentation(1, 2, 3)
    assert EquivalenceWitness(1, 2, 3) != Reflection(1, 2, 3)


def test_reprs():
    u = element_from_word(A3, ["s1", "s2", "s3"])
    v = element_from_word(C3, ["s1", "s2", "s3"])
    assert repr(check_equivalence(u, v)) == (
        "EquivalenceWitness(source=WeylElement(s1 s2 s3), target=WeylElement(s1 s2 s3), "
        "sigma={'s1': 's1', 's2': 's2', 's3': 's3'})"
    )
    assert repr(cover_reflection(element_from_word(A3, ["s2"]), S1S2)) == (
        "Reflection(element=WeylElement(s1), root=(1, 0, 0), coroot=(1, 0, 0))"
    )
    assert repr(ReconstructedPresentation(A2, ("s2", "s1"), frozenset({("s1", "s2")}))) == (
        "ReconstructedPresentation(cartan=CartanMatrix(['s1', 's2'], ((2, -1), (-1, 2))), "
        "word=('s2', 's1'), free_entries=frozenset({('s1', 's2')}))"
    )
    assert repr(CohomologyOracle((("u", 0), ("g", 2)), ("g",), {("g", "u"): (("g", 1),)})) == (
        "CohomologyOracle(basis=(('u', 0), ('g', 2)), generators=('g',), "
        "products={('g', 'u'): (('g', 1),)})"
    )
    # The interval has the default object repr, which holds its address.
    assert repr(SchubertClass(ITV, {S1S2: 1})) == (
        f"SchubertClass(interval={ITV!r}, coeffs={{WeylElement(s1 s2): 1}})"
    )


@_params(SchubertClass, CohomologyOracle, ReconstructedPresentation)
def test_plain_records_are_unhashable(cls, names, values):
    with pytest.raises(TypeError):
        hash(cls(*values))


def test_frozen_records_hash_by_their_fields():
    reflection = cover_reflection(element_from_word(A3, ["s2"]), S1S2)
    copy = Reflection(reflection.element, reflection.root, reflection.coroot)
    assert hash(reflection) == hash(copy) == hash((copy.element, copy.root, copy.coroot))
    assert len({reflection, copy}) == 1
    assert hash(EquivalenceWitness(1, 2, ("s1", "s1"))) == hash((1, 2, ("s1", "s1")))
    with pytest.raises(TypeError):  # sigma is a dict
        hash(check_equivalence(S1S2, S1S2))


@_params(EquivalenceWitness, Reflection)
def test_frozen_records_refuse_assignment(cls, names, values):
    record = cls(*values)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == cls(*values)


def test_schubert_class_drops_zero_coefficients():
    e = element_from_word(A3, [])
    assert SchubertClass(ITV, {S1S2: 0, e: 2}).coeffs == {e: 2}
