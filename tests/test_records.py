"""The package's six records: positional and keyword construction, refusal
of a missing, extra, unknown or doubly given field, equality field by field
and only within one type, the Name(field=value, ...) repr, hashing, and
assignment refused by the three frozen ones."""

import pytest

from schubertisom import (
    CohomologyOracle,
    EquivalenceWitness,
    ReconstructedPresentation,
    Reflection,
    SchubertClass,
    SimpleCoxeterGraph,
    check_equivalence,
    cover_reflection,
    element_from_word,
    interval,
    simple_graph,
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
        (SimpleCoxeterGraph, ("vertices", "edges"),
         (A3.index_set, frozenset({frozenset({"s1", "s2"}), frozenset({"s2", "s3"})}))),
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
def test_missing_extra_unknown_or_repeated_fields_are_refused(cls, names, values):
    named = dict(zip(names, values))
    for args, kwargs in [
        ((), {}),  # missing
        (values[:-1], {}),
        ((), dict(zip(names[1:], values[1:]))),
        (values[:1], {names[-1]: values[-1]} if len(names) > 2 else {}),  # a gap
        ((*values, None), {}),  # extra
        (values, {"extra": None}),  # unknown
        ((), {**named, "extra": None}),
        (values, {names[0]: values[0]}),  # doubly given
        (values[:1], named),
        (values[:1], {names[0]: values[0], names[-1]: values[-1]}),  # and one missing
    ]:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


@_params()
def test_equality_is_field_wise_and_type_strict(cls, names, values):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    last = {SchubertClass: {S1S2: 2}, SimpleCoxeterGraph: ()}.get(cls)
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


def test_simple_coxeter_graph_hashes_by_its_fields_and_shows_them():
    graph = simple_graph(A3)
    assert hash(graph) == hash((graph.vertices, graph.edges))
    assert len({graph, SimpleCoxeterGraph(["s1", "s2", "s3"], graph.edges)}) == 1
    assert repr(SimpleCoxeterGraph(["s1"], [])) == (
        "SimpleCoxeterGraph(vertices=IndexSet(['s1']), edges=frozenset())"
    )


@_params(EquivalenceWitness, Reflection, SimpleCoxeterGraph)
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
