import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from schubertisom import (
    CartanMatrix,
    IndexSet,
    SimpleCoxeterGraph,
    diagram_automorphisms,
    element_from_word,
    graph_automorphisms,
    simple_graph,
    submatrix,
    validate_cartan,
)
from schubertisom.cartan import AUTOMORPHISM_CAP, search_injections
from schubertisom.errors import (
    DiagonalNotTwoError,
    InvalidIndexSetError,
    MalformedCartanError,
    NonSquareError,
    PositiveOffDiagonalError,
    TooLargeError,
    UnknownLabelError,
    ZeroAsymmetryError,
)

from conftest import (
    A1_AFFINE,
    A11_AFFINE,
    A3,
    B2,
    B3,
    C3,
    D4,
    D4_AFFINE,
    G2,
    brute_force_diagram_automorphisms,
    brute_force_graph_automorphisms,
    cartan,
    random_cartan,
    type_a,
)


class TestValidate:
    def test_a3_valid(self):
        assert A3.entry("s1", "s2") == -1
        assert A3.entry("s1", "s3") == 0

    def test_zero_asymmetry(self):
        with pytest.raises(ZeroAsymmetryError):
            validate_cartan([[2, 0], [-1, 2]], ["s1", "s2"])

    def test_diagonal_not_two(self):
        with pytest.raises(DiagonalNotTwoError):
            validate_cartan([[1]], ["s1"])

    def test_positive_off_diagonal(self):
        with pytest.raises(PositiveOffDiagonalError):
            validate_cartan([[2, 1], [-1, 2]], ["s1", "s2"])

    @pytest.mark.parametrize("rows, message", [
        pytest.param([[2, -1]], "row count 1", id="missing_row"),
        pytest.param([[2, 0, 0], [0, 2, 0], [0, 0, 2]], "row count 3", id="rows_over_labels"),
        pytest.param([[2, -1], [-1]], "row 'b' has length 1", id="short_row"),
        pytest.param([[2, -1], [-1, 2, 0]], "row 'b' has length 3", id="long_row"),
    ])
    def test_non_square(self, rows, message):
        """The message names the actual mismatch: rows against labels, or
        the first row whose length is off."""
        with pytest.raises(NonSquareError) as info:
            CartanMatrix(["a", "b"], rows)
        assert str(info.value) == f"matrix is not square over 2 labels: {message}"

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            IndexSet(["s1", "s1"])

    def test_unhashable_label(self):
        with pytest.raises(InvalidIndexSetError):
            IndexSet([[1]])

    def test_index_set_iteration_hash_and_repr(self):
        labels = IndexSet(["s2", "s1", "s3"])
        assert list(labels) == ["s2", "s1", "s3"]
        assert hash(labels) == hash(IndexSet(("s2", "s1", "s3")))
        assert labels == IndexSet(iter(["s2", "s1", "s3"]))
        assert labels != IndexSet(["s1", "s2", "s3"])
        assert labels != ("s2", "s1", "s3")
        assert repr(labels) == "IndexSet(['s2', 's1', 's3'])"

    @pytest.mark.parametrize(
        "build",
        [validate_cartan, lambda rows, labels: CartanMatrix(labels, rows)],
        ids=["validate_cartan", "CartanMatrix"],
    )
    @pytest.mark.parametrize(
        "rows",
        [
            [[2, "x"], [-1, 2]],
            [[2, -1.7], [-1, 2]],
            [[2.9, -1], [-1, 2]],
            [[2, "-1"], [-1, 2]],
            [[2, False], [0, 2]],
            [[2.0, -1], [-1, 2]],
            [[2, [1]], [-1, 2]],
        ],
        ids=["str_x", "-1.7", "2.9", "str_-1", "False", "2.0", "list"],
    )
    def test_non_integer_entry(self, build, rows):
        """Read with int(), each of -1.7 to 2.0 would give a valid matrix;
        each is refused as JSON refuses it."""
        with pytest.raises(MalformedCartanError, match="^matrix must be integer rows$"):
            build(rows, ["a", "b"])

    def test_json_round_trip(self):
        data = C3.to_json()
        assert data == {
            "index_set": ["s1", "s2", "s3"],
            "matrix": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        }
        assert CartanMatrix.from_json(data) == C3


class TestSubmatrix:
    def test_a3_pair(self):
        sub = submatrix(A3, ["s1", "s2"])
        assert sub.labels == ("s1", "s2")
        assert sub.entries == ((2, -1), (-1, 2))

    def test_identity_case(self):
        assert submatrix(A3, A3.labels) == A3

    def test_b3_pair(self):
        sub = submatrix(B3, ["s2", "s3"])
        assert sub.entries == ((2, -2), (-1, 2))

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            submatrix(A3, ["s9"])

    def test_nested_restriction(self):
        inner = submatrix(submatrix(A3, ["s1", "s2"]), ["s2"])
        assert inner == submatrix(A3, ["s2"])


def _order(A, s, t, bound=12):
    """The order of s t in the Weyl group of A, by multiplying out its
    powers; math.inf when none up to `bound` is e."""
    for k in range(1, bound + 1):
        if element_from_word(A, (s, t) * k).is_identity():
            return k
    return math.inf


class TestCoxeterExponent:
    """The Coxeter exponent m_st is the order of s t: 1 on the diagonal,
    2, 3, 4 or 6 as A[s][t] * A[t][s] is 0, 1, 2 or 3, else infinite."""

    def test_simply_laced_edge(self):
        assert _order(A3, "s1", "s2") == 3

    def test_diagonal(self):
        assert _order(A3, "s2", "s2") == 1

    def test_commuting(self):
        assert _order(A3, "s1", "s3") == 2

    def test_double_edge(self):
        assert _order(B2, "s1", "s2") == 4

    def test_triple_edge(self):
        assert _order(G2, "s1", "s2") == 6

    def test_infinite(self):
        assert _order(A1_AFFINE, "s1", "s2") == math.inf


class TestSimpleGraph:
    def test_a3_path(self):
        assert simple_graph(A3).edges == {frozenset(("s1", "s2")), frozenset(("s2", "s3"))}

    def test_c3_path(self):
        assert simple_graph(C3).edges == simple_graph(A3).edges

    def test_disconnected(self):
        assert simple_graph(cartan(2)).edges == frozenset()

    def test_degree(self):
        edges = simple_graph(D4).edges
        assert sum("s2" in e for e in edges) == 3
        assert sum("s1" in e for e in edges) == 1

    def test_equality_and_hash(self):
        """Equal vertices and edges make equal graphs, whatever the edge order
        and orientation; B3 and C3 share their graph, a relabelled A3 does not."""
        g = simple_graph(A3)
        same = SimpleCoxeterGraph(A3.index_set, [("s3", "s2"), ("s2", "s1")])
        assert g == same and hash(g) == hash(same)
        assert simple_graph(B3) == simple_graph(C3)
        assert g != SimpleCoxeterGraph(["t1", "t2", "t3"], [("t1", "t2"), ("t2", "t3")])
        assert g != SimpleCoxeterGraph(A3.index_set, [("s1", "s2")])
        assert g != A3

    def test_vertex_labels_coerced(self):
        """A plain label sequence becomes an IndexSet; an invalid one is refused."""
        g = SimpleCoxeterGraph(["s1", "s2", "s3"], [("s1", "s2"), ("s2", "s3")])
        assert isinstance(g.vertices, IndexSet)
        assert g.vertices == A3.index_set
        assert g == simple_graph(A3)
        with pytest.raises(InvalidIndexSetError):
            SimpleCoxeterGraph(["s1", "s1"], [])

    @pytest.mark.parametrize("label, present", [("s1", True), ("x", False), (["s1"], False)],
                             ids=["s1", "x", "unhashable"])
    @pytest.mark.parametrize("labels", [A3.index_set, simple_graph(A3).vertices],
                             ids=["index_set", "vertices"])
    def test_membership(self, labels, label, present):
        """A label an IndexSet lacks, hashable or not, is not in it."""
        assert (label in labels) == present


def _random_pair_table(rng, labels):
    """Random ordered pairs of labels, loops included, with small values."""
    return {
        (s, t): rng.choice((0, -1, -2))
        for s in labels
        for t in labels
        if rng.random() < 0.4
    }


def _brute_force_injections(source, target):
    """Reference: every injection, in the lexicographic order of its image
    tuple, that sends the source pairs one to one onto the target's with
    their values."""
    (labels, pairs), (images, image_pairs) = source, target
    if len(pairs) != len(image_pairs):
        return []
    found = []
    for chosen in itertools.permutations(images, len(labels)):
        sigma = dict(zip(labels, chosen))
        if all(image_pairs.get((sigma[s], sigma[t])) == v for (s, t), v in pairs.items()):
            found.append(sigma)
    return found


class TestSearchInjections:
    def test_checks_pairs_in_both_orientations(self):
        """(a, b) is checked as (sigma[a], sigma[b]) when b is mapped, though
        a comes first: the two directed 3-cycles match only with b -> z."""
        source = ("a", "b", "c"), {
            ("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1,
            ("b", "a"): 0, ("c", "b"): 0, ("a", "c"): 0,
        }
        target = ("x", "y", "z"), {
            ("x", "z"): 1, ("z", "y"): 1, ("y", "x"): 1,
            ("z", "x"): 0, ("y", "z"): 0, ("x", "y"): 0,
        }
        assert next(search_injections(source, target)) == {"a": "x", "b": "z", "c": "y"}

    def test_stops_at_first_accepted_in_lexicographic_order(self):
        """A caller that stops reading after three maps has them in
        lexicographic order of images, each a dict of its own."""
        stream = search_injections((tuple("abc"), {}), (tuple("xyz"), {}))
        seen = list(itertools.islice(stream, 3))
        assert [tuple(sigma.values()) for sigma in seen] == [
            ("x", "y", "z"), ("x", "z", "y"), ("y", "x", "z"),
        ]
        assert seen[2] == {"a": "y", "b": "x", "c": "z"}
        assert len(list(stream)) == 3
        assert seen[0] == {"a": "x", "b": "y", "c": "z"}

    def test_label_without_images(self):
        """a can go to x, but no target label has b's profile."""
        source = ("a", "b", "c"), {("a", "b"): 0, ("b", "c"): -1}
        target = ("x", "y", "z"), {("x", "y"): 0, ("y", "z"): -2}
        assert list(search_injections(source, target)) == []

    def test_pair_counts_differ(self):
        """a has the profile of x and of y, but y's pair has no preimage."""
        source = ("a",), {("a", "a"): 2}
        target = ("x", "y"), {("x", "x"): 2, ("y", "y"): 2}
        assert list(search_injections(source, target)) == []

    def test_one_profile_differs(self):
        """Every label has images, but a and b both need x."""
        source = ("a", "b", "c"), {("a", "a"): 2, ("b", "b"): 2, ("c", "c"): 3}
        target = ("x", "y", "z"), {("x", "x"): 2, ("y", "y"): 3, ("z", "z"): 3}
        assert list(search_injections(source, target)) == []

    @pytest.mark.parametrize(
        "source, target",
        [
            # A directed 4-cycle has no map onto two 2-cycles.
            (
                (tuple("abcd"), {("a", "b"): 0, ("b", "c"): 0, ("c", "d"): 0, ("d", "a"): 0}),
                (tuple("xyzw"), {("x", "y"): 0, ("y", "x"): 0, ("z", "w"): 0, ("w", "z"): 0}),
            ),
            # Two loops have the sorted values out of and into a 2-cycle.
            (
                (("a", "b"), {("a", "a"): 0, ("b", "b"): 0}),
                (("x", "y"), {("x", "y"): 0, ("y", "x"): 0}),
            ),
        ],
        ids=["cycles", "loops"],
    )
    def test_image_pair_missing_from_target(self, source, target):
        """Same pair counts and the same values out of and into each label,
        but every map sends some source pair off the target's pairs."""
        assert list(search_injections(source, target)) == []

    def test_empty_source_yields_the_empty_map(self):
        assert list(search_injections(((), {}), (tuple("xy"), {}))) == [{}]

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_equals_brute_force(self, seed):
        """On random tables of up to 5 labels, the whole stream is the list
        of passing injections in lexicographic image order.  Half the
        targets are a source table carried by a random injection into up to
        7 labels, with one value changed in half of those."""
        rng = random.Random(seed)
        nonempty = 0
        for _ in range(150):
            labels = tuple(f"s{i}" for i in range(rng.randint(0, 5)))
            images = tuple(f"t{i}" for i in range(len(labels) + rng.randint(0, 2)))
            pairs = _random_pair_table(rng, labels)
            if rng.random() < 0.5:
                pi = dict(zip(labels, rng.sample(images, len(labels))))
                image_pairs = {(pi[s], pi[t]): v for (s, t), v in pairs.items()}
                if image_pairs and rng.random() < 0.5:
                    key = rng.choice(sorted(image_pairs))
                    image_pairs[key] = rng.choice((0, -1, -2))
            else:
                image_pairs = _random_pair_table(rng, images)
            source, target = (labels, pairs), (images, image_pairs)
            expected = _brute_force_injections(source, target)
            assert list(search_injections(source, target)) == expected
            nonempty += bool(expected)
        assert nonempty > 40


class TestAutomorphisms:
    def test_path3_graph(self):
        assert len(graph_automorphisms(simple_graph(A3))) == 2

    def test_d4_star(self):
        assert len(graph_automorphisms(simple_graph(D4))) == 6

    def test_single_vertex(self):
        assert len(graph_automorphisms(simple_graph(type_a(1)))) == 1

    def test_a3_diagram(self):
        autos = diagram_automorphisms(A3)
        assert len(autos) == 2
        assert autos[0] == {s: s for s in A3.labels}

    def test_c3_diagram(self):
        assert len(diagram_automorphisms(C3)) == 1
        assert len(graph_automorphisms(simple_graph(C3))) == 2

    def test_b2_diagram_identity_only(self):
        assert diagram_automorphisms(B2) == [{"s1": "s1", "s2": "s2"}]

    def test_cap(self):
        A = type_a(13)
        with pytest.raises(TooLargeError):
            diagram_automorphisms(A)

    def test_rank_cap_boundary(self):
        """At the cap the search costs about as much as the maps it returns,
        not 12! permutations."""
        assert AUTOMORPHISM_CAP == 12
        for A, count in ((type_a(12), 2), (A11_AFFINE, 24)):
            start = time.perf_counter()
            assert len(diagram_automorphisms(A)) == count
            assert len(graph_automorphisms(simple_graph(A))) == count
            assert time.perf_counter() - start < 1.0
        with pytest.raises(TooLargeError):
            graph_automorphisms(simple_graph(type_a(13)))

    @pytest.mark.parametrize(
        "A", [A3, B2, B3, C3, D4, D4_AFFINE, G2, A1_AFFINE],
        ids=["A3", "B2", "B3", "C3", "D4", "D4_affine", "G2", "A1_affine"],
    )
    def test_equal_brute_force_on_named_matrices(self, A):
        """Same maps in the same order as the permutation search."""
        assert diagram_automorphisms(A) == brute_force_diagram_automorphisms(A)
        G = simple_graph(A)
        assert graph_automorphisms(G) == brute_force_graph_automorphisms(G)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([-1, -3]))
    def test_equal_brute_force(self, seed, min_entry):
        """Same maps in the same order as the permutation search, on random
        matrices up to rank 6; min_entry -1 makes them simply laced, which
        gives larger groups."""
        A = random_cartan(random.Random(seed), max_rank=6, min_entry=min_entry)
        assert diagram_automorphisms(A) == brute_force_diagram_automorphisms(A)
        G = simple_graph(A)
        assert graph_automorphisms(G) == brute_force_graph_automorphisms(G)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_diagram_subset_of_graph(self, seed):
        import random

        A = random_cartan(random.Random(seed))
        graph_autos = graph_automorphisms(simple_graph(A))
        diagram_autos = diagram_automorphisms(A)
        assert all(sigma in graph_autos for sigma in diagram_autos)
        simply_laced = all(
            A.entries[i][j] in (0, -1)
            for i in range(len(A))
            for j in range(len(A))
            if i != j
        )
        if simply_laced:
            assert diagram_autos == graph_autos

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_group_axioms(self, seed):
        import random

        A = random_cartan(random.Random(seed))
        autos = diagram_automorphisms(A)
        identity = {s: s for s in A.labels}
        assert identity in autos
        for f in autos:
            assert {v: k for k, v in f.items()} in autos
            for g in autos:
                assert {s: f[g[s]] for s in A.labels} in autos
