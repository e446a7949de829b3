"""Zero-free constraint data against tables that keep every zero entry.

`equivalence._constraints`, the class keys and the automorphism tables keep
only nonzero entries.  The dense tables here keep every pair, as the
definitions state them, and `search_injections` must yield the same maps in
the same order on both.
"""

import math
import random

import pytest

from schubertisom import (
    canonical_key,
    check_equivalence,
    diagram_automorphisms,
    element_from_word,
    graph_automorphisms,
    simple_graph,
    two_letter_leq,
    validate_cartan,
)
from schubertisom import equivalence
from schubertisom.cartan import search_injections
from schubertisom.weyl import enumerate_elements

from conftest import (
    A2_AFFINE, B4, G2, H3, bench_workloads, random_cartan, random_word, relabeled, star, type_a,
    walk,
)


def dense_constraints(w):
    """(support, constrained pairs) with the zero entries kept: every support
    pair (i, j) with s_i s_j <= w, on label indices, maps to A[i][j]."""
    A = w.cartan
    sup = sorted({A.index_set.index(s) for s in w.canonical_word})
    return sup, {
        (i, j): A.entries[i][j]
        for i in sup for j in sup
        if i != j and two_letter_leq(A, A.labels[i], A.labels[j], w)
    }


def assert_same_stream(w, v):
    """The whole search stream of (w, v) on the zero-free and the dense
    tables, map for map and in order; returns its length."""
    sparse = list(search_injections(equivalence._constraints(w), equivalence._constraints(v)))
    dense = list(search_injections(dense_constraints(w), dense_constraints(v)))
    assert sparse == dense, (w, v)
    return len(sparse)


def compare_within_groups(elements):
    """Compare each element with itself and with every later element of the
    same length and support size; returns (pairs, nonempty, maps)."""
    groups = {}
    for w in elements:
        groups.setdefault((w.length, len(set(w.canonical_word))), []).append(w)
    pairs = nonempty = maps = 0
    for group in groups.values():
        for p, w in enumerate(group):
            for v in group[p:]:
                found = assert_same_stream(w, v)
                pairs, nonempty, maps = pairs + 1, nonempty + bool(found), maps + found
    return pairs, nonempty, maps


def _same_rank(rng, n):
    while True:
        C = random_cartan(rng, max_rank=n)
        if len(C) == n:
            return C


@pytest.mark.parametrize("seed", range(4))
def test_same_stream_on_random_pairs(seed):
    """Random matrices of rank 2-6 with entries in [-3, -1] off their zeros,
    each with a relabelled copy (one entry changed 30% of the time) and an
    unrelated matrix of the same rank: pairs within one matrix and across
    them, equivalent or not."""
    rng = random.Random(20261026 + seed)
    asymmetric = pairs = nonempty = maps = 0
    for _ in range(6):
        A = random_cartan(rng, max_rank=6)
        B, pi = relabeled(rng, A)
        C = _same_rank(rng, len(A))
        asymmetric += A.entries != tuple(zip(*A.entries))
        elements = []
        for _ in range(25):
            w = element_from_word(A, random_word(rng, A, max_len=10))
            elements.append(w)
            elements.append(element_from_word(B, [pi[s] for s in w.canonical_word]))
            elements.append(element_from_word(C, random_word(rng, C, max_len=10)))
        found = compare_within_groups(elements)
        pairs, nonempty, maps = pairs + found[0], nonempty + found[1], maps + found[2]
    assert asymmetric >= 3
    assert nonempty > 100 and maps > nonempty and pairs > nonempty + 100


@pytest.mark.parametrize("k, max_length", [(4, 6), (5, 5)])
def test_same_stream_on_stars(k, max_length):
    """Every element of the k-leaf star to a length bound against the others
    of its length and support size, and the star pair
    l0 c l0 l1 ... l(k-1) c against l0 c l1 ... l(k-1) c l0, whose maps
    all keep the constrained entries but none carries the word."""
    A = star(k)
    pairs, nonempty, maps = compare_within_groups(enumerate_elements(A, max_length))
    assert nonempty > 0 and maps > nonempty
    leaves = [f"l{i}" for i in range(k)]
    w = element_from_word(A, ["l0", "c", *leaves, "c"])
    v = element_from_word(A, ["l0", "c", *leaves[1:], "c", "l0"])
    assert assert_same_stream(w, v) == assert_same_stream(v, w) == math.factorial(k)
    assert check_equivalence(w, v) is None


def _bench_automorphism_table():
    """(name, graph, count, labels, rows) for each row of the automorphism
    table of bench/workloads.py."""
    workloads = bench_workloads()
    return [(name, graph, count, *workloads.LIBRARY[name])
            for name, graph, count in workloads.AUTOMORPHISMS]


@pytest.mark.parametrize("name, graph, count, labels, rows", _bench_automorphism_table())
def test_same_automorphisms_as_dense_tables(name, graph, count, labels, rows):
    A = validate_cartan(rows, labels)
    if graph:
        G = simple_graph(A)
        autos = graph_automorphisms(G)
        table = {(s, t): frozenset((s, t)) in G.edges for s in labels for t in labels}
    else:
        autos = diagram_automorphisms(A)
        table = {(s, t): A.entry(s, t) for s in labels for t in labels}
    assert autos == list(search_injections((A.labels, table), (A.labels, table)))
    assert len(autos) == count


@pytest.mark.parametrize(
    "A, max_length",
    [(type_a(5), 15), (B4, 16), (G2, 6), (H3, 6), (A2_AFFINE, 8), (star(5), 6)],
    ids=["A5", "B4", "G2", "H3", "A2aff", "star5"],
)
def test_keys_hold_no_zero_entries(A, max_length):
    elements, parents = walk(A, max_length)
    for keys in (equivalence._keys(elements, parents), map(canonical_key, elements)):
        assert all(a for _, factors in keys for _, entries in factors for _, _, a in entries)
