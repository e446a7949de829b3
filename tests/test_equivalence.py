import gc
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubertisom import (
    canonical_key,
    check_equivalence,
    diagram_automorphisms,
    element_from_word,
    graph_automorphisms,
    inversion_set,
    isom_classes,
    restriction_witness,
    simple_graph,
    submatrix,
    support,
    transport_interval,
    two_letter_leq,
    validate_cartan,
)
from schubertisom import equivalence
from schubertisom.equivalence import EquivalenceWitness
from schubertisom.errors import InvalidIndexSetError, InvalidWitnessError
from schubertisom.weyl import enumerate_elements, multiply

from conftest import (
    A1_AFFINE,
    A2,
    A2_AFFINE,
    A3,
    B3,
    B4,
    C3,
    D4,
    G2,
    H3,
    brute_force_key,
    pairwise_isom_classes,
    random_cartan,
    random_draw,
    random_word,
    relabeled,
    star,
    type_a,
    walk,
)


def words(A, *seqs):
    return [element_from_word(A, seq.split()) for seq in seqs]


def verify_witness(wit):
    """Independently re-check everything an EquivalenceWitness asserts."""
    w, wp, sigma = wit.source, wit.target, wit.sigma
    A, B = w.cartan, wp.cartan
    assert set(sigma) == support(w)
    assert set(sigma.values()) == support(wp)
    assert len(set(sigma.values())) == len(sigma)
    assert element_from_word(B, wit.target_word) == wp
    assert len(wit.target_word) == wp.length
    for s in sigma:
        for t in sigma:
            if s != t and two_letter_leq(A, s, t, w):
                assert A.entry(s, t) == B.entry(sigma[s], sigma[t])


def brute_force_equivalence(w, w_prime):
    """Reference: the first support bijection, in lexicographic image order,
    that matches A[s][t] for every pair st <= w and sends the canonical word
    of w to a reduced word of w'; None when there is none."""
    A, B = w.cartan, w_prime.cartan
    src = sorted(support(w), key=A.index_set.index)
    dst = sorted(support(w_prime), key=B.index_set.index)
    if len(src) != len(dst):
        return None
    constrained = [
        (s, t) for s, t in itertools.permutations(src, 2) if two_letter_leq(A, s, t, w)
    ]
    for images in itertools.permutations(dst):
        sigma = dict(zip(src, images))
        if any(A.entry(s, t) != B.entry(sigma[s], sigma[t]) for s, t in constrained):
            continue
        image = [sigma[s] for s in w.canonical_word]
        if len(image) == w_prime.length and element_from_word(B, image) == w_prime:
            return sigma
    return None


class TestCheckEquivalence:
    def test_first_witness_matches_brute_force(self):
        """check_equivalence returns the lexicographically first bijection the
        brute-force search accepts, or None exactly when it finds none."""
        rng = random.Random(20261018)
        found = 0
        for _ in range(400):
            A = random_cartan(rng, max_rank=4)
            w = element_from_word(A, random_word(rng, A, 6))
            if rng.random() < 0.5:
                B, pi = relabeled(rng, A)
                w_prime = element_from_word(B, [pi[s] for s in w.canonical_word])
            else:
                B = A if rng.random() < 0.5 else random_cartan(rng, max_rank=4)
                w_prime = element_from_word(B, random_word(rng, B, 6))
            expected = brute_force_equivalence(w, w_prime)
            wit = check_equivalence(w, w_prime)
            assert (None if wit is None else wit.sigma) == expected
            found += expected is not None
        assert found > 150
    def test_a3_c3_decreasing_word_differs(self):
        u = element_from_word(A3, ["s3", "s2", "s1"])
        v = element_from_word(C3, ["s3", "s2", "s1"])
        assert check_equivalence(u, v) is None

    def test_a3_c3_increasing_word_matches(self):
        u = element_from_word(A3, ["s1", "s2", "s3"])
        v = element_from_word(C3, ["s1", "s2", "s3"])
        wit = check_equivalence(u, v)
        assert wit is not None
        verify_witness(wit)

    def test_element_vs_inverse_differs(self):
        u = element_from_word(A3, ["s2", "s1", "s3"])
        v = element_from_word(A3, ["s1", "s3", "s2"])
        assert v == u.inverse()
        assert check_equivalence(u, v) is None

    def test_final_word_check_decides(self):
        """Same length, support and constrained pairs, so sigma = id passes
        every entry test; only the final check that the image word
        multiplies to w' tells these apart."""
        w, w_prime = words(A3, "s1 s2 s1 s3 s2", "s1 s2 s3 s2 s1")
        assert w != w_prime
        assert w.length == w_prime.length == 5
        assert support(w) == support(w_prime)
        labels = A3.labels
        for s, t in itertools.permutations(labels, 2):
            assert two_letter_leq(A3, s, t, w) == two_letter_leq(A3, s, t, w_prime)
        assert check_equivalence(w, w_prime) is None
        assert check_equivalence(w_prime, w) is None

    def test_reflexive(self, rng):
        for _ in range(20):
            A = random_cartan(rng)
            w = element_from_word(A, random_word(rng, A))
            wit = check_equivalence(w, w)
            assert wit is not None
            verify_witness(wit)

    def test_length_mismatch(self):
        u = element_from_word(A3, ["s1"])
        v = element_from_word(A3, ["s1", "s2"])
        assert check_equivalence(u, v) is None

    def test_witnesses_are_sound(self, rng):
        found = 0
        while found < 25:
            A = random_cartan(rng, max_rank=3)
            B = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 6))
            v = element_from_word(B, random_word(rng, B, 6))
            wit = check_equivalence(u, v)
            if wit is not None:
                verify_witness(wit)
                found += 1

    def test_symmetric(self, rng):
        for _ in range(40):
            A = random_cartan(rng, max_rank=3)
            B = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 6))
            v = element_from_word(B, random_word(rng, B, 6))
            assert (check_equivalence(u, v) is None) == (
                check_equivalence(v, u) is None
            )

    def test_transitive(self, rng):
        for _ in range(25):
            A = random_cartan(rng, max_rank=3)
            triple = [
                element_from_word(A, random_word(rng, A, 6)) for _ in range(3)
            ]
            u, v, x = triple
            if (
                check_equivalence(u, v) is not None
                and check_equivalence(v, x) is not None
            ):
                assert check_equivalence(u, x) is not None

    def test_support_graph_necessary(self, rng):
        """Equivalence needs matching multisets of constrained entry profiles."""
        for _ in range(30):
            A = random_cartan(rng, max_rank=3)
            B = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 6))
            v = element_from_word(B, random_word(rng, B, 6))
            wit = check_equivalence(u, v)
            if wit is None:
                continue
            sigma = wit.sigma
            for s in sigma:
                for t in sigma:
                    if s != t and two_letter_leq(A, s, t, u):
                        assert two_letter_leq(B, sigma[s], sigma[t], v)

    def test_leaves_no_cyclic_garbage(self):
        """A search left unread after its first witness, one read to its end
        without a witness, and the automorphism lists are freed by reference
        counting alone."""
        gc.collect()
        gc.disable()
        try:
            w = element_from_word(_edgeless(4), ["s0", "s1", "s2", "s3"])
            assert check_equivalence(w, w).sigma == {s: s for s in w.cartan.labels}
            u, v = words(A3, "s2 s1 s3", "s1 s3 s2")
            assert check_equivalence(u, v) is None
            assert len(diagram_automorphisms(D4)) == 6
            assert len(diagram_automorphisms(_edgeless(4))) == 24
            del w, u, v
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_chain_is_linear_in_rank(self):
        """The chain s1 ... s600 of A600 against itself, timed and traced in a
        child interpreter.  On a 2-vCPU x86-64 host, Python 3.11.7, it took
        3.1-3.8 s and a 109 MiB traced peak while the constraint tables kept
        every zero-entry pair, n^2 of them; with the nonzero ones alone it
        takes 0.07-0.1 s and 0.5 MiB."""
        identity, elapsed, peak = _in_child(_CHAIN_CHILD, 600, 60)
        assert identity
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_no_recursion(self):
        """The search keeps no frame per support letter: the chain s1 ... s100
        of A100 matches itself with 60 frames to spare."""
        w = element_from_word(type_a(100), [f"s{i}" for i in range(1, 101)])
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            wit = check_equivalence(w, w)
        finally:
            sys.setrecursionlimit(limit)
        assert wit.sigma == {s: s for s in w.cartan.labels}


class TestTransportInterval:
    def test_identity_witness(self):
        w = element_from_word(A3, ["s2", "s1", "s3", "s2"])
        wit = check_equivalence(w, w)
        mapping = transport_interval(wit)
        if all(wit.sigma[s] == s for s in wit.sigma):
            assert all(v == mapping[v] for v in mapping)

    def test_a3_c3_cube(self):
        u = element_from_word(A3, ["s1", "s2", "s3"])
        v = element_from_word(C3, ["s1", "s2", "s3"])
        mapping = transport_interval(check_equivalence(u, v))
        assert len(mapping) == 8
        assert mapping[element_from_word(A3, [])] == element_from_word(C3, [])
        assert mapping[u] == v

    def test_wrong_sigma_fails(self):
        """Swapping the letters of s1 s2 sends it to s2 s1, outside [e, s1 s2]."""
        w = element_from_word(A3, ["s1", "s2"])
        assert check_equivalence(w, w).sigma == {"s1": "s1", "s2": "s2"}
        wrong = EquivalenceWitness(w, w, {"s1": "s2", "s2": "s1"})
        with pytest.raises(InvalidWitnessError, match="not a bijection onto"):
            transport_interval(wrong)

    def test_sigma_missing_a_support_label(self):
        w = element_from_word(A3, ["s1", "s2"])
        with pytest.raises(InvalidWitnessError, match=r"support labels \['s2'\]"):
            transport_interval(EquivalenceWitness(w, w, {"s1": "s1"}))

    def test_sigma_onto_a_label_the_target_lacks(self):
        w = element_from_word(A3, ["s1", "s2"])
        with pytest.raises(InvalidWitnessError, match=r"labels \['x'\] that A' lacks"):
            transport_interval(EquivalenceWitness(w, w, {"s1": "s1", "s2": "x"}))

    def test_preserves_length(self, rng):
        found = 0
        while found < 10:
            A = random_cartan(rng, max_rank=3)
            B = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 5))
            v = element_from_word(B, random_word(rng, B, 5))
            wit = check_equivalence(u, v)
            if wit is None:
                continue
            mapping = transport_interval(wit)
            assert all(x.length == y.length for x, y in mapping.items())
            found += 1

    def test_transports_inversions(self, rng):
        """sigma extended linearly to root coordinates maps I(v) onto I(v')."""
        found = 0
        while found < 10:
            A = random_cartan(rng, max_rank=3)
            B = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 5))
            v = element_from_word(B, random_word(rng, B, 5))
            wit = check_equivalence(u, v)
            if wit is None or support(u) != set(A.labels):
                continue
            src_index = {s: i for i, s in enumerate(A.labels)}
            dst_index = {s: i for i, s in enumerate(B.labels)}

            def push(root):
                out = [0] * len(B.labels)
                for s, i in src_index.items():
                    out[dst_index[wit.sigma[s]]] = root[i]
                return tuple(out)

            mapping = transport_interval(wit)
            for x, y in mapping.items():
                assert {push(r) for r in inversion_set(x)} == set(
                    inversion_set(y)
                )
            found += 1


class TestIsomClasses:
    def test_a2_four_classes(self):
        classes = isom_classes(A2, 3)
        as_words = [
            [x.canonical_word for x in members] for members in classes
        ]
        assert as_words == [
            [()],
            [("s1",), ("s2",)],
            [("s1", "s2"), ("s2", "s1")],
            [("s1", "s2", "s1")],
        ]

    def test_a3_fourteen_classes(self):
        classes = isom_classes(A3, 6)
        assert len(classes) == 14
        by_words = {
            frozenset(x.canonical_word for x in members) for members in classes
        }
        W = lambda *seqs: frozenset(tuple(s.split()) for s in seqs)
        expected = {
            W(""),
            W("s1", "s2", "s3"),
            W("s1 s3"),
            W("s1 s2", "s2 s1", "s2 s3", "s3 s2"),
            W("s1 s2 s1", "s2 s3 s2"),
            W("s1 s3 s2"),
            W("s2 s1 s3"),
            W("s1 s2 s3", "s3 s2 s1"),
            W("s1 s2 s3 s2", "s3 s2 s1 s2"),
            W("s2 s1 s2 s3", "s2 s3 s2 s1"),
            W("s2 s1 s3 s2"),
            W("s2 s1 s2 s3 s2", "s2 s3 s2 s1 s2"),
            W("s3 s2 s1 s2 s3"),
            W("s3 s2 s1 s3 s2 s3"),
        }
        fixed = {
            frozenset(
                tuple(element_from_word(A3, word).canonical_word)
                for word in group
            )
            for group in expected
        }
        assert by_words == fixed

    def test_classes_partition(self, rng):
        for _ in range(5):
            A = random_cartan(rng, max_rank=3)
            classes = isom_classes(A, 4)
            flat = [w for members in classes for w in members]
            assert len(flat) == len(set(flat)) == len(enumerate_elements(A, 4))
            for members in classes:
                for w in members[1:]:
                    assert check_equivalence(members[0], w) is not None
            for i, a in enumerate(classes):
                for b in classes[i + 1 :]:
                    assert check_equivalence(a[0], b[0]) is None


def _type_a_class_key(p):
    """The Cartan equivalence class of p in A_n, read off the permutation.

    p permutes {0..n}, and s_i swaps i-1 and i.  A_n is simply laced and any
    two letters s, t of S(w) give st <= w or ts <= w, so a witness is an
    isomorphism of the induced Dynkin subdiagrams on the supports, with
    w' = sigma(w).  The class is therefore the multiset of components of
    S(w), each taken up to its diagram flip (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 1.4 and 2.2).  s_i is in S(p) iff p does not
    stabilise {0..i-1}; the components are the maximal runs of consecutive
    i; the flip of a component is the reverse-complement of its pattern.
    """
    n = len(p) - 1
    runs = []
    for i in range(1, n + 1):
        if set(p[:i]) == set(range(i)):
            continue
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    patterns = []
    for run in runs:
        lo = run[0] - 1
        pattern = tuple(p[k] - lo for k in range(lo, run[-1] + 1))
        m = len(pattern) - 1
        flipped = tuple(m - pattern[m - k] for k in range(m + 1))
        patterns.append(min(pattern, flipped))
    return tuple(sorted(patterns))


def test_type_a_class_counts_from_permutations():
    """An independent count of Cartan equivalence classes in A2..A6.

    A Burnside check of the A5 figure: 461 indecomposable permutations of 6,
    35 of them fixed by reverse-complement, give 248 full-support classes;
    the 67 classes of smaller support bring the total to 315.
    """
    counts = [
        len({_type_a_class_key(p) for p in itertools.permutations(range(n + 1))})
        for n in range(2, 7)
    ]
    assert counts == [4, 14, 54, 315, 2114]
    full = [
        p
        for p in itertools.permutations(range(6))
        if all(set(p[:i]) != set(range(i)) for i in range(1, 6))
    ]
    fixed = [p for p in full if p == tuple(5 - p[5 - k] for k in range(6))]
    assert (len(full), len(fixed)) == (461, 35)
    assert len({_type_a_class_key(p) for p in full}) == (461 + 35) // 2 == 248
    start = time.monotonic()
    for n, count in zip(range(2, 7), counts):
        assert len(isom_classes(type_a(n), n * (n + 1) // 2)) == count
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"A2..A6 took {elapsed:.1f}s"  # about 1 s


def test_type_a7_class_count():
    """All 40,320 elements of A7 fall into 17,197 classes, by the permutation
    count and by isom_classes."""
    count = len({_type_a_class_key(p) for p in itertools.permutations(range(8))})
    start = time.monotonic()
    classes = isom_classes(type_a(7), 28)
    elapsed = time.monotonic() - start
    assert count == len(classes) == 17_197
    # About 2-2.5 s; one key search per element took 7-8 s, and pairwise checks 702 s.
    assert elapsed < 60.0, f"A7 took {elapsed:.1f}s"


PARTITION_CASES = {
    "A3": (A3, 6),
    "A4": (type_a(4), 10),
    "A5": (type_a(5), 15),
    "B4": (B4, 16),
    "G2": (G2, 6),
    "A1aff": (A1_AFFINE, 10),
    "A2aff": (A2_AFFINE, 7),
    "H3": (H3, 6),
}


def _factors(w):
    """w's factors on the components of its support, where s and t are
    adjacent when A[s][t] != 0, each over its own submatrix."""
    A = w.cartan
    components = []
    for s in sorted(support(w), key=A.index_set.index):
        linked = [c for c in components if any(A.entry(s, t) for t in c)]
        merged = {s}.union(*linked)
        components = [c for c in components if c not in linked] + [merged]
    return [
        element_from_word(submatrix(A, sorted(c, key=A.index_set.index)),
                          [s for s in w.canonical_word if s in c])
        for c in components
    ]


class TestCanonicalKey:
    @pytest.mark.parametrize("name", PARTITION_CASES)
    def test_same_partition_as_pairwise(self, name):
        A, max_length = PARTITION_CASES[name]
        assert isom_classes(A, max_length) == pairwise_isom_classes(A, max_length)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_partition_on_random_matrices(self, seed):
        """Random rank 2-4 matrices, entries in [-3, 0], many of them not
        symmetrizable."""
        A = random_cartan(random.Random(seed), max_rank=4)
        assert isom_classes(A, 4) == pairwise_isom_classes(A, 4)

    def test_equal_keys_iff_equivalent_across_matrices(self):
        """Seeded same-length pairs from 40 matrices, half of them relabeled
        copies of the others (some with one entry changed): the keys are
        equal exactly when check_equivalence finds a witness."""
        rng = random.Random(20261019)
        pairs, by_length = [], {}
        for _ in range(20):
            A = random_cartan(rng, max_rank=4)
            B, pi = relabeled(rng, A)
            for _ in range(20):
                w = element_from_word(A, random_word(rng, A, 6))
                w_prime = element_from_word(B, [pi[s] for s in w.canonical_word])
                pairs.append((w, w_prime))
                if w.length > 1:
                    by_length.setdefault(w.length, []).extend([w, w_prime])
        for elements in by_length.values():
            pairs += [(rng.choice(elements), rng.choice(elements)) for _ in elements * 5]
        verdicts = [
            (canonical_key(w) == canonical_key(w_prime), check_equivalence(w, w_prime) is not None)
            for w, w_prime in pairs
        ]
        assert all(same_key == equivalent for same_key, equivalent in verdicts)
        positive = sum(equivalent for _, equivalent in verdicts)
        assert positive > 500 and len(pairs) - positive > 1000

    def test_a3_c3(self):
        """The same renamed word; only the entries tell s3 s2 s1 apart."""
        u, v = [element_from_word(A, ["s3", "s2", "s1"]) for A in (A3, C3)]
        assert canonical_key(u) != canonical_key(v)
        u, v = [element_from_word(A, ["s1", "s2", "s3"]) for A in (A3, C3)]
        assert canonical_key(u) == canonical_key(v)

    def test_commuting_letters_key_apart(self):
        """Eight commuting letters give eight one-letter factors, not 8!
        namings of one word."""
        labels = [f"s{i}" for i in range(1, 9)]
        A = validate_cartan([[2 if i == j else 0 for j in range(8)] for i in range(8)], labels)
        assert canonical_key(element_from_word(A, labels)) == (8, (((0,), ()),) * 8)

    def test_factorises_along_components(self, rng):
        found = 0
        while found < 30:
            A = random_cartan(rng, max_rank=4, min_entry=-2)
            w = element_from_word(A, random_word(rng, A, 8))
            factors = _factors(w)
            if len(factors) < 2:
                continue
            keys = [canonical_key(f) for f in factors]
            assert all(len(key[1]) == 1 for key in keys)
            assert canonical_key(w) == (w.length, tuple(sorted(key[1][0] for key in keys)))
            found += 1

    def test_isom_classes_makes_no_pairwise_checks(self, monkeypatch):
        def fail(*args):
            raise AssertionError("isom_classes called check_equivalence")

        monkeypatch.setattr(equivalence, "check_equivalence", fail)
        assert len(isom_classes(type_a(4), 10)) == 54


A3_AFFINE = validate_cartan(
    [[2 if i == j else (-1 if (i - j) % 4 in (1, 3) else 0) for j in range(4)] for i in range(4)],
    ["s0", "s1", "s2", "s3"],
)


def _symmetrizable(A):
    """Whether every cycle product of A equals its reverse (Kac, Exercise 2.1)."""
    n = len(A)
    for k in range(3, n + 1):
        for cycle in itertools.permutations(range(n), k):
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            forward = backward = 1
            for i, j in pairs:
                forward *= A.entries[i][j]
                backward *= A.entries[j][i]
            if forward != backward:
                return False
    return True


def _edgeless(n):
    return validate_cartan(
        [[2 if i == j else 0 for j in range(n)] for i in range(n)], [f"s{i}" for i in range(n)]
    )


def _assert_walk_keys_match(A, max_length):
    elements, parents = walk(A, max_length)
    keys = equivalence._keys(elements, parents)
    assert len(keys) == len(elements)
    for w, key in zip(elements, keys):
        assert key == canonical_key(w), w
    return len(elements)


# Prints the element count, the class count and the seconds isom_classes
# takes, for the matrix, labels and length bound in argv[1] (JSON).
_NAMINGS_CHILD = """
import json, sys, time
from schubertisom import isom_classes, validate_cartan
entries, labels, max_length = json.loads(sys.argv[1])
A = validate_cartan(entries, labels)
start = time.monotonic()
found = isom_classes(A, max_length)
elapsed = time.monotonic() - start
print(json.dumps([sum(map(len, found)), len(found), elapsed]))
"""

# Prints the class count of a second isom_classes call, for the matrix,
# labels and length bound in argv[1] (JSON), and that call's traced peak.
_PEAK_CHILD = """
import json, sys, tracemalloc
from schubertisom import isom_classes, validate_cartan
entries, labels, max_length = json.loads(sys.argv[1])
A = validate_cartan(entries, labels)
isom_classes(A, max_length)
tracemalloc.start()
count = len(isom_classes(A, max_length))
print(json.dumps([count, tracemalloc.get_traced_memory()[1]]))
"""

# Prints whether check_equivalence(w, w) gives the identity witness on the
# chain s1 ... sn of An, n in argv[1], its seconds and its traced peak.
_CHAIN_CHILD = """
import json, sys, time, tracemalloc
from schubertisom import check_equivalence, element_from_word, validate_cartan
n = json.loads(sys.argv[1])
labels = [f"s{i}" for i in range(1, n + 1)]
A = validate_cartan([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
                     for i in range(n)], labels)
w = element_from_word(A, labels)
tracemalloc.start()
start = time.monotonic()
witness = check_equivalence(w, w)
elapsed = time.monotonic() - start
identity = witness is not None and witness.sigma == dict(zip(labels, labels))
print(json.dumps([identity, elapsed, tracemalloc.get_traced_memory()[1]]))
"""


def _in_child(code, argument, timeout):
    """What `code` prints, read as JSON, run in a fresh interpreter with
    argument as JSON in argv[1].  Traced peaks depend on what ran earlier in
    the same process (free lists refill unseen), and timings on the memo
    tables it filled, so a fresh process reads neither."""
    src = str(Path(equivalence.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, json.dumps(argument)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True, timeout=timeout)
    return json.loads(done.stdout)


class TestWalkKeys:
    """`isom_classes` keys all of W in one recurrence (`_keys`);
    `canonical_key` keys one element by its own search.  Both must agree."""

    @pytest.mark.parametrize("name", PARTITION_CASES)
    def test_matches_canonical_key(self, name):
        _assert_walk_keys_match(*PARTITION_CASES[name])

    def test_matches_canonical_key_on_random_matrices(self):
        """Seeded rank 2-4 matrices, entries in [-3, 0]."""
        rng = random.Random(20261020)
        matrices = [random_cartan(rng, max_rank=4) for _ in range(60)]
        assert sum(not _symmetrizable(A) for A in matrices) >= 5
        for A in matrices:
            _assert_walk_keys_match(A, 5)

    @pytest.mark.parametrize(
        "A, max_length", [(A2_AFFINE, 12), (A3_AFFINE, 9)], ids=["A2aff", "A3aff"]
    )
    def test_matches_canonical_key_on_affine(self, A, max_length):
        _assert_walk_keys_match(A, max_length)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n, max_length", [(40, 3), (100, 2)])
    def test_matches_canonical_key_on_large_random_matrices(self, n, max_length, seed):
        """The random-factor matrices of `tests/test_invariants.py` at ranks
        40 and 100, where most elements are disconnected."""
        rows = random_draw(n, seed)[0]
        _assert_walk_keys_match(validate_cartan(rows, [f"s{i}" for i in range(n)]), max_length)

    def test_matches_canonical_key_deep(self):
        """Seeded rank 3-4 matrices (entries in [-3, 0]) and the 4- and 5-leaf
        stars to length 8.  `_keys` splices each naming's entries from its
        predecessor's, and the entries of a naming that is not least feed
        later lengths, so only depth shows a wrong splice."""
        rng = random.Random(20261025)
        matrices = []
        while len(matrices) < 10:
            A = random_cartan(rng, max_rank=4)
            if len(A) >= 3:
                matrices.append(A)
        checked = 0
        for A in matrices + [star(4), star(5)]:
            checked += _assert_walk_keys_match(A, 8)
        assert checked == 13_573

    def test_matches_brute_force_key(self):
        """The definition over every reduced word, on A3, A4, B3, G2, H3 and
        the four-leaf star (through its disconnected predecessors) and on
        seeded random rank 2-4 matrices."""
        cases = [(A3, 6), (type_a(4), 10), (B3, 9), (G2, 6), (H3, 5), (star(4), 7)]
        rng = random.Random(20261021)
        cases += [(random_cartan(rng, max_rank=4), 5) for _ in range(15)]
        checked = 0
        for A, max_length in cases:
            elements, parents = walk(A, max_length)
            for w, key in zip(elements, equivalence._keys(elements, parents)):
                assert brute_force_key(w) == key == canonical_key(w), w
            checked += len(elements)
        assert checked > 1_000

    @pytest.mark.parametrize(
        "A, max_length, joinable, searched",
        [(_edgeless(12), 12, 0, 0), (star(4), 7, 11, 0), (star(5), 6, 26, 0),
         (star(6), 7, 57, 0), (A3_AFFINE, 6, 2, 0), (type_a(5), 15, 50, 9)],
        ids=["edgeless12", "star4", "star5", "star6", "A3aff", "A5"],
    )
    def test_searches_only_disconnected_predecessors(
            self, monkeypatch, A, max_length, joinable, searched):
        """The k! guard, by structure.  A disconnected u builds namings only
        when a connected v = s_j u one longer reads them (`expected`: some
        letter outside u's support joins its components), by the recurrence
        (`_extend`), or when such a u lacks them for a predecessor, by the
        search (`_least_word`), once each.  On the star with k leaves there
        are 2^k - k - 1 such u, on the 4-cycle s0 s2 and s1 s3, and neither
        needs a search; on an edgeless diagram no letter joins."""
        elements, parents = walk(A, max_length)
        expected = {
            u
            for v in elements if len(_factors(v)) == 1
            for u in (multiply(element_from_word(A, [s]), v) for s in v.left_descents())
            if len(_factors(u)) > 1
        }
        assert len(expected) == joinable
        lacking = {
            u
            for v in expected
            for u in (multiply(element_from_word(A, [s]), v) for s in v.left_descents())
            if len(_factors(u)) > 1 and u not in expected
        }
        by_vector = {w.rho: w for w in elements}
        calls, extended = [], []
        least_word, extend = equivalence._least_word, equivalence._extend
        monkeypatch.setattr(equivalence, "_least_word",
                            lambda w, letters: calls.append(w) or least_word(w, letters))
        monkeypatch.setattr(equivalence, "_extend",
                            lambda ctx, x, *rest: extended.append(by_vector[x])
                            or extend(ctx, x, *rest))
        equivalence._keys(elements, parents)
        assert len(calls) == len(set(calls)) == searched
        assert set(calls) == lacking
        assert {v for v in extended if len(_factors(v)) > 1} == expected

    @pytest.mark.parametrize(
        "A, max_length, searches", [(type_a(6), 21, 61), (star(6), 7, 0)], ids=["A6", "star6"]
    )
    def test_search_count(self, monkeypatch, A, max_length, searches):
        """`isom_classes` searches only where the recurrence left a
        predecessor without data: 61 times on all of A6 and never on the
        six-leaf star, against 312 and 57 when every disconnected
        predecessor of a connected element was searched."""
        calls, least_word = [], equivalence._least_word
        monkeypatch.setattr(equivalence, "_least_word",
                            lambda w, letters: calls.append(w) or least_word(w, letters))
        isom_classes(A, max_length)
        assert len(calls) <= searches

    def test_equal_keys_are_one_object(self):
        elements, parents = walk(type_a(4), 10)
        keys = equivalence._keys(elements, parents)
        assert len({id(key) for key in keys}) == len(set(keys)) == 54
        triples = [t for key in keys for _, entries in key[1] for t in entries]
        assert len({id(t) for t in triples}) == len(set(triples))

    @pytest.mark.parametrize(
        "A, max_length, count, classes, bound",
        # Seconds on a shared 2-vCPU x86-64 host, Python 3.11.7, three runs:
        # isom_classes, then canonical_key on each element.
        [
            (_edgeless(12), 12, 4_096, 13, 2.0),  # 0.13-0.19 s; 0.29-0.38 s by one search each
            (star(6), 7, 7_085, 102, 5.0),  # 0.34-0.46 s; 0.94-1.1 s by one search each
            (
                validate_cartan([[2 if i == j else -2 for j in range(4)] for i in range(4)],
                                [f"s{i}" for i in range(4)]),
                8, 13_121, 552, 5.0,  # 0.23-0.32 s; 0.46-0.65 s by one search each
            ),
        ],
        ids=["edgeless12", "star6", "all-2-rank4"],
    )
    def test_namings_only_where_used(self, A, max_length, count, classes, bound):
        """Commuting letters have k! namings; building them for every element
        took edgeless rank 10 from 0.1 s to 16 s, and would take edgeless
        rank 12 hours.  So the case runs in a child interpreter, timed
        inside it, and is stopped 20 s past its bound."""
        found, found_classes, elapsed = _in_child(
            _NAMINGS_CHILD, [A.entries, A.labels, max_length], bound + 20)
        assert (found, found_classes) == (count, classes)
        assert elapsed < bound, f"took {elapsed:.1f}s"

    def test_no_recursion(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            assert len(isom_classes(type_a(6), 21)) == 2_114
        finally:
            sys.setrecursionlimit(limit)

    def test_second_call_peak_memory(self):
        """The traced peak of a second call on all of A6 is 1.5 MiB on
        Python 3.10-3.13 (1.7-1.9 MiB while keys held their zero entries),
        since equal entries (x, y, a) are shared across keys (5.3-5.4 MiB
        when each key held its own).  A table kept for the whole call, one
        list of constrained pairs per least word, takes it to 5.3 MiB and
        breaks the bound.  In one process after two calls on the six-leaf
        star it read 2.9-3.1 MiB, so it runs in a child."""
        A = type_a(6)
        count, peak = _in_child(_PEAK_CHILD, [A.entries, A.labels, 21], 60)
        assert count == 2_114
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_second_call_peak_memory_on_commuting_letters(self):
        """The six-leaf star to length 7 has up to 6! namings per element, and
        `_keys` keeps each naming's entries for one length.  The traced peak
        of a second call is 3.0-3.2 MiB on Python 3.10-3.13 (3.3-3.7 MiB
        while keys held their zero entries); it was 5.7-6.6
        MiB when each element kept only its namings, and the last length's
        too, and 6.2 MiB with entry tuples not stored once per length."""
        A = star(6)
        count, peak = _in_child(_PEAK_CHILD, [A.entries, A.labels, 7], 60)
        assert count == 102
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            assert len(isom_classes(type_a(5), 15)) == 315
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIsomClassBound:
    def test_bounds_class_sizes(self):
        """A class holds no more fully supported members than A has diagram
        automorphisms, when A is symmetric, or graph automorphisms."""
        for A in (A2, A3, C3):
            if A.entries == tuple(zip(*A.entries)):
                bound = len(diagram_automorphisms(A))
            else:
                bound = len(graph_automorphisms(simple_graph(A)))
            cap = 4 if len(A) == 3 else 6
            for members in isom_classes(A, cap):
                full = [x for x in members if support(x) == set(A.labels)]
                assert len(full) <= bound


class TestRestrictionWitness:
    def test_every_element(self, rng):
        for _ in range(20):
            A = random_cartan(rng)
            w = element_from_word(A, random_word(rng, A))
            if w.is_identity():
                continue
            wit = restriction_witness(w)
            assert wit is not None
            verify_witness(wit)
            assert set(wit.target.cartan.labels) == support(w)

    def test_restricted_matrix(self):
        w = element_from_word(A3, ["s1", "s2", "s1"])
        wit = restriction_witness(w)
        assert wit.target.cartan == submatrix(A3, ["s1", "s2"])

    def test_equals_the_searched_witness(self, rng):
        """The identity witness, built without a search, is the one that
        check_equivalence finds first on the same pair."""
        elements = [element_from_word(A3, ["s1", "s2", "s1"])]
        for _ in range(20):
            A = random_cartan(rng)
            elements.append(element_from_word(A, random_word(rng, A)))
        for w in elements:
            if w.is_identity():
                continue
            wit = restriction_witness(w)
            assert wit == check_equivalence(w, wit.target)

    def test_identity_has_no_restriction(self):
        """A restricted to the empty support of e is not a Cartan matrix."""
        with pytest.raises(InvalidIndexSetError, match="e has an empty support"):
            restriction_witness(element_from_word(A3, []))
