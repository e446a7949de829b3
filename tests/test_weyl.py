import gc
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from schubertisom import (
    EquivalenceWitness,
    bruhat_leq,
    cover_reflection,
    element_from_word,
    enumerate_elements,
    export_oracle,
    interval,
    inversion_set,
    isom_classes,
    transport_interval,
    two_letter_leq,
)
from schubertisom.errors import (
    EnumerationCapExceededError,
    MixedContextsError,
    NotACoverError,
    NotInSupportError,
    UnknownLabelError,
)
from schubertisom import weyl
from schubertisom.weyl import (
    multiply,
    subword_products,
    support,
)

from conftest import (
    A1_AFFINE,
    A2,
    A2_AFFINE,
    A3,
    B3,
    B4,
    C3,
    D4,
    D4_AFFINE,
    G2,
    H3,
    UNIVERSAL_5,
    UNIVERSAL_5_WORD,
    random_cartan,
    random_word,
    bfs_enumerate_elements,
    reduced_words,
    type_a,
    validate_cartan,
)


def brute_force_subword_leq(u, w):
    """Independent Bruhat oracle: u equals a product of some subword of a
    fixed reduced word of w."""
    word = w.canonical_word
    A = w.cartan
    for r in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), r):
            if element_from_word(A, [word[i] for i in positions]) == u:
                return True
    return False


def simple_root(A, s):
    """alpha_s, or h_s, in the simple root (coroot) basis."""
    k = A.index_set.index(s)
    return tuple(int(i == k) for i in range(len(A)))


class TestSimpleReflection:
    """s_i's action on roots, read off inversion sets: the inversion set of
    s_i s_j is {alpha_i, s_i(alpha_j)}."""

    def test_a2_neighbor_root(self):
        s1s2 = element_from_word(A2, ["s1"]) * element_from_word(A2, ["s2"])
        assert inversion_set(s1s2) == {simple_root(A2, "s1"), (1, 1)}

    def test_own_root_negated(self):
        """s2 sends alpha_2, and no other positive root, negative."""
        assert inversion_set(element_from_word(A3, ["s2"])) == {simple_root(A3, "s2")}

    def test_affine_doubled(self):
        s1s2 = element_from_word(A1_AFFINE, ["s1"]) * element_from_word(A1_AFFINE, ["s2"])
        assert inversion_set(s1s2) == {simple_root(A1_AFFINE, "s1"), (2, 1)}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            element_from_word(A2, ["s9"])


class TestMultiply:
    def test_identity(self):
        e = element_from_word(A3, [])
        w = element_from_word(A3, ["s1", "s2"])
        assert multiply(w, e) == w
        assert multiply(e, w) == w

    def test_involution(self):
        s1 = element_from_word(A3, ["s1"])
        assert multiply(s1, s1).is_identity()

    def test_canonical_word_of_product(self):
        x = element_from_word(A3, ["s2", "s1"])
        y = element_from_word(A3, ["s3", "s2"])
        assert multiply(x, y).canonical_word == ("s2", "s1", "s3", "s2")

    def test_mixed_contexts(self):
        with pytest.raises(MixedContextsError):
            multiply(element_from_word(A3, ["s1"]), element_from_word(C3, ["s1"]))

    def test_context_table_keeps_only_held_matrices(self):
        """The per-matrix context goes with the last element that uses it."""
        held = element_from_word(A3, ["s1", "s2"])
        gc.collect()
        before = set(weyl._CONTEXTS.keys())
        elements = [
            element_from_word(validate_cartan([[2, -k - 1], [-1, 2]], ["s1", "s2"]), ["s1", "s2"])
            for k in range(300)
        ]
        assert len(weyl._CONTEXTS) >= 300
        del elements
        gc.collect()
        assert set(weyl._CONTEXTS.keys()) <= before
        assert weyl._CONTEXTS[A3] is held._ctx
        assert element_from_word(A3, ["s1", "s2"]) == held

    def test_inverse(self):
        w = element_from_word(A3, ["s1", "s2", "s3"])
        assert multiply(w, w.inverse()).is_identity()
        assert w.inverse().canonical_word == ("s3", "s2", "s1")


class TestElementFromWord:
    def test_cancellation(self):
        w = element_from_word(A3, ["s1", "s1"])
        assert w.is_identity()
        assert w.length == 0

    def test_commuting_letters(self):
        assert element_from_word(A3, ["s2", "s3", "s1", "s2"]) == element_from_word(
            A3, ["s2", "s1", "s3", "s2"]
        )

    def test_a2_longest(self):
        w = element_from_word(A2, ["s1", "s2", "s1"])
        assert w.length == 3
        # no shorter word reaches it: it is absent below length 3
        shorter = enumerate_elements(A2, 2)
        assert w not in shorter

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            element_from_word(A3, ["s1", "nope"])


class TestElementState:
    """An element holds only its context, its vector and its index word."""

    def test_slots(self):
        assert weyl.WeylElement.__slots__ == ("rho", "_ctx", "_indices")

    def test_reads_keep_no_memory(self):
        """Reading the word, length, descents, inverse and hash of every
        element of A6 keeps nothing on the elements: under 16 B each, where
        caching the label word and the inverse vector kept about 215 B."""
        elements = enumerate_elements(type_a(6), 21)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for w in elements:
                w.canonical_word, w.length, w.left_descents(), w.right_descents()
                w.inverse(), hash(w)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(elements) == 5040
        assert grown < 16 * len(elements), f"{grown / len(elements):.0f} B per element"

    def test_equal_and_same_hash_however_built(self):
        """The walk, element_from_word, multiply, an inverse and a double
        inverse give equal elements with equal hashes, over two equal
        matrices."""
        A, B = type_a(4), type_a(4)
        assert A == B and A is not B
        walked = enumerate_elements(A, 10)
        assert len(set(walked)) == len(walked) == 120
        for w in walked:
            word = w.canonical_word
            half = len(word) // 2
            built = [
                element_from_word(B, word),
                multiply(element_from_word(B, word[:half]), element_from_word(A, word[half:])),
                element_from_word(B, word[::-1]).inverse(),
                w.inverse().inverse(),
            ]
            for v in built:
                assert v == w and w == v
                assert hash(v) == hash(w)
                assert v.cartan == A and v.canonical_word == word


class TestDescents:
    def test_identity_empty(self):
        e = element_from_word(A3, [])
        assert e.left_descents() == set()
        assert e.right_descents() == set()

    def test_a2_single(self):
        w = element_from_word(A2, ["s1", "s2"])
        assert w.right_descents() == {"s2"}
        assert w.left_descents() == {"s1"}

    def test_longest_element_all(self):
        w0 = element_from_word(A3, ["s3", "s2", "s1", "s3", "s2", "s3"])
        assert w0.right_descents() == {"s1", "s2", "s3"}
        assert w0.left_descents() == {"s1", "s2", "s3"}

    def test_descent_means_length_drop(self, rng):
        for _ in range(30):
            A = random_cartan(rng)
            w = element_from_word(A, random_word(rng, A, 6))
            for s in A.labels:
                g = element_from_word(A, [s])
                dropped = multiply(w, g).length == w.length - 1
                assert dropped == (s in w.right_descents())


class TestBruhat:
    def test_identity_below_everything(self, rng):
        e = element_from_word(A3, [])
        for _ in range(10):
            assert bruhat_leq(e, element_from_word(A3, random_word(rng, A3)))

    def test_a3_positive(self):
        u = element_from_word(A3, ["s1", "s3"])
        w = element_from_word(A3, ["s2", "s1", "s3", "s2"])
        assert bruhat_leq(u, w)

    def test_a2_negative(self):
        u = element_from_word(A2, ["s1", "s2"])
        w = element_from_word(A2, ["s2", "s1"])
        assert not bruhat_leq(u, w)

    def test_mixed_contexts(self):
        with pytest.raises(MixedContextsError):
            bruhat_leq(element_from_word(A3, []), element_from_word(C3, []))

    def test_against_subword_oracle(self, rng):
        for _ in range(25):
            A = random_cartan(rng, max_rank=3)
            u = element_from_word(A, random_word(rng, A, 5))
            w = element_from_word(A, random_word(rng, A, 7))
            assert bruhat_leq(u, w) == brute_force_subword_leq(u, w)

    def test_agrees_with_subword_products(self, rng):
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            below = subword_products(w)
            for u in enumerate_elements(A, w.length):
                assert bruhat_leq(u, w) == (u in below)


class TestTwoLetter:
    def test_commuting_true(self):
        w = element_from_word(A3, ["s3", "s2", "s1"])
        assert two_letter_leq(A3, "s3", "s1", w)

    def test_wrong_order_false(self):
        w = element_from_word(A3, ["s2", "s1"])
        assert not two_letter_leq(A3, "s1", "s2", w)

    def test_equal_element(self):
        w = element_from_word(A3, ["s2", "s1"])
        assert two_letter_leq(A3, "s2", "s1", w)

    def test_not_in_support(self):
        w = element_from_word(A3, ["s1"])
        with pytest.raises(NotInSupportError):
            two_letter_leq(A3, "s1", "s2", w)
        with pytest.raises(NotInSupportError):
            two_letter_leq(A3, "s2", "s1", w)

    def test_element_of_another_matrix(self):
        """s2 s1 in A3 has s1 s2 not below it; read against the edgeless
        matrix over the same labels it would answer True."""
        w = element_from_word(A3, ["s2", "s1"])
        edgeless = validate_cartan([[2, 0, 0], [0, 2, 0], [0, 0, 2]], ["s1", "s2", "s3"])
        assert not two_letter_leq(A3, "s1", "s2", w)
        with pytest.raises(MixedContextsError):
            two_letter_leq(edgeless, "s1", "s2", w)

    def test_matches_bruhat(self, rng):
        for _ in range(30):
            A = random_cartan(rng)
            w = element_from_word(A, random_word(rng, A))
            sup = support(w)
            for s in sup:
                for t in sup:
                    if s == t:
                        continue
                    st = element_from_word(A, [s, t])
                    assert two_letter_leq(A, s, t, w) == bruhat_leq(st, w)

    def test_equal_letters_match_bruhat(self, rng):
        """s s = e lies below every w, whatever the word: over A2 with labels
        a, b, both a b and a b a hold a a."""
        ab = validate_cartan([[2, -1], [-1, 2]], ["a", "b"])
        for word in (["a", "b"], ["a", "b", "a"]):
            assert two_letter_leq(ab, "a", "a", element_from_word(ab, word))
        for _ in range(30):
            A = random_cartan(rng)
            w = element_from_word(A, random_word(rng, A))
            for s in support(w):
                ss = element_from_word(A, [s, s])
                assert two_letter_leq(A, s, s, w) == bruhat_leq(ss, w)


class TestInterval:
    def test_identity(self):
        itv = interval(element_from_word(A3, []))
        assert len(itv) == 1

    def test_non_elements_are_not_members(self):
        """`in` answers False, and raises nothing, for None, a label, an
        interval and an element of another matrix whose vector is in it."""
        itv = interval(element_from_word(A3, ["s1", "s2"]))
        s1 = element_from_word(C3, ["s1"])
        assert s1.rho == element_from_word(A3, ["s1"]).rho
        for other in (None, "s1", itv, s1):
            assert other not in itv

    def test_a2_longest(self):
        itv = interval(element_from_word(A2, ["s1", "s2", "s1"]))
        assert len(itv) == 6
        assert len(enumerate_elements(A2, 3)) == 6

    def test_a3_longest(self):
        w0 = element_from_word(A3, ["s3", "s2", "s1", "s3", "s2", "s3"])
        assert len(interval(w0)) == 24

    def test_cover_relations(self, rng):
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            itv = interval(w)
            covers_up = itv.covers_up
            down = _lower_covers_from_up(itv)
            for p, u in enumerate(itv):
                assert itv.position[u.rho] == p
                ups = {q for q, _ in itv.up[p]}
                for q, v in enumerate(itv):
                    is_cover = v.length == u.length + 1 and bruhat_leq(u, v)
                    assert (q in ups) == is_cover
                    assert (p in {x for x, _ in down[q]}) == is_cover
                    assert (v in covers_up[u]) == is_cover

    @staticmethod
    def _seeded_intervals():
        """Intervals over the oracle matrices (non-symmetrizable rank 4 and
        affine among them) and random matrices, from seeded words."""
        rng = random.Random(17)
        matrices = list(ORACLE_MATRICES.values())
        matrices += [random_cartan(rng) for _ in range(6)]
        for A in matrices:
            for _ in range(3):
                yield interval(element_from_word(A, random_word(rng, A, 6)))

    def test_elements_are_the_subword_products_in_shortlex_order(self):
        """Kept to the subword products, the walk gives exactly [e, w], in
        (length, ShortLex) order, each element with its vector's greedy word.
        [e, w] is also checked against the Bruhat order on all of W up to
        length(w), which does not go through the subword products."""
        for itv in self._seeded_intervals():
            w = itv.top
            assert set(itv) == subword_products(w)
            below = {v for v in enumerate_elements(itv.cartan, w.length) if bruhat_leq(v, w)}
            assert set(itv) == below
            words = [v._index_word() for v in itv]
            assert words == sorted(words, key=lambda word: (len(word), word))
            ctx = weyl._context(itv.cartan)
            assert words == [weyl.WeylElement(ctx, v.rho)._index_word() for v in itv]

    def test_covers_down_are_subword_products_one_shorter(self):
        for itv in self._seeded_intervals():
            down = _lower_covers_from_up(itv)
            for q, v in enumerate(itv):
                below = subword_products(v)
                expected = [
                    u for u in itv.elements if u.length == v.length - 1 and u in below
                ]
                assert [itv.elements[p] for p, _ in down[q]] == expected

    def test_coroots_match_cover_reflections(self):
        """The coroot of each up entry against u^{-1}(beta_vee) from the
        cover reflection; each element's upper covers are strictly increasing."""
        for itv in self._seeded_intervals():
            for ups in itv.up:
                assert [q for q, _ in ups] == sorted({q for q, _ in ups})
            for p, ups in enumerate(itv.up):
                u = itv.elements[p]
                u_inverse = MatrixElement.from_word(itv.cartan, u.canonical_word).cinv
                for q, coroot in ups:
                    reflection = cover_reflection(u, itv.elements[q])
                    assert coroot == _matvec(u_inverse, reflection.coroot)

    @pytest.mark.parametrize(
        "A",
        [type_a(4), B4, G2, A2_AFFINE, A1_AFFINE, H3, *(random_cartan(random.Random(k)) for k in range(2))],
        ids=["A4", "B4", "G2", "A2aff", "A1aff", "H3", "random0", "random1"],
    )
    def test_covers_match_letter_deletion(self, A):
        """The covers built from parents against letter deletion: deleting
        s_k from v's word s_1...s_m gives the cover u <| v, with coroot
        s_m...s_{k+1}(alpha_vee_{s_k}), exactly when s_1...s_m without s_k
        has length m - 1 (strong exchange)."""
        rng = random.Random(repr(A))
        for _ in range(8):
            itv = interval(element_from_word(A, random_word(rng, A, 9)))
            down = _lower_covers_from_up(itv)
            for q, v in enumerate(itv):
                word = v.canonical_word
                expected = []
                for k, s in enumerate(word):
                    u = element_from_word(A, word[:k] + word[k + 1:])
                    if u.length == len(word) - 1:
                        suffix = MatrixElement.from_word(A, word[k + 1:][::-1])
                        coroot = _matvec(suffix.cmat, simple_root(A, s))
                        expected.append((itv.position[u.rho], coroot))
                assert down[q] == sorted(expected)

    def test_peak_memory_near_what_it_keeps(self):
        """Each element reads only its parent's lower covers, one length
        down, so no more than two lengths of them are held: on w0 of A6 the
        traced peak stays under 1.3 times the interval returned (1.7 times
        when every length's covers were held to the end)."""
        A6 = type_a(6)
        w0 = element_from_word(A6, [f"s{j}" for i in range(6, 0, -1) for j in range(1, i + 1)])
        interval(w0)
        tracemalloc.start()
        try:
            itv = interval(w0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(itv) == 5040
        assert peak < 1.3 * kept, f"peak {peak / kept:.2f} times what is kept"


def _lower_covers_from_up(itv):
    """Each element's lower covers as (p, coroot), p increasing, read off
    the upper covers in `itv.up`."""
    down = [[] for _ in itv.elements]
    for p, ups in enumerate(itv.up):
        for q, coroot in ups:
            down[q].append((p, coroot))
    return down


def _transport_to_itself(w):
    return transport_interval(EquivalenceWitness(w, w, {s: s for s in support(w)}))


class TestElementCap:
    """One cap, counted in elements, bounds every enumeration of [e, w]."""

    W0_A3 = ["s1", "s2", "s3", "s1", "s2", "s1"]

    @pytest.mark.parametrize("build", [subword_products, interval, export_oracle])
    def test_boundary(self, build):
        """A cap of N admits exactly N elements: w0 of A3 has 24."""
        w0 = element_from_word(A3, self.W0_A3)
        built = build(w0, max_elements=24)
        assert len(getattr(built, "basis", built)) == 24
        with pytest.raises(EnumerationCapExceededError) as info:
            build(w0, max_elements=23)
        assert info.value.cap == 23
        assert str(info.value) == "more than 23 elements enumerated (element cap 23)"

    @pytest.mark.parametrize("build, A, word", [
        (subword_products, A2, ["s1", "s2"]),
        (interval, A3, ["s1", "s2", "s3"]),
    ], ids=["subword_products", "interval"])
    def test_cap_reached_with_letters_left(self, build, A, word):
        """The last letter alone fills a cap of 2 while letters are left to
        read: [e, w] has 4 or 8 elements, so the cap refuses it rather than
        returning the 2 elements read so far."""
        with pytest.raises(EnumerationCapExceededError) as info:
            build(element_from_word(A, word), max_elements=2)
        assert info.value.cap == 2

    @pytest.mark.parametrize(
        "build",
        [
            subword_products,
            interval,
            export_oracle,
            lambda e, max_elements: enumerate_elements(e.cartan, 0, max_elements),
            lambda e, max_elements: isom_classes(e.cartan, 0, max_elements),
        ],
        ids=["subword_products", "interval", "export_oracle", "enumerate_elements",
             "isom_classes"],
    )
    def test_cap_counts_the_identity(self, build):
        """[e, e] and the elements of length 0 are {e}: a cap of 0 refuses them."""
        e = element_from_word(A3, [])
        built = build(e, max_elements=1)
        assert len(getattr(built, "basis", built)) == 1
        with pytest.raises(EnumerationCapExceededError) as info:
            build(e, max_elements=0)
        assert info.value.cap == 0

    @pytest.mark.parametrize(
        "build", [subword_products, interval, export_oracle, _transport_to_itself]
    )
    def test_universal_rank_5_fails_fast(self, build):
        """Length 20 and 612,256 elements: the default cap stops the
        enumeration early, before any cover is built."""
        w = element_from_word(UNIVERSAL_5, UNIVERSAL_5_WORD)
        assert w.length == 20
        start = time.monotonic()
        with pytest.raises(EnumerationCapExceededError) as info:
            build(w)
        elapsed = time.monotonic() - start
        assert info.value.cap == weyl.DEFAULT_ELEMENT_CAP
        assert elapsed < 2.0, f"took {elapsed:.1f}s to refuse"  # about 0.25 s

    def test_work_is_bounded_by_the_cap(self, monkeypatch):
        """The count is checked while the set grows: a cap of 1,000 on the
        612,256-element interval costs about 1,800 reflections, not the
        660,077 that building the whole set takes."""
        w = element_from_word(UNIVERSAL_5, UNIVERSAL_5_WORD)
        calls = []
        apply = weyl._apply

        def counting_apply(*args):
            calls.append(1)
            return apply(*args)

        monkeypatch.setattr(weyl, "_apply", counting_apply)
        with pytest.raises(EnumerationCapExceededError):
            subword_products(w, max_elements=1000)
        assert len(calls) < 2000

    def test_default_cap_admits_w0_a7(self):
        A7 = type_a(7)
        w0 = element_from_word(
            A7, [f"s{j}" for i in range(7, 0, -1) for j in range(1, i + 1)]
        )
        assert w0.length == 28
        assert len(subword_products(w0)) == 40320


class TestSupport:
    def test_identity(self):
        assert support(element_from_word(A3, [])) == set()

    def test_full(self):
        w = element_from_word(A3, ["s2", "s1", "s3", "s2"])
        assert support(w) == {"s1", "s2", "s3"}

    def test_single(self):
        assert support(element_from_word(A3, ["s1"])) == {"s1"}


class TestReducedWords:
    def test_a2_braid(self):
        w = element_from_word(A2, ["s1", "s2", "s1"])
        assert reduced_words(w) == {
            ("s1", "s2", "s1"),
            ("s2", "s1", "s2"),
        }

    def test_commuting_pair(self):
        w = element_from_word(A3, ["s1", "s3"])
        assert reduced_words(w) == {("s1", "s3"), ("s3", "s1")}

    def test_simple(self):
        assert reduced_words(element_from_word(A3, ["s2"])) == {("s2",)}

    def test_words_multiply_back(self, rng):
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            for word in reduced_words(w):
                assert len(word) == w.length
                assert element_from_word(A, word) == w


class TestInversionSet:
    def test_identity(self):
        assert inversion_set(element_from_word(A2, [])) == frozenset()

    def test_a2_pair(self):
        w = element_from_word(A2, ["s1", "s2"])
        assert inversion_set(w) == {(1, 0), (1, 1)}

    def test_a2_longest(self):
        w0 = element_from_word(A2, ["s1", "s2", "s1"])
        assert inversion_set(w0) == {(1, 0), (0, 1), (1, 1)}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_size_is_length(self, seed):
        r = random.Random(seed)
        A = random_cartan(r, max_rank=3)
        w = element_from_word(A, random_word(r, A, 7))
        assert len(inversion_set(w)) == w.length


class TestCoverReflection:
    def test_from_identity(self):
        e = element_from_word(A2, [])
        s = element_from_word(A2, ["s1"])
        refl = cover_reflection(e, s)
        assert refl.element == s
        assert refl.root == (1, 0)
        assert refl.coroot == (1, 0)

    def test_a2_long_root(self):
        u = element_from_word(A2, ["s1"])
        v = element_from_word(A2, ["s1", "s2"])
        refl = cover_reflection(u, v)
        assert refl.root == (1, 1)
        assert refl.coroot == (1, 1)

    def test_a2_left_factor(self):
        u = element_from_word(A2, ["s1"])
        v = element_from_word(A2, ["s2", "s1"])
        refl = cover_reflection(u, v)
        assert refl.element == element_from_word(A2, ["s2"])
        assert refl.root == (0, 1)
        assert refl.coroot == (0, 1)

    def test_not_a_cover(self):
        """e under a length-2 element: s1 is no descent of e."""
        with pytest.raises(NotACoverError):
            cover_reflection(
                element_from_word(A2, []), element_from_word(A2, ["s1", "s2"])
            )

    @pytest.mark.parametrize(
        "u, v",
        [
            (["s1", "s2"], ["s1", "s2"]),
            (["s1", "s2", "s3"], ["s1", "s2"]),
            (["s3"], ["s1", "s2"]),
            ([], ["s1", "s2", "s1"]),  # deleting s2 gives e, two shorter
        ],
        ids=["equal", "longer", "one-shorter-not-below", "non-reduced-deletion"],
    )
    def test_walk_ends_without_a_cover(self, u, v):
        with pytest.raises(NotACoverError):
            cover_reflection(element_from_word(A3, u), element_from_word(A3, v))

    @pytest.mark.parametrize("A", [A3, B3, A2_AFFINE], ids=["A3", "B3", "A2aff"])
    def test_raises_exactly_on_non_covers(self, A):
        """Over every pair of [e, w], a reflection comes back exactly for
        the covers that `interval` builds, and it carries u to v."""
        w = enumerate_elements(A, 9)[-1]
        itv = interval(w)
        covers_up = itv.covers_up
        for u in itv:
            for v in itv:
                if v in covers_up[u]:
                    assert multiply(cover_reflection(u, v).element, u) == v
                else:
                    with pytest.raises(NotACoverError):
                        cover_reflection(u, v)

    def test_mixed_contexts(self):
        """e <| s1 in A3, but s1 is taken over C3."""
        with pytest.raises(MixedContextsError):
            cover_reflection(element_from_word(A3, []), element_from_word(C3, ["s1"]))

    def test_reflection_properties(self, rng):
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 5))
            itv = interval(w)
            covers_up = itv.covers_up
            for u in itv:
                for v in covers_up[u]:
                    refl = cover_reflection(u, v)
                    assert multiply(refl.element, u) == v
                    assert multiply(refl.element, refl.element).is_identity()
                    r = MatrixElement.from_word(A, refl.element.canonical_word)
                    flipped = _matvec(r.mat, refl.root)
                    assert flipped == tuple(-c for c in refl.root)


class TestEqualMatrices:
    """Two distinct CartanMatrix objects with equal entries and labels give
    one group: their elements compare equal and mix in every operation."""

    def test_elements_mix(self):
        A, B = type_a(3), type_a(3)
        assert A is not B and A == B
        u = element_from_word(A, ["s1", "s2"])
        v = element_from_word(B, ["s1", "s2"])
        assert u == v and hash(u) == hash(v)
        s1, s3 = element_from_word(A, ["s1"]), element_from_word(B, ["s3"])
        assert multiply(v, s3) == element_from_word(A, ["s1", "s2", "s3"])
        assert multiply(s1, v) == element_from_word(B, ["s2"])
        assert bruhat_leq(s1, v) and not bruhat_leq(v, s1)
        assert multiply(cover_reflection(s1, v).element, s1) == u
        below_u, below_v = interval(u), interval(v)
        assert u in below_v and v in below_u
        assert all(x in below_u for x in below_v)

    def test_unequal_matrix_still_refused(self):
        """C3 has A3's labels and first column, but another matrix."""
        u = element_from_word(type_a(3), ["s1", "s2"])
        s1 = element_from_word(C3, ["s1"])
        for op in (multiply, bruhat_leq, cover_reflection):
            with pytest.raises(MixedContextsError):
                op(s1, u)
        assert s1 not in interval(u)


class TestEnumeration:
    def test_w_a3_is_s4(self):
        assert len(enumerate_elements(A3, 6)) == 24

    def test_cap_raises(self):
        with pytest.raises(EnumerationCapExceededError):
            enumerate_elements(A1_AFFINE, 50, max_elements=20)

    def test_sorted_by_length_then_word(self):
        elems = enumerate_elements(A3, 3)
        lengths = [w.length for w in elems]
        assert lengths == sorted(lengths)

    def test_stops_at_the_first_empty_length(self):
        """W(A2) has 6 elements; a huge length bound does no extra work."""
        start = time.monotonic()
        assert len(enumerate_elements(A2, 10**12)) == 6
        assert time.monotonic() - start < 1.0


# Finite, affine, hyperbolic and random matrices, each with a length bound
# that keeps the group part small.
DIFFERENTIAL_CASES = [
    pytest.param(type_a(4), 10, id="A4"),
    pytest.param(B3, 9, id="B3"),
    pytest.param(G2, 6, id="G2"),
    pytest.param(D4, 12, id="D4"),
    pytest.param(A1_AFFINE, 9, id="A1-affine"),
    pytest.param(A2_AFFINE, 7, id="A2-affine"),
    pytest.param(D4_AFFINE, 5, id="D4-affine"),
    pytest.param(H3, 6, id="H3"),
] + [
    pytest.param(random_cartan(random.Random(seed)), 5, id=f"random-{seed}")
    for seed in range(8)
]


@pytest.mark.parametrize("A, max_length", DIFFERENTIAL_CASES)
def test_enumeration_matches_bfs_oracle(A, max_length):
    """The bottom-up enumeration gives the oracle's vectors in the oracle's
    order, and each word it stores is the greedy word of the vector."""
    built = enumerate_elements(A, max_length)
    expected = bfs_enumerate_elements(A, max_length)
    assert [w.rho for w in built] == [w.rho for w in expected]
    assert [w.canonical_word for w in built] == [w.canonical_word for w in expected]


@pytest.mark.parametrize("A, max_length", DIFFERENTIAL_CASES)
def test_enumeration_cap_boundary_matches_bfs_oracle(A, max_length):
    """A cap equal to the count passes and one less raises, in both."""
    count = len(bfs_enumerate_elements(A, max_length))
    assert len(enumerate_elements(A, max_length, max_elements=count)) == count
    for enumerate_ in (enumerate_elements, bfs_enumerate_elements):
        with pytest.raises(EnumerationCapExceededError) as info:
            enumerate_(A, max_length, max_elements=count - 1)
        assert info.value.cap == count - 1


def test_negative_length_has_no_elements():
    """Every length is >= 0, so a negative bound admits no element, not e."""
    assert enumerate_elements(A3, -1) == bfs_enumerate_elements(A3, -1) == []
    assert isom_classes(A3, -1) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_canonical_word_faithful(seed):
    r = random.Random(seed)
    A = random_cartan(r, max_rank=3)
    word = random_word(r, A, 8)
    w = element_from_word(A, word)
    again = element_from_word(A, w.canonical_word)
    assert again == w
    assert again.canonical_word == w.canonical_word
    assert w.length <= len(word)


# --- the former four-matrix arithmetic, kept only as a test oracle -------------


def _matmul(a, b):
    rng = range(len(a))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in rng) for j in rng) for i in rng
    )


def _matvec(a, v):
    rng = range(len(a))
    return tuple(sum(a[i][k] * v[k] for k in rng) for i in rng)


class MatrixElement:
    """w as its integral action on roots and coroots.

    Column t of `mat` is w(alpha_t) and column t of `cmat` is w(h_t), in the
    simple-root and simple-coroot bases; `inv` and `cinv` are the inverses.
    Independent of the w(rho) vectors the library stores.
    """

    def __init__(self, A, mat, inv, cmat, cinv):
        self.A, self.mat, self.inv, self.cmat, self.cinv = A, mat, inv, cmat, cinv

    @classmethod
    def from_word(cls, A, word):
        n = len(A)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        out = cls(A, ident, ident, ident, ident)
        for s in word:
            out = out * cls.generator(A, s)
        return out

    @classmethod
    def generator(cls, A, s):
        k = A.index_set.index(s)
        n = len(A)
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        cmat = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in range(n):
            mat[k][j] -= A.entries[k][j]
            cmat[k][j] -= A.entries[j][k]
        mat = tuple(map(tuple, mat))
        cmat = tuple(map(tuple, cmat))
        return cls(A, mat, mat, cmat, cmat)

    def __mul__(self, other):
        return MatrixElement(
            self.A,
            _matmul(self.mat, other.mat),
            _matmul(other.inv, self.inv),
            _matmul(self.cmat, other.cmat),
            _matmul(other.cinv, self.cinv),
        )

    def __eq__(self, other):
        return self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def inverse(self):
        return MatrixElement(self.A, self.inv, self.mat, self.cinv, self.cmat)

    def _negative_columns(self, mat):
        n = len(mat)
        return {
            s
            for j, s in enumerate(self.A.labels)
            if all(mat[i][j] <= 0 for i in range(n))
        }

    def left_descents(self):
        return self._negative_columns(self.inv)

    def right_descents(self):
        return self._negative_columns(self.mat)

    def canonical_word(self):
        word = []
        cur = self
        while cur.left_descents():
            s = min(cur.left_descents(), key=self.A.index_set.index)
            word.append(s)
            cur = MatrixElement.generator(self.A, s) * cur
        return tuple(word)


def matrix_cover_reflection(A, u, v):
    """Root and coroot of the reflection r with r*u = v, by scanning the
    prefix reflections of v's reduced word with matrix products."""
    word = v.canonical_word()
    prefix = MatrixElement.from_word(A, ())
    for s in word:
        g = MatrixElement.generator(A, s)
        refl = prefix * g * prefix.inverse()
        if refl * u == v:
            unit = simple_root(A, s)
            return refl, _matvec(prefix.mat, unit), _matvec(prefix.cmat, unit)
        prefix = prefix * g
    raise AssertionError("not a cover")


def matrix_inversion_set(A, word):
    """The roots s_1...s_{k-1}(alpha_{s_k}) of a reduced word, by matrix
    products."""
    roots, prefix = set(), MatrixElement.from_word(A, ())
    for s in word:
        roots.add(_matvec(prefix.mat, simple_root(A, s)))
        prefix = prefix * MatrixElement.generator(A, s)
    return roots


def _non_symmetrizable_rank_4(rng):
    """A random rank-4 matrix with a triangle whose cycle products differ,
    which rules out a symmetrization."""
    labels = ["s1", "s2", "s3", "s4"]
    while True:
        e = [[2 if i == j else -rng.randint(1, 3) for j in range(4)] for i in range(4)]
        if any(
            e[i][j] * e[j][k] * e[k][i] != e[j][i] * e[k][j] * e[i][k]
            for i, j, k in itertools.combinations(range(4), 3)
        ):
            return validate_cartan(e, labels)


ORACLE_MATRICES = {
    "A4": type_a(4),
    "B4": B4,
    "D4": D4,
    "G2": G2,
    "A2aff": A2_AFFINE,
    "A1aff": A1_AFFINE,
    **{f"nonsym4_{k}": _non_symmetrizable_rank_4(random.Random(k)) for k in range(3)},
}


class TestAgainstMatrixOracle:
    """The w(rho) vectors agree with the four-matrix action on every query."""

    @pytest.mark.parametrize("name", ORACLE_MATRICES)
    def test_element_queries(self, name):
        A = ORACLE_MATRICES[name]
        rng = random.Random(name)
        by_rho, by_mat = {}, {}
        for k in range(60):
            word = random_word(rng, A, 9)
            w = element_from_word(A, word)
            ref = MatrixElement.from_word(A, word)
            by_rho.setdefault(w.rho, set()).add(k)
            by_mat.setdefault(ref.mat, set()).add(k)
            assert w.canonical_word == ref.canonical_word()
            assert w.left_descents() == ref.left_descents()
            assert w.right_descents() == ref.right_descents()
            assert w.inverse().canonical_word == ref.inverse().canonical_word()
            assert w.inverse() == element_from_word(A, word[::-1])
            roots = inversion_set(w)
            assert roots == matrix_inversion_set(A, ref.canonical_word())
            assert all(max(_matvec(ref.inv, beta)) <= 0 for beta in roots)
        # equality: words group into the same elements either way
        assert sorted(map(sorted, by_rho.values())) == sorted(
            map(sorted, by_mat.values())
        )

    @staticmethod
    def _check_cover_reflections(itv):
        A = itv.cartan
        covers_up = itv.covers_up
        for u in itv:
            ref_u = MatrixElement.from_word(A, u.canonical_word)
            for v in covers_up[u]:
                ref_v = MatrixElement.from_word(A, v.canonical_word)
                refl = cover_reflection(u, v)
                ref_refl, root, coroot = matrix_cover_reflection(A, ref_u, ref_v)
                assert (refl.root, refl.coroot) == (root, coroot)
                assert refl.element.canonical_word == ref_refl.canonical_word()

    @pytest.mark.parametrize("name", ORACLE_MATRICES)
    def test_cover_reflections(self, name):
        A = ORACLE_MATRICES[name]
        rng = random.Random(name)
        for _ in range(3):
            self._check_cover_reflections(interval(element_from_word(A, random_word(rng, A, 5))))

    @pytest.mark.parametrize("A", [
        type_a(30),
        validate_cartan([[2 if i == j else -1 - (i > j) * (i % 3) if abs(i - j) == 1 else 0
                          for j in range(30)] for i in range(30)],
                        [f"s{i}" for i in range(1, 31)]),
    ], ids=["A30", "nonsym-chain30"])
    def test_words_in_few_letters(self, A):
        """Roots, coroots and reflections read only the rows at the letters
        of the word: on a rank-30 chain, words in two or three of its letters
        match the matrix oracle, as do the covers of their intervals."""
        rng = random.Random(len(A))
        for letters in (["s1", "s2"], ["s29", "s30"], ["s14", "s15", "s16"], ["s3", "s20"]):
            for _ in range(3):
                word = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
                w = element_from_word(A, word)
                assert inversion_set(w) == matrix_inversion_set(A, w.canonical_word)
                self._check_cover_reflections(interval(w))

    @pytest.mark.parametrize("A", [type_a(4), B3], ids=["A4", "B3"])
    def test_cover_reflections_of_longest(self, A):
        """Every cover of w0, so the walk runs down whole words of w0."""
        w0 = enumerate_elements(A, 10**6)[-1]
        assert w0.length == {4: 10, 3: 9}[len(A)]
        self._check_cover_reflections(interval(w0))
