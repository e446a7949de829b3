"""Acceptance gate: one test per criterion, named test_criterion_N_*.

Each test prints a single summary line (visible with -s or on failure) and
asserts the stated tolerances exactly.  Witnesses produced along the way are
accumulated so the equivalence-axiom criterion can audit them afterwards.
"""

import itertools
import random
import time

from schubertisom import (
    bruhat_leq,
    check_equivalence,
    chevalley_product,
    diagram_automorphisms,
    element_from_word,
    export_oracle,
    graph_automorphisms,
    interval,
    inversion_set,
    isom_classes,
    reconstruct,
    simple_graph,
    simple_square_closed_form,
    support,
    support_closure,
    transport_interval,
    two_letter_leq,
    validate_cartan,
)
from schubertisom.cohomology import minimal_coset_reps
from schubertisom.freealg import FreeAlgebraElement, Poly, depends_on, eta
from schubertisom.weyl import enumerate_elements, subword_products

from conftest import (
    A2,
    A3,
    B2,
    C3,
    D4,
    D4_AFFINE,
    A1_AFFINE,
    random_cartan,
    random_word,
    type_a,
)

WITNESSES = []


def _line(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _record(witness):
    if witness is not None:
        WITNESSES.append(witness)
    return witness


def test_criterion_1_isom_class_counts():
    classes_a3 = isom_classes(A3, 6)
    for members in classes_a3:
        for other in members[1:]:
            _record(check_equivalence(members[0], other))
    table = {
        frozenset(x.canonical_word for x in members) for members in classes_a3
    }
    expected_a3 = {
        frozenset(tuple(word.split()) for word in group)
        for group in [
            [""],
            ["s1", "s2", "s3"],
            ["s1 s3"],
            ["s1 s2", "s2 s1", "s2 s3", "s3 s2"],
            ["s1 s2 s1", "s2 s3 s2"],
            ["s1 s3 s2"],
            ["s2 s1 s3"],
            ["s1 s2 s3", "s3 s2 s1"],
            ["s1 s2 s3 s2", "s3 s2 s1 s2"],
            ["s2 s1 s2 s3", "s2 s3 s2 s1"],
            ["s2 s1 s3 s2"],
            ["s2 s1 s2 s3 s2", "s2 s3 s2 s1 s2"],
            ["s3 s2 s1 s2 s3"],
            ["s3 s2 s1 s3 s2 s3"],
        ]
    }
    expected_a3 = {
        frozenset(
            element_from_word(A3, word).canonical_word for word in group
        )
        for group in expected_a3
    }
    start = time.monotonic()
    count_a4 = len(isom_classes(type_a(4), 10))
    count_a5 = len(isom_classes(type_a(5), 15))
    elapsed = time.monotonic() - start
    ok = (
        len(classes_a3) == 14
        and table == expected_a3
        and count_a4 == 54
        and count_a5 == 315
        and elapsed < 10.0
    )
    _line(
        1,
        ok,
        f"A3={len(classes_a3)} A4={count_a4} A5={count_a5} in {elapsed:.1f}s",
    )
    assert len(classes_a3) == 14
    assert table == expected_a3
    assert count_a4 == 54
    assert elapsed < 10.0
    # 315, not 316: test_type_a_class_counts_from_permutations in
    # test_equivalence.py derives 4, 14, 54, 315 for A2..A5 from plain
    # permutations, without the package.
    assert count_a5 == 315


def test_criterion_2_small_pair_decisions():
    results = [
        check_equivalence(
            element_from_word(A3, ["s3", "s2", "s1"]),
            element_from_word(C3, ["s3", "s2", "s1"]),
        )
        is None,
        _record(
            check_equivalence(
                element_from_word(A3, ["s1", "s2", "s3"]),
                element_from_word(C3, ["s1", "s2", "s3"]),
            )
        )
        is not None,
        check_equivalence(
            element_from_word(A3, ["s2", "s1", "s3"]),
            element_from_word(A3, ["s1", "s3", "s2"]),
        )
        is None,
        _record(
            check_equivalence(
                element_from_word(A1_AFFINE, ["s1", "s2"]),
                element_from_word(B2, ["s1", "s2"]),
            )
        )
        is not None,
    ]
    _line(2, all(results), f"quadruple={results}")
    assert all(results)


def _hirzebruch(n):
    if n == 0:
        return validate_cartan([[2, 0], [0, 2]], ["s1", "s2"])
    return validate_cartan([[2, -n], [-1, 2]], ["s1", "s2"])


def test_criterion_3_hirzebruch():
    checked = []
    for n in range(6):
        A = _hirzebruch(n)
        w = element_from_word(A, ["s1", "s2"])
        itv = interval(w)
        s1 = element_from_word(A, ["s1"])
        s2 = element_from_word(A, ["s2"])
        assert chevalley_product("s1", s1, itv).coeffs == {}
        assert chevalley_product("s1", s2, itv).coeffs == {w: 1}
        assert chevalley_product("s2", s1, itv).coeffs == {w: 1}
        assert chevalley_product("s2", s2, itv).coeffs == (
            {w: n} if n else {}
        )
        rp = reconstruct(export_oracle(w, seed=n))
        w_prime = element_from_word(rp.cartan, rp.word)
        _record(check_equivalence(w, w_prime))
        off_diagonal = sorted(
            rp.cartan.entry(s, t)
            for s in rp.cartan.labels
            for t in rp.cartan.labels
            if s != t
        )
        assert off_diagonal == sorted([-n if n else 0, -1 if n else 0])
        checked.append(n)
    _line(3, checked == list(range(6)), f"n={checked}")
    assert checked == list(range(6))


def test_criterion_4_round_trip_reconstruction():
    rng = random.Random(4)
    start = time.monotonic()
    passed = 0
    trials = 0
    while trials < 500:
        A = random_cartan(rng, max_rank=4, min_entry=-3)
        w = element_from_word(A, random_word(rng, A, 8))
        if w.is_identity() or w.length > 8:
            continue
        trials += 1
        rp = reconstruct(export_oracle(w, seed=rng.randrange(10**6)))
        w_prime = element_from_word(rp.cartan, rp.word)
        wit = _record(check_equivalence(w, w_prime))
        if wit is not None and w_prime.length == w.length:
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed == trials == 500 and elapsed < 60.0
    _line(4, ok, f"{passed}/{trials} round trips in {elapsed:.1f}s")
    assert passed == trials == 500
    assert elapsed < 60.0


def _brute_force_below(w):
    word = w.canonical_word
    A = w.cartan
    out = set()
    for r in range(len(word) + 1):
        for positions in itertools.combinations(range(len(word)), r):
            out.add(element_from_word(A, [word[i] for i in positions]))
    return out


def _check_oracles_on(A, elements, rng):
    small = len(elements) <= 200
    for w in elements:
        itv = interval(w)
        below = subword_products(w)
        brute = _brute_force_below(w)
        # subword brute force vs the dynamic-programming order oracle
        assert brute == below
        if small:
            for u in elements:
                assert bruhat_leq(u, w) == (u in brute)
        else:
            for u in brute:
                assert bruhat_leq(u, w)
            for _ in range(20):
                u = element_from_word(A, random_word(rng, A, w.length))
                assert bruhat_leq(u, w) == (u in brute)
        sup = sorted(support(w))
        for s in sup:
            for t in sup:
                if s != t:
                    st = element_from_word(A, [s, t])
                    assert two_letter_leq(A, s, t, w) == bruhat_leq(st, w)
        for t in sup:
            st = element_from_word(A, [t])
            assert chevalley_product(t, st, itv) == simple_square_closed_form(
                t, itv
            )
        for size in range(len(sup) + 1):
            for J in itertools.combinations(sup, size):
                assert support_closure(J, itv) == minimal_coset_reps(J, itv)
        # reachability through product supports vs Bruhat order on [e,w]
        edges = {u: set() for u in itv}
        for s in sup:
            for u in itv:
                for v in chevalley_product(s, u, itv).coeffs:
                    edges[u].add(v)
        below_of = {v: subword_products(v) for v in itv}
        for u in itv:
            reach = {u}
            frontier = [u]
            while frontier:
                x = frontier.pop()
                for y in edges[x]:
                    if y not in reach:
                        reach.add(y)
                        frontier.append(y)
            assert reach == {v for v in itv if u in below_of[v]}


def test_criterion_5_oracle_equivalences():
    rng = random.Random(5)
    matrices = [A3, C3] + [random_cartan(rng) for _ in range(20)]
    start = time.monotonic()
    for A in matrices:
        elements = enumerate_elements(A, 6)
        _check_oracles_on(A, elements, rng)
    elapsed = time.monotonic() - start
    _line(5, True, f"{len(matrices)} matrices in {elapsed:.1f}s")


def _transports_inversions(wit):
    src_index = {s: i for i, s in enumerate(wit.source.cartan.labels)}
    dst_index = {s: i for i, s in enumerate(wit.target.cartan.labels)}
    n_dst = len(wit.target.cartan.labels)
    mapping = transport_interval(wit)
    for x, y in mapping.items():
        pushed = set()
        for root in inversion_set(x):
            out = [0] * n_dst
            for s, i in src_index.items():
                if s in wit.sigma:
                    out[dst_index[wit.sigma[s]]] = root[i]
                elif root[i]:
                    return False
            pushed.add(tuple(out))
        if pushed != set(inversion_set(y)):
            return False
    return True


def test_criterion_6_equivalence_axioms():
    assert WITNESSES, "criteria 1-4 must run first and produce witnesses"
    rng = random.Random(6)
    audited = 0
    for wit in WITNESSES:
        # soundness of the witness itself
        assert set(wit.sigma) == support(wit.source)
        assert set(wit.sigma.values()) == support(wit.target)
        assert (
            element_from_word(wit.target.cartan, wit.target_word) == wit.target
        )
        for s in wit.sigma:
            for t in wit.sigma:
                if s != t and two_letter_leq(
                    wit.source.cartan, s, t, wit.source
                ):
                    assert wit.source.cartan.entry(
                        s, t
                    ) == wit.target.cartan.entry(wit.sigma[s], wit.sigma[t])
        # reflexivity and symmetry
        assert check_equivalence(wit.source, wit.source) is not None
        assert check_equivalence(wit.target, wit.source) is not None
        audited += 1
    # transitivity across chained witnesses
    chained = 0
    for wit in rng.sample(WITNESSES, min(50, len(WITNESSES))):
        follow = check_equivalence(wit.target, wit.target)
        if follow is not None:
            assert check_equivalence(wit.source, follow.target) is not None
            chained += 1
    # inversion-set transport on a bounded sample
    transported = 0
    for wit in rng.sample(WITNESSES, min(60, len(WITNESSES))):
        if wit.source.length <= 8:
            assert _transports_inversions(wit)
            transported += 1
    _line(
        6,
        True,
        f"{audited} witnesses, {chained} chained, {transported} transported",
    )


def test_criterion_7_automorphism_table():
    counts = {
        "A3_graph": len(graph_automorphisms(simple_graph(A3))),
        "D4": len(diagram_automorphisms(D4)),
        "C3": len(diagram_automorphisms(C3)),
        "C3_graph": len(graph_automorphisms(simple_graph(C3))),
        "D4_affine": len(diagram_automorphisms(D4_AFFINE)),
    }
    expected = {
        "A3_graph": 2,
        "D4": 6,
        "C3": 1,
        "C3_graph": 2,
        "D4_affine": 24,
    }
    _line(7, counts == expected, str(counts))
    assert counts == expected


def _admissible_tau(rng, s, t):
    """A monomial independent of a_st with every f_t left of every h_s, f_s."""
    while True:
        mono = tuple(
            (rng.choice("fhe"), rng.choice(("1", "2", "3")))
            for _ in range(rng.randint(0, 6))
        )
        ft = [i for i, g in enumerate(mono) if g == ("f", t)]
        blockers = [i for i, g in enumerate(mono) if g in (("h", s), ("f", s))]
        if ft and blockers and max(ft) > min(blockers):
            continue
        return FreeAlgebraElement({mono: Poly.const(rng.randint(-3, 3) or 1)})


def test_criterion_8_normal_form():
    F = lambda i: FreeAlgebraElement.generator("f", i)
    H = lambda i: FreeAlgebraElement.generator("h", i)
    E = lambda i: FreeAlgebraElement.generator("e", i)
    out = eta(H("1") * E("2") * E("3") * F("2"))
    expected = (
        F("2") * H("1") * E("2") * E("3")
        - FreeAlgebraElement.scalar(Poly.variable("1", "2"))
        * F("2")
        * E("2")
        * E("3")
        + H("1") * H("2") * E("3")
    )
    vector_ok = out == expected
    rng = random.Random(8)
    start = time.monotonic()
    for _ in range(1000):
        tau = _admissible_tau(rng, "1", "2")
        assert not depends_on(tau, "1", "2")
        assert not depends_on(eta(tau), "1", "2")
    elapsed = time.monotonic() - start
    ok = vector_ok and elapsed < 10.0
    _line(8, ok, f"worked vector {'ok' if vector_ok else 'BAD'}, 1000 in {elapsed:.1f}s")
    assert vector_ok
    assert elapsed < 10.0
