"""Kazhdan-Lusztig polynomials from the Bruhat interval alone: an oracle for
witnesses and for `interval`, with no package code beyond `interval`'s
elements and covers.

P_{x,w} is the local intersection cohomology of X(w) along X(x) (Kazhdan
and Lusztig, "Schubert varieties and Poincare duality", Proc. Sympos. Pure
Math. 36, 1980), so isomorphic Schubert varieties share it: a witness
sigma from (w, A) to (w', A') must give P_{x,w} = P_{sigma x, w'} for every
x <= w.  The recursion needs only [e, w], its Bruhat order and left
multiplication by the simple reflections that are left descents; the order
comes from the covers and the multiplication from the vectors x(rho), both
here.  On lower intervals P depends only on the poset (Brenti, Caselli and
Marietti, Adv. Math. 202, 2006), so this checks witnesses and `interval`;
it tells no classes apart.
"""

from collections import Counter

import pytest

from schubertisom import (check_equivalence, element_from_word, interval, isom_classes,
                          transport_interval)
from schubertisom.weyl import enumerate_elements

from conftest import A2_AFFINE, A3, D4, type_a, type_a_smooth

# Each matrix with the length its elements are taken to: all of A4 and D4,
# and the affine A2 to length 6.
CASES = {"A4": (type_a(4), 10), "D4": (D4, 12), "A2aff": (A2_AFFINE, 6)}


def _plus(p, r, shift=0, times=1):
    """The coefficients of p + times * q^shift * r, without trailing zeros."""
    out = list(p) + [0] * max(0, len(r) + shift - len(p))
    for k, a in enumerate(r):
        out[k + shift] += times * a
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def kl_polynomials(top):
    """({u(rho): {x(rho): P_{x,u}}}, {x(rho): l(x)}) over every x <= u in
    [e, top], each P its coefficients from q^0, by the standard recursion
    (Humphreys, Reflection Groups and Coxeter Groups, 7.11-7.12): for s a
    left descent of u and v = s u,

        P_{x,u} = q^(1-c) P_{sx,v} + q^c P_{x,v}
                  - sum over z < v with sz < z of mu(z,v) q^((l(u)-l(z))/2) P_{x,z},

    with c = 1 if sx < x and 0 otherwise, P_{y,v} = 0 unless y <= v, and
    mu(z,v) the coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}.  If x <= u
    then sx <= u, so every product stays in [e, top]."""
    I = interval(top)
    A, n = top.cartan.entries, len(I)
    grade, below = [0] * n, [1 << q for q in range(n)]  # below[q]: the bits of p <= q
    for p, ups in enumerate(I.up):
        for q, _ in ups:
            grade[q] = grade[p] + 1
            below[q] |= below[p]
    vectors = [x.rho for x in I.elements]

    def left(i, x):
        """The position of s_i x, or None outside [e, top]: <h_j, s_i x(rho)>
        is <h_j, x(rho)> - <h_i, x(rho)> A[j][i]."""
        v = vectors[x]
        return I.position.get(tuple(a - v[i] * A[j][i] for j, a in enumerate(v)))

    P = [dict() for _ in range(n)]  # P[u][x] = P_{x,u}
    mu = [[] for _ in range(n)]  # (z, mu(z,u)) for the z < u with mu(z,u) != 0
    P[0][0] = (1,)
    for u in range(1, n):
        i, v = next((i, v) for i in range(len(A))
                    if (v := left(i, u)) is not None and grade[v] < grade[u])
        for x in (x for x in range(u + 1) if below[u] >> x & 1):
            sx = left(i, x)
            c = int(grade[sx] < grade[x])
            p = _plus(_plus((), P[v].get(sx, ()), 1 - c), P[v].get(x, ()), c)
            for z, m in mu[v]:
                if below[z] >> x & 1 and grade[left(i, z)] < grade[z]:
                    p = _plus(p, P[z][x], (grade[u] - grade[z]) // 2, -m)
            P[u][x] = p
            d, odd = divmod(grade[u] - grade[x] - 1, 2)
            if x != u and not odd and len(p) > d and p[d]:
                mu[u].append((x, p[d]))
    table = {vectors[u]: {vectors[x]: p for x, p in P[u].items()} for u in range(n)}
    return table, dict(zip(vectors, grade))


@pytest.fixture(scope="module")
def tables():
    """{name: kl_polynomials over the elements of CASES[name] of the top
    length, merged}: every element lies below one of them."""
    found = {}
    for name, (A, top_length) in CASES.items():
        table, lengths = found[name] = {}, {}
        for top in enumerate_elements(A, top_length):
            if top.length == top_length:
                more, grades = kl_polynomials(top)
                table.update(more)
                lengths.update(grades)
    return found


@pytest.mark.parametrize("name", CASES)
def test_polynomials_are_normalized(tables, name):
    """Every element is below a top: P_{x,x} = 1, and for x < w, P_{x,w} has
    constant term 1 and degree at most (l(w) - l(x) - 1) / 2."""
    A, max_length = CASES[name]
    table, lengths = tables[name]
    assert len(table) == len(enumerate_elements(A, max_length))
    for w, column in table.items():
        for x, p in column.items():
            assert p[0] == 1 and (x == w or 2 * (len(p) - 1) < lengths[w] - lengths[x])
        assert column[w] == (1,)


@pytest.mark.parametrize("name", CASES)
def test_witnesses_carry_polynomials(tables, name):
    """P_{x,w} = P_{sigma x, w'} for each member w' of a class and the first
    member w, x over [e, w], mapped by `transport_interval`."""
    A, max_length = CASES[name]
    table, _ = tables[name]
    pairs = 0
    for first, *rest in isom_classes(A, max_length):
        for w in rest:
            image = transport_interval(check_equivalence(first, w))
            assert all(table[first.rho][x.rho] == table[w.rho][y.rho] for x, y in image.items())
            pairs += 1
    assert pairs


@pytest.mark.parametrize("name", CASES)
def test_carrell_peterson(tables, name):
    """P_{e,w} = 1 exactly when the rank sizes of [e, w] are palindromic,
    that is when X(w) is rationally smooth (Carrell-Peterson; Kumar,
    Kac-Moody Groups, their Flag Varieties and Representation Theory, 2002,
    12.2.14), and both happen."""
    table, lengths = tables[name]
    identity = element_from_word(CASES[name][0], ()).rho
    found = Counter()
    for w, column in table.items():
        sizes = Counter(lengths[x] for x in column)
        palindromic = all(sizes[k] == sizes[lengths[w] - k] for k in sizes)
        assert (column[identity] == (1,)) == palindromic, w
        found[palindromic] += 1
    assert found[True] and found[False]


def test_type_a_by_patterns(tables):
    """In type A, P_{e,w} = 1 exactly when w avoids 3412 and 4231
    (Lakshmibai and Sandhya, 1990), on all of A4: 88 elements (OEIS
    A032351)."""
    A, max_length = CASES["A4"]
    table, _ = tables["A4"]
    identity = element_from_word(A, ()).rho
    smooth = 0
    for w in enumerate_elements(A, max_length):
        avoids = type_a_smooth(5, w)
        assert (table[w.rho][identity] == (1,)) == avoids, w
        smooth += avoids
    assert smooth == 88


def test_a3_singular_element():
    """The classic singular Schubert variety: P_{e, s2 s1 s3 s2} = 1 + q in A3."""
    w = element_from_word(A3, ["s2", "s1", "s3", "s2"])
    table, _ = kl_polynomials(w)
    assert table[w.rho][element_from_word(A3, ()).rho] == (1, 1)
