"""Degree polynomials: a check of whole Chevalley tables from outside the package.

D_w(x) is the sum, over the maximal chains e = v_0 <| ... <| v_l = w of
[e, w], of the product of <x, gamma> over the chain's covers, gamma being
the cover's coroot in `interval(w).up`: the coefficient of the top class in
(sum_s x_s xi_s)^l(w) (Postnikov and Stanley, "Chains in the Bruhat order",
J. Algebraic Combin. 29, 2009).

Check 1: for w0 of a finite type with N positive roots, D_{w0}(x) is
N! * prod_{alpha > 0} <x, alpha_vee> / <rho, alpha_vee>, the top term of
Weyl's dimension formula, with the positive coroots found here by
reflection closure from the simple ones.  Check 2: a witness sigma carries
D_w to D_{w'}: D_w(x) = D_{w'}(sigma x).
"""

import random
from math import factorial, prod

import pytest

from schubertisom import check_equivalence, element_from_word, interval, validate_cartan

from conftest import B3, B4, C3, D4, G2, random_cartan, random_word, relabeled, type_a


def _cartan(n, links):
    """Rank n, labels s1..sn, with A[i][j] = a for each (i, j, a) in links
    (1-based) and A[j][i] = -1 unless links sets it too."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a in links:
        rows[i - 1][j - 1] = a
        rows[j - 1][i - 1] = rows[j - 1][i - 1] or -1
    return validate_cartan(rows, [f"s{i}" for i in range(1, n + 1)])


def _type_b(n):
    return _cartan(n, [(i, i + 1, -1) for i in range(1, n - 1)] + [(n - 1, n, -2)])


def _type_c(n):
    return _cartan(n, [(i, i + 1, -1) for i in range(1, n - 1)] + [(n, n - 1, -2)])


def _type_d(n):
    return _cartan(n, [(i, i + 1, -1) for i in range(1, n - 1)] + [(n - 2, n, -1)])


F4 = _cartan(4, [(1, 2, -1), (2, 3, -2), (3, 4, -1)])

FINITE = {
    "A3": (type_a(3), True), "A4": (type_a(4), True), "A5": (type_a(5), True),
    "A6": (type_a(6), True), "B3": (B3, False), "B4": (B4, False), "B5": (_type_b(5), False),
    "C3": (C3, False), "C4": (_type_c(4), False), "C5": (_type_c(5), False),
    "D4": (D4, True), "D5": (_type_d(5), True), "F4": (F4, False), "G2": (G2, False),
}


def degree(w, x):
    """D_w at the point x, a value per label, in one pass up [e, w]."""
    itv = interval(w)
    weights = [x[s] for s in w.cartan.labels]
    chains = [1] + [0] * (len(itv) - 1)
    for p, covers in enumerate(itv.up):
        for q, gamma in covers:
            chains[q] += chains[p] * sum(a * c for a, c in zip(weights, gamma))
    return chains[-1]


def longest(A):
    word = []
    while True:
        w = element_from_word(A, word)
        ascents = [s for s in A.labels if s not in w.right_descents()]
        if not ascents:
            return w
        word.append(ascents[0])


def positive_coroots(rows):
    """Closure of the simple coroots under s_i(b) = b - <b, alpha_i> alpha_i_vee,
    with <alpha_j_vee, alpha_i> = rows[j][i], kept to the positive ones."""
    n = len(rows)
    found = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(found)
    while todo:
        beta = todo.pop()
        for i in range(n):
            image = list(beta)
            image[i] -= sum(c * rows[j][i] for j, c in enumerate(beta))
            image = tuple(image)
            if min(image) >= 0 and image not in found:
                found.add(image)
                todo.append(image)
    return found


def weyl_degree_matches(coroots, point, d):
    """Whether d = N! * prod <x, alpha_vee> / <rho, alpha_vee>, in integers."""
    top = factorial(len(coroots)) * prod(sum(map(prod, zip(point, c))) for c in coroots)
    return d * prod(map(sum, coroots)) == top


@pytest.mark.parametrize("name", FINITE)
def test_longest_element_degree_is_weyls(name):
    """Check 1, with a transposed-convention control that must differ
    exactly on the types that are not simply laced."""
    A, simply_laced = FINITE[name]
    w0 = longest(A)
    rows = [[A.entry(s, t) for t in A.labels] for s in A.labels]
    coroots = positive_coroots(rows)
    dual = positive_coroots([list(column) for column in zip(*rows)])
    assert len(coroots) == w0.length
    rng = random.Random(name)
    for _ in range(3):
        point = [rng.randint(1, 9) for _ in A.labels]
        d = degree(w0, dict(zip(A.labels, point)))
        assert weyl_degree_matches(coroots, point, d)
        assert weyl_degree_matches(dual, point, d) == simply_laced


def test_witness_carries_degree_polynomial():
    """Check 2 on seeded pairs: relabelled copies (some with one entry
    changed) and pairs of words over one or two random matrices."""
    rng = random.Random(23)
    checked = 0
    for _ in range(240):
        A = random_cartan(rng, max_rank=4)
        w = element_from_word(A, random_word(rng, A, 7))
        if rng.random() < 0.5:
            B, pi = relabeled(rng, A)
            w_prime = element_from_word(B, [pi[s] for s in w.canonical_word])
        else:
            B = A if rng.random() < 0.5 else random_cartan(rng, max_rank=4)
            w_prime = element_from_word(B, random_word(rng, B, 7))
        witness = check_equivalence(w, w_prime)
        if witness is None:
            continue
        x = {s: rng.randint(-5, 9) for s in A.labels}
        y = {t: rng.randint(-5, 9) for t in B.labels}  # off the support: no effect
        y.update((witness.sigma[s], v) for s, v in x.items() if s in witness.sigma)
        assert degree(w, x) == degree(w_prime, y)
        checked += 1
    assert checked >= 100
