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

from schubertisom import check_equivalence, element_from_word, interval

from conftest import finite_type, random_cartan, random_word, relabeled

FINITE = ["A3", "A4", "A5", "A6", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5", "F4", "G2"]


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
    A, simply_laced = finite_type(name), name[0] in "ADE"
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
