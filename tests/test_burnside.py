"""Class counts of simply laced finite Weyl groups without enumerating W.

In a simply laced type every pair of support letters is constrained, so a
witness from (w, A) to (w', A) is an isomorphism of the induced Dynkin
subdiagrams on their supports that carries w to w'.  The classes are then
counted from group orders alone (ROADMAP item 24):

* f(T), for a connected type T, is the number of Aut(T)-orbits on the
  full-support elements of W(T).  By Burnside it is the mean over
  tau in Aut(T) of the tau-fixed full-support elements, which follow by
  inclusion-exclusion over the tau-stable subsets K, with sign
  (-1)^(number of tau-orbits outside K), from |W(K)^tau|.
* |W(K)^tau| is a product over the tau-orbits of components of K: a
  component C in an orbit of size m gives |W(C)^rho|, rho = tau^m on C.
  That is |W(C)| for rho = 1 and otherwise the order of the folded group:
  2^k k! for the flip of A_2k and A_2k-1, 2^(n-1) (n-1)! for a flip of D_n,
  12 for triality of D4 (G2) and 1,152 for the flip of E6 (F4).
* The classes of W sum, over the isomorphism types H of induced
  subdiagrams, the product over the component types T of H, with
  multiplicity m, of C(f(T) + m - 1, m).

Nothing here uses the package except the comparison with `isom_classes`, on
the catalogue's `finite_type` matrices, numbered as `dynkin` numbers them.
"""

import itertools
import math
from collections import Counter

import pytest

from schubertisom import isom_classes

from conftest import finite_type


def dynkin(family, n):
    """The edges of the Dynkin diagram on labels 1..n, numbered as Bourbaki does."""
    if family == "A":
        return {(i, i + 1) for i in range(1, n)}
    if family == "D":
        return {(i, i + 1) for i in range(1, n - 1)} | {(n - 2, n)}
    return {(1, 3), (2, 4)} | {(i, i + 1) for i in range(3, n)}  # E6, E7, E8


def _components(nodes, edges):
    """The vertex sets of the connected components of the induced subgraph."""
    left, found = set(nodes), []
    while left:
        todo, part = [left.pop()], set()
        while todo:
            s = todo.pop()
            part.add(s)
            near = {t for t in left if (s, t) in edges or (t, s) in edges}
            left -= near
            todo.extend(near)
        found.append(frozenset(part))
    return found


def _type(nodes, edges):
    """(family, rank) of a connected simply laced diagram: A when no node has
    three neighbours, else D or E by the lengths of the three legs."""
    degree = Counter(s for e in edges if set(e) <= nodes for s in e)
    branch = [s for s in nodes if degree[s] == 3]
    if not branch:
        return "A", len(nodes)
    rest = _components(nodes - set(branch), edges)
    legs = sorted(len(part) for part in rest)
    return ("D" if legs[:2] == [1, 1] else "E"), len(nodes)


def _weyl_order(family, n):
    if family == "A":
        return math.factorial(n + 1)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n]


def _folded_order(family, n, order):
    """|W(C)^rho| for a diagram automorphism rho of the given order != 1."""
    if family == "A":
        k = (n + 1) // 2
        return 2 ** k * math.factorial(k)
    if family == "D":
        return 12 if order == 3 else 2 ** (n - 1) * math.factorial(n - 1)
    return 1_152  # E6; E7 and E8 have no diagram automorphism


def _automorphisms(nodes, edges):
    """Every permutation of nodes (a dict) that maps edges onto edges."""
    nodes = sorted(nodes)
    edge_set = {frozenset(e) for e in edges}
    return [dict(zip(nodes, image)) for image in itertools.permutations(nodes)
            if {frozenset((image[nodes.index(s)], image[nodes.index(t)])) for s, t in edges}
            == edge_set]


def _orbits(tau, items):
    """The orbits of a permutation tau (a dict) on a set of items it maps."""
    left, found = set(items), []
    while left:
        orbit = [left.pop()]
        while tau[orbit[-1]] != orbit[0]:
            orbit.append(tau[orbit[-1]])
        left -= set(orbit)
        found.append(orbit)
    return found


def _fixed_order(tau, K, edges):
    """|W(K)^tau| for a tau-stable subset K."""
    parts = _components(K, edges)
    on_parts = {C: frozenset(tau[s] for s in C) for C in parts}
    total = 1
    for orbit in _orbits(on_parts, parts):
        C = orbit[0]
        rho = {s: s for s in C}
        for _ in orbit:  # rho = tau^m on C
            rho = {s: tau[rho[s]] for s in C}
        order = math.lcm(*map(len, _orbits(rho, C)))
        family, n = _type(C, edges)
        total *= _weyl_order(family, n) if order == 1 else _folded_order(family, n, order)
    return total


def full_support_orbits(family, n):
    """f(T): Aut(T)-orbits on the elements of W(T) of full support."""
    nodes, edges = frozenset(range(1, n + 1)), dynkin(family, n)
    autos = _automorphisms(nodes, edges)
    fixed = 0
    for tau in autos:
        orbits = _orbits(tau, nodes)
        for keep in itertools.product((False, True), repeat=len(orbits)):
            K = frozenset(s for orbit, k in zip(orbits, keep) if k for s in orbit)
            fixed += (-1) ** keep.count(False) * _fixed_order(tau, K, edges)
    assert fixed % len(autos) == 0
    return fixed // len(autos)


def class_count(family, n):
    """The number of Cartan equivalence classes of W(family_n)."""
    nodes, edges = range(1, n + 1), dynkin(family, n)
    shapes = set()  # each induced subdiagram's multiset of component types
    for size in range(n + 1):
        for K in itertools.combinations(nodes, size):
            types = (_type(C, edges) for C in _components(K, edges))
            shapes.add(tuple(sorted(Counter(types).items())))
    f = {}
    total = 0
    for shape in shapes:
        term = 1
        for T, m in shape:
            if T not in f:
                f[T] = full_support_orbits(*T)
            term *= math.comb(f[T] + m - 1, m)
        total += term
    return total


TIER_1 = {("A", 2): 4, ("A", 3): 14, ("A", 4): 54, ("A", 5): 315, ("A", 6): 2_114,
          ("A", 7): 17_197, ("D", 4): 58, ("D", 5): 1_032, ("D", 6): 12_903,
          ("E", 6): 25_616}


@pytest.mark.parametrize("family, n", TIER_1, ids=[f + str(n) for f, n in TIER_1])
def test_burnside_count_matches_isom_classes(family, n):
    """The count from group orders equals the number of classes that
    `isom_classes` finds by walking all of W (n * n is at least the length
    of the longest element)."""
    classes = isom_classes(finite_type(f"{family}{n}"), n * n)
    assert class_count(family, n) == len(classes) == TIER_1[family, n]


# The counter's own values past tier-1's reach.  Nothing in tier-1
# re-derives these: isom_classes took 5.0 s and 313 MB on D7 with the
# element cap lifted, and the others are far larger.
BEYOND = {("A", 8): 156_664, ("D", 7): 180_815, ("D", 8): 2_875_494,
          ("E", 7): 2_864_225, ("E", 8): 696_509_553}


@pytest.mark.parametrize("family, n", BEYOND, ids=[f + str(n) for f, n in BEYOND])
def test_burnside_count_beyond_tier_1(family, n):
    assert class_count(family, n) == BEYOND[family, n]
