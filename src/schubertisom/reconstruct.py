"""Rebuilding a presentation (w', A') from an anonymized cohomology oracle.

Given only the graded basis, the degree-2 generators, and the multiplication
table of simple products, this recovers a Cartan matrix over the generators
(entries with st <= w are forced; the rest are free choices recorded as
such) and a reduced word for the top class, so that the original pair is
Cartan equivalent to the reconstructed one.
"""

from dataclasses import dataclass

from .cartan import CartanMatrix, IndexSet
from .cohomology import closure_from
from .errors import MalformedOracleError, SchubertError
from .weyl import element_from_word


@dataclass
class ReconstructedPresentation:
    cartan: CartanMatrix
    word: tuple
    free_entries: frozenset  # ordered generator pairs whose entry was a free choice

    def to_json(self):
        return {
            "cartan": self.cartan.to_json(),
            "word": list(self.word),
            "free_entries": sorted([s, t] for s, t in self.free_entries),
        }


def _product(oracle, g, bid):
    return dict(oracle.products[(g, bid)])


def _supp(oracle, g, bid):
    return frozenset(dict(oracle.products[(g, bid)]))


def recover_cartan(oracle):
    """Recover the Cartan matrix over the degree-2 generators.

    For each ordered pair of distinct generators exactly one case applies:
    disjoint supports force a 0; a singleton overlap of supp(z1*z2) with
    supp(z2^2) reads the entry off a coefficient; overlap only on the z1^2
    side leaves the entry unconstrained (any negative integer works), fixed
    here at -1 and reported in free_entries.
    """
    gens = oracle.generators
    n = len(gens)
    pos = {g: i for i, g in enumerate(gens)}
    entries = [[2 if i == j else None for j in range(n)] for i in range(n)]
    free = set()
    squares = {g: _product(oracle, g, g) for g in gens}
    for z1 in gens:
        for z2 in gens:
            if z1 == z2:
                continue
            p = _supp(oracle, z1, z2)
            sq1 = frozenset(squares[z1])
            sq2 = frozenset(squares[z2])
            overlap = p & sq2
            if not (p & (sq1 | sq2)):
                entries[pos[z1]][pos[z2]] = 0
            elif len(overlap) == 1:
                (nu,) = overlap
                entries[pos[z1]][pos[z2]] = -squares[z2][nu]
            elif not overlap and (p & sq1):
                entries[pos[z1]][pos[z2]] = -1
                free.add((z1, z2))
            else:
                raise MalformedOracleError(
                    f"ambiguous support overlap for generators ({z1}, {z2})"
                )
    try:
        cartan = CartanMatrix(IndexSet(gens), entries)
    except SchubertError as exc:
        raise MalformedOracleError(f"recovered matrix is not Cartan: {exc}") from exc
    return cartan, frozenset(free)


def support_closure(oracle, J):
    """E^J over the oracle: fixpoint from the unit under generators not in J."""
    J = frozenset(J)
    if J not in oracle._closures:
        allowed = [g for g in oracle.generators if g not in J]
        oracle._closures[J] = closure_from(
            oracle.unit_id, lambda u: (v for g in allowed for v in _supp(oracle, g, u))
        )
    return oracle._closures[J]


def descent_set(oracle, v):
    """The abstract right descent set: generators whose omission drops v."""
    if v not in {bid for bid, _ in oracle.basis}:
        raise MalformedOracleError(f"unknown basis id {v!r}")
    return frozenset(
        g for g in oracle.generators if v not in support_closure(oracle, {g})
    )


def reduced_word_sets(oracle):
    """All abstract reduced words for every basis element, bottom-up.

    For each descent g of v there must be a unique u one degree down with
    u in E^{{g}} and v in supp(g*u); the words of v are those of u with g
    appended.
    """
    by_degree = sorted(oracle.basis, key=lambda p: p[1])
    words = {}
    for v, degree in by_degree:
        if degree == 0:
            words[v] = frozenset({()})
            continue
        descents = descent_set(oracle, v)
        if not descents:
            raise MalformedOracleError(f"basis element {v!r} has no descents")
        collected = set()
        for g in descents:
            closure = support_closure(oracle, {g})
            candidates = [
                u
                for u, d in oracle.basis
                if d == degree - 2 and u in closure and v in _supp(oracle, g, u)
            ]
            if len(candidates) != 1:
                raise MalformedOracleError(
                    f"descent {g!r} of {v!r} does not determine a unique predecessor"
                )
            u = candidates[0]
            collected |= {word + (g,) for word in words[u]}
        words[v] = frozenset(collected)
    return words


def reconstruct(oracle):
    """Build a full presentation: Cartan matrix plus ShortLex-least top word."""
    oracle.validate()
    cartan, free = recover_cartan(oracle)
    words = reduced_word_sets(oracle)
    word = min(words[oracle.top_id])
    element = element_from_word(cartan, word)
    expected_length = oracle.degree(oracle.top_id) // 2
    if element.length != expected_length or len(word) != expected_length:
        raise MalformedOracleError("reconstructed word is not reduced")
    return ReconstructedPresentation(cartan, word, free)
