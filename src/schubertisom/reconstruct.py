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
    squares = {g: dict(oracle.products[(g, g)]) for g in gens}
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
    allowed = [g for g in oracle.generators if g not in J]
    return closure_from(
        oracle.unit_id, lambda u: (v for g in allowed for v, _ in oracle.products[g, u])
    )


def descent_set(oracle, v):
    """The abstract right descent set: generators whose omission drops v."""
    if v not in {bid for bid, _ in oracle.basis}:
        raise MalformedOracleError(f"unknown basis id {v!r}")
    return frozenset(g for g in oracle.generators if v not in support_closure(oracle, {g}))


def _predecessors(oracle):
    """Yield (v, pairs) for each basis id v, bottom-up by degree: one pair
    (g, u) per descent g of v, with u the unique element of E^{g} such that
    v is in supp(g*u).  Each E^{g} is built once, and the product table is
    inverted once into pred[g, v]."""
    closures = {g: support_closure(oracle, {g}) for g in oracle.generators}
    pred = {}
    for (g, u), terms in oracle.products.items():
        if u in closures[g]:
            for v, _ in terms:
                pred.setdefault((g, v), set()).add(u)
    for v, degree in sorted(oracle.basis, key=lambda p: p[1]):
        pairs = []
        for g in oracle.generators:
            if v in closures[g]:
                continue
            if len(pred.get((g, v), ())) != 1:
                raise MalformedOracleError(
                    f"descent {g!r} of {v!r} does not determine a unique predecessor"
                )
            pairs.append((g, *pred[g, v]))
        if degree and not pairs:
            raise MalformedOracleError(f"basis element {v!r} has no descents")
        yield v, pairs


def reduced_word_sets(oracle):
    """All abstract reduced words for every basis element: the words of each
    predecessor u of v with its descent g appended."""
    words = {}
    for v, pairs in _predecessors(oracle):
        words[v] = frozenset([w + (g,) for g, u in pairs for w in words[u]] or [()])
    return words


def reconstruct(oracle):
    """Build a full presentation: Cartan matrix plus ShortLex-least top word.

    All words of v have length deg(v)/2, so the least word of v is the least
    of least(u) + (g,) over its predecessor pairs (g, u); only it is kept.
    """
    oracle.validate()
    cartan, free = recover_cartan(oracle)
    least = {}
    for v, pairs in _predecessors(oracle):
        least[v] = min((least[u] + (g,) for g, u in pairs), default=())
    word = least[oracle.top_id]
    element = element_from_word(cartan, word)
    expected_length = oracle.degree(oracle.top_id) // 2
    if element.length != expected_length or len(word) != expected_length:
        raise MalformedOracleError("reconstructed word is not reduced")
    return ReconstructedPresentation(cartan, word, free)
