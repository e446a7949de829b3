"""Rebuilding a presentation (w', A') from an anonymized cohomology oracle.

Given only the graded basis, the degree-2 generators, and the multiplication
table of simple products, this recovers a Cartan matrix over the generators
(entries with st <= w are forced; the rest are free choices recorded as
such) and a reduced word for the top class, so that the original pair is
Cartan equivalent to the reconstructed one.
"""

from operator import itemgetter

from .cartan import CartanMatrix, IndexSet, _Record
from .errors import MalformedOracleError, SchubertError
from .weyl import element_from_word


class ReconstructedPresentation(_Record):
    """A Cartan matrix, a reduced word over its labels, and the frozenset of
    ordered generator pairs whose entry was a free choice."""

    __slots__ = ("cartan", "word", "free_entries")

    def to_json(self):
        return {
            "cartan": self.cartan.to_json(),
            "word": list(self.word),
            "free_entries": sorted([s, t] for s, t in self.free_entries),
        }


def recover_cartan(oracle):
    """Validate the oracle, then recover the Cartan matrix over its degree-2
    generators.

    Each square is read once, as an id -> coefficient dict.  For each
    ordered pair of distinct generators, the ids of supp(z1*z2) in
    supp(z2^2) decide: two or more are ambiguous; one gives minus its
    coefficient; none, with some in supp(z1^2), leaves the entry free (any
    negative integer works), fixed at -1 and reported in free_entries; else
    it is 0.  With no generators the oracle is that of a point, X(e, A) for
    every A, and the rank-1 matrix over the unit's id presents it.
    """
    oracle.validate()
    gens = oracle.generators
    if not gens:
        return CartanMatrix(IndexSet([oracle.unit_id]), [[2]]), frozenset()
    squares = [dict(oracle.products[g, g]) for g in gens]
    rows, free = [], set()
    for z1, sq1 in zip(gens, squares):
        row = []
        for z2, sq2 in zip(gens, squares):
            if z1 == z2:
                row.append(2)
                continue
            p = {v for v, _ in oracle.products[z1, z2]}
            overlap = sq2.keys() & p
            if len(overlap) > 1:
                raise MalformedOracleError(
                    f"ambiguous support overlap for generators ({z1}, {z2})"
                )
            if overlap:
                row.append(-sq2[overlap.pop()])
            elif sq1.keys() & p:
                row.append(-1)
                free.add((z1, z2))
            else:
                row.append(0)
        rows.append(row)
    try:
        cartan = CartanMatrix(IndexSet(gens), rows)
    except SchubertError as exc:
        raise MalformedOracleError(f"recovered matrix is not Cartan: {exc}") from exc
    return cartan, frozenset(free)


def _predecessors(oracle):
    """Yield (v, degree, pairs) for each basis id v, bottom-up by degree: one
    pair (g, u) per descent g of v, generators in order, with u the unique
    element of E^{g} such that v is in supp(g*u).

    v lies in E^{g} exactly when bit k of its mask is set, for g =
    generators[k].  The unit's mask has every bit set; any other v lies in
    E^{g} when some in-edge (h, u), v in supp(h*u), has h != g and u in
    E^{g}.  Every product raises degree by 2 (`validate`), so u's mask is
    final before v's.  The product table is inverted once into the in-edges
    of each id.
    """
    gens = oracle.generators
    index = {g: k for k, g in enumerate(gens)}
    into = {bid: [] for bid, _ in oracle.basis}
    for (g, u), terms in oracle.products.items():
        edge = (index[g], u)
        for v, _ in terms:
            into[v].append(edge)
    clear = [~(1 << k) for k in range(len(index))]
    masks = {}
    for v, degree in sorted(oracle.basis, key=itemgetter(1)):
        # preds[k]: the u of the one in-edge (k, u) with u in E^{g}, or
        # None when there are several
        if not degree:
            mask, preds = (1 << len(index)) - 1, {}
        else:
            mask, preds = 0, {}
            for k, u in into[v]:
                m = masks[u]
                mask |= m & clear[k]
                if m >> k & 1:
                    preds[k] = None if k in preds else u
        masks[v] = mask
        pairs = []
        for k, g in enumerate(gens):
            if mask >> k & 1:
                continue
            u = preds.get(k)
            if u is None:
                raise MalformedOracleError(
                    f"descent {g!r} of {v!r} does not determine a unique predecessor"
                )
            pairs.append((g, u))
        if degree and not pairs:
            raise MalformedOracleError(f"basis element {v!r} has no descents")
        yield v, degree, pairs


def descent_sets(oracle):
    """The abstract right descent set of every basis id, in the order of the
    `_predecessors` pass over the validated oracle: the generators whose
    omission drops it."""
    oracle.validate()
    return {v: frozenset(g for g, _ in pairs) for v, _, pairs in _predecessors(oracle)}


def reduced_word_sets(oracle):
    """All abstract reduced words for every basis element of the oracle,
    once it validates: the words of each predecessor u of v with its descent
    g appended."""
    oracle.validate()
    words = {}
    for v, _, pairs in _predecessors(oracle):
        words[v] = frozenset([w + (g,) for g, u in pairs for w in words[u]] or [()])
    return words


def reconstruct(oracle):
    """Build a full presentation: Cartan matrix plus ShortLex-least top word.

    All words of v have length deg(v)/2, so the least word of v is the least
    of least(u) + (g,) over its predecessor pairs (g, u); only it is kept.
    """
    cartan, free = recover_cartan(oracle)  # validates the oracle
    least = {}
    for v, degree, pairs in _predecessors(oracle):
        least[v] = min([least[u] + (g,) for g, u in pairs], default=())
    # validate() leaves one id of top degree, and it comes last
    word = least[v]
    element = element_from_word(cartan, word)
    if element.length != degree // 2:
        raise MalformedOracleError("reconstructed word is not reduced")
    return ReconstructedPresentation(cartan, word, free)
