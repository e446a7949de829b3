"""Cartan equivalence of pairs (w, A): decision, witnesses, class enumeration.

Two pairs are Cartan equivalent when a bijection of supports matches some
reduced word of w letterwise to a reduced word of w' and matches the Cartan
entries A[s][t] for every pair with st <= w.  Any reduced word works, so the
decision procedure searches bijections of supports rather than reduced
words: `check_equivalence` hands the constrained pairs of both sides to
`cartan.search_injections`.  Classes are found without any search:
`canonical_key` is a complete invariant, so `isom_classes` groups elements
by it.
"""

from dataclasses import dataclass

from .cartan import diagram_automorphisms, graph_automorphisms, search_injections
from .cartan import simple_graph, submatrix
from .errors import NotFullySupportedError
from . import weyl
from .weyl import _apply, element_from_word, enumerate_elements, support


@dataclass(frozen=True)
class EquivalenceWitness:
    """A support bijection plus matched reduced words certifying equivalence."""

    source: weyl.WeylElement
    target: weyl.WeylElement
    sigma: dict

    @property
    def source_word(self):
        return self.source.canonical_word

    @property
    def target_word(self):
        return tuple(self.sigma[s] for s in self.source_word)

    def to_json(self):
        return {
            "sigma": {s: t for s, t in sorted(self.sigma.items())},
            "source_word": list(self.source_word),
            "target_word": list(self.target_word),
        }


def _constraints(w):
    """(support, constrained pairs, components) of w, on label indices.

    The support is in ascending index order.  The constrained pairs map
    (i, j) to A[i][j] over the support pairs with s_i s_j <= w, which holds
    exactly when A[i][j] = 0 or j occurs after the first i in a reduced word
    (`two_letter_leq`); one pass over the canonical word finds each letter's
    first and last position.  The components are the connected components,
    as sets, of the support under A[i][j] != 0, found in the same pass over
    A's rows.
    """
    first, last = {}, {}
    for k, i in enumerate(w._index_word()):
        first.setdefault(i, k)
        last[i] = k
    sup = sorted(first)
    entries = w.cartan.entries
    constraints = {}
    components = []
    for i in sup:
        row, after = entries[i], first[i]
        for j in sup:
            if j != i and (row[j] == 0 or last[j] > after):
                constraints[i, j] = row[j]
        linked = [c for c in components if any(row[j] for j in c)]
        components = [c for c in components if c not in linked]
        components.append({i}.union(*linked))
    return sup, constraints, components


def check_equivalence(w, w_prime):
    """Return an EquivalenceWitness, or None when not Cartan equivalent.

    Searches bijections sigma of the supports, on label indices and in
    lexicographic order, that send the constrained pairs of w (st <= w)
    onto those of w' entry for entry: `search_injections` on the two
    `_constraints` graphs.  Every witness does so (see `canonical_key`).
    The first sigma under which the canonical word of w multiplies to w'
    is accepted: the image word's vector is built in O(n * length) and
    compared with w'(rho), and the image word is then reduced.  sigma is
    mapped to labels once, at the end.
    """
    if w.length != w_prime.length:
        return None
    src, pairs, _ = _constraints(w)
    dst, dst_pairs, _ = _constraints(w_prime)
    if len(src) != len(dst):
        return None
    ctx, word = w_prime._ctx, w._index_word()

    def multiplies_to_w_prime(sigma):
        return _apply(ctx.columns, [sigma[i] for i in word], ctx.rho) == w_prime.rho

    sigma = search_injections((src, pairs), (dst, dst_pairs), multiplies_to_w_prime)
    if sigma is None:
        return None
    labels, images = w.cartan.labels, w_prime.cartan.labels
    return EquivalenceWitness(w, w_prime, {labels[i]: images[j] for i, j in sigma.items()})


def transport_interval(witness):
    """The induced poset isomorphism [e,w] -> [e,w'] of a witness.

    Each v <= w is sent to the product of the sigma-image of its canonical
    word.  The map is checked to be a bijection onto [e,w'] that carries
    covers onto covers, which on graded posets is an order isomorphism.
    """
    sigma = witness.sigma
    B = witness.target.cartan
    source = weyl.interval(witness.source)
    target = weyl.interval(witness.target)
    image = [
        target.position.get(element_from_word(B, tuple(sigma[s] for s in v.canonical_word)).rho)
        for v in source
    ]
    assert len(source) == len(target) and set(image) == set(range(len(target))), (
        "transported map is not a bijection onto [e,w']"
    )
    for p, q in enumerate(image):
        assert {image[u] for u in source.down[p]} == set(target.down[q]), (
            "transported map is not an order isomorphism"
        )
    return {v: target.elements[q] for v, q in zip(source, image)}


def _component_key(w, letters, length, entries):
    """The key of the factor of w on one component, as label indices: the
    factor has `length` letters, and `entries` maps its constrained index
    pairs to A.

    Breadth first over the left descents inside the component: a state is
    (remaining vector, letters in naming order).  Its next symbol is its
    least named descent, or, if no descent is named yet, the next new name,
    reached by every unnamed descent.  Only the states whose symbol is least
    survive each step, so they all share the least renamed word.  The
    entries tie-break is the least over the distinct surviving namings,
    each renamed once.
    """
    columns = w._ctx.columns
    states = {(w.rho, ())}
    word = []
    for _ in range(length):
        best, chosen = len(letters), []
        for v, named in states:
            for symbol, i in enumerate(named):
                if v[i] < 0:
                    break
            else:
                symbol, i = len(named), None
            if symbol < best:
                best, chosen = symbol, []
            if symbol == best:
                chosen.append((v, named, i))
        states = set()
        for v, named, i in chosen:
            if i is None:
                moves = [(j, named + (j,)) for j in letters if v[j] < 0 and j not in named]
            else:
                moves = ((i, named),)
            for i, after in moves:
                x, c = list(v), v[i]
                for j, a in columns[i]:
                    x[j] -= c * a
                states.add((tuple(x), after))
        word.append(best)

    def renamed_entries(named):
        rank = {i: name for name, i in enumerate(named)}
        return tuple(sorted((rank[i], rank[j], a) for (i, j), a in entries.items()))

    return tuple(word), min(map(renamed_entries, {named for _, named in states}))


def canonical_key(w):
    """A complete invariant of Cartan equivalence: X(w, A) and X(w', A') are
    Cartan equivalent exactly when canonical_key(w) == canonical_key(w').

    Keys from different Cartan matrices compare directly.  Let r range over
    the reduced words Red(w), rename the letters of r to 0, 1, ... by first
    occurrence, and rename the constrained pairs (s, t) (those with st <= w)
    along with it, each carrying its entry A[s][t].  The key of w with a
    connected support is the least (renamed r, sorted renamed entries).

    Invariance under a witness sigma from (w, A) to (w', A').  sigma sends
    one reduced word of w to one of w', and it keeps the entry of every
    constrained pair.  By Matsumoto-Tits (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, Thm 3.3.1) braid moves connect Red(w).  A commutation
    of s, t needs A[s][t] = 0, a constrained entry; a braid move of length
    m_st >= 3 needs st <= w and ts <= w, so both entries are constrained and
    sigma keeps m_st.  Every move therefore carries over, sigma(Red(w)) =
    Red(w'), and st <= w iff sigma(s)sigma(t) <= w' (the order of first
    occurrences in corresponding words).  Corresponding words have the same
    renaming and the same renamed entries, so the keys are equal.

    Equal keys give a witness.  If r in Red(w) and r' in Red(w') reach the
    same least pair, sigma = (naming of r')^-1 o (naming of r) sends r to
    r', a reduced word of w', and matches the constrained pairs of w with
    those of w', entry for entry.

    Factorisation along components.  Two support letters s, t with
    A[s][t] != 0 always make a constrained pair one way round, so the graph
    of nonzero constrained entries is the graph A[s][t] != 0 on the support,
    and letters of different components commute.  w is the product of its
    factors on the components, Red(w) is the set of shuffles of their
    reduced words, and every pair across components is constrained with
    entry 0 both ways.  A witness keeps that graph, so it maps components
    onto components, and witnesses of the factors combine into one of w.
    The key of w is therefore (length, sorted keys of the factors), which
    avoids the k! namings of k commuting letters.  `_component_key` finds
    the key of each factor.
    """
    _, constraints, components = _constraints(w)
    word = w._index_word()
    keys = [
        _component_key(
            w,
            letters,
            sum(i in letters for i in word),
            {(i, j): a for (i, j), a in constraints.items() if i in letters and j in letters},
        )
        for letters in components
    ]
    return len(word), tuple(sorted(keys))


def isom_classes(A, max_length, max_elements=weyl.DEFAULT_ELEMENT_CAP):
    """Partition {w : length(w) <= max_length} into Cartan equivalence classes.

    Elements are grouped by `canonical_key`, one key per element and no
    pairwise checks.  The elements are enumerated in (length, ShortLex)
    order and a dict keeps its insertion order, so members come out in that
    order and classes come out sorted by their least member.
    """
    classes = {}
    for w in enumerate_elements(A, max_length, max_elements):
        classes.setdefault(canonical_key(w), []).append(w)
    return list(classes.values())


def isom_class_bound(A, w):
    """Upper bound on |Isom(w,A)| for fully supported w, via automorphisms."""
    missing = set(A.labels) - support(w)
    if missing:
        raise NotFullySupportedError(missing)
    if A.is_symmetric():
        return len(diagram_automorphisms(A))
    return len(graph_automorphisms(simple_graph(A)))


def restriction_witness(w):
    """Witness for X(w,A) = X(w,A_{S(w)}): identity sigma onto the submatrix."""
    A = w.cartan
    sub = submatrix(A, sorted(support(w), key=A.index_set.index))
    w_restricted = element_from_word(sub, w.canonical_word)
    return check_equivalence(w, w_restricted)
