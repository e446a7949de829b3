"""Cartan equivalence of pairs (w, A): decision, witnesses, class enumeration.

Two pairs are Cartan equivalent when a bijection of supports matches some
reduced word of w letterwise to a reduced word of w' and matches the Cartan
entries A[s][t] for every pair with st <= w.  Any reduced word works, so the
decision procedure searches bijections of supports rather than reduced
words: `check_equivalence` hands the constrained pairs with nonzero entries
of both sides to `cartan.search_injections`.  Classes are found without
pairwise checks: `canonical_key` is a complete invariant, so `isom_classes`
groups elements by it.
"""

from bisect import bisect_left
from itertools import islice
from operator import itemgetter

from .cartan import AUTOMORPHISM_CAP, _FrozenRecord, search_injections, submatrix
from .errors import InvalidIndexSetError, InvalidWitnessError
from . import weyl
from .weyl import WeylElement, _apply, element_from_word, support


class EquivalenceWitness(_FrozenRecord):
    """A support bijection plus matched reduced words certifying equivalence:
    `sigma` maps the support of `source` onto that of `target`."""

    __slots__ = ("source", "target", "sigma")

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


def _components(entries, sup):
    """The connected components, as frozensets, of the letters `sup` (in
    ascending index order) under A[i][j] != 0."""
    components = []
    for i in sup:
        row = entries[i]
        linked = [c for c in components if any(row[j] for j in c)]
        components = [c for c in components if c not in linked]
        components.append(frozenset({i}.union(*linked)))
    return components


def _constraints(w):
    """(support, constrained pairs) of w, on label indices.

    The support is in ascending index order.  The constrained pairs map
    (i, j) to A[i][j] != 0 over the support pairs with s_i s_j <= w, which
    holds exactly when j occurs after the first i in a reduced word
    (`two_letter_leq`); one pass over the canonical word finds each letter's
    first and last position.  Zero entries are left out (`canonical_key`):
    each letter's nonzero entries are read off its column, as A[i][j] = 0
    exactly when A[j][i] = 0, so the walk is O(edges).  This is the one
    table of constrained pairs: `check_equivalence` searches it,
    `canonical_key` and `_extend` rename it (`_renamed`).
    """
    first, last = {}, {}
    for k, i in enumerate(w._index_word()):
        first.setdefault(i, k)
        last[i] = k
    sup, entries = sorted(first), w.cartan.entries
    return sup, {(i, j): entries[i][j] for i in sup for j, _ in w._ctx.columns[i]
                 if last.get(j, -1) > first[i] and j != i}


def check_equivalence(w, w_prime):
    """Return an EquivalenceWitness, or None when not Cartan equivalent.

    Searches bijections sigma of the supports, on label indices and in
    lexicographic order, that send the constrained pairs of w (st <= w)
    onto those of w' entry for entry, as every witness does; the nonzero
    ones imply the rest (`canonical_key`), so `search_injections` runs on
    the two `_constraints` graphs.  The first sigma of that stream under
    which the canonical word of w multiplies to w' is taken: the image
    word's vector is built in O(n * length) and compared with w'(rho), and
    the image word is then reduced.  sigma goes to labels once, at the end.
    """
    if w.length != w_prime.length:
        return None
    src, pairs = _constraints(w)
    dst, dst_pairs = _constraints(w_prime)
    if len(src) != len(dst):
        return None
    ctx, word = w_prime._ctx, w._index_word()
    for sigma in search_injections((src, pairs), (dst, dst_pairs)):
        if _apply(ctx.columns, [sigma[i] for i in word], ctx.rho) == w_prime.rho:
            labels, images = w.cartan.labels, w_prime.cartan.labels
            return EquivalenceWitness(w, w_prime, {labels[i]: images[j] for i, j in sigma.items()})
    return None


def transport_interval(witness):
    """The induced poset isomorphism [e,w] -> [e,w'] of a witness.

    Each v <= w is sent to the product of the sigma-image of its canonical
    word.  The map is checked to be a bijection onto [e,w'] that sends the
    upper covers of each element onto the upper covers of its image, which
    on graded posets is an order isomorphism; a witness that fails either
    check, or whose sigma misses a support label or sends one outside the
    target's labels, raises InvalidWitnessError.
    """
    sigma, sup, B = witness.sigma, support(witness.source), witness.target.cartan
    missing = sup - sigma.keys()
    if missing:
        raise InvalidWitnessError(f"sigma does not map the support labels {sorted(missing)}")
    images = [sigma[s] for s in sup]  # a list: a label may be unhashable
    strays = [x for k, x in enumerate(images) if x not in B.labels and x not in images[:k]]
    if strays:
        raise InvalidWitnessError(f"sigma maps onto labels {sorted(strays, key=str)} that A' lacks")
    source = weyl.interval(witness.source)
    target = weyl.interval(witness.target)
    image = [
        target.position.get(element_from_word(B, tuple(sigma[s] for s in v.canonical_word)).rho)
        for v in source
    ]
    if len(source) != len(target) or set(image) != set(range(len(target))):
        raise InvalidWitnessError("transported map is not a bijection onto [e,w']")
    for p, q in enumerate(image):
        if {image[r] for r, _ in source.up[p]} != {r for r, _ in target.up[q]}:
            raise InvalidWitnessError("transported map is not an order isomorphism")
    return {v: target.elements[q] for v, q in zip(source, image)}


def _least_word(w, letters):
    """(M, N) of the factor of w on `letters`, as label indices: its least
    renamed right-read word M and the namings N that reach M, each its
    letters in naming order.

    Breadth first over the left descents of w^-1 inside `letters`, that is
    over reduced words of w read from their right end: a state is
    (remaining vector, letters in naming order).  Its next symbol is its
    least named descent, or, if no descent is named yet, the next new name,
    reached by every unnamed descent.  Only the states whose symbol is least
    survive each step, so they all share the least renamed word, and their
    namings are N.
    """
    columns = w._ctx.columns
    states = {(w._inverse_rho(), ())}
    word = []
    for _ in range(sum(i in letters for i in w._index_word())):
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
                states.add((_apply(columns, (i,), v), after))
        word.append(best)
    return tuple(word), {n for _, n in states}


def _renamed(pairs, named):
    """The constrained entries (x, y, a) of `pairs` on the letters of
    `named`, whole components in naming order, each index renamed to its
    place there, sorted."""
    name = {i: x for x, i in enumerate(named)}
    return tuple(sorted([(name[i], name[j], a) for (i, j), a in pairs.items() if i in name]))


def canonical_key(w):
    """A complete invariant of Cartan equivalence: X(w, A) and X(w', A') are
    Cartan equivalent exactly when canonical_key(w) == canonical_key(w').

    Keys from different Cartan matrices compare directly.  Let r range over
    the reduced words Red(w), read each r from its right end, rename its
    letters to 0, 1, ... by first occurrence in that reading, and rename the
    constrained pairs (s, t) (those with st <= w) with A[s][t] != 0 along
    with it, each carrying its entry.  The key of w with a connected support
    is the least (renamed r, sorted renamed entries).

    Zero entries carry nothing.  Support letters s, t with A[s][t] = 0
    commute, so st = ts <= w.  Two with A[s][t] != 0 make a constrained pair
    at least one way round, so the graph of nonzero constrained entries is
    the graph A[s][t] != 0 on the support.  A support bijection that sends
    those entries one to one onto those of w' keeps that graph, so it sends
    non-adjacent pairs, all constrained with entry 0, onto the same.

    Invariance under a witness sigma from (w, A) to (w', A').  sigma sends
    one reduced word of w to one of w', and it keeps the entry of every
    constrained pair.  By Matsumoto-Tits (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, Thm 3.3.1) braid moves connect Red(w).  A commutation
    of s, t needs A[s][t] = 0, a constrained entry; a braid move of length
    m_st >= 3 needs st <= w and ts <= w, so both entries are constrained and
    sigma keeps m_st.  Every move therefore carries over, sigma(Red(w)) =
    Red(w'), and st <= w iff sigma(s)sigma(t) <= w' (the order of first
    occurrences in corresponding words).  sigma acts letter by letter, so it
    commutes with reversing a word: the reversed words of w go onto those
    of w'.  Corresponding words have the same renaming and the same renamed
    entries, so the keys are equal.

    Equal keys give a witness.  If r in Red(w) and r' in Red(w') reach the
    same least pair, sigma = (naming of r')^-1 o (naming of r) sends the
    reversal of r to that of r', so r to r', a reduced word of w', and
    matches the nonzero constrained entries, so by the above all of them.

    Factorisation along components.  Letters of different components of
    that graph commute, so w is the product of its factors on the
    components and Red(w) is the set of shuffles of their reduced words.  A
    witness keeps the graph, so it maps components onto components, and
    witnesses of the factors combine into one of w.
    The key of w is therefore (length, sorted keys of the factors), which
    avoids the k! namings of k commuting letters.  A factor's key is its
    least renamed word (`_least_word`) and the least, over the namings that
    reach it, of the constrained entries of w (`_constraints`) renamed by
    the naming.  This is the path for one element; `isom_classes` keys all
    of W up to a length by one recurrence over the walk (`_keys`).
    """
    sup, pairs = _constraints(w)
    factors = []
    for letters in _components(w.cartan.entries, sup):
        m, namings = _least_word(w, letters)
        factors.append((m, min(_renamed(pairs, named) for named in namings)))
    return w.length, tuple(sorted(factors))


def _extend(ctx, x, u, previous, shared, intern):
    """(M(v), N(v), the entries E(v, n) over N(v)) of the element v with
    vector x, by the recurrence of `_keys` from the data of its predecessors
    in `previous`.  u is the vector of v's parent, its predecessor through
    its least left descent; the others come from the O(rank) column update
    of x.  A predecessor missing from `previous` gets its data as
    `canonical_key` does, without the split into components, and keeps it
    there.
    """
    columns, entries = ctx.columns, ctx.cartan.entries
    best, sources = None, []
    for j, c in enumerate(x):
        if c < 0:
            if u is None:
                u = list(x)
                for i, a in columns[j]:
                    u[i] -= c * a
                u = tuple(u)
            data = previous.get(u)
            if data is None:
                v = WeylElement(ctx, u)
                m, namings = _least_word(v, range(len(u)))
                namings, pairs = tuple(namings), _constraints(v)[1]
                tables = [tuple(map(intern, t, t)) for t in (_renamed(pairs, n) for n in namings)]
                data = previous[u] = m, namings, tuple(map(shared.setdefault, tables, tables))
            m, namings, tables = data
            u = None
            if best is None or m < best:
                best, sources = m, [(j, namings, tables)]
            elif m == best:
                sources.append((j, namings, tables))
    symbol, chosen = len(x), []
    for j, namings, tables in sources:
        for named, table in zip(namings, tables):
            name = named.index(j) if j in named else len(named)
            if name <= symbol:
                if name < symbol:
                    symbol, chosen = name, []
                chosen.append((j, named, table))
    namings, tables = [], []
    for j, named, table in chosen:
        row = entries[j]
        full = [(symbol, y, row[i]) for y, i in enumerate(named) if y != symbol and row[i]]
        if symbol < len(named):
            lo = bisect_left(table, (symbol,))
            hi = bisect_left(table, (symbol + 1,), lo)
        else:
            lo = hi = len(table)
            named += (j,)
        if hi - lo < len(full):
            table = (*table[:lo], *map(intern, full, full), *table[hi:])
            table = shared.setdefault(table, table)
        namings.append(named)
        tables.append(table)
    return best + (symbol,), tuple(namings), tuple(tables)


def _symmetry(entries):
    """sigma^-1 as a list for the diagram automorphism sigma that follows the
    identity in `search_injections`, or None; searched up to AUTOMORPHISM_CAP
    when two labels share (sorted row, sorted column), which sigma keeps."""
    n = len(entries)
    profiles = {(*sorted(row), *sorted(col)) for row, col in zip(entries, zip(*entries))}
    if n <= AUTOMORPHISM_CAP and len(profiles) < n:
        graph = range(n), {(i, j): a for i, r in enumerate(entries) for j, a in enumerate(r) if a}
        sigma = next(islice(search_injections(graph, graph), 1, None), None)
        return sigma and sorted(sigma, key=sigma.get)
    return None


def _transport(current, x, y, inverse):
    """Store in `current` the data of the element with vector x from that of
    its image y under sigma, each naming mapped by sigma^-1 (`inverse`)."""
    m, namings, tables = current[y]
    current[x] = m, tuple([tuple(map(inverse.__getitem__, n)) for n in namings]), tables


def _keys(elements, parents):
    """`canonical_key` of each of `elements`, which must be all of W up to
    some length in (length, ShortLex) order, with the position of each
    one's parent, as `weyl._walk` gives them.  Equal keys are one object,
    and so are equal entries (x, y, a).

    One bottom-up pass, one length at a time.  Read right to left, the
    reduced words of v != e ending a reading with the letter j are those of
    u = s_j v, for each left descent j of v, followed by j.  So M(v), the
    least renamed right-read word, is the least M(u) + (symbol of j,) over
    the left descents j and the namings n in N(u), the namings that reach
    M(u); the symbol of j is n.index(j) when j is in n, else len(n), and n
    grows by j when j is new.  N(v) holds the namings that reach M(v).  u is
    one length shorter, so M, N and the constrained entries E(u, n) renamed
    by each naming are kept for the previous length only, in a dict keyed by
    vector, N and its entries as two parallel tuples; the last length keeps
    none, as no length follows it (`_extend` runs one step).  A connected v
    takes (length, ((M(v), E(v)),)), E(v) the least E(v, n) over N(v).

    E(v, n) is spliced from E(u, n_u), where n is n_u, or n_u + (j,) when
    the symbol s of j is the new name len(n_u).  Names x and y with a
    nonzero entry make a constrained pair (x, y) exactly when y first occurs
    in the right-read word before x last does, that is when y < reach[x],
    the number of names seen before the last x (st <= w reads "t after the
    first s" in a left-to-right word).  Appending s changes reach[s] alone,
    to len(n_u), so row s becomes full, (s, y, A[n[s]][n[y]]) for every
    y != s with a nonzero entry; E(u, n_u) is reused when its row s is that
    long.  A new s joins no other row, being below no reach[x], so its row,
    the last, is appended.  Every other entry is E(u, n_u)'s, already
    interned.  Entry tuples are stored once per length, so the k! namings
    of commuting letters share a few tuples.

    A disconnected v takes (length, sorted factor keys), as `canonical_key`
    does.  The factor on a component is a connected element of the walk,
    and its canonical word is v's cut to the component: the greedy least
    left descent of v, when it lies in the component, is the least one of
    the factor.  So the factor is found by bisection among the elements of
    its length.  The recurrence never uses connectivity, and a disconnected
    v below the last length gets its M, N and entries by it too when some
    letter j outside its support has a neighbour in every component.  Those
    are exactly the disconnected u = s_j v' below a connected v' one
    longer, the only ones whose namings a connected element reads, so no
    other disconnected element builds namings (k commuting letters have k!
    of them): none on an edgeless diagram, where no letter joins.  Only a
    disconnected predecessor joined by no letter lacks data, and only there
    does `_extend` fall back to the search `canonical_key` runs.

    A diagram automorphism sigma (`_symmetry`) sends Red(v) onto Red(sigma v)
    letterwise, keeping every entry.  So if sigma v was keyed earlier at v's
    length (`seen`), v reuses its key and, below the last length, its data
    with each naming mapped by sigma^-1 (`_transport`), skipping `_extend`.

    Supports are bitmasks, each the parent's plus the least left descent,
    and each support's components are computed once and shared.
    """
    ctx = elements[0]._ctx
    columns, entries, rho = ctx.columns, ctx.cartan.entries, ctx.rho
    near = [sum(1 << j for j, _ in column if j != i) for i, column in enumerate(columns)]
    starts, masks, parts, split = [0], [0], [None], {}
    for p in range(1, len(elements)):
        word = elements[p]._index_word()
        if len(word) == len(starts):
            starts.append(p)
        mask = masks[parents[p]] | 1 << word[0]
        masks.append(mask)
        if mask not in split:
            components = _components(entries, [i for i in range(len(rho)) if mask >> i & 1])
            # With two components or more, a common neighbour lies outside the support.
            joins = -1
            for component in components:
                reach = 0
                for i in component:
                    reach |= near[i]
                joins &= reach
            split[mask] = components, len(components) > 1 and joins != 0
        parts.append(split[mask])
    starts.append(len(elements))

    keys = [(0, ())]
    interned = {}
    intern = interned.setdefault
    current = {rho: ((), ((),), ((),))}
    last = len(starts) - 2
    inverse = _symmetry(entries)
    image = inverse and itemgetter(*inverse)  # y[sigma(j)] = x[j]
    for length in range(1, last + 1):
        previous, current, shared, seen = current, {}, {}, {}
        for p in range(starts[length], starts[length + 1]):
            x = elements[p].rho
            if image and (key := seen.get(y := image(x))) is not None:
                if y in current:
                    _transport(current, x, y, inverse)
                keys.append(seen.setdefault(x, key))
                continue
            components, joined = parts[p]
            if len(components) == 1 or joined and length < last:
                data = _extend(ctx, x, elements[parents[p]].rho, previous, shared, intern)
                if length < last:
                    current[x] = data
            if len(components) == 1:
                m, _, tables = data
                key = length, ((m, min(tables)),)
            else:
                factors = []
                for letters in components:
                    cut = tuple(i for i in elements[p]._index_word() if i in letters)
                    lo, hi = starts[len(cut)], starts[len(cut) + 1]
                    q = bisect_left(elements, cut, lo, hi, key=WeylElement._index_word)
                    factors.append(keys[q][1][0])
                key = length, tuple(sorted(factors))
            keys.append(intern(key, key))
            if image:
                seen[x] = keys[-1]
    return keys


def isom_classes(A, max_length, max_elements=weyl.DEFAULT_ELEMENT_CAP):
    """Partition {w : length(w) <= max_length} into Cartan equivalence classes.

    Elements are grouped by `canonical_key`, with no pairwise checks.  `_keys`
    computes every key in one pass over the walk, each from the keys one
    length shorter or from the key of its image under a diagram automorphism,
    and equal keys are one object there, grouped by identity.  Elements come
    in (length, ShortLex) order and a dict keeps its insertion order, so
    members come out in that order and classes by their least member.
    """
    elements, parents = weyl._walk(weyl._context(A), max_length, max_elements)
    if not elements:  # max_length < 0
        return []
    classes = {}
    for w, key in zip(elements, _keys(elements, parents)):
        classes.setdefault(id(key), []).append(w)
    return list(classes.values())


def restriction_witness(w):
    """Witness for X(w,A) = X(w,A_{S(w)}): the identity sigma onto the support
    submatrix, built as `check_equivalence` would find it first (equal tables
    in one label order, so no backtracking).  w = e raises InvalidIndexSetError:
    A restricted to its empty support is not a Cartan matrix (X(e) is a point)."""
    if w.is_identity():
        raise InvalidIndexSetError("e has an empty support: there is no matrix to restrict to")
    sub = submatrix(w.cartan, support(w))
    sigma = {s: s for s in sub.labels}
    return EquivalenceWitness(w, element_from_word(sub, w.canonical_word), sigma)
