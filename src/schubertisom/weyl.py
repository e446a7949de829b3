"""Weyl group arithmetic on the vectors w(rho).

An element w is stored as w(rho) in fundamental-weight coordinates:
coordinate j is <h_j, w(rho)>, and rho has every coordinate 1.  W acts
simply transitively on the chambers of the Tits cone and rho is regular, so
the vector determines w for every generalized Cartan matrix (Kac, Infinite
Dimensional Lie Algebras, 3.12).  Left multiplication by s_i is the O(n)
update v_j -= v_i * A[j][i], the left descents are the negative coordinates,
and equality is a tuple compare.  The ShortLex word, inverse, right descents,
inversion set, Bruhat test and cover reflections come from the canonical
word in O(n * length).  Root and coroot vectors are integer tuples in the
simple root / coroot bases, in label order; all arithmetic is exact.
"""

import weakref

from .cartan import _FrozenRecord
from .errors import (
    EnumerationCapExceededError,
    MixedContextsError,
    NotACoverError,
    NotInSupportError,
)

# The most elements `subword_products` (so `interval`) and
# `enumerate_elements` return; past it they raise EnumerationCapExceededError.
DEFAULT_ELEMENT_CAP = 100_000


def _apply(columns, letters, v):
    """The weight v after `letters`, last first: s_i(v) = v - v_i * alpha_i,
    with columns[i] = alpha_i in fundamental weights, the nonzero (j, A[j][i])."""
    v = list(v)
    for i in reversed(letters):
        c = v[i]
        for j, a in columns[i]:
            v[j] -= c * a
    return tuple(v)


def _rows(cartan, letters):
    """The sparse rows (j, A[i][j]) of A at the indices in `letters`."""
    return {i: tuple((j, a) for j, a in enumerate(cartan.entries[i]) if a) for i in set(letters)}


class WeylElement:
    """A Weyl group element, stored as its vector w(rho).

    `rho` is the tuple of <h_j, w(rho)> over the labels in order.  The element
    holds only its context, that vector and its canonical word as label
    indices, which is computed on first use; the label word, the inverse and
    the hash are computed from them on each read.  Build elements with
    `element_from_word`: e is the empty word and s_i the word [s_i].
    `multiply`, `inverse`, `enumerate_elements`, `interval` and
    `cover_reflection` also return elements.
    """

    __slots__ = ("rho", "_ctx", "_indices")

    def __init__(self, ctx, rho, indices=None):
        self.rho = rho
        self._ctx = ctx
        self._indices = indices

    @property
    def cartan(self):
        return self._ctx.cartan

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.rho == other.rho
            and self._ctx is other._ctx
        )

    def __hash__(self):
        return hash(self.rho)

    def __repr__(self):
        return f"WeylElement({' '.join(self.canonical_word) or 'e'})"

    def __mul__(self, other):
        return multiply(self, other)

    def is_identity(self):
        return self.rho == self._ctx.rho

    def _index_word(self):
        """The canonical word as label indices."""
        if self._indices is None:
            columns, v, word = self._ctx.columns, list(self.rho), []
            while True:
                for i, c in enumerate(v):  # the least left descent, if any
                    if c < 0:
                        break
                else:
                    break
                word.append(i)
                for j, a in columns[i]:
                    v[j] -= c * a
            self._indices = tuple(word)
        return self._indices

    @property
    def canonical_word(self):
        """The ShortLex-least reduced word, via greedy least-left-descent."""
        return tuple(map(self.cartan.labels.__getitem__, self._index_word()))

    @property
    def length(self):
        return len(self._index_word())

    def _inverse_rho(self):
        ctx = self._ctx
        return _apply(ctx.columns, self._index_word()[::-1], ctx.rho)

    def inverse(self):
        return WeylElement(self._ctx, self._inverse_rho())

    def right_descents(self):
        """Labels s with w(alpha_s) a negative root."""
        labels = self.cartan.labels
        return {labels[j] for j, c in enumerate(self._inverse_rho()) if c < 0}

    def left_descents(self):
        labels = self.cartan.labels
        return {labels[j] for j, c in enumerate(self.rho) if c < 0}


class Reflection(_FrozenRecord):
    """A reflection s_beta with its positive root and coroot."""

    __slots__ = ("element", "root", "coroot")


class _Context:
    """Per-Cartan-matrix data: sparse columns (j, A[j][i]) for the weight and
    coroot actions, and the vector rho of the identity.  It holds no element,
    so the elements that point to it form no reference cycle."""

    def __init__(self, cartan):
        A = cartan.entries
        rng = range(len(A))
        self.cartan = cartan
        self.columns = tuple(tuple((j, A[j][i]) for j in rng if A[j][i]) for i in rng)
        self.rho = tuple(1 for _ in rng)


# One context per Cartan matrix, held only while some element refers to it.
# Equal matrices share it, so their elements compare equal and mix.
_CONTEXTS = weakref.WeakValueDictionary()


def _context(cartan):
    ctx = _CONTEXTS.get(cartan)
    if ctx is None:
        ctx = _CONTEXTS[cartan] = _Context(cartan)
    return ctx


def multiply(x, y):
    """x * y: x's canonical word applied, last letter first, to y(rho)."""
    if x._ctx is not y._ctx:
        raise MixedContextsError()
    return WeylElement(x._ctx, _apply(x._ctx.columns, x._index_word(), y.rho))


def element_from_word(A, word):
    ctx = _context(A)
    letters = [A.index_set.index(s) for s in word]
    return WeylElement(ctx, _apply(ctx.columns, letters, ctx.rho))


def support(w):
    return set(w.canonical_word)


def bruhat_leq(u, w):
    """Bruhat order test by descent recursion, walking w's canonical word.

    The word's letters are w's successive least left descents s; u is
    replaced by su whenever s is also a left descent of u.  At the word's
    end w is stripped to e, and u <= w iff u is then e.
    """
    if u._ctx is not w._ctx:
        raise MixedContextsError()
    columns = u._ctx.columns
    x = list(u.rho)
    for i in w._index_word():
        d = x[i]
        if d < 0:
            for j, a in columns[i]:
                x[j] -= d * a
    return min(x) >= 0


def two_letter_leq(A, s, t, w):
    """Whether st <= w for s, t in S(w), by the subword property.

    If s = t then st = e <= w.  If A[s][t] = 0 then st = ts <= w already.
    Otherwise st <= w exactly when s appears before t in any (hence the
    canonical) reduced word.
    """
    if w.cartan != A:
        raise MixedContextsError()
    word = w.canonical_word
    sup = set(word)
    if s not in sup:
        raise NotInSupportError(s)
    if t not in sup:
        raise NotInSupportError(t)
    if s == t or A.entry(s, t) == 0:
        return True
    first_s = word.index(s)
    return t in word[first_s + 1:]


def _subword_vectors(w, max_elements):
    """The vectors of `subword_products(w, max_elements)`, as a set.

    After the letters from the end back to before i, the set is [e, u] for
    that suffix u, and letter i adds s_i x for each member x.  A member with
    x_i < 0 adds nothing new: s_i x < x <= u, so s_i x is already a member.
    """
    columns = w._ctx.columns
    vectors = {w._ctx.rho}
    for i in reversed(w._index_word()):
        if len(vectors) > max_elements:
            break
        column = columns[i]
        images = []
        for x in vectors:
            c = x[i]
            if c > 0:
                y = list(x)
                for j, a in column:
                    y[j] -= c * a
                images.append(tuple(y))
        vectors.update(images)
    if len(vectors) > max_elements:
        raise EnumerationCapExceededError(max_elements)
    return vectors


def subword_products(w, max_elements=DEFAULT_ELEMENT_CAP):
    """All distinct products of subwords of w's canonical word.

    By the subword property this set is exactly the Bruhat interval [e,w];
    it is the independent membership oracle used alongside bruhat_leq.
    Built by left multiplication, from the last letter of the word back;
    each partial set is the interval of a suffix, so it lies inside [e,w].
    [e,w] can have up to 2^length(w) elements, so the count, e included, is
    checked before and after every letter, and more than max_elements
    raises: at most 2 * max_elements vectors are ever held.
    """
    return frozenset(WeylElement(w._ctx, v) for v in _subword_vectors(w, max_elements))


class BruhatInterval:
    """The interval [e,w] in (length, ShortLex) order, with its covers stored
    by position in `elements`.

    `position` maps each element's vector to its position.  For a cover
    u <| v = s_beta u at positions p < q, up[p] holds (q, coroot) with
    coroot = u^{-1}(beta_vee), q increasing; the lower covers of v are the
    p whose up[p] holds q.  Each coroot is positive: `interval` checks that
    its entries, the Chevalley coefficients of the cover, are nonnegative.
    """

    __slots__ = ("top", "elements", "position", "up")

    def __init__(self, top, elements, position, up):
        self.top = top
        self.elements = elements
        self.position = position
        self.up = up

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, v):
        return getattr(v, "_ctx", None) is self.top._ctx and v.rho in self.position

    @property
    def cartan(self):
        return self.top.cartan

    @property
    def covers_up(self):
        """Each element's upper covers, as elements: a new dict on each access."""
        elements = self.elements
        return {v: tuple(elements[q] for q, _ in up) for v, up in zip(elements, self.up)}


def interval(w, max_elements=DEFAULT_ELEMENT_CAP):
    """[e,w], built once from the bottom, one length at a time.

    Raises EnumerationCapExceededError, before any cover is built, if [e,w]
    has more than max_elements elements.  The elements come from `_walk`,
    kept to the subword products, a set that holds the parent of each of
    its members.  By strong exchange (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 1.4 and 2.2) the lower covers of
    v = s_i p, for its parent p, are p itself, with coroot
    p^{-1}(alpha_vee_i), and s_i u' for each lower cover u' of p with
    s_i u' > u'; that cover has the coroot of u' <| p, since
    s_i u' <| s_i p = s_{s_i beta} s_i u' when p = s_beta u'.
    """
    ctx = w._ctx
    columns = ctx.columns
    rank = len(columns)
    elements, parents = _walk(ctx, w.length, max_elements, _subword_vectors(w, max_elements))
    position = {v.rho: q for q, v in enumerate(elements)}
    up = [[] for _ in elements]
    # The lower covers (p, coroot), in no set order, of each position one
    # length down (below) and of the length being built (current)
    below, current = {}, {0: ()}
    for q in range(1, len(elements)):
        p = parents[q]
        if p in current:  # q is the first of its length
            below, current = current, {}
        i = elements[q]._indices[0]
        column = columns[i]
        coroot = _root(columns, elements[p]._indices[::-1], i, rank)  # p^{-1}(alpha_vee_i)
        assert min(coroot) >= 0, "a cover's coroot must be positive"
        covers = [(p, coroot)]
        for u, inherited in below[p]:
            x = elements[u].rho
            c = x[i]
            if c > 0:
                x = list(x)
                for j, a in column:
                    x[j] -= c * a
                covers.append((position[tuple(x)], inherited))
        for u, gamma in covers:
            up[u].append((q, gamma))
        current[q] = covers
    up = tuple(map(tuple, up))
    return BruhatInterval(w, tuple(elements), position, up)


def _root(vectors, letters, i, rank):
    """The root s_1...s_m(alpha_i) for the label indices `letters` s_1...s_m,
    in simple-root coordinates, with `vectors` the rows of A at the letters;
    with its columns, the coroot s_1...s_m(alpha_vee_i)."""
    v = [0] * rank
    v[i] = 1
    for k in reversed(letters):
        c = v[k]
        for j, a in vectors[k]:
            c -= a * v[j]
        v[k] = c
    return tuple(v)


def inversion_set(w):
    """The positive roots sent negative by w^{-1}; size equals length(w)."""
    word = w._index_word()
    rows, rank = _rows(w.cartan, word), len(w.rho)
    roots = frozenset(_root(rows, word[:k], word[k], rank) for k in range(len(word)))
    assert all(min(beta) >= 0 and any(beta) for beta in roots)
    return roots


def cover_reflection(u, v):
    """The unique reflection r with r*u = v for a Bruhat cover u <| v.

    Walks v's canonical word s_1...s_m as `bruhat_leq` does.  Step k
    strips s_k from v.  If u now equals s_{k+1}...s_m, deleting s_k from
    v's word gives u, and as every letter stripped from u was a left
    descent, l(u) = m - 1 and u <| v.  Otherwise s_k must be a left descent
    of u too, and is stripped from it; if it is not, or the word runs out,
    u is no cover (Bjorner-Brenti, Combinatorics of Coxeter Groups, 1.4
    and 2.2).  Then beta = s_1...s_{k-1}(alpha_{s_k}), with the matching
    coroot, and r = s_1...s_{k-1} s_k s_{k-1}...s_1.
    """
    if u._ctx is not v._ctx:
        raise MixedContextsError()
    ctx = u._ctx
    columns = ctx.columns
    word = v._index_word()
    x, y = u.rho, v.rho
    for k, i in enumerate(word):
        y = _apply(columns, (i,), y)
        if x == y:
            root = _root(_rows(u.cartan, word[:k]), word[:k], i, len(x))
            element = WeylElement(ctx, _apply(columns, word[:k + 1] + word[:k][::-1], ctx.rho))
            return Reflection(element, root, _root(columns, word[:k], i, len(x)))
        if x[i] >= 0:
            break
        x = _apply(columns, (i,), x)
    raise NotACoverError()


def _walk(ctx, max_length, max_elements, keep=None):
    """(elements, parents): the elements of length at most max_length, in
    (length, ShortLex) order, with the position of each one's parent
    (None for e).  With `keep`, a set of vectors that holds the parent of
    each of its members, only the elements whose vectors are in it.

    Each v != e has one parent u = s_i v, for its least left descent i, and
    v's canonical word is (i,) + u's.  So v = s_i u is a child of u exactly
    when u(rho)_i > 0 (v is longer) and v(rho)_j > 0 for every j < i (no
    smaller descent).  Children go into one bucket per letter i, in their
    parents' order; joined in letter order, the buckets are the next length
    in ShortLex order.  The walk stops at max_length or at the first empty
    length.  The count, e included, is checked as each element is found:
    more than max_elements raises EnumerationCapExceededError.
    """
    if max_elements < 1:
        raise EnumerationCapExceededError(max_elements)
    if max_length < 0:
        return [], []
    columns = ctx.columns
    rank = len(columns)
    elements = [WeylElement(ctx, ctx.rho, indices=())]
    parents = [None]
    start = 0
    for _ in range(max_length):
        by_letter = [[] for _ in range(rank)]
        count = len(elements)
        for p in range(start, count):
            x = elements[p].rho
            for i, c in enumerate(x):
                if c < 0:
                    continue
                v = list(x)
                for j, a in columns[i]:
                    v[j] -= c * a
                for j in range(i):
                    if v[j] < 0:
                        break
                else:
                    v = tuple(v)
                    if keep is None or v in keep:
                        by_letter[i].append((p, v))
                        count += 1
                        if count > max_elements:
                            raise EnumerationCapExceededError(max_elements)
        start = len(elements)
        if start == count:
            break
        for i, bucket in enumerate(by_letter):
            for p, v in bucket:
                elements.append(WeylElement(ctx, v, (i,) + elements[p]._indices))
                parents.append(p)
    return elements, parents


def enumerate_elements(A, max_length, max_elements=DEFAULT_ELEMENT_CAP):
    """All w with length(w) <= max_length, in (length, ShortLex) order, by
    `_walk`.  There is no general finiteness test for W(A), so the count, e
    included, is checked as each element is found: more than max_elements
    raises EnumerationCapExceededError."""
    return _walk(_context(A), max_length, max_elements)[0]
