"""The integral cohomology ring of X(w,A) on its Schubert basis.

Only products of a simple class by an arbitrary class are needed (and
implemented): by the Chevalley formula,

    xi_s * xi_u = sum over Bruhat covers v = s_beta u inside [e,w]
                  of omega_s(u^{-1}(beta_vee)) xi_v,

and every coefficient is a nonnegative integer.  The abstract export
(`CohomologyOracle`) relabels the basis with seeded pseudo-random ids so
that downstream reconstruction cannot peek at element names.
"""

import random
from collections import defaultdict
from itertools import compress
from operator import itemgetter

from .cartan import _Record
from .errors import MalformedOracleError, NotInIntervalError, UnknownLabelError
from . import weyl
from .weyl import element_from_word


class SchubertClass(_Record):
    """A finitely supported integer combination of Schubert basis classes
    over a `weyl.BruhatInterval`."""

    __slots__ = ("interval", "coeffs")

    def __init__(self, interval, coeffs):
        self.interval = interval
        self.coeffs = {v: c for v, c in coeffs.items() if c != 0}
        for v in self.coeffs:
            if v not in self.interval:
                raise NotInIntervalError(v.canonical_word)

    def __eq__(self, other):
        return (
            isinstance(other, SchubertClass)
            and self.interval.top == other.interval.top
            and self.coeffs == other.coeffs
        )


def chevalley_product(s, u, itv):
    """Expand xi_s * xi_u on the Schubert basis of the interval: the
    coefficient at each upper cover of u is entry k, for s of index k, of
    the cover's coroot in `itv.up`, kept when nonzero."""
    if s not in itv.top.canonical_word:
        raise UnknownLabelError(s)
    if u not in itv:
        raise NotInIntervalError(u.canonical_word)
    k = itv.cartan.index_set.index(s)
    elements = itv.elements
    covers = itv.up[itv.position[u.rho]]
    return SchubertClass(itv, {elements[q]: c for q, coroot in covers if (c := coroot[k])})


def simple_square_closed_form(t, itv):
    """xi_t^2 by the closed form: sum of -A[s',t] xi_{s't} over s't <= w.

    Independent oracle for chevalley_product(t, t): no cover scan involved.
    """
    A = itv.cartan
    sup = weyl.support(itv.top)
    if t not in itv.top.canonical_word:
        raise UnknownLabelError(t)
    coeffs = {}
    for s_prime in sup:
        if s_prime == t or A.entry(s_prime, t) == 0:
            continue
        st = element_from_word(A, (s_prime, t))
        if st in itv:
            coeffs[st] = -A.entry(s_prime, t)
    return SchubertClass(itv, coeffs)


def _label_set(J, itv):
    """The labels of J as a set.  A label the interval's Cartan matrix does
    not have raises UnknownLabelError; a string J is read as its characters."""
    J = tuple(J)
    for s in J:
        itv.cartan.index_set.index(s)
    return set(J)


def minimal_coset_reps(J, itv):
    """W^J restricted to the interval: elements with no right descent in J."""
    J = _label_set(J, itv)
    return frozenset(u for u in itv if not (u.right_descents() & J))


def support_closure(J, itv):
    """E^J: the union of supports over the subring generated by S(w) \\ J.

    Computed as the least fixpoint containing xi_e and closed under taking
    supports of products by the allowed simple classes; valid because the
    Chevalley coefficients never cancel.  One sweep up the positions: a
    reached element reaches each upper cover whose coroot has a positive
    entry at an allowed index.
    """
    index = itv.cartan.index_set.index
    allowed = [index(s) for s in weyl.support(itv.top) - _label_set(J, itv)]
    reached = [False] * len(itv)
    reached[0] = True
    for p, covers in enumerate(itv.up):
        if reached[p]:
            for q, coroot in covers:
                if not reached[q]:
                    for k in allowed:
                        if coroot[k]:
                            reached[q] = True
                            break
    return frozenset(compress(itv.elements, reached))


class CohomologyOracle(_Record):
    """An anonymized graded basis with its degree-2 multiplication table:
    `basis` is a tuple of (id, degree) pairs, `generators` a tuple of the ids of
    degree 2, `products` maps (generator id, basis id) to a tuple of (basis id, coeff)."""

    __slots__ = ("basis", "generators", "products")

    @property
    def unit_id(self):
        for bid, d in self.basis:
            if d == 0:
                return bid
        raise MalformedOracleError("no degree-0 basis element")

    def validate(self):
        # Types first: no unhashable id reaches a set, no float or bool passes;
        # the product terms are typed in their defect loop below.
        if not {(type(bid), type(d)) for bid, d in self.basis} <= {(str, int)}:
            raise MalformedOracleError("expected a string id and an integer degree")
        if not set(map(type, self.generators)) <= {str}:
            raise MalformedOracleError("generator ids must be strings")
        degrees = dict(self.basis)
        if len(degrees) != len(self.basis):
            raise MalformedOracleError("duplicate basis ids")
        levels = defaultdict(set)  # degree -> its ids
        for bid, d in self.basis:
            levels[d].add(bid)
        if any(d < 0 or d % 2 for d in levels):
            raise MalformedOracleError("degrees must be nonnegative even integers")
        units = levels.get(0, ())
        if len(units) != 1:
            raise MalformedOracleError("exactly one degree-0 basis element required")
        if len(levels[max(levels)]) != 1:
            raise MalformedOracleError("exactly one top-degree basis element required")
        generators = set(self.generators)
        if len(generators) != len(self.generators):
            raise MalformedOracleError("generators repeat an id")
        if generators != levels.get(2, set()):
            raise MalformedOracleError("generators must be exactly the degree-2 ids")
        # The keys are distinct, so if all name known ids, a full count means
        # none is missing; a key with unknown ids makes the same search below.
        if len(self.products) != len(generators) * len(degrees):
            self._check_complete(degrees)
        above = {}  # bid -> the ids one degree step up, where its products land
        for d, ids in levels.items():
            above.update(dict.fromkeys(ids, levels.get(d + 2, frozenset())))
        for (g, bid), terms in self.products.items():
            level = above.get(bid)
            if level is None or g not in generators:
                self._check_complete(degrees)
                raise MalformedOracleError(f"product ({g}, {bid}) uses unknown ids")
            # An id in `level` is a known id of degree d + 2, so the first term
            # that fails here is the first with any defect; name it.  The types
            # come first, so no unhashable id reaches `level`.
            for vid, coeff in terms:
                if type(vid) is not str or type(coeff) is not int:
                    raise MalformedOracleError("expected a string id and an integer coeff")
                if vid not in level or coeff == 0:
                    if vid not in degrees:
                        raise MalformedOracleError(f"product ({g}, {bid}) hits unknown id")
                    if vid not in level:
                        raise MalformedOracleError(
                            f"product ({g}, {bid}) does not raise degree by 2"
                        )
                    raise MalformedOracleError("zero coefficients must be omitted")
            if len(terms) > 1 and len(dict(terms)) != len(terms):
                raise MalformedOracleError(f"product ({g}, {bid}) repeats an id")
        (unit,) = units
        for g in self.generators:
            if self.products[(g, unit)] != ((g, 1),):
                raise MalformedOracleError("degree-0 element must act as the unit")
        return self

    def _check_complete(self, degrees):
        for g in self.generators:
            for bid in degrees:
                if (g, bid) not in self.products:
                    raise MalformedOracleError(f"missing product ({g}, {bid})")

    def to_json(self):
        """The oracle as JSON-ready data, for serialising only: the products
        share one term dict per (id, coeff) and keep the oracle's order."""
        shared = {}
        return {
            "basis": [{"id": bid, "degree": d} for bid, d in self.basis],
            "generators": list(self.generators),
            "products": {
                f"{g}|{bid}": [
                    shared.get(vc) or shared.setdefault(vc, {"id": vc[0], "coeff": vc[1]})
                    for vc in terms
                ]
                for (g, bid), terms in self.products.items()
            },
        }

    @classmethod
    def from_json(cls, data):
        """Read the shape only; `validate` checks the types and the table."""
        id_degree, id_coeff = itemgetter("id", "degree"), itemgetter("id", "coeff")
        try:
            basis = tuple(map(id_degree, data["basis"]))
            generators = data["generators"]
            if not isinstance(generators, list):
                raise MalformedOracleError("generators must be a list of ids")
            products = {}
            for key, terms in data["products"].items():
                g, _, bid = key.partition("|")
                if not bid:
                    raise MalformedOracleError(f"bad product key {key!r}")
                products[(g, bid)] = tuple(map(id_coeff, terms))
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedOracleError(f"wrong shape: {exc!r}") from None
        return cls(basis, tuple(generators), products)


# bytes.translate arguments that turn the top byte b of a 32-bit word into
# the hex digit (b >> 3) & 15, deleting b >= 128.
_HEX_OF_TOP_BYTE = bytes(b"0123456789abcdef"[(b >> 3) & 15] for b in range(256))
_TOP_BIT_SET = bytes(range(128, 256))


def _fresh_ids(count, seed):
    """count distinct seeded ids in draw order, independent of str hashing.

    An id is "b" and 8 hex digits, drawn as rng.choice("0123456789abcdef")
    draws them: one 32-bit Mersenne Twister word per try, kept when its top
    bit is 0, giving the digit in its next 4 bits.  The words come in bulk
    from one getrandbits call, whose little-endian bytes hold each word's
    top byte at offset 3 mod 4.  A repeated id is dropped, and digits left
    over carry into the next draw, so the ids are those of the digit-by-digit
    draw.
    """
    rng = random.Random(seed)
    ids = {}
    digits = ""
    while len(ids) < count:
        words = 16 * (count - len(ids)) + 64
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        digits += top.translate(_HEX_OF_TOP_BYTE, _TOP_BIT_SET).decode()
        k = 0
        while len(ids) < count and k + 8 <= len(digits):
            ids["b" + digits[k:k + 8]] = None
            k += 8
        digits = digits[k:]
    return list(ids)


def _product_table(itv, names):
    """Yield (g, p, terms) for each generator position g (an upper cover of e)
    and each position p of the interval, both in order of names[g], names[p]:
    xi_g * xi_p is the sum of c xi_v over terms, the (names[v], c) in name
    order, with c > 0 the entry at g's letter of the coroot of the cover v of
    p.  The body drops the interval once it has read the covers."""
    generators = sorted([(names[g], g, itv.elements[g]._indices[0]) for g, _ in itv.up[0]])
    named = [sorted([(names[q], coroot) for q, coroot in covers]) for covers in itv.up]
    del itv
    order = sorted(range(len(names)), key=names.__getitem__)
    for _, g, k in generators:
        for p in order:
            yield g, p, tuple([(v, c) for v, coroot in named[p] if (c := coroot[k])])


def export_oracle_with_map(w, seed=0, max_elements=weyl.DEFAULT_ELEMENT_CAP):
    """Build the anonymized oracle of H*(X(w,A)) plus the element -> id map,
    unvalidated: each reader of an oracle validates it where it enters."""
    itv = weyl.interval(w, max_elements)
    elements = itv.elements
    ids = _fresh_ids(len(elements), seed)
    basis = tuple(sorted(zip(ids, [2 * v.length for v in elements])))
    table = _product_table(itv, ids)
    del itv  # before the table is built, which lowers the peak memory
    products = {(ids[g], ids[p]): terms for g, p, terms in table}  # sorted, as to_json keeps it
    generators = tuple([bid for bid, d in basis if d == 2])
    return CohomologyOracle(basis, generators, products), dict(zip(elements, ids))


def export_oracle(w, seed=0, max_elements=weyl.DEFAULT_ELEMENT_CAP):
    return export_oracle_with_map(w, seed, max_elements)[0]
