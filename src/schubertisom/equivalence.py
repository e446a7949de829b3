"""Cartan equivalence of pairs (w, A): decision, witnesses, class enumeration.

Two pairs are Cartan equivalent when a bijection of supports matches some
reduced word of w letterwise to a reduced word of w' and matches the Cartan
entries A[s][t] for every pair with st <= w.  Any reduced word works, so the
decision procedure searches bijections of supports rather than reduced
words, pruned by per-generator entry profiles.
"""

from dataclasses import dataclass

from .cartan import diagram_automorphisms, graph_automorphisms, search_injections
from .cartan import simple_graph, submatrix
from .errors import NotFullySupportedError
from . import weyl
from .weyl import (
    element_from_word,
    enumerate_elements,
    support,
    two_letter_leq,
)


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


_SUPPORT_DATA = {}


def _support_data(w):
    """(sorted support, constrained pair -> entry, per-label entry profile)."""
    data = _SUPPORT_DATA.get(w)
    if data is not None:
        return data
    A = w.cartan
    sup = sorted(support(w), key=A.index_set.index)
    constraints = {
        (s, t): A.table[s, t]
        for s in sup
        for t in sup
        if s != t and two_letter_leq(A, s, t, w)
    }
    profiles = {}
    for s in sup:
        out_entries = sorted(A.table[s, t] for t in sup if (s, t) in constraints)
        in_entries = sorted(A.table[t, s] for t in sup if (t, s) in constraints)
        profiles[s] = (tuple(out_entries), tuple(in_entries))
    data = (sup, constraints, profiles)
    _SUPPORT_DATA[w] = data
    return data


def check_equivalence(w, w_prime):
    """Return an EquivalenceWitness, or None when not Cartan equivalent.

    Searches injections sigma over the supports in lexicographic order,
    backtracking on Cartan entry mismatches for pairs st <= w, and finally
    verifies that sigma applied to the canonical word of w multiplies to
    w' (the image word is automatically reduced).  That check builds the
    image word's vector in O(n * length) and compares it with w'.
    """
    B = w_prime.cartan
    if w.length != w_prime.length:
        return None
    src, constraints, src_profiles = _support_data(w)
    dst, _, dst_profiles = _support_data(w_prime)
    if len(src) != len(dst):
        return None
    candidates = [
        (s, [t for t in dst if dst_profiles[t] == src_profiles[s]]) for s in src
    ]
    word = w.canonical_word

    def multiplies_to_w_prime(sigma):
        return element_from_word(B, tuple(sigma[s] for s in word)) == w_prime

    sigma = search_injections(candidates, constraints, B.table, multiplies_to_w_prime)
    return None if sigma is None else EquivalenceWitness(w, w_prime, sigma)


def transport_interval(witness, length_cap=weyl.DEFAULT_LENGTH_CAP):
    """The induced poset isomorphism [e,w] -> [e,w'] of a witness.

    Each v <= w is sent to the product of the sigma-image of its canonical
    word.  The map is checked to be a bijection onto [e,w'] that carries
    covers onto covers, which on graded posets is an order isomorphism.
    """
    sigma = witness.sigma
    B = witness.target.cartan
    source = weyl.interval(witness.source, length_cap)
    target = weyl.interval(witness.target, length_cap)
    mapping = {
        v: element_from_word(B, tuple(sigma[s] for s in v.canonical_word))
        for v in source
    }
    assert len(source) == len(target) and set(mapping.values()) == set(target), (
        "transported map is not a bijection onto [e,w']"
    )
    for v in source:
        downs = {mapping[u] for u in source.covers_down[v]}
        assert downs == set(target.covers_down[mapping[v]]), (
            "transported map is not an order isomorphism"
        )
    return mapping


def isom_classes(A, max_length, max_elements=weyl.DEFAULT_ELEMENT_CAP):
    """Partition {w : length(w) <= max_length} into Cartan equivalence classes.

    Each new element is compared against one representative per class,
    bucketed by a cheap invariant.  Classes come out sorted by their least
    member under (length, ShortLex); members are sorted the same way.
    """
    elements = enumerate_elements(A, max_length, max_elements)
    order = A.index_set.index
    buckets = {}
    classes = []
    for w in elements:
        sup, _, profiles = _support_data(w)
        key = (w.length, tuple(sorted(profiles[s] for s in sup)))
        bucket = buckets.setdefault(key, [])
        for members in bucket:
            if check_equivalence(members[0], w) is not None:
                members.append(w)
                break
        else:
            members = [w]
            bucket.append(members)
            classes.append(members)

    def class_key(members):
        word = members[0].canonical_word
        return (len(word), tuple(order(s) for s in word))

    return sorted(classes, key=class_key)


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
