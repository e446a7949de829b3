"""Cartan matrices, Coxeter exponents, graphs and the label-bijection search.

A (generalized) Cartan matrix is an integer matrix A indexed by a finite
label set S with A[s][s] = 2, A[s][t] <= 0 for s != t, and A[s][t] = 0
exactly when A[t][s] = 0.  Labels are opaque strings; their input order is
the canonical total order used for all lexicographic tie-breaking.

`search_injections` is the one search over label bijections: equivalence
runs it on the constrained pairs of two elements, and the automorphisms on
one table against itself.  A matrix is held once, as its rows `entries`.
"""

import math
from itertools import chain

from .errors import (
    DiagonalNotTwoError,
    InvalidIndexSetError,
    MalformedCartanError,
    NonSquareError,
    PositiveOffDiagonalError,
    TooLargeError,
    UnknownLabelError,
    ZeroAsymmetryError,
)

# Bounds the rank, not the number of maps listed, which sets the cost: the
# edgeless rank-12 diagram lists 12! ~ 4.8e8, by extrapolation from rank 9
# about 0.5 h and well over 100 GB. ROADMAP item 5 would bound the cost.
AUTOMORPHISM_CAP = 12


class IndexSet:
    """An ordered sequence of distinct generator labels."""

    __slots__ = ("labels", "position")

    def __init__(self, labels):
        try:
            labels = tuple(labels)
            valid = 0 < len(set(labels)) == len(labels)
        except TypeError:
            valid = False
        if not valid:
            raise InvalidIndexSetError("index set labels must be nonempty and distinct")
        self.labels = labels
        self.position = {s: i for i, s in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.position

    def __eq__(self, other):
        return isinstance(other, IndexSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"IndexSet({list(self.labels)!r})"

    def index(self, label):
        try:
            return self.position[label]
        except (KeyError, TypeError):
            raise UnknownLabelError(label) from None


class CartanMatrix:
    """A validated generalized Cartan matrix over an ordered index set."""

    __slots__ = ("index_set", "entries", "_hash")

    def __init__(self, index_set, entries):
        if not isinstance(index_set, IndexSet):
            index_set = IndexSet(index_set)
        try:  # exactly int: a float, a string or a bool is refused, not coerced
            entries = tuple(map(tuple, entries))
            if not set(map(type, chain.from_iterable(entries))) <= {int}:
                raise TypeError
        except TypeError:
            raise MalformedCartanError("matrix must be integer rows") from None
        n = len(index_set)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise NonSquareError(len(entries), len(entries[0]) if entries else 0)
        labels = index_set.labels
        for i, (s, row, column) in enumerate(zip(labels, entries, zip(*entries))):
            if row[i] != 2:
                raise DiagonalNotTwoError(s, row[i])
            for t, a, b in zip(labels, row, column):
                if a > 0 and t != s:
                    raise PositiveOffDiagonalError(s, t, a)
                if (a == 0) != (b == 0):
                    raise ZeroAsymmetryError(s, t)
        self.index_set = index_set
        self.entries = entries
        self._hash = hash((index_set.labels, entries))

    @property
    def labels(self):
        return self.index_set.labels

    def __len__(self):
        return len(self.index_set)

    def __eq__(self, other):
        return (
            isinstance(other, CartanMatrix)
            and self.index_set == other.index_set
            and self.entries == other.entries
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CartanMatrix({list(self.labels)!r}, {self.entries!r})"

    def entry(self, s, t):
        return self.entries[self.index_set.index(s)][self.index_set.index(t)]

    def is_symmetric(self):
        n = len(self)
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def to_json(self):
        return {"index_set": list(self.labels), "matrix": [list(r) for r in self.entries]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not {"index_set", "matrix"} <= data.keys():
            raise MalformedCartanError("expected keys index_set and matrix")
        labels, matrix = data["index_set"], data["matrix"]
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise InvalidIndexSetError("index_set must be a list of string labels")
        return cls(IndexSet(labels), matrix)


def validate_cartan(entries, labels):
    """Validate a square integer matrix as a Cartan matrix over `labels`."""
    return CartanMatrix(IndexSet(labels), entries)


def submatrix(A, J):
    """Restrict A to the labels in J, preserving the input label order."""
    for s in J:
        A.index_set.index(s)
    J = set(J)
    keep = [i for i, s in enumerate(A.labels) if s in J]
    rows = [[A.entries[i][j] for j in keep] for i in keep]
    return CartanMatrix(IndexSet(A.labels[i] for i in keep), rows)


def coxeter_exponent(A, s, t):
    """The Coxeter exponent m_st: the order of st in the Weyl group.

    Returns 1 on the diagonal, one of 2, 3, 4, 6 in the finite cases,
    and math.inf when A[s][t]*A[t][s] >= 4.
    """
    if s == t:
        A.index_set.index(s)
        return 1
    product = A.entry(s, t) * A.entry(t, s)
    table = {0: 2, 1: 3, 2: 4, 3: 6}
    return table.get(product, math.inf)


class SimpleCoxeterGraph:
    """The underlying simple graph: edge {s,t} iff A[s][t] != 0, s != t."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        if not isinstance(vertices, IndexSet):
            vertices = IndexSet(vertices)
        self.vertices = vertices
        self.edges = frozenset(frozenset(e) for e in edges)

    def __eq__(self, other):
        return (
            isinstance(other, SimpleCoxeterGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def has_edge(self, s, t):
        return frozenset((s, t)) in self.edges

    def degree(self, s):
        return sum(1 for e in self.edges if s in e)


def simple_graph(A):
    labels = A.labels
    edges = [
        (labels[i], labels[j]) for i, row in enumerate(A.entries) for j in range(i) if row[j]
    ]
    return SimpleCoxeterGraph(A.index_set, edges)


def search_injections(source, target):
    """Yield each label injection that keeps every pair's value, as a fresh
    dict, in lexicographic image order.

    `source` and `target` are (labels, pairs), with pairs mapping ordered
    label pairs (s, t) to values.  A map sigma passes when every source
    pair (s, t) has its image (sigma[s], sigma[t]) among the target's pairs,
    with the same value.  So it sends the pairs one to one onto the
    target's (differing counts yield nothing), and each label to one with
    the same profile: its value with itself and the sorted values out of it
    and into it.  With as many labels as images it also sends the missing
    pairs onto the missing pairs, so callers leave out zero entries.  Labels
    are mapped in the order given, each to its same-profile targets in the
    target's order, and a pair is checked as soon as both its labels are
    mapped.  The search runs only as far as its caller reads, in one loop
    with no depth limit.
    """
    (labels, pairs), (images, image_pairs) = source, target
    if len(pairs) != len(image_pairs):
        return

    def profiles(labels, pairs):
        out = {s: [] for s in labels}
        into = {s: [] for s in labels}
        for (s, t), v in pairs.items():
            out[s].append(v)
            into[t].append(v)
        return {
            s: (pairs.get((s, s)), tuple(sorted(out[s])), tuple(sorted(into[s])))
            for s in labels
        }

    by_profile = {}
    for t, key in profiles(images, image_pairs).items():
        by_profile.setdefault(key, []).append(t)
    keys = profiles(labels, pairs)
    candidates = [by_profile.get(keys[s], ()) for s in labels]
    if not all(candidates):
        return
    # checks[i]: (earlier label r, value, whether the pair is (s_i, r)).
    position = {s: i for i, s in enumerate(labels)}
    checks = [[] for _ in labels]
    for (s, t), v in pairs.items():
        if position[s] > position[t]:
            checks[position[s]].append((t, v, True))
        elif position[s] < position[t]:
            checks[position[t]].append((s, v, False))
    sigma, used, get = {}, set(), image_pairs.get
    untried = [iter(candidates[0])] if labels else []  # level i: labels[i]'s candidates left
    if not labels:
        yield {}
    while untried:
        i = len(untried) - 1
        if labels[i] in sigma:
            used.discard(sigma.pop(labels[i]))
        for t in untried[i]:
            if t not in used:
                for r, v, outgoing in checks[i]:
                    if get((t, sigma[r]) if outgoing else (sigma[r], t)) != v:
                        break
                else:
                    break
        else:
            untried.pop()
            continue
        sigma[labels[i]] = t
        used.add(t)
        if i + 1 < len(labels):
            untried.append(iter(candidates[i + 1]))
        else:
            yield dict(sigma)


def _automorphisms(labels, table):
    """Every bijection of labels preserving table, in lexicographic order."""
    if len(labels) > AUTOMORPHISM_CAP:
        raise TooLargeError(len(labels), AUTOMORPHISM_CAP)
    graph = (labels, table)
    return list(search_injections(graph, graph))


def graph_automorphisms(G):
    """All vertex bijections preserving edges, in lexicographic order.

    The order is lexicographic in the image tuple relative to the input
    vertex order, so the identity always comes first.
    """
    table = {(s, t): True for edge in G.edges for s in edge for t in edge if s != t}
    return _automorphisms(G.vertices.labels, table)


def diagram_automorphisms(A):
    """All vertex bijections preserving every Cartan entry, lexicographically."""
    labels = A.labels
    table = {(s, t): a for s, row in zip(labels, A.entries) for t, a in zip(labels, row) if a}
    return _automorphisms(labels, table)
