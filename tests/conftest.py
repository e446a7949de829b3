"""Shared matrices, random generators, and brute-force oracles."""

import random
from itertools import permutations

import pytest

from schubertisom import (
    check_equivalence,
    element_from_word,
    support,
    two_letter_leq,
    validate_cartan,
)
from schubertisom import weyl
from schubertisom.errors import EnumerationCapExceededError
from schubertisom.weyl import DEFAULT_ELEMENT_CAP, enumerate_elements


def type_a(n):
    labels = [f"s{i}" for i in range(1, n + 1)]
    entries = [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
        for i in range(n)
    ]
    return validate_cartan(entries, labels)


A3 = type_a(3)
A2 = type_a(2)

C3 = validate_cartan(
    [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], ["s1", "s2", "s3"]
)
B3 = validate_cartan(
    [[2, -1, 0], [-1, 2, -2], [0, -1, 2]], ["s1", "s2", "s3"]
)
B4 = validate_cartan(
    [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    ["s1", "s2", "s3", "s4"],
)
B2 = validate_cartan([[2, -2], [-1, 2]], ["s1", "s2"])
G2 = validate_cartan([[2, -3], [-1, 2]], ["s1", "s2"])
A1_AFFINE = validate_cartan([[2, -2], [-2, 2]], ["s1", "s2"])
A2_AFFINE = validate_cartan(
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], ["s0", "s1", "s2"]
)
# Hyperbolic and not symmetrizable: the two cycle products -4 and -1 differ.
H3 = validate_cartan(
    [[2, -2, -1], [-1, 2, -1], [-2, -1, 2]], ["s1", "s2", "s3"]
)

# star with center s2
D4 = validate_cartan(
    [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ],
    ["s1", "s2", "s3", "s4"],
)

# star with center s0 and four leaves
D4_AFFINE = validate_cartan(
    [
        [2, -1, -1, -1, -1],
        [-1, 2, 0, 0, 0],
        [-1, 0, 2, 0, 0],
        [-1, 0, 0, 2, 0],
        [-1, 0, 0, 0, 2],
    ],
    ["s0", "s1", "s2", "s3", "s4"],
)

# Rank 5 with every m_st infinite.  The word s0 s1 s2 s3 s4 repeated four
# times is reduced, of length 20, and has 612,256 elements below it.
UNIVERSAL_5 = validate_cartan(
    [[2 if i == j else -2 for j in range(5)] for i in range(5)],
    [f"s{i}" for i in range(5)],
)
UNIVERSAL_5_WORD = tuple(UNIVERSAL_5.labels) * 4


def star(k):
    """A centre c joined to k leaves by entries -1."""
    n = k + 1
    rows = [
        [2 if i == j else (-1 if (i == k) != (j == k) else 0) for j in range(n)]
        for i in range(n)
    ]
    return validate_cartan(rows, [f"l{i}" for i in range(k)] + ["c"])


def random_cartan(rng, max_rank=4, min_entry=-3):
    """A random valid Cartan matrix with entries in [min_entry, 0]."""
    n = rng.randint(2, max_rank)
    labels = [f"s{i}" for i in range(1, n + 1)]
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                entries[i][j] = rng.randint(min_entry, -1)
                entries[j][i] = rng.randint(min_entry, -1)
    return validate_cartan(entries, labels)


def random_word(rng, A, max_len=8):
    return tuple(rng.choice(A.labels) for _ in range(rng.randint(0, max_len)))


def relabeled(rng, A):
    """A copy of A under a random bijection pi onto labels u1..un, listed in a
    random order; returns (B, pi)."""
    names = [f"u{i}" for i in range(1, len(A) + 1)]
    rng.shuffle(names)
    pi = dict(zip(A.labels, rng.sample(names, len(names))))
    back = {t: s for s, t in pi.items()}
    rows = [[A.entry(back[x], back[y]) for y in names] for x in names]
    nonzero = [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a < 0]
    if nonzero and rng.random() < 0.3:  # one changed entry gives near misses
        i, j = rng.choice(nonzero)
        rows[i][j] = -2 if rows[i][j] == -1 else -1
    return validate_cartan(rows, names), pi


def random_draw(n, seed):
    """A random rank-n matrix, a word of 3n letters and a label permutation.
    Each pair j < i is linked with probability 3/n, its two entries drawn
    from -1, -2, -3."""
    rng = random.Random(seed)
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 3 / n:
                rows[i][j] = rng.choice((-1, -2, -3))
                rows[j][i] = rng.choice((-1, -2, -3))
    word = [rng.randrange(n) for _ in range(3 * n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return rows, word, perm


# A_11 affine: the 12-cycle s1 - s2 - ... - s12 - s1
A11_AFFINE = validate_cartan(
    [
        [2 if i == j else (-1 if (i - j) % 12 in (1, 11) else 0) for j in range(12)]
        for i in range(12)
    ],
    [f"s{i}" for i in range(1, 13)],
)


def brute_force_graph_automorphisms(G):
    """Reference: every vertex permutation preserving edges, in the
    lexicographic order of the image tuple."""
    labels = G.vertices.labels
    autos = []
    for images in permutations(labels):
        sigma = dict(zip(labels, images))
        if all((frozenset((sigma[s], sigma[t])) in G.edges) == (frozenset((s, t)) in G.edges)
               for i, s in enumerate(labels) for t in labels[i + 1:]):
            autos.append(sigma)
    return autos


def brute_force_diagram_automorphisms(A):
    """Reference: every label permutation preserving all Cartan entries, in
    the lexicographic order of the image tuple."""
    labels = A.labels
    pos = A.index_set.position
    autos = []
    for images in permutations(labels):
        sigma = dict(zip(labels, images))
        if all(
            A.entries[pos[s]][pos[t]] == A.entries[pos[sigma[s]]][pos[sigma[t]]]
            for s in labels
            for t in labels
        ):
            autos.append(sigma)
    return autos


def reduced_words(w):
    """Reference: the set Red(w) as a frozenset of label tuples, by the
    recursion Red(w) = {(s,) + r : s a left descent of w, r in Red(s w)}.
    Its cost is |Red(w)|, which no element cap bounds, so it stays a test
    oracle."""
    memo = {}

    def words_of(v):
        if v not in memo:
            memo[v] = frozenset({()}) if v.is_identity() else frozenset(
                (s,) + word
                for s in v.left_descents()
                for word in words_of(element_from_word(v.cartan, [s]) * v)
            )
        return memo[v]

    return words_of(w)


def brute_force_key(w):
    """Reference: `canonical_key` by its definition, over all of Red(w).

    The support is split into the components of the graph A[s][t] != 0.
    On each component, each reduced word of w is cut to the component's
    letters and read from its right end; its letters are renamed 0, 1, ...
    by first occurrence, and the pairs (s, t) with st <= w
    (`two_letter_leq`) and A[s][t] != 0 are renamed along with it, each
    carrying A[s][t].  The factor's key is the least (renamed word, sorted
    renamed entries); w's key is (length, sorted factor keys).  Its cost is
    |Red(w)|."""
    A = w.cartan
    components = []
    for s in sorted(support(w), key=A.index_set.index):
        linked = [c for c in components if any(A.entry(s, t) for t in c)]
        components = [c for c in components if c not in linked] + [{s}.union(*linked)]
    keys = []
    for letters in components:
        pairs = [(s, t) for s in letters for t in letters
                 if s != t and A.entry(s, t) and two_letter_leq(A, s, t, w)]
        candidates = []
        for word in reduced_words(w):
            read = [s for s in reversed(word) if s in letters]
            name = {}
            for s in read:
                name.setdefault(s, len(name))
            renamed = tuple(name[s] for s in read)
            entries = tuple(sorted((name[s], name[t], A.entry(s, t)) for s, t in pairs))
            candidates.append((renamed, entries))
        keys.append(min(candidates))
    return w.length, tuple(sorted(keys))


def bfs_enumerate_elements(A, max_length, max_elements=DEFAULT_ELEMENT_CAP):
    """Reference: the elements of length at most max_length, found breadth
    first by left multiplication with a `seen` set, then sorted by (length,
    canonical word as label indices).  The count is checked as each new
    element is found, and more than max_elements raises."""
    if max_length < 0:
        return []
    order = A.index_set.index
    reflections = {s: element_from_word(A, [s]) for s in A.labels}
    seen = {element_from_word(A, [])}
    frontier = list(seen)
    for _ in range(max_length):
        nxt = []
        for w in frontier:
            descents = w.left_descents()
            for s, r in reflections.items():
                if s in descents:
                    continue
                v = r * w
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > max_elements:
                        raise EnumerationCapExceededError(max_elements)
        frontier = nxt
    return sorted(seen, key=lambda v: (v.length, [order(s) for s in v.canonical_word]))


def walk(A, max_length):
    """(elements, parents) of length at most max_length, as `isom_classes`
    hands them to `equivalence._keys`."""
    return weyl._walk(weyl._context(A), max_length, DEFAULT_ELEMENT_CAP)


def pairwise_isom_classes(A, max_length):
    """Reference: Cartan equivalence classes by pairwise check_equivalence.

    Each new element is compared against one representative per class,
    bucketed by its length and the multiset of per-letter constrained entry
    profiles.  Classes come out sorted by their least member under (length,
    ShortLex); members are sorted the same way.
    """
    order = A.index_set.index
    buckets = {}
    classes = []
    for w in enumerate_elements(A, max_length):
        sup = support(w)
        constrained = {
            (s, t) for s in sup for t in sup if s != t and two_letter_leq(A, s, t, w)
        }
        profiles = sorted(
            (
                tuple(sorted(A.entry(s, t) for t in sup if (s, t) in constrained)),
                tuple(sorted(A.entry(t, s) for t in sup if (t, s) in constrained)),
            )
            for s in sup
        )
        bucket = buckets.setdefault((w.length, tuple(profiles)), [])
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


def top_id(oracle):
    """The id of the oracle's top-degree basis element."""
    return max(oracle.basis, key=lambda b: b[1])[0]


def support_closure(oracle, J):
    """E^J over the oracle: fixpoint from the unit under generators not in J,
    one closure per call (`reconstruct._predecessors` gives every E^{g} in one pass)."""
    allowed = [g for g in oracle.generators if g not in J]
    closure = {oracle.unit_id}
    frontier = list(closure)
    while frontier:
        u = frontier.pop()
        for g in allowed:
            for v, _ in oracle.products[g, u]:
                if v not in closure:
                    closure.add(v)
                    frontier.append(v)
    return frozenset(closure)


@pytest.fixture
def rng():
    return random.Random(20260824)
