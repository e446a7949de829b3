"""An independent model of Kac-Moody Weyl groups, used only as a reference.

Nothing here imports the package under test.  An element w is stored as
the integer vector w(rho) in fundamental-weight coordinates, where rho is
the weight with every coordinate 1.  The simple reflection s_i acts by

    (s_i v)_j = v_j - v_i * A[j][i],

W acts simply transitively on its chambers and rho is regular, so w(rho)
determines w (Kac, Infinite Dimensional Lie Algebras, 3.12).  The left
descents of w are exactly the negative coordinates of w(rho), which gives
lengths, ShortLex canonical words and Bruhat order by the lifting property
(Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.2.7).
"""

from itertools import permutations


class Model:
    """A Cartan matrix given as labels plus integer rows (A[s][t] = rows[s][t])."""

    def __init__(self, labels, rows):
        self.labels = tuple(labels)
        self.rows = tuple(tuple(r) for r in rows)
        self.pos = {s: i for i, s in enumerate(self.labels)}
        self.n = len(self.labels)
        self.rho = (1,) * self.n

    def entry(self, s, t):
        return self.rows[self.pos[s]][self.pos[t]]

    def reflect(self, i, v):
        c = v[i]
        if not c:
            return v
        return tuple(v[j] - c * self.rows[j][i] for j in range(self.n))

    def vector(self, word):
        """(s_1 ... s_k)(rho), by acting with the letters right to left."""
        v = self.rho
        for s in reversed(word):
            v = self.reflect(self.pos[s], v)
        return v

    def canonical(self, v):
        """The ShortLex-least reduced word of the element with w(rho) = v."""
        word = []
        while True:
            neg = [i for i, c in enumerate(v) if c < 0]
            if not neg:
                return tuple(word)
            word.append(self.labels[neg[0]])
            v = self.reflect(neg[0], v)

    def canonical_word(self, word):
        return self.canonical(self.vector(word))

    def is_reduced(self, word):
        v = self.rho
        for s in reversed(word):
            i = self.pos[s]
            if v[i] <= 0:
                return False
            v = self.reflect(i, v)
        return True

    def left_descents(self, v):
        return [self.labels[i] for i, c in enumerate(v) if c < 0]

    def right_descents(self, word):
        inverse = tuple(reversed(self.canonical_word(word)))
        return self.left_descents(self.vector(inverse))

    def leq(self, u, w):
        """Bruhat order u <= w on vectors, by the lifting property."""
        while w != self.rho:
            i = next(k for k, c in enumerate(w) if c < 0)
            w = self.reflect(i, w)
            if u[i] < 0:
                u = self.reflect(i, u)
        return u == self.rho

    def elements_up_to(self, max_length):
        """Every element of length <= max_length, as {vector: canonical word}."""
        seen = {self.rho: ()}
        frontier = [self.rho]
        for _ in range(max_length):
            nxt = []
            for v in frontier:
                for i, c in enumerate(v):
                    if c > 0:
                        u = self.reflect(i, v)
                        if u not in seen:
                            seen[u] = None
                            nxt.append(u)
            frontier = nxt
        return {v: self.canonical(v) for v in seen}

    def interval(self, word):
        """[e, w] as the set of subword products, built by left multiplication."""
        elements = {self.rho}
        for s in reversed(word):
            i = self.pos[s]
            elements |= {self.reflect(i, v) for v in elements}
        return elements

    def reflect_coroot(self, i, c):
        pairing = sum(c[k] * self.rows[k][i] for k in range(self.n))
        if not pairing:
            return c
        return tuple(c[k] - pairing * (k == i) for k in range(self.n))

    def chevalley(self, word):
        """Interval size and the products xi_s * xi_u for s in S(w), u <= w.

        Lower covers of v are the one-letter deletions of its canonical word
        a_1 ... a_m that stay reduced (strong exchange).  Deleting a_j gives
        u with v = u s_gamma, gamma = a_m ... a_{j+1}(alpha_{a_j}), and the
        coefficient of xi_v in xi_s * xi_u is the h_s-coordinate of gamma's
        coroot.  Returns (size, {(s, u_word): [(v_word, coeff), ...]}).
        """
        top = self.canonical_word(word)
        elements = self.interval(top)
        words = {v: self.canonical(v) for v in elements}
        ups = {u: {} for u in elements}
        for v, a in words.items():
            for j in range(len(a)):
                lower = a[:j] + a[j + 1:]
                if not self.is_reduced(lower):
                    continue
                u = self.vector(lower)
                if v in ups[u]:
                    continue
                coroot = tuple(int(k == self.pos[a[j]]) for k in range(self.n))
                for s in a[j + 1:]:
                    coroot = self.reflect_coroot(self.pos[s], coroot)
                ups[u][v] = coroot
        support = sorted(set(top), key=self.pos.__getitem__)
        products = {}
        for u, covers in ups.items():
            for s in support:
                k = self.pos[s]
                products[(s, words[u])] = sorted(
                    (words[v], c[k]) for v, c in covers.items() if c[k]
                )
        return len(elements), products

    def constrained_pairs(self, word):
        """Ordered pairs (s, t), s != t in S(w), with st <= w."""
        top = self.canonical_word(word)
        w = self.vector(top)
        sup = sorted(set(top), key=self.pos.__getitem__)
        return [
            (s, t) for s in sup for t in sup
            if s != t and self.leq(self.vector((s, t)), w)
        ]


def witness_problems(src, src_word, dst, dst_word, sigma):
    """Why sigma fails to certify (src_word, src) ~ (dst_word, dst), or [].

    A witness is a bijection of supports sending the canonical word of w
    letterwise to a reduced word of w' and preserving A[s][t] for every
    pair with st <= w.
    """
    top = src.canonical_word(src_word)
    target = dst.canonical_word(dst_word)
    problems = []
    if set(sigma) != set(top):
        problems.append("sigma is not defined exactly on S(w)")
        return problems
    images = list(sigma.values())
    if len(set(images)) != len(images) or set(images) != set(target):
        problems.append("sigma is not a bijection onto S(w')")
        return problems
    image = tuple(sigma[s] for s in top)
    if not dst.is_reduced(image) or dst.vector(image) != dst.vector(target):
        problems.append("sigma(word of w) is not a reduced word of w'")
    for s, t in src.constrained_pairs(top):
        if src.entry(s, t) != dst.entry(sigma[s], sigma[t]):
            problems.append(f"entry ({s},{t}) is not preserved")
    return problems


def find_witness(src, src_word, dst, dst_word):
    """Brute force over every bijection of supports; None if inequivalent."""
    return _search(_Pair(src, src_word), _Pair(dst, dst_word))


class _Pair:
    """(w, A) with the data a bijection search reads: word, support, pairs."""

    def __init__(self, model, word):
        self.model = model
        self.word = model.canonical_word(word)
        self.support = sorted(set(self.word), key=model.pos.__getitem__)
        self.pairs = model.constrained_pairs(self.word)
        self.vector = model.vector(self.word)


def _search(src, dst):
    if len(src.word) != len(dst.word) or len(src.support) != len(dst.support):
        return None
    A, B = src.model, dst.model
    for images in permutations(dst.support):
        sigma = dict(zip(src.support, images))
        if any(A.entry(s, t) != B.entry(sigma[s], sigma[t]) for s, t in src.pairs):
            continue
        if B.vector(tuple(sigma[s] for s in src.word)) == dst.vector:
            return sigma
    return None


def classify(model, max_length):
    """Cartan equivalence classes of {w : length(w) <= max_length}.

    Returns a set of frozensets of canonical words.  Each element joins the
    first class whose representative it is equivalent to, tested by
    brute force over support bijections.
    """
    buckets = {}
    for word in sorted(model.elements_up_to(max_length).values(),
                       key=lambda w: (len(w), [model.pos[s] for s in w])):
        pair = _Pair(model, word)
        key = (len(word), len(pair.support))
        for members in buckets.setdefault(key, []):
            if _search(members[0], pair) is not None:
                members.append(pair)
                break
        else:
            buckets[key].append([pair])
    return {
        frozenset(p.word for p in members)
        for classes in buckets.values() for members in classes
    }


def cartan_problem(labels, rows):
    """Why (labels, rows) is not a generalized Cartan matrix, or None."""
    n = len(labels)
    if len(set(labels)) != n:
        return "duplicate labels"
    if len(rows) != n or any(len(r) != n for r in rows):
        return "not square"
    for i in range(n):
        if rows[i][i] != 2:
            return "diagonal entry is not 2"
        for j in range(n):
            if i != j and rows[i][j] > 0:
                return "positive off-diagonal entry"
            if i != j and (rows[i][j] == 0) != (rows[j][i] == 0):
                return "zero pattern is not symmetric"
    return None
