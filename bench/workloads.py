"""Workload inputs generated from a seed, and the checks on their outputs.

Inputs are plain data (labels, integer rows, words, argv lists), so the
same seed gives the same inputs in the worker that runs the package and in
the coordinator that checks it.  The checks use only references this
directory owns: the paper's numbers, the root-lattice model in model.py
and the normal-form reference in algebra.py.
"""

import json
import random
import re

import algebra
from model import Model, cartan_problem, classify, find_witness, witness_problems

WORKLOADS = ("classes", "roundtrip", "queries")


# --- Cartan matrices ---------------------------------------------------------

def _labels(n, prefix="s", start=1):
    return [f"{prefix}{i}" for i in range(start, start + n)]


def _from_edges(n, edges, labels=None):
    """Rows with 2 on the diagonal and A[i][j] = a for each edge (i, j, a, b)."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a, b in edges:
        rows[i][j], rows[j][i] = a, b
    return (labels or _labels(n), rows)


def _chain(n):
    return [(i, i + 1, -1, -1) for i in range(n - 1)]


def type_a(n):
    return _from_edges(n, _chain(n))


def type_b(n):
    return _from_edges(n, _chain(n - 1) + [(n - 2, n - 1, -2, -1)])


def type_c(n):
    return _from_edges(n, _chain(n - 1) + [(n - 2, n - 1, -1, -2)])


def type_d(n):
    return _from_edges(n, _chain(n - 1) + [(n - 3, n - 1, -1, -1)])


def type_e(n):
    edges = [(0, 2, -1, -1), (1, 3, -1, -1)] + [(i, i + 1, -1, -1) for i in range(2, n - 1)]
    return _from_edges(n, edges)


def affine_a(n):
    """A~_n: a cycle on n + 1 nodes labelled s0 ... sn."""
    return _from_edges(n + 1, _chain(n + 1) + [(0, n, -1, -1)], _labels(n + 1, start=0))


def affine_d(n):
    """D~_n: a path with two forks, n + 1 nodes labelled s0 ... sn."""
    if n == 4:
        edges = [(0, k, -1, -1) for k in range(1, 5)]
    else:
        edges = [(0, 2, -1, -1), (1, 2, -1, -1)] + [
            (i, i + 1, -1, -1) for i in range(2, n - 1)
        ] + [(n - 2, n, -1, -1)]
    return _from_edges(n + 1, edges, _labels(n + 1, start=0))


def numbered(matrix):
    """The same matrix over labels '1', '2', ... (for normal-form indices)."""
    labels, rows = matrix
    return ([str(i + 1) for i in range(len(labels))], rows)


LIBRARY = {
    "A2": type_a(2), "A3": type_a(3), "A4": type_a(4), "A5": type_a(5),
    "A7": type_a(7), "A8": type_a(8),
    "B2": type_b(2), "B3": type_b(3), "B4": type_b(4), "B6": type_b(6),
    "C3": type_c(3), "D4": type_d(4), "D6": type_d(6),
    "E6": type_e(6), "E7": type_e(7), "E8": type_e(8),
    "F4": _from_edges(4, [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]),
    "G2": _from_edges(2, [(0, 1, -1, -3)]),
    "A1aff": (["s1", "s2"], [[2, -2], [-2, 2]]),
    "A2aff": affine_a(2), "A3aff": affine_a(3), "A5aff": affine_a(5),
    "A7aff": affine_a(7), "D4aff": affine_d(4), "D5aff": affine_d(5),
    "D7aff": affine_d(7),
    "H2": (["s1", "s2"], [[2, -3], [-3, 2]]),
    "H3": (["s1", "s2", "s3"], [[2, -2, -1], [-2, 2, -1], [-1, -1, 2]]),
    "H4": (["s1", "s2", "s3", "s4"],
           [[2, -3, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 2]]),
    "A3n": numbered(type_a(3)), "B3n": numbered(type_b(3)),
    "C3n": numbered(type_c(3)),
}

# Diagram (or, with graph=True, Coxeter-graph) automorphism counts.  The
# first five rows are the paper's criterion-7 table; the rest are the
# standard symmetry groups of Dynkin diagrams: Z2 for A_n, D_n (n > 4) and
# E6, S3 for D4, trivial for B_n, C_n, E7, E8, F4, G2, dihedral of order
# 2(n+1) for A~_n, S4 for D~4 and order 8 for D~_n (n > 4).
AUTOMORPHISMS = [
    ("A3", True, 2), ("D4", False, 6), ("C3", False, 1), ("C3", True, 2),
    ("D4aff", False, 24),
    ("A5", False, 2), ("A7", True, 2), ("A8", False, 2), ("B6", False, 1),
    ("B6", True, 2), ("D6", False, 2), ("E6", False, 2), ("E7", False, 1),
    ("E8", False, 1), ("F4", False, 1), ("F4", True, 2), ("G2", False, 1),
    ("A5aff", False, 12), ("A7aff", False, 16), ("D5aff", False, 8),
    ("D7aff", False, 8), ("A8", True, 2),
]


def random_cartan(rng, rank, min_entry=-3):
    """Rank `rank`, each edge present with probability 0.6, entries in [min_entry, -1]."""
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < 0.6:
                rows[i][j] = rng.randint(min_entry, -1)
                rows[j][i] = rng.randint(min_entry, -1)
    return (_labels(rank), rows)


def random_word(rng, labels, length):
    return tuple(rng.choice(labels) for _ in range(length))


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


# --- classes -------------------------------------------------------------------

# The paper's A3 table, verbatim (words as printed, canonicalized on use).
A3_TABLE = [
    [""], ["s1", "s2", "s3"], ["s1 s3"], ["s1 s2", "s2 s1", "s2 s3", "s3 s2"],
    ["s1 s2 s1", "s2 s3 s2"], ["s1 s3 s2"], ["s2 s1 s3"],
    ["s1 s2 s3", "s3 s2 s1"], ["s1 s2 s3 s2", "s3 s2 s1 s2"],
    ["s2 s1 s2 s3", "s2 s3 s2 s1"], ["s2 s1 s3 s2"],
    ["s2 s1 s2 s3 s2", "s2 s3 s2 s1 s2"], ["s3 s2 s1 s2 s3"],
    ["s3 s2 s1 s3 s2 s3"],
]
PAPER_COUNTS = {"A4": 54, "A5": 316}


def classes_inputs(seed):
    """isom_classes calls: the criterion-1 set, B4, A~2 and two random rank-4
    matrices at length bound 4."""
    rng = _rng("classes", seed)
    calls = [("A3", LIBRARY["A3"], 6), ("A4", LIBRARY["A4"], 10), ("A5", LIBRARY["A5"], 15),
             ("B4", LIBRARY["B4"], 16), ("A2aff", LIBRARY["A2aff"], 8)]
    for k in range(2):
        calls.append((f"R{k + 1}", random_cartan(rng, 4), 4))
    return calls


def _classes_reference(name, matrix, bound):
    model = Model(*matrix)
    if name == "A3":
        return {"table": {
            frozenset(model.canonical_word(tuple(w.split())) for w in group)
            for group in A3_TABLE
        }}
    if name in PAPER_COUNTS:
        words = set(model.elements_up_to(bound).values())
        return {"count": PAPER_COUNTS[name], "elements": words}
    return {"table": classify(model, bound)}


def check_classes(inputs, outputs, cache):
    """{op index: failure} for isom_classes outputs (lists of classes of words)."""
    failures = {}
    for i, ((name, matrix, bound), out) in enumerate(zip(inputs, outputs)):
        if "error" in out:
            failures[i] = f"{name}: raised {out['error']}"
            continue
        key = (name, bound, json.dumps(matrix))
        if key not in cache:
            cache[key] = _classes_reference(name, matrix, bound)
        ref = cache[key]
        classes = [frozenset(tuple(w) for w in members) for members in out["classes"]]
        problems = []
        if "table" in ref and set(classes) != ref["table"]:
            problems.append(f"{len(classes)} classes differ from the reference's {len(ref['table'])}")
        if "count" in ref:
            members = [w for c in classes for w in c]
            if len(members) != len(set(members)) or set(members) != ref["elements"]:
                problems.append("classes do not partition the elements")
            if len(classes) != ref["count"]:
                problems.append(f"{len(classes)} classes, the paper has {ref['count']}")
        if problems:
            failures[i] = f"{name}: {'; '.join(problems)}"
    return failures


# --- roundtrip ------------------------------------------------------------------

# Each (rank, reduced length) cell with rank 2-4 and length 1-8 gets the
# same number of random pairs, so rank and length are exactly uniform and
# every seed has the same mix of work.
ROUNDTRIP_RANKS = (2, 3, 4)
ROUNDTRIP_MAX_LENGTH = 8
ROUNDTRIP_PER_CELL = 26


def _longest_word(matrix):
    model = Model(*matrix)
    return model.canonical(tuple(-1 for _ in model.labels))


def random_reduced_word(rng, model, length):
    """A reduced word of the given length, built by prepending letters that
    lengthen the element, each drawn uniformly; None if the element reaches
    the longest one before that length."""
    v, word = model.rho, ()
    for _ in range(length):
        ascents = [i for i, c in enumerate(v) if c > 0]
        if not ascents:
            return None
        i = rng.choice(ascents)
        v = model.reflect(i, v)
        word = (model.labels[i],) + word
    return word


def roundtrip_inputs(seed):
    """(name, matrix, word, oracle seed) for each export/reconstruct round trip.

    ROUNDTRIP_PER_CELL random pairs for each rank and reduced length, with
    entries in [-3, 0]; a matrix whose group has no element of the cell's
    length is drawn again.  The random pairs are shuffled, and the longest
    elements of A4 and D4 come last.
    """
    rng = _rng("roundtrip", seed)
    ops = []
    for rank in ROUNDTRIP_RANKS:
        for length in range(1, ROUNDTRIP_MAX_LENGTH + 1):
            for _ in range(ROUNDTRIP_PER_CELL):
                word = None
                while word is None:
                    matrix = random_cartan(rng, rank)
                    model = Model(*matrix)
                    word = random_reduced_word(rng, model, length)
                ops.append((matrix, model.canonical_word(word), rng.randrange(10**6)))
    rng.shuffle(ops)
    ops = [(f"r{i}", *op) for i, op in enumerate(ops)]
    for name in ("A4", "D4"):
        ops.append((f"w0_{name}", LIBRARY[name], _longest_word(LIBRARY[name]), rng.randrange(10**6)))
    return ops


def check_roundtrip(inputs, outputs, cache=None):
    """{op index: failure} for round trips: each must give a checkable witness."""
    failures = {}
    for i, ((name, matrix, word, _), out) in enumerate(zip(inputs, outputs)):
        problem = _roundtrip_problem(matrix, word, out)
        if problem:
            failures[i] = f"{name}: {problem}"
    return failures


def _roundtrip_problem(matrix, word, out):
    if "error" in out:
        return f"raised {out['error']}"
    labels, rows = out["cartan"]
    problem = cartan_problem(labels, rows)
    if problem:
        return f"reconstructed matrix: {problem}"
    src, dst = Model(*matrix), Model(labels, rows)
    length = len(src.canonical_word(word))
    if len(out["word"]) != length or not dst.is_reduced(out["word"]):
        return f"reconstructed word is not reduced of length {length}"
    if out["sigma"] is None:
        return "no witness for the reconstructed pair"
    problems = witness_problems(src, word, dst, out["word"], out["sigma"])
    return f"bad witness: {problems[0]}" if problems else None


# --- queries --------------------------------------------------------------------

# Equal shares of the seven request kinds, plus 5% malformed requests (one
# nineteenth of the rest).  154 per kind is 7 times the AUTOMORPHISMS pool,
# so each pool entry is asked for equally often, and 1135 requests leave 11
# beyond the 99th percentile.
QUERY_PER_KIND = 7 * len(AUTOMORPHISMS)
QUERY_MIX = tuple((kind, QUERY_PER_KIND) for kind in (
    "word", "bruhat", "equiv", "cohomology", "normal-form", "automorphisms", "validate",
)) + (("malformed", round(7 * QUERY_PER_KIND / 19)),)
COHOMOLOGY_MAX_LENGTH = 5
CRITERION_8 = ("h1*e2*e3*f2", "f2*h1*e2*e3 - a12*f2*e2*e3 + h1*h2*e3")

WORD_MATRICES = ("A4", "D4", "A2aff", "A3aff", "A1aff", "D4aff", "H2", "H3", "H4", "G2")
SMALL_MATRICES = ("A2", "A3", "B3", "C3", "G2", "A1aff", "A2aff", "H2", "H3")
NORMAL_FORM_MATRICES = ("A3n", "B3n", "C3n")

# Each is an input error: the correct answer is exit code 2 and no stdout.
MALFORMED = (
    ("validate", "@missing_index_set"),
    ("validate", "@duplicate_labels"),
    ("validate", "@positive_entry"),
    ("validate", "@asymmetric_zero"),
    ("validate", "@not_json"),
    ("validate", "@absent"),
    ("word", "@A3", "s1 s9"),
    ("bruhat", "@A3", "[", "s1"),
    ("normal-form", "f["),
    ("normal-form", "g1*f2"),
)
MALFORMED_FILES = {
    "missing_index_set": {"matrix": [[2, -1], [-1, 2]]},
    "duplicate_labels": {"index_set": ["s1", "s1"], "matrix": [[2, -1], [-1, 2]]},
    "positive_entry": {"index_set": ["s1", "s2"], "matrix": [[2, 1], [-1, 2]]},
    "asymmetric_zero": {"index_set": ["s1", "s2"], "matrix": [[2, 0], [-1, 2]]},
    "not_json": "{",
}


def _text(word):
    return " ".join(word)


class _QueryMaker:
    """Fresh requests of each kind; new matrices are added to `files`."""

    def __init__(self, rng):
        self.rng = rng
        self.files = {name: {"index_set": m[0], "matrix": m[1]} for name, m in LIBRARY.items()}
        self.files.update(MALFORMED_FILES)
        self.count = 0
        self.calls = {}
        self.cohomologies = 0
        self.normal_forms = 0
        self.autos = list(AUTOMORPHISMS) * (QUERY_PER_KIND // len(AUTOMORPHISMS))
        rng.shuffle(self.autos)

    def _new_matrix(self, matrix, prefix):
        self.count += 1
        name = f"{prefix}{self.count}"
        self.files[name] = {"index_set": list(matrix[0]), "matrix": matrix[1]}
        return name

    def _pick(self, names, kind):
        """(name, matrix): a library matrix, or on every third call for this
        kind a new random rank 3-4 one, with name None until _name registers it."""
        self.calls[kind] = self.calls.get(kind, 0) + 1
        if self.calls[kind] % 3 == 0:
            return None, random_cartan(self.rng, self.rng.randint(3, 4))
        name = self.rng.choice(names)
        return name, (self.files[name]["index_set"], self.files[name]["matrix"])

    def _name(self, name, matrix):
        return name or self._new_matrix(matrix, "R")

    def _matrix(self, names, kind):
        return self._name(*self._pick(names, kind))

    def _labels(self, name):
        return self.files[name]["index_set"]

    def word(self):
        name = self._matrix(WORD_MATRICES, "word")
        word = random_word(self.rng, self._labels(name), self.rng.randint(10, 40))
        return ["word", f"@{name}", _text(word)]

    def bruhat(self):
        name = self._matrix(WORD_MATRICES, "bruhat")
        labels = self._labels(name)
        upper = random_word(self.rng, labels, self.rng.randint(4, 16))
        if self.rng.random() < 0.5:
            lower = tuple(s for s in upper if self.rng.random() < 0.5)
        else:
            lower = random_word(self.rng, labels, self.rng.randint(0, len(upper)))
        return ["bruhat", f"@{name}", _text(lower), _text(upper)]

    def equiv(self):
        rng = self.rng
        labels, rows = random_cartan(rng, rng.randint(2, 4))
        left = self._new_matrix((labels, rows), "Q")
        word = random_word(rng, labels, rng.randint(2, 8))
        choice = rng.randrange(3)
        if choice == 0:
            # the same pair under a permutation and renaming of the labels
            perm = list(range(len(labels)))
            rng.shuffle(perm)
            new = [f"t{k + 1}" for k in range(len(labels))]
            sigma = {labels[perm[k]]: new[k] for k in range(len(labels))}
            moved = [[rows[perm[i]][perm[j]] for j in range(len(labels))] for i in range(len(labels))]
            right = self._new_matrix((new, moved), "Q")
            right_word = tuple(sigma[s] for s in word)
        elif choice == 1:
            # the same matrix and another word of the same raw length
            right, right_word = left, random_word(rng, labels, len(word))
        else:
            # one nonzero off-diagonal entry changed, same word
            moved = [list(r) for r in rows]
            nonzero = [(i, j) for i in range(len(labels)) for j in range(len(labels))
                       if i != j and rows[i][j]]
            if nonzero:
                i, j = rng.choice(nonzero)
                moved[i][j] = -1 - (-moved[i][j]) % 3
            right, right_word = self._new_matrix((labels, moved), "Q"), word
        return ["equiv", "--left", f"@{left}:{_text(word)}", "--right", f"@{right}:{_text(right_word)}"]

    def cohomology(self):
        """A reduced word whose length cycles through 1-COHOMOLOGY_MAX_LENGTH,
        so each length gets an equal share."""
        length = 1 + self.cohomologies % COHOMOLOGY_MAX_LENGTH
        self.cohomologies += 1
        while True:
            name, matrix = self._pick(SMALL_MATRICES, "cohomology")
            word = random_reduced_word(self.rng, Model(*matrix), length)
            if word is not None:
                return ["cohomology", f"@{self._name(name, matrix)}", _text(word)]

    def normal_form(self):
        self.normal_forms += 1
        if self.normal_forms == 1:
            return ["normal-form", CRITERION_8[0]]
        rng = self.rng
        expr = "*".join(rng.choice("fhe") + rng.choice("123") for _ in range(rng.randint(2, 7)))
        if rng.random() < 0.3:
            expr = f"{rng.choice((2, 3))}*{expr}"
        if rng.random() < 0.4:
            return ["normal-form", expr, "--specialize", f"@{rng.choice(NORMAL_FORM_MATRICES)}"]
        return ["normal-form", expr]

    def automorphisms(self):
        name, graph, _ = self.autos.pop()
        return ["automorphisms", f"@{name}"] + (["--graph"] if graph else [])

    def validate(self):
        return ["validate", f"@{self._matrix(tuple(LIBRARY), 'validate')}"]

    def malformed(self):
        return list(self.rng.choice(MALFORMED))


def queries_inputs(seed):
    """(files, requests): a shuffled stream with fixed counts of each kind.

    Every second request of a kind repeats a random earlier one, so half of
    the stream revisits a working set.  Automorphism requests cycle through
    their pool, so they repeat by themselves.
    """
    rng = _rng("queries", seed)
    maker = _QueryMaker(rng)
    kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]
    rng.shuffle(kinds)
    fresh, made = {}, {}
    requests = []
    for kind in kinds:
        earlier = fresh.setdefault(kind, [])
        made[kind] = made.get(kind, 0) + 1
        if kind != "automorphisms" and made[kind] % 2 == 0:
            requests.append((kind, rng.choice(earlier)))
            continue
        argv = getattr(maker, kind.replace("-", "_"))()
        earlier.append(argv)
        requests.append((kind, argv))
    return maker.files, requests


_FILE_REF = re.compile(r"@([A-Za-z0-9_]+)")


def resolve(argv, path_of):
    """Replace each @name in argv by path_of(name)."""
    return [_FILE_REF.sub(lambda m: path_of(m.group(1)), a) for a in argv]


def _dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _model(files, name):
    data = files[name]
    return Model(data["index_set"], data["matrix"])


def _word_reference(files, argv):
    model = _model(files, argv[1][1:])
    word = tuple(argv[2].split())
    canonical = model.canonical_word(word)
    order = model.pos.__getitem__
    return _dumps({
        "canonical_word": list(canonical),
        "length": len(canonical),
        "support": sorted(set(canonical), key=order),
        "left_descents": model.left_descents(model.vector(canonical)),
        "right_descents": model.right_descents(canonical),
    })


def _bruhat_reference(files, argv):
    model = _model(files, argv[1][1:])
    lower, upper = (model.vector(tuple(a.split())) for a in argv[2:4])
    return _dumps({"leq": model.leq(lower, upper)})


def _cohomology_reference(files, argv):
    model = _model(files, argv[1][1:])
    size, products = model.chevalley(tuple(argv[2].split()))
    return _dumps({
        "interval_size": size,
        "products": {
            f"{s}|{_text(u)}": [{"word": list(v), "coeff": c} for v, c in terms]
            for (s, u), terms in products.items()
        },
    })


def _validate_reference(files, argv):
    data = files[argv[1][1:]]
    return _dumps({"valid": True, "cartan": {"index_set": data["index_set"], "matrix": data["matrix"]}})


def _equiv_problems(files, argv, out):
    payload = json.loads(out)
    (left, lw), (right, rw) = (a[1:].split(":", 1) for a in (argv[2], argv[4]))
    src, dst = _model(files, left), _model(files, right)
    lw, rw = tuple(lw.split()), tuple(rw.split())
    expected = find_witness(src, lw, dst, rw) is not None
    if payload["equivalent"] != expected:
        return f"equivalent={payload['equivalent']}, reference says {expected}"
    if not expected:
        return None if payload["witness"] is None else "witness given for inequivalent pair"
    witness = payload["witness"]
    if witness["source_word"] != list(src.canonical_word(lw)):
        return "source_word is not the canonical word"
    if witness["target_word"] != [witness["sigma"][s] for s in witness["source_word"]]:
        return "target_word is not the sigma-image of source_word"
    problems = witness_problems(src, lw, dst, rw, witness["sigma"])
    return problems[0] if problems else None


def _normal_form_problems(files, argv, out):
    payload = json.loads(out)
    expr = argv[1]
    tau = algebra.parse(expr)
    normal = algebra.normal_form(tau)
    if algebra.parse(payload["input"]) != tau:
        return "input echo differs"
    if algebra.parse(payload["normal_form"]) != normal:
        return "normal form differs from the reference"
    if expr == CRITERION_8[0] and normal != algebra.parse(CRITERION_8[1]):
        return "reference disagrees with the paper's criterion-8 vector"
    if "--specialize" in argv:
        data = files[argv[3][1:]]
        expected = algebra.specialize(normal, data["index_set"], data["matrix"])
        if algebra.parse(payload["specialized"]) != expected:
            return "specialization differs"
    elif "specialized" in payload:
        return "unexpected specialization"
    return None


def _automorphism_problems(files, argv, out):
    payload = json.loads(out)
    name, graph = argv[1][1:], "--graph" in argv
    expected = next(c for n, g, c in AUTOMORPHISMS if n == name and g == graph)
    model = _model(files, name)
    labels = list(model.labels)
    maps = payload["automorphisms"]
    if payload["count"] != expected or len(maps) != expected:
        return f"{payload['count']} automorphisms, expected {expected}"
    images = []
    for sigma in maps:
        if list(sigma) != labels or sorted(sigma.values()) != sorted(labels):
            return "not a bijection listed in label order"
        for s in labels:
            for t in labels:
                a, b = model.entry(s, t), model.entry(sigma[s], sigma[t])
                if (a != b) if not graph else ((a == 0) != (b == 0)):
                    return f"{sigma} does not preserve ({s},{t})"
        images.append([model.pos[sigma[s]] for s in labels])
    if images != sorted(images) or len({tuple(i) for i in images}) != len(images):
        return "automorphisms are not distinct and in lexicographic order"
    return None


_EXPECTED_BYTES = {
    "word": _word_reference,
    "bruhat": _bruhat_reference,
    "cohomology": _cohomology_reference,
    "validate": _validate_reference,
}
_SEMANTIC = {
    "equiv": _equiv_problems,
    "normal-form": _normal_form_problems,
    "automorphisms": _automorphism_problems,
}


def query_problem(files, kind, argv, out, cache):
    """Why one CLI result (exit code, stdout, escaped exception) is wrong, or None."""
    code, stdout, escaped = out
    if escaped:
        return f"escaped {escaped}"
    if kind == "malformed":
        if code != 2 or stdout:
            return f"exit {code} with {len(stdout)} bytes of output, expected exit 2"
        return None
    if code != 0:
        return f"exit {code}"
    key = (kind, tuple(argv))
    if kind in _EXPECTED_BYTES:
        if key not in cache:
            cache[key] = _EXPECTED_BYTES[kind](files, argv)
        return None if stdout == cache[key] else "output bytes differ from the reference"
    if (key, stdout) not in cache:
        try:
            problem = _SEMANTIC[kind](files, argv, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem is None and stdout != _dumps(json.loads(stdout)):
            problem = "output is not canonical JSON"
        cache[(key, stdout)] = problem
    return cache[(key, stdout)]


def check_queries(inputs, outputs, cache):
    """{op index: failure} for the CLI requests."""
    files, requests = inputs
    failures = {}
    for i, ((kind, argv), out) in enumerate(zip(requests, outputs)):
        problem = query_problem(files, kind, argv, out, cache)
        if problem:
            failures[i] = f"request {i} ({' '.join(argv)}): {problem}"
    return failures


GENERATORS = {"classes": classes_inputs, "roundtrip": roundtrip_inputs, "queries": queries_inputs}
CHECKERS = {"classes": check_classes, "roundtrip": check_roundtrip, "queries": check_queries}


def op_count(workload, inputs):
    return len(inputs[1]) if workload == "queries" else len(inputs)
