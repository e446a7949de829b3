"""Free-algebra elements with polynomial coefficients, and their normal form.

Elements live in the free associative algebra on symbols f_s, h_s, e_s with
coefficients that are integer polynomials in commuting variables a_st.  The
normal form eta moves every f symbol to the left of all h and e symbols by
repeatedly rewriting the rightmost violating adjacent pair in each monomial:

    e_s f_t  ->  f_t e_s + delta_st h_s
    h_s f_t  ->  f_t h_s - a_st f_t

No Serre-type relations are imposed; this is rewriting in the free algebra.

Text syntax: symbols like ``f2``, ``h1``, ``e3`` (or ``f[s1]`` for longer
indices), variables like ``a12`` (or ``a[s1,s2]``), products joined by
``*``, terms joined by ``+``/``-``, polynomial coefficients in parentheses,
e.g. ``(-a12+3)*f2*e2``.  A coefficient is parsed by the same sum and product
rules, but holds only numbers and a-variables and no nested parentheses.
"""

import re
from collections import defaultdict

from .errors import RewriteCapExceededError, SchubertError

# Symbols `eta` may store, each addition charged its monomial's length, so
# the cap bounds the work: e1^k*f1^k needs 3,385,976 at k = 12, 7,972,093 at 13.
REWRITE_CAP = 5_000_000


class ParseError(SchubertError):
    pass


def _var_str(key):
    s, t = key
    if len(s) == 1 and len(t) == 1:
        return f"a{s}{t}"
    return f"a[{s},{t}]"


class _SparseSum:
    """A finite sum of monomials (tuples) with nonzero coefficients.

    Like monomials merge and zero terms drop.  A subclass says how two
    monomials join in a product (`_join`), how a scalar lifts (`_lift`) and,
    if it converts them, how coefficients are stored (`_coefficient`).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            coeff = self._coefficient(coeff)
            if coeff:
                self.terms[mono] = coeff

    @staticmethod
    def _coefficient(coeff):
        return coeff

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return type(self)(terms)

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            other = self._lift(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, coeff = self._join(m1, m2), c1 * c2
                terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return type(self)(terms)


def _signed_sum(parts, pad):
    """Join rendered terms with '+', or with '-' for a term that starts with one."""
    out = parts[0]
    for part in parts[1:]:
        sign, part = ("-", part[1:]) if part.startswith("-") else ("+", part)
        out += f"{pad}{sign}{pad}{part}"
    return out


class Poly(_SparseSum):
    """An integer polynomial in the commuting variables a_st.

    Stored as a map from monomials (sorted tuples of variable keys, with
    repetition) to nonzero integer coefficients.
    """

    __slots__ = ()

    @classmethod
    def const(cls, c):
        return cls({(): int(c)})

    _lift = const

    @staticmethod
    def _join(m1, m2):
        return tuple(sorted(m1 + m2))

    @classmethod
    def variable(cls, s, t):
        return cls({((s, t),): 1})

    def is_constant(self):
        return not self.terms or set(self.terms) == {()}

    def constant_value(self):
        assert self.is_constant()
        return self.terms.get((), 0)

    def variables(self):
        return {key for mono in self.terms for key in mono}

    def substitute(self, values):
        """Evaluate at integer values per variable key."""
        total = 0
        for mono, coeff in self.terms.items():
            for key in mono:
                coeff *= values[key]
            total += coeff
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(
            self.terms.items(), key=lambda mc: (-len(mc[0]), mc[0])
        ):
            factors = "*".join(_var_str(key) for key in mono)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = factors
            else:
                body = f"{abs(coeff)}*{factors}"
            parts.append(("-" if coeff < 0 else "") + body)
        return _signed_sum(parts, "")

    def __repr__(self):
        return f"Poly({self})"


class FreeAlgebraElement(_SparseSum):
    """A finite sum of noncommutative monomials with Poly coefficients.

    Monomials are tuples of symbols (kind, index) with kind one of
    'f', 'h', 'e'.  Like monomials are always merged and zero terms dropped.
    """

    __slots__ = ()

    @staticmethod
    def _coefficient(coeff):
        return coeff if isinstance(coeff, Poly) else Poly.const(coeff)

    @staticmethod
    def _join(m1, m2):
        return m1 + m2

    @classmethod
    def generator(cls, kind, index):
        assert kind in "fhe"
        return cls({((kind, str(index)),): Poly.const(1)})

    @classmethod
    def scalar(cls, poly):
        return cls({(): poly})

    _lift = scalar

    def __rmul__(self, other):
        return FreeAlgebraElement.scalar(other) * self

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, poly in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            factors = "*".join(
                f"{kind}{idx}" if _plain_index(idx) else f"{kind}[{idx}]"
                for kind, idx in mono
            )
            if not mono:
                parts.append(str(poly) if poly.is_constant() else f"({poly})")
            elif poly.is_constant():
                c = poly.constant_value()
                parts.append({1: "", -1: "-"}.get(c, f"{c}*") + factors)
            else:
                parts.append(f"({poly})*{factors}")
        return _signed_sum(parts, " ")

    def __repr__(self):
        return f"FreeAlgebraElement({self})"


_plain_index = re.compile(r"[A-Za-z0-9_]+").fullmatch  # e1, not e[s 1]


def _violation(mono):
    """Index of the rightmost adjacent pair (e or h) immediately left of f."""
    for i in range(len(mono) - 2, -1, -1):
        if mono[i][0] in ("e", "h") and mono[i + 1][0] == "f":
            return i
    return None


def _inversions(mono):
    """The number of (e or h, f) pairs in that order; 0 exactly in normal form."""
    count = raised = 0
    for kind, _ in mono:
        if kind == "f":
            count += raised
        else:
            raised += 1
    return count


def eta(tau):
    """The normal form: rewrite each monomial's rightmost violating pair.

    Every rewrite lowers the count of `_inversions`, so the monomials are
    taken in decreasing order of that count: each is rewritten once, after
    every term that rewrites into it has been merged with it.  The rules
    have no overlapping left sides, so by Bergman's diamond lemma the order
    does not change the result.
    """
    pending = defaultdict(dict)  # inversion count -> {monomial: coefficient}
    stored = 0

    def add(mono, poly):
        nonlocal stored
        stored += len(mono)
        if stored > REWRITE_CAP:
            raise RewriteCapExceededError(REWRITE_CAP)
        terms = pending[_inversions(mono)]
        terms[mono] = terms[mono] + poly if mono in terms else poly

    for mono, poly in tau.terms.items():
        add(mono, poly)
    for count in range(max(pending, default=0), 0, -1):
        for mono, poly in pending.pop(count, {}).items():
            if not poly:
                continue
            i = _violation(mono)
            (kind, s), (_, t) = mono[i], mono[i + 1]
            add(mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2:], poly)
            if kind == "h":  # h_s f_t -> f_t h_s - a_st f_t
                add(mono[:i] + (("f", t),) + mono[i + 2:], -(poly * Poly.variable(s, t)))
            elif s == t:  # e_s f_s -> f_s e_s + h_s
                add(mono[:i] + (("h", s),) + mono[i + 2:], poly)
    return FreeAlgebraElement(pending[0])


def specialize(tau, A):
    """Substitute a_st -> A[s][t] (so a_ss -> 2), merging like terms."""
    values = {}
    for mono, poly in tau.terms.items():
        for s, t in poly.variables():
            if (s, t) not in values:  # an unknown label raises, s before t
                values[(s, t)] = A.entry(s, t)
    return FreeAlgebraElement(
        {mono: Poly.const(poly.substitute(values)) for mono, poly in tau.terms.items()}
    )


def depends_on(tau, s, t):
    """Whether the variable a_st occurs in any coefficient of tau."""
    return any((s, t) in poly.variables() for poly in tau.terms.values())


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*()\[\],]))"
)


def _tokenize(text):
    """(kind, value) pairs: ("num", int), ("name", str), or an operator as both."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        pos = m.end()
        kind, value = m.lastgroup, m.group(m.lastgroup)
        if kind == "num":
            try:
                value = int(value)
            except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
                raise ParseError(f"number too long to read: {exc}") from None
        tokens.append((value if kind == "op" else kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        """The next token's value, once its kind is checked against `kind`."""
        if kind is not None and self.peek() != kind:
            raise ParseError(f"expected {kind!r} at token {self.pos}")
        if self.pos == len(self.tokens):
            raise ParseError("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def bracket(self, count):
        """The labels of ``[s]`` (count 1) or ``[s,t]`` (count 2), as text."""
        self.take("[")
        labels = []
        for close in ",]"[2 - count:]:
            kind = self.peek()
            labels.append(str(self.take()))
            if kind not in ("name", "num"):
                raise ParseError("expected an index label")
            self.take(close)
        return labels

    def parse_sum(self, coefficient=False):
        """Signed products joined by + and -.  In a coefficient (inside
        parentheses) only numbers and a-variables may appear."""
        terms, op = {}, "+"
        if self.peek() == "-":
            op = self.take()
        while True:
            term = self.parse_product(coefficient)
            for mono, coeff in (term if op == "+" else -term).terms.items():
                terms[mono] = terms[mono] + coeff if mono in terms else coeff
            if self.peek() not in ("+", "-"):
                return FreeAlgebraElement(terms)
            op = self.take()

    def parse_product(self, coefficient):
        """Factors joined by *, multiplied pairwise in order, so that no
        monomial is recopied once per factor."""
        factors = [self.parse_factor(coefficient)]
        while self.peek() == "*":
            self.take()
            factors.append(self.parse_factor(coefficient))
        while len(factors) > 1:
            factors = [a * b for a, b in zip(factors[::2], factors[1::2] + [1])]
        return factors[0]

    def parse_factor(self, coefficient):
        kind = self.peek()
        if kind == "num":
            return FreeAlgebraElement.scalar(self.take())
        if kind == "(" and not coefficient:
            self.take()
            out = self.parse_sum(coefficient=True)
            self.take(")")
            return out
        if kind != "name":
            raise ParseError(f"unexpected token at position {self.pos}")
        name = self.take()
        head, rest = name[0], name[1:]
        if head == "a":
            if len(rest) not in (0, 2):
                raise ParseError(f"ambiguous variable index {rest!r}; use a[s,t] for long labels")
            return FreeAlgebraElement.scalar(Poly.variable(*(rest or self.bracket(2))))
        if coefficient:
            raise ParseError(f"only a-variables allowed in coefficients: {name!r}")
        if head not in "fhe":
            raise ParseError(f"unknown symbol {name!r}")
        return FreeAlgebraElement.generator(head, rest or self.bracket(1)[0])


def parse(text):
    """Parse the text syntax into a FreeAlgebraElement."""
    parser = _Parser(_tokenize(text))
    out = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ParseError("trailing input")
    return out
