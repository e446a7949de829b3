"""A reference for the free-algebra normal form, independent of the package.

Elements are dicts {monomial: polynomial}.  A monomial is a tuple of
generators (kind, index) with kind in 'f', 'h', 'e'; a polynomial is a dict
{variable monomial: int}, where a variable monomial is a sorted tuple of
pairs (s, t) standing for a_st.  Zero terms are never stored.

The normal form moves every f left of all h and e symbols using

    e_s f_t = f_t e_s + delta_st h_s,    h_s f_t = f_t h_s - a_st f_t.

No left-hand side begins with f, so the rewriting has no critical pairs and
its normal form does not depend on the order of rewriting.  Here it is
computed by left-multiplying generators onto an already normal suffix.
"""

import re

ONE = {(): 1}


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
        if not out[m]:
            del out[m]
    return out


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def add(x, y):
    out = dict(x)
    for mono, poly in y.items():
        total = _poly_add(out.get(mono, {}), poly)
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


def mul(x, y):
    out = {}
    for m1, p1 in x.items():
        for m2, p2 in y.items():
            out = add(out, {m1 + m2: _poly_mul(p1, p2)})
    return out


def _push(g, mono):
    """g * mono for a normal monomial, as (normal monomial, polynomial) pairs."""
    kind, s = g
    if kind == "f" or not mono or mono[0][0] != "f":
        return [((g,) + mono, ONE)]
    head, rest = mono[0], mono[1:]
    t = head[1]
    out = [((head,) + m, p) for m, p in _push(g, rest)]
    if kind == "e" and s == t:
        out += _push(("h", s), rest)
    if kind == "h":
        out.append(((head,) + rest, {((s, t),): -1}))
    return out


def normal_form(x):
    out = {}
    for mono, poly in x.items():
        terms = {(): ONE}
        for g in reversed(mono):
            pushed = {}
            for m, p in terms.items():
                for m2, p2 in _push(g, m):
                    pushed = add(pushed, {m2: _poly_mul(p, p2)})
            terms = pushed
        out = add(out, {m: _poly_mul(p, poly) for m, p in terms.items()})
    return out


def specialize(x, labels, rows):
    pos = {s: i for i, s in enumerate(labels)}
    out = {}
    for mono, poly in x.items():
        total = 0
        for vars_, c in poly.items():
            for s, t in vars_:
                c *= rows[pos[s]][pos[t]]
            total += c
        if total:
            out = add(out, {mono: {(): total}})
    return out


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*()\[\],]))")


def parse(text):
    """Parse the package's documented text syntax into an element dict."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad text at {text[pos:]!r}")
        pos = m.end()
        num, name, op = m.groups()
        tokens.append(("num", int(num)) if num else ("name", name) if name else (op, op))
    parser = _Parser(tokens)
    out = parser.sum()
    if parser.i != len(tokens):
        raise ValueError("trailing input")
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind!r}, got {tok!r}")
        self.i += 1
        return tok[1]

    def sum(self):
        sign = -1 if self.peek() == "-" else 1
        if sign < 0:
            self.take()
        out = mul({(): {(): sign}}, self.product())
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            out = add(out, mul({(): {(): sign}}, self.product()))
        return out

    def product(self):
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = mul(out, self.factor())
        return out

    def factor(self):
        kind = self.peek()
        if kind == "num":
            return {(): {(): self.take()}}
        if kind == "(":
            self.take()
            out = self.sum()
            self.take(")")
            return out
        name = self.take("name")
        head, rest = name[0], name[1:]
        if head == "a":
            if rest:
                return {(): {((rest[0], rest[1]),): 1}}
            self.take("[")
            s = str(self.take())
            self.take(",")
            t = str(self.take())
            self.take("]")
            return {(): {((s, t),): 1}}
        if head not in "fhe":
            raise ValueError(f"unknown symbol {name!r}")
        if not rest:
            self.take("[")
            rest = str(self.take())
            self.take("]")
        return {((head, rest),): ONE}
