import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from schubertisom import FreeAlgebraElement, Poly, depends_on, eta, freealg, specialize
from schubertisom.errors import RewriteCapExceededError, UnknownLabelError
from schubertisom.freealg import ParseError, parse, _violation

from conftest import A2, A3, C3, fresh_python


F = lambda i: FreeAlgebraElement.generator("f", i)
H = lambda i: FreeAlgebraElement.generator("h", i)
E = lambda i: FreeAlgebraElement.generator("e", i)
A = Poly.variable


def random_monomial(rng, max_len=5, indices=("1", "2", "3")):
    return tuple(
        (rng.choice("fhe"), rng.choice(indices))
        for _ in range(rng.randint(0, max_len))
    )


def random_element(rng, n_terms=3, **kw):
    terms = {}
    for _ in range(n_terms):
        mono = random_monomial(rng, **kw)
        terms[mono] = terms.get(mono, Poly()) + Poly.const(rng.randint(-3, 3))
    return FreeAlgebraElement(terms)


def eta_random_strategy(tau, rng):
    """Independent oracle: rewrite a *randomly chosen* violating pair each
    step instead of the rightmost one.  Any strategy must terminate at the
    same normal form."""
    result = {}
    work = list(tau.terms.items())
    while work:
        mono, poly = work.pop()
        spots = [
            i
            for i in range(len(mono) - 1)
            if mono[i][0] in ("e", "h") and mono[i + 1][0] == "f"
        ]
        if not spots:
            result[mono] = result.get(mono, Poly()) + poly
            continue
        i = rng.choice(spots)
        (kind, s), (_, t) = mono[i], mono[i + 1]
        swapped = mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2 :]
        work.append((swapped, poly))
        if kind == "e" and s == t:
            work.append((mono[:i] + (("h", s),) + mono[i + 2 :], poly))
        elif kind == "h":
            work.append(
                (mono[:i] + (("f", t),) + mono[i + 2 :], -(poly * A(s, t)))
            )
    return FreeAlgebraElement(result)


class TestPoly:
    def test_arithmetic(self):
        p = A("1", "2") * 2 + Poly.const(3)
        q = p - A("1", "2")
        assert q == A("1", "2") + Poly.const(3)
        assert not p * Poly.const(0)

    def test_commutative_product(self):
        assert A("1", "2") * A("2", "1") == A("2", "1") * A("1", "2")

    def test_substitute(self):
        p = A("1", "2") * A("1", "2") - Poly.const(4)
        assert p.substitute({("1", "2"): -3}) == 5

    def test_str(self):
        assert str(A("1", "2") - Poly.const(1)) == "a12-1"
        assert str(Poly()) == "0"
        assert str(-(A("1", "2") * 2)) == "-2*a12"

    def test_long_labels(self):
        assert str(A("s1", "s2")) == "a[s1,s2]"

    def test_repr(self):
        assert repr(A("1", "2") - Poly.const(1)) == "Poly(a12-1)"
        assert repr(Poly()) == "Poly(0)"


_ETA_CHILD = """
import json, sys, time
from schubertisom.errors import SchubertError
from schubertisom.freealg import eta, parse
text = sys.stdin.read()
start = time.perf_counter()
tau = parse(text)
parsed = time.perf_counter()
try:
    result = len(eta(tau).terms)
except SchubertError as exc:
    result = f"{type(exc).__name__}: {exc}"
print(json.dumps([result, parsed - start, time.perf_counter() - parsed]))
"""


def _eta_in_child(text, timeout):
    """Parse text and take its normal form in a child interpreter, which is
    stopped after timeout seconds: (term count or typed error, seconds to
    parse, seconds in eta), each timed inside the child."""
    return json.loads(fresh_python(["-c", _ETA_CHILD], timeout, stdin=text))


def _power_pair(k, s="1", t="1"):
    """The text of e_s^k * f_t^k."""
    return "*".join([f"e{s}"] * k + [f"f{t}"] * k)


class TestEta:
    def test_worked_vector(self):
        tau = H("1") * E("2") * E("3") * F("2")
        out = eta(tau)
        expected = (
            F("2") * H("1") * E("2") * E("3")
            - FreeAlgebraElement.scalar(A("1", "2")) * F("2") * E("2") * E("3")
            + H("1") * H("2") * E("3")
        )
        assert out == expected
        assert eta(out) == out

    def test_normal_input_fixed(self):
        tau = F("1") * F("2") * H("1") * E("2") - 3 * E("1") * E("1")
        assert eta(tau) == tau

    def test_e_f_same_index(self):
        assert eta(E("1") * F("1")) == F("1") * E("1") + H("1")

    def test_e_f_distinct(self):
        assert eta(E("1") * F("2")) == F("2") * E("1")

    def test_cancelling_term_is_skipped(self):
        """e1 e1 f1 rewrites to e1 f1 e1 + e1 h1, and its e1 f1 e1 cancels the
        input's, so that monomial is dropped before it is rewritten."""
        assert eta(parse("e1*e1*f1 - e1*f1*e1")) == parse("e1*h1")

    def test_h_f_rule(self):
        out = eta(H("1") * F("2"))
        expected = F("2") * H("1") - FreeAlgebraElement.scalar(A("1", "2")) * F("2")
        assert out == expected

    def test_h_f_same_index_uses_a_ss(self):
        out = eta(H("1") * F("1"))
        assert out == F("1") * H("1") - FreeAlgebraElement.scalar(A("1", "1")) * F("1")

    def test_linearity(self, rng):
        for _ in range(20):
            x = random_element(rng)
            y = random_element(rng)
            assert eta(x + y) == eta(x) + eta(y)

    def test_idempotent(self, rng):
        for _ in range(20):
            x = random_element(rng)
            assert eta(eta(x)) == eta(x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_strategy_independent(self, seed):
        r = random.Random(seed)
        tau = random_element(r, n_terms=r.randint(1, 3), max_len=7)
        tau = tau * FreeAlgebraElement.scalar(Poly.const(r.randint(1, 3)) - A("1", "2"))
        assert eta(tau) == eta_random_strategy(tau, r)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_e_power_times_f_power_term_count(self, k):
        tau = parse(_power_pair(k))
        assert len(eta(tau).terms) == 2 ** (k + 1) - 2

    def test_no_rewrite_path_blowup(self):
        """e1^7 f1^7 has 254 terms in normal form but far more rewrite paths:
        rewriting path by path took 271 s.  So it runs in a child
        interpreter, timed inside it, and is stopped 20 s past its bound."""
        terms, _, elapsed = _eta_in_child(_power_pair(7), timeout=21)
        assert terms == 2 ** 8 - 2
        assert elapsed < 1, f"took {elapsed:.1f}s"

    def test_rewrite_cap_stops_large_inputs(self):
        """e1^13 f1^13 stores 7,972,093 monomial symbols, past the cap: it
        fails typed after the first 5,000,000 (about 2 s) instead of running
        to the end.  It runs in a child interpreter, as above."""
        error, _, elapsed = _eta_in_child(_power_pair(13), timeout=28)
        cap = freealg.REWRITE_CAP
        assert error == (
            f"RewriteCapExceededError: normal form needs more than {cap} monomial symbols "
            f"(rewrite cap {cap})"
        )
        assert elapsed < 8, f"took {elapsed:.1f}s"

    def test_rewrite_cap_bounds_long_monomials(self):
        """e1^500 f2^500 is one 1,000-symbol monomial, and each rewrite
        stores another.  When the cap counted additions, not their length,
        it took 40 s to fail; charged by length it fails typed within 5 s."""
        error, _, elapsed = _eta_in_child(_power_pair(500, "1", "2"), timeout=25)
        assert error.startswith("RewriteCapExceededError: ")
        assert elapsed < 5, f"took {elapsed:.1f}s"

    def test_rewrite_cap_counts_every_addition(self, monkeypatch):
        """e1^10 f1^10 stores 582,426 symbols, each addition charged its
        monomial's length, the input's 20 included."""
        tau = parse(_power_pair(10))
        monkeypatch.setattr(freealg, "REWRITE_CAP", 582_425)
        with pytest.raises(RewriteCapExceededError, match="rewrite cap 582425"):
            eta(tau)
        monkeypatch.setattr(freealg, "REWRITE_CAP", 582_426)
        assert len(eta(tau).terms) == 2 ** 11 - 2

    def test_violation_detector(self):
        assert _violation((("f", "1"), ("h", "1"))) is None
        assert _violation((("h", "1"), ("f", "2"))) == 0
        assert _violation((("e", "1"), ("f", "1"), ("h", "2"), ("f", "1"))) == 2


class TestSpecialize:
    def test_variable_to_entry(self):
        tau = FreeAlgebraElement.scalar(A("s1", "s2")) * F("s2")
        out = specialize(tau, A2)
        assert out == -F("s2")

    def test_diagonal_is_two(self):
        tau = FreeAlgebraElement.scalar(A("s1", "s1"))
        assert specialize(tau, A2) == FreeAlgebraElement.scalar(2)

    def test_worked_vector_in_a3(self):
        tau = H("s1") * E("s2") * E("s3") * F("s2")
        out = specialize(eta(tau), A3)
        expected = (
            F("s2") * H("s1") * E("s2") * E("s3")
            + F("s2") * E("s2") * E("s3")
            + H("s1") * H("s2") * E("s3")
        )
        assert out == expected

    def test_distinguishes_matrices(self):
        tau = eta(H("s3") * F("s2"))
        in_a3 = specialize(tau, A3)
        in_c3 = specialize(tau, C3)
        assert in_a3 == F("s2") * H("s3") + F("s2")
        assert in_c3 == F("s2") * H("s3") + 2 * F("s2")

    def test_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            specialize(FreeAlgebraElement.scalar(A("s9", "s1")), A2)

    @pytest.mark.parametrize("text, label", [("a[s1,s9]", "s9"), ("a[s8,s9]", "s8"),
                                             ("a[s9,s9]", "s9")])
    def test_unknown_label_named(self, text, label):
        """The first unknown label of a_st is named, s before t."""
        with pytest.raises(UnknownLabelError) as raised:
            specialize(parse(text) * F("s1"), A2)
        assert raised.value.label == label
        assert str(raised.value) == f"unknown generator label {label!r}"

    def test_specialization_commutes_with_eta(self, rng):
        """Specializing then rewriting numerically equals eta then specializing."""
        labels = ("s1", "s2", "s3")
        for _ in range(20):
            tau = random_element(rng, indices=labels)
            lhs = specialize(eta(tau), A3)
            # numeric rewriting: same rules with a_st already evaluated
            values = {
                (s, t): (2 if s == t else A3.entry(s, t))
                for s in labels
                for t in labels
            }
            result = {}
            work = [
                (mono, poly.substitute({})) for mono, poly in tau.terms.items()
            ]
            while work:
                mono, coeff = work.pop()
                i = _violation(mono)
                if i is None:
                    result[mono] = result.get(mono, 0) + coeff
                    continue
                (kind, s), (_, t) = mono[i], mono[i + 1]
                swapped = mono[:i] + (mono[i + 1], mono[i]) + mono[i + 2 :]
                work.append((swapped, coeff))
                if kind == "e" and s == t:
                    work.append((mono[:i] + (("h", s),) + mono[i + 2 :], coeff))
                elif kind == "h":
                    work.append(
                        (
                            mono[:i] + (("f", t),) + mono[i + 2 :],
                            -coeff * values[(s, t)],
                        )
                    )
            rhs = FreeAlgebraElement(
                {m: Poly.const(c) for m, c in result.items()}
            )
            assert lhs == rhs


class TestDependence:
    def test_positive(self):
        assert depends_on(eta(H("1") * F("2")), "1", "2")

    def test_negative(self):
        assert not depends_on(eta(E("1") * F("1")), "1", "2")

    def test_shielded_f_independent(self, rng):
        """If a_st never occurs and every f_t sits left of every h_s and f_s
        in each monomial, the normal form stays independent of a_st."""
        s, t = "1", "2"
        checked = 0
        for _ in range(400):
            mono = random_monomial(rng, max_len=6)
            positions_ft = [i for i, g in enumerate(mono) if g == ("f", t)]
            positions_s = [
                i for i, g in enumerate(mono) if g in (("h", s), ("f", s))
            ]
            if positions_ft and positions_s:
                if max(positions_ft) > min(positions_s):
                    continue
            tau = FreeAlgebraElement({mono: Poly.const(1)})
            assert not depends_on(tau, s, t)
            assert not depends_on(eta(tau), s, t)
            checked += 1
        assert checked > 100


class TestParse:
    DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit")
    @pytest.mark.parametrize("template", ["{}", "f[{}]", "a[s1,{}]*f1", "(a12+{})*f1"])
    def test_number_too_long_to_read(self, template):
        """A number of more digits than Python converts is a ParseError that
        names the limit, not a ValueError."""
        with pytest.raises(ParseError, match=f"limit \\({self.DIGIT_LIMIT}"):
            parse(template.format("9" * (self.DIGIT_LIMIT + 1)))

    def test_round_trip(self):
        tau = eta(H("1") * E("2") * E("3") * F("2"))
        assert parse(str(tau)) == tau

    def test_long_label_round_trip(self):
        tau = eta(H("s1") * F("s2"))
        assert parse(str(tau)) == tau

    def test_repr(self):
        assert repr(eta(H("1") * F("2"))) == "FreeAlgebraElement((-a12)*f2 + f2*h1)"
        assert repr(FreeAlgebraElement({})) == "FreeAlgebraElement(0)"

    def test_basic_forms(self):
        assert parse("f2*e2") == F("2") * E("2")
        assert parse("-h1") == -H("1")
        assert parse("(a12+1)*f2") == FreeAlgebraElement.scalar(
            A("1", "2") + Poly.const(1)
        ) * F("2")
        assert parse("0") == FreeAlgebraElement()
        assert parse("3") == FreeAlgebraElement.scalar(3)
        assert parse("(-a12+3)*f2*e2") == FreeAlgebraElement.scalar(
            Poly.const(3) - A("1", "2")
        ) * F("2") * E("2")
        assert parse("(2*a12*a21-a11)") == FreeAlgebraElement.scalar(
            A("1", "2") * A("2", "1") * 2 - A("1", "1")
        )
        assert parse("(a12-a12)*f1") == FreeAlgebraElement()
        assert parse("f1 ") == parse(" f1") == parse("f1")

    def test_bracket_syntax(self):
        assert parse("f[s1]*h[s2]") == F("s1") * H("s2")
        assert parse("f[12]*e[01]") == F("12") * E("1")
        assert parse("(a[s1,s2])*e[s1]") == (
            FreeAlgebraElement.scalar(A("s1", "s2")) * E("s1")
        )

    def test_errors(self):
        for text in (
            "g1", "f2**e1", "(a12", "a123", "f2 +", "e[]",
            # a coefficient holds only numbers and a-variables, unnested
            "((a12))*f1", "(f2)*e1", "(a12*f2)", "(h[s1])", "(3*(a12))", "()*f1",
        ):
            with pytest.raises(ParseError):
                parse(text)
        with pytest.raises(ParseError, match="unexpected character"):
            parse("f1 $ f2")

    @pytest.mark.parametrize("text", ["f[+]", "f[(]", "e[]]", "h[,]", "e[+]*f[+]"])
    def test_bracket_index_must_be_a_label(self, text):
        """A bracketed generator index is a name or a number, as in a[s,t];
        an operator there once parsed as the index None."""
        with pytest.raises(ParseError, match="expected an index label"):
            parse(text)

    def test_random_round_trip(self, rng):
        for _ in range(30):
            tau = random_element(rng)
            assert parse(str(tau)) == tau

    @pytest.mark.parametrize(
        "text, terms",
        [("+".join(f"f{i}" for i in range(20_000)), 20_000), ("*".join(["f1"] * 20_000), 1)],
        ids=["sum", "product"],
    )
    def test_long_input_parses_in_linear_time(self, text, terms):
        """20,000 terms or factors: rebuilding the sum at each + took 64 s,
        and recopying the monomial at each * took 10.9 s.  Timed in a child
        interpreter, as the rewrite tests are."""
        found, elapsed, _ = _eta_in_child(text, timeout=22)
        assert found == terms
        assert elapsed < 2, f"took {elapsed:.1f}s"
