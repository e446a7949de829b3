import json
import random
import re

import pytest

from schubertisom import (
    CohomologyOracle,
    SchubertClass,
    chevalley_product,
    element_from_word,
    enumerate_elements,
    export_oracle,
    export_oracle_with_map,
    interval,
    reconstruct,
    simple_square_closed_form,
    support_closure,
)
from schubertisom import cohomology as cohomology_module
from schubertisom.cohomology import _fresh_ids, minimal_coset_reps
from schubertisom.errors import (
    MalformedOracleError,
    NotInIntervalError,
    UnknownLabelError,
)

from conftest import (A2, A2_AFFINE, A3, B2, B3, D4, G2, ORACLE_MATRICES, hirzebruch,
                      random_cartan, random_word, top_id, type_a)


def hirzebruch_interval(n):
    return interval(element_from_word(hirzebruch(n), ["s1", "s2"]))


class TestChevalley:
    @pytest.mark.parametrize("n", range(6))
    def test_hirzebruch_products(self, n):
        itv = hirzebruch_interval(n)
        A = itv.cartan
        s1 = element_from_word(A, ["s1"])
        s2 = element_from_word(A, ["s2"])
        w = itv.top
        # xi_{s1}^2 = 0, xi_{s1} xi_{s2} = xi_w, xi_{s2}^2 = n xi_w
        assert chevalley_product("s1", s1, itv).coeffs == {}
        assert chevalley_product("s1", s2, itv).coeffs == {w: 1}
        assert chevalley_product("s2", s1, itv).coeffs == {w: 1}
        assert chevalley_product("s2", s2, itv).coeffs == ({w: n} if n else {})

    def test_unit_acts_trivially(self, rng):
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 5))
            if w.is_identity():
                continue
            itv = interval(w)
            e = element_from_word(A, [])
            for s in sorted(w.canonical_word):
                F = chevalley_product(s, e, itv)
                assert F.coeffs == {element_from_word(A, [s]): 1}

    def test_a2_simple_square(self):
        itv = interval(element_from_word(A2, ["s1", "s2", "s1"]))
        F = chevalley_product("s1", element_from_word(A2, ["s1"]), itv)
        assert F.coeffs == {element_from_word(A2, ["s2", "s1"]): 1}

    def test_square_matches_closed_form(self, rng):
        for _ in range(20):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            if w.is_identity():
                continue
            itv = interval(w)
            for t in sorted(set(w.canonical_word)):
                st = element_from_word(A, [t])
                assert chevalley_product(t, st, itv) == simple_square_closed_form(
                    t, itv
                )

    def test_degree_two_support(self, rng):
        """Supp(xi_s xi_t) is inside {st, ts} for s != t."""
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            itv = interval(w)
            sup = sorted(set(w.canonical_word))
            for s in sup:
                for t in sup:
                    if s == t:
                        continue
                    F = chevalley_product(s, element_from_word(A, [t]), itv)
                    allowed = {
                        element_from_word(A, [s, t]),
                        element_from_word(A, [t, s]),
                    }
                    assert frozenset(F.coeffs) <= allowed

    def test_grading(self, rng):
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            itv = interval(w)
            for s in sorted(set(w.canonical_word)):
                for u in itv:
                    F = chevalley_product(s, u, itv)
                    for v, c in F.coeffs.items():
                        assert v.length == u.length + 1
                        assert c > 0

    def test_unknown_label(self):
        itv = interval(element_from_word(A3, ["s1", "s2"]))
        with pytest.raises(UnknownLabelError):
            chevalley_product("s3", element_from_word(A3, []), itv)
        with pytest.raises(UnknownLabelError):
            simple_square_closed_form("s3", itv)

    def test_not_in_interval(self):
        itv = interval(element_from_word(A3, ["s1", "s2"]))
        with pytest.raises(NotInIntervalError):
            chevalley_product("s1", element_from_word(A3, ["s3"]), itv)

    def test_class_outside_interval(self):
        itv = interval(element_from_word(A3, ["s1", "s2"]))
        with pytest.raises(NotInIntervalError):
            SchubertClass(itv, {element_from_word(A3, ["s2", "s1"]): 1})


class TestSupportClosure:
    def test_full_j_collapses(self):
        itv = interval(element_from_word(A2, ["s1", "s2", "s1"]))
        closure = support_closure({"s1", "s2"}, itv)
        assert closure == {element_from_word(A2, [])}

    def test_empty_j_saturates(self):
        itv = interval(element_from_word(A2, ["s1", "s2", "s1"]))
        assert support_closure(set(), itv) == frozenset(itv.elements)

    def test_a2_single_generator(self):
        itv = interval(element_from_word(A2, ["s1", "s2", "s1"]))
        closure = support_closure({"s2"}, itv)
        assert closure == {
            element_from_word(A2, []),
            element_from_word(A2, ["s1"]),
            element_from_word(A2, ["s2", "s1"]),
        }

    def test_matches_minimal_coset_reps(self, rng):
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            itv = interval(w)
            sup = set(w.canonical_word)
            for size in range(len(sup) + 1):
                for J in _subsets(sorted(sup), size):
                    assert support_closure(J, itv) == minimal_coset_reps(J, itv)

    @pytest.mark.parametrize("closure", [support_closure, minimal_coset_reps])
    @pytest.mark.parametrize("J, unknown", [(["zz"], "zz"), ("s1", "s"), (["s1", "s0"], "s0")])
    def test_unknown_label_raises(self, closure, J, unknown):
        """A label the matrix lacks is an error, not an empty set: a string
        J is its characters, so "s1" fails on "s"."""
        itv = interval(element_from_word(A3, ["s1", "s2", "s3", "s1"]))
        with pytest.raises(UnknownLabelError) as raised:
            closure(J, itv)
        assert raised.value.label == unknown

    @pytest.mark.parametrize("closure", [support_closure, minimal_coset_reps])
    def test_labels_outside_support_allowed(self, closure):
        itv = interval(element_from_word(A3, ["s1", "s2"]))
        assert closure(["s1", "s3"], itv) == closure(["s1"], itv)

    def test_matches_closure_of_product_supports(self, rng, monkeypatch):
        """The sweep over positions gives the closure of the Chevalley
        supports from the unit, and builds no class object."""
        cases = []
        for _ in range(10):
            A = random_cartan(rng, max_rank=4)
            itv = interval(element_from_word(A, random_word(rng, A, 7)))
            sup = sorted(set(itv.top.canonical_word))
            for size in range(len(sup) + 1):
                for J in _subsets(sup, size):
                    cases.append((J, itv, _product_closure(J, itv)))

        def fail(*args):
            raise AssertionError("support_closure built a class")

        monkeypatch.setattr(cohomology_module, "SchubertClass", fail)
        monkeypatch.setattr(cohomology_module, "chevalley_product", fail)
        for J, itv, expected in cases:
            assert support_closure(J, itv) == expected


def _product_closure(J, itv):
    """E^J by its definition: the least set holding e and the support of
    xi_s * xi_u for each of its members u and each s in S(w) \\ J."""
    allowed = set(itv.top.canonical_word) - set(J)
    closure = {element_from_word(itv.cartan, [])}
    frontier = list(closure)
    while frontier:
        u = frontier.pop()
        for s in allowed:
            for v in chevalley_product(s, u, itv).coeffs.keys() - closure:
                closure.add(v)
                frontier.append(v)
    return closure


def _subsets(items, size):
    import itertools

    return itertools.combinations(items, size)


class TestOracleExport:
    def test_single_reflection(self):
        w = element_from_word(A3, ["s2"])
        oracle = export_oracle(w)
        assert len(oracle.basis) == 2
        assert sorted(d for _, d in oracle.basis) == [0, 2]
        g = oracle.generators[0]
        assert oracle.products[(g, oracle.unit_id)] == ((g, 1),)
        assert oracle.products[(g, g)] == ()

    def test_validates(self, rng):
        """The export does not validate what it builds, so this does: every
        element to length 4 of A3, B3, G2 and affine A2, w0 of A4 and D4 (the
        longest elements of the benchmark's round trip) and random elements."""
        elements = [w for A in (A3, B3, G2, A2_AFFINE) for w in enumerate_elements(A, 4)]
        w0_a4 = element_from_word(type_a(4), "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1".split())
        w0_d4 = element_from_word(D4, ["s1", "s2", "s3", "s4"] * 3)
        assert (w0_a4.length, w0_d4.length) == (10, 12)
        elements += [w0_a4, w0_d4]
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            elements.append(element_from_word(A, random_word(rng, A, 5)))
        for seed, w in enumerate(elements):
            export_oracle(w, seed=seed).validate()

    def test_seed_determinism(self):
        w = element_from_word(A3, ["s1", "s2", "s3"])
        assert export_oracle(w, seed=7) == export_oracle(w, seed=7)
        assert export_oracle(w, seed=7) != export_oracle(w, seed=8)

    def test_naming_respects_structure(self):
        w = element_from_word(A2, ["s1", "s2", "s1"])
        oracle, naming = export_oracle_with_map(w, seed=3)
        assert len(naming) == 6
        degree = dict(oracle.basis)
        for v, bid in naming.items():
            assert degree[bid] == 2 * v.length
        assert top_id(oracle) == naming[w]

    def test_products_match_chevalley(self):
        """w0 of A2 and seeded intervals over the matrix-oracle matrices, the
        non-symmetric ones included: every product, keyed and listed in id
        order, is chevalley_product of its (generator, element)."""
        tops = [element_from_word(A2, ["s1", "s2", "s1"])]
        for name, A in ORACLE_MATRICES.items():
            rng = random.Random(name)
            tops += [element_from_word(A, random_word(rng, A, 9)) for _ in range(4)]
        for seed, w in enumerate(tops):
            itv = interval(w)
            oracle, naming = export_oracle_with_map(w, seed=seed)
            element_of = {bid: v for v, bid in naming.items()}
            label_of = {naming[v]: v.canonical_word[0] for v in itv if v.length == 1}
            assert list(oracle.products) == [(g, bid) for g in sorted(label_of)
                                             for bid in sorted(element_of)]
            for (gid, uid), terms in oracle.products.items():
                F = chevalley_product(label_of[gid], element_of[uid], itv)
                assert terms == tuple(sorted((naming[v], c) for v, c in F.coeffs.items()))

    def test_products_and_json_keys_sorted(self):
        """to_json keeps the oracle's order, so the export must insert its
        products sorted: w0 of A3, B2 and G2, and seeded rank-4 elements."""
        tops = [
            element_from_word(A3, "s1 s2 s1 s3 s2 s1".split()),
            element_from_word(B2, ["s1", "s2"] * 2),
            element_from_word(G2, ["s1", "s2"] * 3),
        ]
        rng = random.Random(4)
        for A in (M for M in ORACLE_MATRICES.values() if len(M) == 4):
            tops += [element_from_word(A, random_word(rng, A, 8)) for _ in range(3)]
        for seed, w in enumerate(tops):
            oracle = export_oracle(w, seed=seed)
            keys = list(oracle.to_json()["products"])
            assert list(oracle.products) == sorted(oracle.products)
            assert keys == sorted(keys) == [f"{g}|{bid}" for g, bid in oracle.products]

    def test_json_round_trip(self):
        w = element_from_word(A3, ["s1", "s2", "s3"])
        oracle = export_oracle(w, seed=1)
        data = json.loads(json.dumps(oracle.to_json()))
        again = CohomologyOracle.from_json(data)
        again.validate()
        assert again == oracle

    def test_to_json_shares_one_dict_per_term(self):
        w = element_from_word(A3, ["s1", "s2", "s3", "s1", "s2", "s1"])
        oracle = export_oracle(w, seed=2)
        data = oracle.to_json()
        terms = [t for ts in data["products"].values() for t in ts]
        distinct = {vc for ts in oracle.products.values() for vc in ts}
        assert len({id(t) for t in terms}) == len(distinct) < len(terms)
        assert CohomologyOracle.from_json(json.loads(json.dumps(data))) == oracle


class TestFromJsonShape:
    def _data(self):
        """The JSON of an A2 oracle of s1 s2 with generator ids a and b."""
        data = export_oracle(element_from_word(A2, ["s1", "s2"]), seed=0).to_json()
        rename = dict(zip(data["generators"], "ab"))
        name = lambda bid: rename.get(bid, bid)
        return {
            "basis": [{"id": name(b["id"]), "degree": b["degree"]} for b in data["basis"]],
            "generators": [name(g) for g in data["generators"]],
            "products": {
                "|".join(map(name, key.split("|"))): [
                    {"id": name(t["id"]), "coeff": t["coeff"]} for t in terms
                ]
                for key, terms in data["products"].items()
            },
        }

    @pytest.mark.parametrize("generators", ["ab", {"a": 0, "b": 1}], ids=["string", "object"])
    def test_generators_must_be_a_list(self, generators):
        """A string or object of the right ids once read as the generators."""
        data = self._data()
        assert CohomologyOracle.from_json(data).validate().generators == ("a", "b")
        data["generators"] = generators
        with pytest.raises(MalformedOracleError, match="generators must be a list"):
            CohomologyOracle.from_json(data)

    def test_product_key_needs_a_bar(self):
        data = self._data()
        data["products"]["ab"] = data["products"].pop("a|b")
        with pytest.raises(MalformedOracleError, match="bad product key 'ab'"):
            CohomologyOracle.from_json(data)


def _fresh_ids_by_choice(count, seed):
    """Reference: each hex digit of each id by its own rng.choice.  Returns
    the ids and how many ids were drawn, repeats included."""
    rng = random.Random(seed)
    ids = {}
    drawn = 0
    while len(ids) < count:
        ids["b" + "".join(rng.choice("0123456789abcdef") for _ in range(8))] = None
        drawn += 1
    return list(ids), drawn


class TestFreshIds:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 8, 24, 100, 192, 1000, 5040])
    def test_same_ids_as_digit_by_digit_draw(self, count):
        for seed in range(25):
            assert _fresh_ids(count, seed) == _fresh_ids_by_choice(count, seed)[0]

    def test_same_ids_after_a_repeated_id(self):
        """At 100,000 ids the reference draws a repeat on seed 1; the ids
        after it must still agree."""
        expected, drawn = _fresh_ids_by_choice(100_000, 1)
        assert drawn > 100_000
        assert _fresh_ids(100_000, 1) == expected


class TestOracleValidation:
    def _oracle(self):
        return export_oracle(element_from_word(A2, ["s1", "s2"]), seed=0)

    def test_duplicate_ids(self):
        o = self._oracle()
        bad = CohomologyOracle(
            o.basis + (o.basis[0],), o.generators, o.products
        )
        with pytest.raises(MalformedOracleError):
            bad.validate()

    def test_odd_degree(self):
        o = self._oracle()
        basis = tuple(
            (bid, 3 if d == 2 and bid == o.generators[0] else d)
            for bid, d in o.basis
        )
        with pytest.raises(MalformedOracleError):
            CohomologyOracle(basis, o.generators, o.products).validate()

    def test_missing_product(self):
        o = self._oracle()
        products = dict(o.products)
        products.pop(next(iter(products)))
        with pytest.raises(MalformedOracleError):
            CohomologyOracle(o.basis, o.generators, products).validate()

    def test_degree_jump(self):
        o = self._oracle()
        products = dict(o.products)
        g = o.generators[0]
        products[(g, top_id(o))] = ((o.unit_id, 1),)
        with pytest.raises(MalformedOracleError):
            CohomologyOracle(o.basis, o.generators, products).validate()

    def test_zero_coefficient(self):
        o = self._oracle()
        products = dict(o.products)
        g = o.generators[0]
        products[(g, g)] = products[(g, g)] + ((top_id(o), 0),)
        with pytest.raises(MalformedOracleError):
            CohomologyOracle(o.basis, o.generators, products).validate()

    def test_broken_unit(self):
        o = self._oracle()
        products = dict(o.products)
        g = o.generators[0]
        products[(g, o.unit_id)] = ((g, 2),)
        with pytest.raises(MalformedOracleError):
            CohomologyOracle(o.basis, o.generators, products).validate()

    def test_repeated_term_id(self):
        """A product naming one id twice is rejected, not read as its last term."""
        o = self._oracle()
        products = dict(o.products)
        key = next(k for k, terms in sorted(products.items()) if terms and k[1] != o.unit_id)
        vid, c = products[key][0]
        products[key] += ((vid, c + 1),)
        bad = CohomologyOracle(o.basis, o.generators, products)
        with pytest.raises(MalformedOracleError, match="repeats an id"):
            bad.validate()
        with pytest.raises(MalformedOracleError):
            reconstruct(bad)

    def test_repeated_generator_id(self):
        """A generator listed twice is named as such, not reported later as a
        recovered matrix that is not Cartan."""
        o = self._oracle()
        bad = CohomologyOracle(o.basis, o.generators + o.generators[:1], o.products)
        with pytest.raises(MalformedOracleError, match="generators repeat an id"):
            bad.validate()
        with pytest.raises(MalformedOracleError, match="generators repeat an id"):
            reconstruct(bad)

    @pytest.mark.parametrize(
        "degree, message", [(0, "exactly one degree-0"), (4, "exactly one top-degree")],
        ids=["unit", "top"],
    )
    def test_second_unit_or_top(self, degree, message):
        """A second id of degree 0, or of the top degree 4, with no products."""
        o = self._oracle()
        bad = CohomologyOracle(o.basis + (("z", degree),), o.generators, o.products)
        with pytest.raises(MalformedOracleError, match=message):
            bad.validate()


class TestValidationFallback:
    """validate walks each product's terms once and stops at the first term
    with any defect, so the message names the first defect in term order."""

    def _oracle(self):
        return export_oracle(
            element_from_word(A3, ["s1", "s2", "s3", "s1", "s2", "s1"]), seed=2
        )

    def _rejects(self, oracle, products, message):
        bad = CohomologyOracle(oracle.basis, oracle.generators, products)
        with pytest.raises(MalformedOracleError, match=f"^{re.escape(message)}$"):
            bad.validate()

    def _two_term_product(self, o):
        return next(k for k, terms in sorted(o.products.items()) if len(terms) >= 2)

    @pytest.mark.parametrize("repeat_first", [False, True])
    def test_unknown_id_and_repeated_id(self, repeat_first):
        o = self._oracle()
        key = self._two_term_product(o)
        products = dict(o.products)
        unknown, repeat = (("nope", 1),), products[key][:1]
        products[key] += repeat + unknown if repeat_first else unknown + repeat
        self._rejects(o, products, f"product ({key[0]}, {key[1]}) hits unknown id")

    @pytest.mark.parametrize("extra", ["generator", "basis id"])
    def test_missing_product_balanced_by_unknown_key(self, extra):
        o = self._oracle()
        products = dict(o.products)
        g, bid = self._two_term_product(o)
        del products[g, bid]
        products[("nope", bid) if extra == "generator" else (g, "nope")] = ()
        assert len(products) == len(o.products)
        self._rejects(o, products, f"missing product ({g}, {bid})")

    def test_wrong_degree_next_to_zero(self):
        o = self._oracle()
        g, bid = key = self._two_term_product(o)
        products = dict(o.products)
        wrong, zero = (o.unit_id, 1), (products[key][0][0], 0)
        products[key] = (wrong, zero)
        self._rejects(o, products, f"product ({g}, {bid}) does not raise degree by 2")
        products[key] = (zero, wrong)
        self._rejects(o, products, "zero coefficients must be omitted")

    def test_single_term_defects(self):
        o = self._oracle()
        g, bid = key = next(
            k for k, terms in sorted(o.products.items()) if len(terms) == 1 and k[1] != o.unit_id
        )
        products = dict(o.products)
        ((vid, _),) = products[key]
        products[key] = (("nope", 1),)
        self._rejects(o, products, f"product ({g}, {bid}) hits unknown id")
        products[key] = ((o.unit_id, 1),)
        self._rejects(o, products, f"product ({g}, {bid}) does not raise degree by 2")
        products[key] = ((vid, 0),)
        self._rejects(o, products, "zero coefficients must be omitted")

    TYPE_DEFECTS = {
        "1.5_coefficient": "expected a string id and an integer coeff",
        "True_coefficient": "expected a string id and an integer coeff",
        "2.0_degree": "expected a string id and an integer degree",
        "int_generator_id": "generator ids must be strings",
        "list_generator_id": "generator ids must be strings",
        "list_term_id": "expected a string id and an integer coeff",
    }

    @pytest.mark.parametrize("defect", list(TYPE_DEFECTS))
    def test_wrong_type_built_in_python(self, defect):
        """Oracles built in Python are refused as their JSON is, before any
        id is hashed; a coerced 1.5, True or 2.0 would otherwise pass."""
        o = self._oracle()
        basis, generators, products = list(o.basis), list(o.generators), dict(o.products)
        key = next(k for k, terms in sorted(products.items()) if terms and terms[0][1] == 1)
        (vid, c), *rest = products[key]
        if defect == "1.5_coefficient":
            products[key] = ((vid, 1.5), *rest)
        elif defect == "True_coefficient":
            products[key] = ((vid, True), *rest)
        elif defect == "list_term_id":
            products[key] = (([vid], c), *rest)
        elif defect == "2.0_degree":
            basis = [(bid, 2.0 if d == 2 else d) for bid, d in basis]
        else:
            generators[0] = 7 if defect == "int_generator_id" else [generators[0]]
        bad = CohomologyOracle(tuple(basis), tuple(generators), products)
        with pytest.raises(MalformedOracleError, match=f"^{self.TYPE_DEFECTS[defect]}$"):
            bad.validate()

    def test_half_integer_coefficients_do_not_reconstruct(self):
        """With c + 0.5 on every non-unit product, int() would truncate each
        coefficient back to c and rebuild the original matrix."""
        o = self._oracle()
        unit = o.unit_id
        products = {
            (g, bid): terms if bid == unit else tuple((v, c + 0.5) for v, c in terms)
            for (g, bid), terms in o.products.items()
        }
        bad = CohomologyOracle(o.basis, o.generators, products)
        with pytest.raises(MalformedOracleError, match="^expected a string id and an integer coeff$"):
            reconstruct(bad)


def _first_defect(oracle, products):
    """The message of the first defect, found term by term: the reference
    for validate's product loop."""
    degrees = dict(oracle.basis)
    for (g, bid), terms in products.items():
        for vid, coeff in terms:
            if vid not in degrees:
                return f"product ({g}, {bid}) hits unknown id"
            if degrees[vid] != degrees[bid] + 2:
                return f"product ({g}, {bid}) does not raise degree by 2"
            if coeff == 0:
                return "zero coefficients must be omitted"
        if len({vid for vid, _ in terms}) != len(terms):
            return f"product ({g}, {bid}) repeats an id"
    return None


class TestValidationDifferential:
    """Exported oracles with one or two defects, in one product or two and
    in every order, are rejected with the reference's message."""

    DEFECTS = ("unknown id", "wrong degree", "zero coefficient", "repeated id")

    @pytest.fixture(scope="class")
    def oracles(self):
        rng = random.Random(18)
        out = [export_oracle(element_from_word(A3, ["s1", "s2", "s3", "s1", "s2", "s1"]), seed=1)]
        while len(out) < 6:
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            if w.length >= 3:
                out.append(export_oracle(w, seed=rng.randrange(100)))
        return out

    def _corrupt(self, rng, oracle, terms, level, defect):
        """terms with one defect of the given kind, at a random place."""
        terms = list(terms)
        if defect == "unknown id":
            new = ("nope", rng.randint(1, 3))
        elif defect == "wrong degree":
            new = (rng.choice([b for b, d in oracle.basis if d != level]), 1)
        elif defect == "zero coefficient":
            if terms and rng.random() < 0.5:
                k = rng.randrange(len(terms))
                terms[k] = (terms[k][0], 0)
                return tuple(terms)
            ids = [b for b, d in oracle.basis if d == level]
            if not ids:
                return None
            new = (rng.choice(ids), 0)
        else:
            if not terms:
                return None
            vid, coeff = rng.choice(terms)
            new = (vid, coeff + rng.randint(0, 1))
        terms.insert(rng.randint(0, len(terms)), new)
        return tuple(terms)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_message_as_term_by_term_walk(self, oracles, seed):
        rng = random.Random(seed)
        checked = set()
        for _ in range(150):
            oracle = rng.choice(oracles)
            degrees = dict(oracle.basis)
            products = dict(oracle.products)
            keys = rng.sample(sorted(products), 2)
            defects = [rng.choice(self.DEFECTS) for _ in range(rng.randint(1, 2))]
            one_product = len(defects) == 1 or rng.random() < 0.5
            for defect, key in zip(defects, keys[:1] * 2 if one_product else keys):
                corrupted = self._corrupt(rng, oracle, products[key], degrees[key[1]] + 2, defect)
                if corrupted is not None:
                    products[key] = corrupted
            expected = _first_defect(oracle, products)
            if expected is None:
                continue
            checked.add(re.sub(r"^product \(.*?\) ", "", expected))
            bad = CohomologyOracle(oracle.basis, oracle.generators, products)
            with pytest.raises(MalformedOracleError) as err:
                bad.validate()
            assert str(err.value) == expected
        assert len(checked) == 4, checked
