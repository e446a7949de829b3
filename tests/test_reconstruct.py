import gc
import importlib
import json
import random
import re
import time

import pytest

from schubertisom import (
    CohomologyOracle,
    check_equivalence,
    chevalley_product,
    element_from_word,
    export_oracle,
    export_oracle_with_map,
    interval,
    isom_classes,
    reconstruct,
    recover_cartan,
    validate_cartan,
)
from schubertisom.errors import MalformedOracleError, SchubertError
from schubertisom.reconstruct import descent_sets, reduced_word_sets
from schubertisom.cli import main

from conftest import (
    A2,
    A3,
    B2,
    D4,
    random_cartan,
    random_word,
    reduced_words,
    support_closure,
    top_id,
    type_a,
)

from test_cohomology import hirzebruch
from test_weyl import ORACLE_MATRICES, _non_symmetrizable_rank_4


def _inverse_naming(naming):
    return {bid: v for v, bid in naming.items()}


class TestRecoverCartan:
    @pytest.mark.parametrize("n", range(6))
    def test_hirzebruch(self, n):
        w = element_from_word(hirzebruch(n), ["s1", "s2"])
        oracle, naming = export_oracle_with_map(w, seed=n)
        cartan, free = recover_cartan(oracle)
        z1 = naming[element_from_word(hirzebruch(n), ["s1"])]
        z2 = naming[element_from_word(hirzebruch(n), ["s2"])]
        assert cartan.entry(z1, z1) == 2
        assert cartan.entry(z1, z2) == (-n if n else 0)
        assert cartan.entry(z2, z1) == (-1 if n else 0)
        if n:
            assert free == {(z2, z1)}
        else:
            assert free == frozenset()

    def test_commuting_pair_zero(self):
        w = element_from_word(A3, ["s1", "s3"])
        oracle, naming = export_oracle_with_map(w)
        cartan, free = recover_cartan(oracle)
        z1 = naming[element_from_word(A3, ["s1"])]
        z3 = naming[element_from_word(A3, ["s3"])]
        assert cartan.entry(z1, z3) == 0
        assert cartan.entry(z3, z1) == 0
        assert free == frozenset()

    def test_one_sided_free_entry(self):
        w = element_from_word(A3, ["s2", "s1"])
        oracle, naming = export_oracle_with_map(w)
        cartan, free = recover_cartan(oracle)
        z1 = naming[element_from_word(A3, ["s1"])]
        z2 = naming[element_from_word(A3, ["s2"])]
        assert cartan.entry(z2, z1) == -1  # forced by the square of zeta_1
        assert cartan.entry(z1, z2) == -1  # free choice, fixed at -1
        assert free == {(z1, z2)}

    def test_invalid_matrix_rejected(self):
        oracle = export_oracle(
            element_from_word(hirzebruch(2), ["s1", "s2"]), seed=1
        )
        products = dict(oracle.products)
        g = next(
            gid for (gid, bid) in products if gid == bid and products[(gid, bid)]
        )
        products[(g, g)] = tuple((vid, -c) for vid, c in products[(g, g)])
        bad = CohomologyOracle(oracle.basis, oracle.generators, products)
        with pytest.raises(MalformedOracleError):
            recover_cartan(bad)

    def test_ambiguous_support_overlap(self):
        oracle = _ambiguous_overlap()
        assert oracle.validate() is oracle
        message = re.escape("ambiguous support overlap for generators (a, b)")
        for reader in (recover_cartan, reconstruct):
            with pytest.raises(MalformedOracleError, match=message):
                reader(oracle)


def _ambiguous_overlap():
    """An oracle that passes `validate` but whose generators a and b have
    a^2, b^2, ab and ba all equal to xi_x + xi_y, and a x, b x, a y, b y
    all equal to xi_t: the overlap of supp(ab) with supp(b^2) has two ids."""
    both, top = (("x", 1), ("y", 1)), (("t", 1),)
    products = {("a", "u"): (("a", 1),), ("b", "u"): (("b", 1),)}
    for g in "ab":
        products.update({(g, "a"): both, (g, "b"): both, (g, "t"): ()})
        products.update({(g, "x"): top, (g, "y"): top})
    basis = (("u", 0), ("a", 2), ("b", 2), ("x", 4), ("y", 4), ("t", 6))
    return CohomologyOracle(basis, ("a", "b"), products)


def _corrupted_a2(kind):
    """A valid oracle of s1 s2 in A2 with one defect, and the message that
    names it."""
    oracle = export_oracle(element_from_word(A2, ["s1", "s2"]), seed=2)
    products = dict(oracle.products)
    g, h = oracle.generators
    unit = oracle.unit_id
    if kind == "unknown generator":
        products["nope", unit] = ((g, 1),)
        message = f"product (nope, {unit}) uses unknown ids"
    elif kind == "unknown term":
        products[g, unit] = (("nope", 1),)
        message = f"product ({g}, {unit}) hits unknown id"
    else:
        del products[h, h]
        message = f"missing product ({h}, {h})"
    return CohomologyOracle(oracle.basis, oracle.generators, products), message


class TestReadersValidate:
    """Every public reader of an oracle validates it first, so a corrupted
    table fails as MalformedOracleError naming its defect, never as a
    KeyError or as a misleading later check."""

    @pytest.mark.parametrize("kind", ["unknown generator", "unknown term", "missing square"])
    def test_corrupted_a2_oracle(self, kind):
        bad, message = _corrupted_a2(kind)
        for reader in (recover_cartan, reduced_word_sets, descent_sets, reconstruct):
            with pytest.raises(MalformedOracleError, match=re.escape(message)):
                reader(bad)

    def test_reconstruct_validates_once(self, monkeypatch):
        oracle = export_oracle(element_from_word(A2, ["s1", "s2"]))
        calls = []
        validate = CohomologyOracle.validate
        monkeypatch.setattr(CohomologyOracle, "validate", lambda o: calls.append(o) or validate(o))
        reconstruct(oracle)
        assert calls == [oracle]

    def test_export_leaves_validation_to_the_reader(self, monkeypatch):
        """Neither export validates, `export_oracle` goes through
        `export_oracle_with_map` once, and export then `reconstruct`
        validates exactly once."""
        w = element_from_word(A2, ["s1", "s2"])
        calls, exports = [], []
        validate = CohomologyOracle.validate
        monkeypatch.setattr(CohomologyOracle, "validate", lambda o: calls.append(o) or validate(o))
        with_map = cohomology_module.export_oracle_with_map
        monkeypatch.setattr(
            cohomology_module, "export_oracle_with_map",
            lambda *args: exports.append(args) or with_map(*args),
        )
        expected, _ = export_oracle_with_map(w, seed=3)  # the unwrapped function
        oracle = export_oracle(w, seed=3)
        assert oracle == expected
        assert calls == [] and len(exports) == 1
        reconstruct(oracle)
        assert calls == [oracle]

    def test_no_unit(self):
        oracle = CohomologyOracle((("a", 2),), ("a",), {})
        with pytest.raises(MalformedOracleError, match="no degree-0 basis element"):
            oracle.unit_id

    def test_empty_basis(self):
        oracle = CohomologyOracle((), (), {})
        with pytest.raises(MalformedOracleError, match="no degree-0 basis element"):
            oracle.unit_id


class TestIdentity:
    """X(e, A) is a point for every A: its oracle has one id and no
    generators, and it reconstructs as the rank-1 matrix over that id."""

    @pytest.mark.parametrize("A", [A2, D4, validate_cartan([[2]], ["s1"])], ids=["A2", "D4", "A1"])
    def test_round_trip(self, A):
        e = element_from_word(A, [])
        oracle = export_oracle(e, seed=3)
        assert oracle.generators == ()
        rp = reconstruct(oracle)
        assert rp.cartan == validate_cartan([[2]], [oracle.unit_id])
        assert rp.word == ()
        assert rp.free_entries == frozenset()
        assert recover_cartan(oracle) == (rp.cartan, frozenset())
        assert reduced_word_sets(oracle) == {oracle.unit_id: {()}}
        assert check_equivalence(e, element_from_word(rp.cartan, rp.word)).sigma == {}

    def test_cli_round_trip(self, capsys, tmp_path):
        cartan, oracle = tmp_path / "a2.json", tmp_path / "identity.json"
        cartan.write_text(json.dumps(A2.to_json()))
        assert main(["--output", str(oracle), "export-oracle", str(cartan), ""]) == 0
        assert main(["reconstruct", str(oracle)]) == 0
        unit = json.loads(oracle.read_text())["basis"][0]["id"]
        assert json.loads(capsys.readouterr().out) == {
            "cartan": {"index_set": [unit], "matrix": [[2]]},
            "word": [],
            "free_entries": [],
        }


class TestAbstractCombinatorics:
    def test_unit_has_no_descents(self):
        oracle = export_oracle(element_from_word(A2, ["s1", "s2"]))
        assert descent_sets(oracle)[oracle.unit_id] == frozenset()

    def test_a2_top_descent(self):
        w = element_from_word(A2, ["s1", "s2"])
        oracle, naming = export_oracle_with_map(w)
        z2 = naming[element_from_word(A2, ["s2"])]
        assert descent_sets(oracle)[top_id(oracle)] == {z2}

    def test_longest_element_all_descents(self):
        w0 = element_from_word(A3, ["s3", "s2", "s1", "s3", "s2", "s3"])
        oracle = export_oracle(w0)
        assert descent_sets(oracle)[top_id(oracle)] == frozenset(oracle.generators)

    def test_descents_match_concrete(self, rng):
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            oracle, naming = export_oracle_with_map(w)
            gen_of = {
                s: naming[element_from_word(A, [s])]
                for s in set(w.canonical_word)
            }
            assert descent_sets(oracle) == {
                bid: {gen_of[s] for s in v.right_descents()}
                for v, bid in naming.items()
            }

    def test_closure_of_all_generators(self):
        oracle = export_oracle(element_from_word(A2, ["s1", "s2", "s1"]))
        assert support_closure(oracle, set(oracle.generators)) == {
            oracle.unit_id
        }

    def test_word_sets_match_concrete(self, rng):
        for _ in range(10):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 5))
            oracle, naming = export_oracle_with_map(w)
            gen_of = {
                s: naming[element_from_word(A, [s])]
                for s in set(w.canonical_word)
            }
            words = reduced_word_sets(oracle)
            for v, bid in naming.items():
                expected = {
                    tuple(gen_of[s] for s in word) for word in reduced_words(v)
                }
                assert words[bid] == expected

    def test_unit_word(self):
        oracle = export_oracle(element_from_word(A2, ["s1"]))
        assert reduced_word_sets(oracle)[oracle.unit_id] == {()}

    def test_a2_braid_words(self):
        oracle = export_oracle(element_from_word(A2, ["s1", "s2", "s1"]))
        assert len(reduced_word_sets(oracle)[top_id(oracle)]) == 2

    def test_commuting_words(self):
        oracle = export_oracle(element_from_word(A3, ["s1", "s3"]))
        assert len(reduced_word_sets(oracle)[top_id(oracle)]) == 2


class TestReconstruct:
    def test_hirzebruch_two(self):
        w = element_from_word(hirzebruch(2), ["s1", "s2"])
        rp = reconstruct(export_oracle(w, seed=4))
        flat = sorted(c for row in rp.cartan.entries for c in row)
        assert flat == [-2, -1, 2, 2]
        assert len(rp.word) == 2

    def test_word_not_reduced_under_recovered_matrix(self):
        """The oracle of w0 in B2 with the 2 in one generator's square forged
        to 1 validates, but the recovered matrix is then of type A2, where
        the top word, of length 4, is not reduced."""
        oracle = export_oracle(element_from_word(B2, ["s1", "s2", "s1", "s2"]))
        products = dict(oracle.products)
        g = next(g for g in oracle.generators if products[g, g][0][1] == 2)
        ((nu, _),) = products[g, g]
        products[g, g] = ((nu, 1),)
        forged = CohomologyOracle(oracle.basis, oracle.generators, products)
        cartan, _ = recover_cartan(forged)
        assert sorted(c for row in cartan.entries for c in row) == [-1, -1, 2, 2]
        with pytest.raises(MalformedOracleError, match="reconstructed word is not reduced"):
            reconstruct(forged)

    def test_projective_line(self):
        A1 = validate_cartan([[2]], ["s1"])
        w = element_from_word(A1, ["s1"])
        rp = reconstruct(export_oracle(w))
        assert rp.cartan.entries == ((2,),)
        assert len(rp.word) == 1
        assert rp.free_entries == frozenset()

    def test_round_trip_equivalence(self, rng):
        for _ in range(20):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            if w.is_identity():
                continue
            rp = reconstruct(export_oracle(w, seed=rng.randrange(10**6)))
            w_prime = element_from_word(rp.cartan, rp.word)
            assert w_prime.length == w.length
            assert check_equivalence(w, w_prime) is not None

    def test_non_free_entries_agree(self, rng):
        """Every entry the oracle forces equals the source entry under naming."""
        for _ in range(15):
            A = random_cartan(rng, max_rank=3)
            w = element_from_word(A, random_word(rng, A, 6))
            if w.is_identity():
                continue
            oracle, naming = export_oracle_with_map(w, seed=11)
            cartan, free = recover_cartan(oracle)
            gen_of = {
                s: naming[element_from_word(A, [s])]
                for s in set(w.canonical_word)
            }
            for s, zs in gen_of.items():
                for t, zt in gen_of.items():
                    if s != t and (zs, zt) not in free:
                        assert cartan.entry(zs, zt) == A.entry(s, t)

    def test_json_shape(self):
        w = element_from_word(A2, ["s1", "s2"])
        data = reconstruct(export_oracle(w, seed=9)).to_json()
        assert set(data) == {"cartan", "word", "free_entries"}
        assert data["cartan"]["matrix"][0][0] == 2


class TestProductOrder:
    """No reader of an oracle depends on the order its products were
    inserted in: the exporter's sorted order, reversed and shuffled give
    equal results."""

    READERS = (
        CohomologyOracle.validate,
        recover_cartan,
        descent_sets,
        reduced_word_sets,
        reconstruct,
    )

    def test_reversed_and_shuffled_products(self, rng):
        tops = [
            element_from_word(A3, "s1 s2 s1 s3 s2 s1".split()),
            element_from_word(hirzebruch(2), ["s1", "s2"]),
        ]
        while len(tops) < 12:
            A = random_cartan(rng, max_rank=4)
            w = element_from_word(A, random_word(rng, A, 7))
            if w.length >= 2:
                tops.append(w)
        for seed, w in enumerate(tops):
            oracle = export_oracle(w, seed=seed)
            items = list(oracle.products.items())
            shuffled = rng.sample(items, len(items))
            expected = [reader(oracle) for reader in self.READERS]
            for order in (items[::-1], shuffled):
                again = CohomologyOracle(oracle.basis, oracle.generators, dict(order))
                assert [reader(again) for reader in self.READERS] == expected

    def test_ambiguous_overlap_reversed(self):
        oracle = _ambiguous_overlap()
        products = dict(reversed(list(oracle.products.items())))
        again = CohomologyOracle(oracle.basis, oracle.generators, products)
        message = re.escape("ambiguous support overlap for generators (a, b)")
        with pytest.raises(MalformedOracleError, match=message):
            recover_cartan(again)


# the module, which the package's `reconstruct` function shadows as an attribute
reconstruct_module = importlib.import_module("schubertisom.reconstruct")
cohomology_module = importlib.import_module("schubertisom.cohomology")


def _seeded_cases():
    """Seeded non-identity (A, word) cases over ORACLE_MATRICES, plus random
    non-symmetrizable matrices and random affine type-A cycles."""
    rng = random.Random(7)
    matrices = dict(ORACLE_MATRICES)
    for k in range(4):
        matrices[f"nonsym_{k}"] = _non_symmetrizable_rank_4(rng)
    for k in range(4):
        n = rng.randint(3, 5)
        matrices[f"affine_{k}"] = validate_cartan(
            [[2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0) for j in range(n)]
             for i in range(n)],
            [f"s{i}" for i in range(n)],
        )
    cases = []
    for name, A in matrices.items():
        for k in range(3):
            word = random_word(rng, A, 7)
            if not element_from_word(A, word).is_identity():
                cases.append(pytest.param(A, word, id=f"{name}-{k}"))
    return cases


class TestLeastWordWalk:
    @pytest.mark.parametrize("A, word", _seeded_cases())
    def test_least_word_is_least_of_all_words(self, A, word):
        oracle = export_oracle(element_from_word(A, word), seed=len(word))
        words = reduced_word_sets(oracle)
        assert reconstruct(oracle).word == min(words[top_id(oracle)])

    def test_round_trips_never_list_all_words(self, monkeypatch, rng):
        def fail(*args):
            raise AssertionError("reconstruct called reduced_word_sets")

        monkeypatch.setattr(reconstruct_module, "reduced_word_sets", fail)
        for _ in range(10):
            A = random_cartan(rng, max_rank=4)
            w = element_from_word(A, random_word(rng, A, 7))
            if w.is_identity():
                continue
            rp = reconstruct(export_oracle(w, seed=rng.randrange(10**6)))
            assert check_equivalence(w, element_from_word(rp.cartan, rp.word)) is not None

    def test_oracle_is_a_plain_record(self):
        assert CohomologyOracle.__slots__ == ("basis", "generators", "products")
        assert repr(CohomologyOracle(1, 2, 3)) == (
            "CohomologyOracle(basis=1, generators=2, products=3)"
        )

    def test_longest_a6_round_trip(self):
        """w0 of A6 (5,040 basis elements, length 21) exports and rebuilds."""
        A6 = type_a(6)
        w0 = element_from_word(
            A6, [f"s{j}" for i in range(6, 0, -1) for j in range(1, i + 1)]
        )
        start = time.monotonic()
        oracle = export_oracle(w0, seed=6)
        rp = reconstruct(oracle)
        elapsed = time.monotonic() - start
        assert len(oracle.basis) == 5040
        assert check_equivalence(w0, element_from_word(rp.cartan, rp.word)) is not None
        assert elapsed < 6.0, f"w0 of A6 took {elapsed:.1f}s"  # about 1.2 s


def _closure_predecessors(oracle):
    """The reference for `_predecessors`: one closure E^{g} per generator,
    from `support_closure`, and a brute-force inversion of the product
    table.  Yields (v, degree, pairs) and raises the same errors, in the
    same order: by degree, then generator order."""
    closures = {g: support_closure(oracle, {g}) for g in oracle.generators}
    into = {}
    for (g, u), terms in oracle.products.items():
        for v, _ in terms:
            into.setdefault((g, v), []).append(u)
    for v, degree in sorted(oracle.basis, key=lambda p: p[1]):
        pairs = []
        for g in oracle.generators:
            if v in closures[g]:
                continue
            preds = [u for u in into.get((g, v), ()) if u in closures[g]]
            if len(preds) != 1:
                raise MalformedOracleError(
                    f"descent {g!r} of {v!r} does not determine a unique predecessor"
                )
            pairs.append((g, preds[0]))
        if degree and not pairs:
            raise MalformedOracleError(f"basis element {v!r} has no descents")
        yield v, degree, pairs


def _longest_a5():
    A5 = type_a(5)
    return A5, [f"s{j}" for i in range(5, 0, -1) for j in range(1, i + 1)]


def _mask_cases():
    """The seeded cases, random rank <= 4 matrices, and w0 of A5."""
    rng = random.Random(16)
    cases = _seeded_cases()
    for k in range(6):
        A = random_cartan(rng, max_rank=4)
        word = random_word(rng, A, 7)
        if not element_from_word(A, word).is_identity():
            cases.append(pytest.param(A, word, id=f"random-{k}"))
    cases.append(pytest.param(*_longest_a5(), id="w0-A5"))
    return cases


def _raised(gen):
    """The message of the MalformedOracleError that draining gen raises."""
    with pytest.raises(MalformedOracleError) as info:
        for _ in gen:
            pass
    return str(info.value)


class TestDescentMasks:
    """The one-pass masks give the descents and predecessors of the closure
    definition: one E^{g} per generator and the inverted product table."""

    @pytest.mark.parametrize("A, word", _mask_cases())
    def test_matches_closure_definition(self, A, word):
        oracle = export_oracle(element_from_word(A, word), seed=len(word)).validate()
        expected = list(_closure_predecessors(oracle))
        assert list(reconstruct_module._predecessors(oracle)) == expected
        descents = descent_sets(oracle)
        assert list(descents) == [v for v, _, _ in expected]
        assert descents == {v: {g for g, _ in pairs} for v, _, pairs in expected}

    def test_descent_sets_validate_once_and_make_one_pass(self, monkeypatch):
        """Every id's descents of w0 of A4 come from one validation and one
        `_predecessors` pass, not one of each per id."""
        A4 = type_a(4)
        word = [f"s{j}" for i in range(4, 0, -1) for j in range(1, i + 1)]
        oracle = export_oracle(element_from_word(A4, word))
        validations, passes = [], []
        validate = CohomologyOracle.validate
        predecessors = reconstruct_module._predecessors
        monkeypatch.setattr(
            CohomologyOracle, "validate", lambda o: validations.append(o) or validate(o)
        )
        monkeypatch.setattr(
            reconstruct_module, "_predecessors", lambda o: passes.append(o) or predecessors(o)
        )
        descents = descent_sets(oracle)
        assert len(descents) == 120
        assert validations == [oracle] and passes == [oracle]

    def _oracle(self):
        A3 = type_a(3)
        return export_oracle(
            element_from_word(A3, ["s1", "s2", "s3", "s1", "s2", "s1"]), seed=3
        )

    @staticmethod
    def _assert_same_error(bad, message):
        """Both paths reject the corrupted oracle with message, and so do
        reconstruct and descent_sets."""
        assert _raised(_closure_predecessors(bad)) == message
        assert _raised(reconstruct_module._predecessors(bad.validate())) == message
        with pytest.raises(MalformedOracleError, match=re.escape(message)):
            descent_sets(bad)
        with pytest.raises(MalformedOracleError, match=re.escape(message)):
            reconstruct(bad)

    def test_descent_with_two_predecessors(self):
        """v gains a second in-edge along its descent g, from another u' in
        E^{g}.  v has degree 6 or more, so the products recover_cartan reads
        stay intact."""
        oracle = self._oracle()
        degree = dict(oracle.basis)
        v, g, other = next(
            (v, g, x)
            for v, d, pairs in _closure_predecessors(oracle) if d >= 6
            for g, u in pairs
            for x in sorted(support_closure(oracle, {g}))
            if x != u and degree[x] == d - 2 and v not in dict(oracle.products[g, x])
        )
        products = dict(oracle.products)
        products[g, other] += ((v, 1),)
        self._assert_same_error(
            CohomologyOracle(oracle.basis, oracle.generators, products),
            f"descent {g!r} of {v!r} does not determine a unique predecessor",
        )

    def test_element_with_no_descents(self):
        """v of degree 6 is put into every E^{g}: for each g it is not in, an
        in-edge (h, u) with h != g and u in E^{g}."""
        oracle = self._oracle()
        degree = dict(oracle.basis)
        gens = oracle.generators
        v = min(bid for bid, d in oracle.basis if d == 6)
        products = dict(oracle.products)
        for g in gens:
            closure = support_closure(oracle, {g})
            if v in closure:
                continue
            u = min(x for x in closure if degree[x] == 4)
            h = next(h for h in gens if h != g and v not in dict(products[h, u]))
            products[h, u] += ((v, 1),)
        self._assert_same_error(
            CohomologyOracle(oracle.basis, gens, products),
            f"basis element {v!r} has no descents",
        )


class TestExportReader:
    """export_oracle reads each product off the interval's cover table, in id
    order; chevalley_product, one (generator, element) pair at a time, is the
    reference."""

    @pytest.mark.parametrize("A, word", _seeded_cases())
    def test_products_match_chevalley_product(self, A, word):
        w = element_from_word(A, word)
        itv = interval(w)
        oracle, naming = export_oracle_with_map(w, seed=len(word))
        simples = sorted((v for v in itv if v.length == 1), key=naming.get)
        expected = {
            (naming[s], naming[u]): tuple(sorted(
                (naming[v], c)
                for v, c in chevalley_product(s.canonical_word[0], u, itv).coeffs.items()
            ))
            for s in simples
            for u in sorted(itv, key=naming.get)
        }
        assert list(oracle.products.items()) == list(expected.items())

    def test_export_never_calls_chevalley_product(self, monkeypatch, rng, tmp_path, capsys):
        def fail(*args):
            raise AssertionError("a product was built through chevalley_product")

        monkeypatch.setattr(cohomology_module, "chevalley_product", fail)
        monkeypatch.setattr(cohomology_module, "SchubertClass", fail)
        path = tmp_path / "cartan.json"
        for _ in range(10):
            A = random_cartan(rng, max_rank=4)
            w = element_from_word(A, random_word(rng, A, 7))
            if w.is_identity():
                continue
            rp = reconstruct(export_oracle(w, seed=rng.randrange(10**6)))
            assert check_equivalence(w, element_from_word(rp.cartan, rp.word)) is not None
            path.write_text(json.dumps(A.to_json()))
            assert main(["cohomology", str(path), " ".join(w.canonical_word)]) == 0
            capsys.readouterr()


def test_round_trip_leaves_no_cyclic_garbage():
    """Export -> JSON -> reconstruct -> check_equivalence of w0 of D4, then
    isom_classes on A4, free everything by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        w0 = element_from_word(D4, ["s1", "s2", "s3", "s4"] * 3)
        text = json.dumps(export_oracle(w0, seed=1).to_json())
        rp = reconstruct(CohomologyOracle.from_json(json.loads(text)))
        assert check_equivalence(w0, element_from_word(rp.cartan, rp.word)) is not None
        del w0, text, rp
        assert len(isom_classes(type_a(4), 6)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _coefficients(oracle):
    return sorted(c for terms in oracle.products.values() for _, c in terms)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: reconstruct does not certify its answer")
def test_forged_coefficients_are_refused():
    """Raise one coefficient of the w0-of-A3 oracle (seed 3) by 1, 2 or 3:
    reconstruct refuses the forgery with a typed error, or returns a
    presentation whose oracle has the forgery's coefficient multiset.  Today
    249 of the 258 forgeries reconstruct, and none re-exports that multiset."""
    w0 = element_from_word(type_a(3), ["s1", "s2", "s3", "s1", "s2", "s1"])
    oracle = export_oracle(w0, seed=3)
    accepted = []
    for key, terms in oracle.products.items():
        for i, (vid, coeff) in enumerate(terms):
            for raise_by in (1, 2, 3):
                products = dict(oracle.products)
                products[key] = terms[:i] + ((vid, coeff + raise_by),) + terms[i + 1:]
                forged = CohomologyOracle(oracle.basis, oracle.generators, products)
                try:
                    rp = reconstruct(forged)
                except SchubertError:
                    continue
                again = export_oracle(element_from_word(rp.cartan, rp.word), seed=3)
                if _coefficients(again) != _coefficients(forged):
                    accepted.append((key, vid, raise_by))
    assert not accepted, f"{len(accepted)} forgeries reconstruct to another ring"
