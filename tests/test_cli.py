import contextlib
import copy
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schubertisom
from schubertisom import CartanMatrix, element_from_word, export_oracle
from schubertisom import cli, freealg
from schubertisom.cli import main

from conftest import (
    A2, A2_AFFINE, A3, B2, B3, B4, C3, D4, D4_AFFINE, UNIVERSAL_5, UNIVERSAL_5_WORD,
    type_a,
)


@pytest.fixture
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(A3.to_json()))
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(C3.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestValidate:
    def test_valid(self, capsys, a3_file):
        payload = run_json(capsys, "validate", a3_file)
        assert payload["valid"] is True
        assert payload["cartan"] == A3.to_json()

    def test_invalid_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"index_set": ["s1", "s2"], "matrix": [[2, 0], [-1, 2]]})
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2


class TestInputErrors:
    """Malformed input exits 2 with a typed error and prints nothing on stdout."""

    def assert_typed(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "data",
        [
            {"matrix": [[2, -1], [-1, 2]]},
            {"index_set": ["s1", "s2"]},
            [[2, -1], [-1, 2]],
            {"index_set": ["s1", "s2"], "matrix": [[2, "x"], [-1, 2]]},
            {"index_set": ["s1", "s2"], "matrix": [[2, -1.7], [-1, 2]]},
            {"index_set": ["s1", "s2"], "matrix": [[2, "-1"], [-1, 2]]},
            {"index_set": ["s1", "s2"], "matrix": [[2, False], [False, 2]]},
            {"index_set": ["s1", "s2"], "matrix": [[2.0, -1], [-1, 2]]},
            {"index_set": ["s1", "s2"], "matrix": "22"},
            {"index_set": ["s1", "s2"], "matrix": [[2.9, -1], [-1, 2]]},
            {"index_set": ["s1", "s2"], "matrix": [[2, [1]], [-1, 2]]},
        ],
    )
    def test_cartan_wrong_shape(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        self.assert_typed(capsys, "validate", str(path))

    @pytest.mark.parametrize(
        "labels", [["s1", "s1"], [], [["s1"], ["s2"]], "ab", {"a": 0, "b": 1}, ["s1", None]]
    )
    def test_bad_index_set(self, capsys, tmp_path, labels):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"index_set": labels, "matrix": [[2, -1], [-1, 2]]}))
        self.assert_typed(capsys, "validate", str(path))

    def test_unhashable_letter(self, capsys, a3_file):
        self.assert_typed(capsys, "word", a3_file, '["s1", ["s2"]]')

    DEEP_JSON = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize("command", ["validate", "reconstruct"])
    def test_deeply_nested_json_file(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP_JSON)
        self.assert_typed(capsys, command, str(path))

    def test_deeply_nested_json_word(self, capsys, a3_file):
        self.assert_typed(capsys, "word", a3_file, self.DEEP_JSON)

    @pytest.mark.parametrize("expression", ["f[", "a[s1,", "h1 *"])
    def test_truncated_expression(self, capsys, expression):
        self.assert_typed(capsys, "normal-form", expression)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"basis": [1, 2], "generators": [], "products": {}},
            {"basis": [{"id": "b0", "degree": 0}], "generators": []},
            {"basis": [{"id": "b0", "degree": 0}], "generators": [], "products": []},
            {"basis": [{"id": "b0", "degree": "0"}], "generators": [], "products": {}},
            {"basis": [{"id": ["b0"], "degree": 0}], "generators": [], "products": {}},
        ],
    )
    def test_oracle_wrong_shape(self, capsys, tmp_path, data):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(data))
        self.assert_typed(capsys, "reconstruct", str(path))

    TYPE_DEFECTS = {
        "1.5_coefficient": "expected a string id and an integer coeff",
        "true_coefficient": "expected a string id and an integer coeff",
        "2.0_degree": "expected a string id and an integer degree",
        "int_generator_id": "generator ids must be strings",
        "list_generator_id": "generator ids must be strings",
        "list_term_id": "expected a string id and an integer coeff",
    }

    @pytest.mark.parametrize("defect", list(TYPE_DEFECTS))
    def test_oracle_entry_of_wrong_type(self, capsys, tmp_path, defect):
        """A file is refused with the library's one message per defect."""
        data = export_oracle(element_from_word(A3, ["s1", "s2", "s3", "s1"]), seed=1).to_json()
        term = next(t for terms in data["products"].values() for t in terms if t["coeff"] == 1)
        generators = data["generators"]
        if defect == "1.5_coefficient":
            term["coeff"] = 1.5
        elif defect == "true_coefficient":
            term["coeff"] = True
        elif defect == "list_term_id":
            term["id"] = [term["id"]]
        elif defect == "2.0_degree":
            data["basis"] = [{"id": b["id"], "degree": float(b["degree"])} for b in data["basis"]]
        else:
            generators[0] = 7 if defect == "int_generator_id" else [generators[0]]
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(data))
        message = f"error: MalformedOracleError: {self.TYPE_DEFECTS[defect]}\n"
        assert run(capsys, "reconstruct", str(path)) == (2, "", message)


class TestWord:
    def test_full_report(self, capsys, a3_file):
        payload = run_json(capsys, "word", a3_file, "s2 s3 s1 s2")
        assert payload["canonical_word"] == ["s2", "s1", "s3", "s2"]
        assert payload["length"] == 4
        assert payload["support"] == ["s1", "s2", "s3"]
        assert payload["right_descents"] == ["s2"]

    def test_canonical_of_square(self, capsys, a3_file):
        payload = run_json(capsys, "word", a3_file, "s1 s1", "--canonical")
        assert payload == []

    def test_json_word_syntax(self, capsys, a3_file):
        payload = run_json(capsys, "word", a3_file, '["s1", "s2"]', "--canonical")
        assert payload == ["s1", "s2"]

    def test_unknown_letter(self, capsys, a3_file):
        code, _, err = run(capsys, "word", a3_file, "s7")
        assert code == 2


class TestBruhat:
    def test_positive(self, capsys, a3_file):
        payload = run_json(capsys, "bruhat", a3_file, "s1 s3", "s2 s1 s3 s2")
        assert payload == {"leq": True}

    def test_negative_not_strict(self, capsys, a3_file):
        code, out, _ = run(capsys, "bruhat", a3_file, "s1 s2", "s2 s1")
        assert code == 0
        assert json.loads(out) == {"leq": False}

    def test_negative_strict(self, capsys, a3_file):
        code, out, _ = run(capsys, "--strict", "bruhat", a3_file, "s1 s2", "s2 s1")
        assert code == 1
        assert json.loads(out) == {"leq": False}


class TestEquiv:
    def test_equivalent(self, capsys, a3_file, c3_file):
        payload = run_json(
            capsys,
            "equiv",
            "--left",
            f"{a3_file}:s1 s2 s3",
            "--right",
            f"{c3_file}:s1 s2 s3",
        )
        assert payload["equivalent"] is True
        wit = payload["witness"]
        assert sorted(wit) == ["sigma", "source_word", "target_word"]
        assert len(wit["target_word"]) == 3

    def test_not_equivalent_strict(self, capsys, a3_file, c3_file):
        code, out, _ = run(
            capsys,
            "--strict",
            "equiv",
            "--left",
            f"{a3_file}:s3 s2 s1",
            "--right",
            f"{c3_file}:s3 s2 s1",
        )
        assert code == 1
        assert json.loads(out)["witness"] is None

    def test_each_matrix_file_loaded_once(self, capsys, monkeypatch, a3_file, c3_file):
        loaded = []
        load = cli._load_cartan
        monkeypatch.setattr(cli, "_load_cartan", lambda path: loaded.append(path) or load(path))
        run_json(capsys, "equiv", "--left", f"{a3_file}:s1 s2", "--right", f"{a3_file}:s2 s1")
        assert loaded == [a3_file]
        loaded.clear()
        run_json(capsys, "equiv", "--left", f"{a3_file}:s1 s2", "--right", f"{c3_file}:s1 s2")
        assert loaded == [a3_file, c3_file]

    def test_bad_pair_syntax(self, capsys, a3_file):
        code, _, err = run(capsys, "equiv", "--left", a3_file, "--right", a3_file)
        assert code == 2


class TestIsomClasses:
    def test_a2(self, capsys, tmp_path):
        path = tmp_path / "a2.json"
        path.write_text(json.dumps(A2.to_json()))
        payload = run_json(capsys, "--max-length", "3", "isom-classes", str(path))
        assert payload["count"] == 4
        assert payload["classes"][0]["members"] == [[]]

    def test_a3(self, capsys, a3_file):
        payload = run_json(capsys, "--max-length", "6", "isom-classes", a3_file)
        assert payload["count"] == 14

    def test_huge_length_bound_stops_with_the_group(self, capsys, tmp_path):
        """W(A2) is finite: a bound of 10^8 ends at its 6 elements."""
        path = tmp_path / "a2.json"
        path.write_text(json.dumps(A2.to_json()))
        start = time.monotonic()
        payload = run_json(capsys, "--max-length", "100000000", "isom-classes", str(path))
        assert time.monotonic() - start < 1.0
        assert sum(len(c["members"]) for c in payload["classes"]) == 6

    def test_zero_element_cap_refuses_the_identity(self, capsys, a3_file):
        code, out, err = run(
            capsys, "--max-elements", "0", "--max-length", "0", "isom-classes", a3_file
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: EnumerationCapExceededError: more than 0 elements")

    @pytest.mark.parametrize("bound", ["-1", "-100", "x"])
    def test_bad_length_bound_is_a_usage_error(self, capsys, a3_file, bound):
        code, out, err = run(capsys, "--max-length", bound, "isom-classes", a3_file)
        assert (code, out) == (2, "")
        assert f"argument --max-length: expected an integer >= 0, got '{bound}'" in err


    @pytest.mark.parametrize("cap", ["-1", "-5", "x"])
    def test_bad_element_cap_is_a_usage_error(self, capsys, a3_file, cap):
        code, out, err = run(capsys, "--max-elements", cap, "isom-classes", a3_file)
        assert (code, out) == (2, "")
        assert f"argument --max-elements: expected an integer >= 0, got '{cap}'" in err


class TestCohomology:
    def test_a2_products(self, capsys, tmp_path):
        path = tmp_path / "a2.json"
        path.write_text(json.dumps(A2.to_json()))
        payload = run_json(capsys, "cohomology", str(path), "s1 s2 s1")
        assert payload["interval_size"] == 6
        assert payload["products"]["s1|s1"] == [
            {"word": ["s2", "s1"], "coeff": 1}
        ]
        assert payload["products"]["s1|"] == [{"word": ["s1"], "coeff": 1}]

    def test_terms_sorted_by_word_when_labels_are_not(self, capsys, tmp_path):
        """With labels listed out of string order, position order is not word
        order, and each product still lists its terms by word."""
        path = tmp_path / "a3-reversed.json"
        path.write_text(json.dumps(CartanMatrix(["s3", "s2", "s1"], A3.entries).to_json()))
        payload = run_json(capsys, "cohomology", str(path), "s1 s2 s3 s1 s2 s1")
        assert payload["interval_size"] == 24
        lists = [[t["word"] for t in terms] for terms in payload["products"].values()]
        assert any(len(words) > 1 for words in lists)
        assert all(words == sorted(words) for words in lists)


@pytest.mark.parametrize("command", ["cohomology", "export-oracle"])
class TestElementCap:
    def test_boundary(self, capsys, a3_file, command):
        """--max-elements N admits exactly N elements: w0 of A3 has 24."""
        w0 = "s1 s2 s3 s1 s2 s1"
        code, out, err = run(capsys, "--max-elements", "24", command, a3_file, w0)
        assert code == 0, err
        code, out, err = run(capsys, "--max-elements", "23", command, a3_file, w0)
        assert (code, out) == (2, "")
        assert err == (
            "error: EnumerationCapExceededError: "
            "more than 23 elements enumerated (element cap 23)\n"
        )

    def test_zero_cap_refuses_the_identity(self, capsys, a3_file, command):
        code, out, err = run(capsys, "--max-elements", "0", command, a3_file, "")
        assert (code, out) == (2, "")
        assert err.startswith("error: EnumerationCapExceededError: more than 0 elements")

    def test_universal_rank_5_exits_2(self, capsys, tmp_path, command):
        """Length 20 and 612,256 elements: refused under the default cap."""
        path = tmp_path / "universal.json"
        path.write_text(json.dumps(UNIVERSAL_5.to_json()))
        start = time.monotonic()
        code, out, err = run(capsys, command, str(path), " ".join(UNIVERSAL_5_WORD))
        elapsed = time.monotonic() - start
        assert (code, out) == (2, "")
        assert err.startswith("error: EnumerationCapExceededError: more than 100000")
        assert elapsed < 2.0, f"took {elapsed:.1f}s to refuse"  # about 0.25 s


# sha256 of stdout at a fixed revision: refactors must keep these bytes.
PINNED_OUTPUTS = [
    pytest.param(A3, ["--seed", "0", "export-oracle"], "s3 s2 s1 s3 s2 s3",
                 "2cec35bab81dbebad5a74b2d9f3345c8ef25bf398a2f45f0eadeae2cbdce4197",
                 id="export-A3-w0"),
    pytest.param(B4, ["export-oracle"], "s1 s2 s3 s4",
                 "6d170e5d9d0ac18df66f8a45d090dd7c4a1c99aad783886136613f0ca9a1c99c",
                 id="export-B4-coxeter"),
    pytest.param(B4, ["export-oracle"], "s4 s3 s4 s2 s3 s4 s1 s2",
                 "bad6342e21460a9977f0b288966e89c01832fbd2ac608c09050c9d5eea1da603",
                 id="export-B4-length-8"),
    pytest.param(A2_AFFINE, ["--seed", "7", "export-oracle"], "s0 s1 s2 s0 s1 s2 s0",
                 "5c03878394c49fd11595aeafeb4f0434ea16aaf3061c0c88772d8f2cc3ab57d9",
                 id="export-A2-affine"),
    pytest.param(A3, ["cohomology"], "s1 s2",
                 "539e13a8c0668f3b758f7056e1f3cfb8805ddd53a6820c7bbcc9485e5f79f88c",
                 id="cohomology-json"),
    pytest.param(A3, ["--format", "table", "cohomology"], "s1 s2",
                 "89aea31b0923352d68c41752c327484163d2dc3ec22ee24c472d52761f960634",
                 id="cohomology-table"),
]


@pytest.mark.parametrize("A, argv, word, digest", PINNED_OUTPUTS)
def test_output_bytes_pinned(capsys, tmp_path, A, argv, word, digest):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(A.to_json()))
    code, out, err = run(capsys, *argv, str(path), word)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of isom-classes stdout, recorded before the bottom-up enumeration.
PINNED_CLASS_OUTPUTS = [
    pytest.param(type_a(4), "10", "json",
                 "06cccf1dc485647a0846ca184a0ead9562345994f061bb1f9133f6f47276a826",
                 id="A4-json"),
    pytest.param(type_a(4), "10", "table",
                 "35c8715af7017d5ef405d9eb8563a19a2b3fd5903e48ff488d81a25da5e6484c",
                 id="A4-table"),
    pytest.param(B3, "6", "json",
                 "676ef3081e03dab9ee5701e87a58b354848a0ec825598150d4036cc500c6373e",
                 id="B3-json"),
    pytest.param(B3, "6", "table",
                 "80900b660259af1ffc47b3a6a603c2741133fdf3c09de0530dce2b579619de06",
                 id="B3-table"),
    pytest.param(A2_AFFINE, "6", "json",
                 "8ccd96e08bfd63af48c66777739f88518c33399cfbd1aef83abd56641e39cbef",
                 id="A2-affine-json"),
    pytest.param(A2_AFFINE, "6", "table",
                 "3bff8fa6252813beb17eea3bc3af942c3db65db13653a8ef7803994039f2ef80",
                 id="A2-affine-table"),
]


@pytest.mark.parametrize("A, max_length, fmt, digest", PINNED_CLASS_OUTPUTS)
def test_isom_classes_bytes_pinned(capsys, tmp_path, A, max_length, fmt, digest):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(A.to_json()))
    code, out, err = run(capsys, "--format", fmt, "--max-length", max_length,
                         "isom-classes", str(path))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60)
    | st.text()
)
JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    """Labels may be any text: non-ASCII, quotes and control characters are
    escaped as json.dumps escapes them."""
    assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_request_leaves_no_reference_cycle(capsys, a3_file):
    """With the collector off, a JSON request leaves nothing for it to free."""
    run(capsys, "validate", a3_file)  # builds the shared parser
    gc.collect()
    gc.disable()
    try:
        code, out, _ = run(capsys, "isom-classes", a3_file)
        assert code == 0 and out.startswith("{")
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestOracleRoundTrip:
    def test_export_then_reconstruct(self, capsys, a3_file, tmp_path):
        oracle_path = tmp_path / "oracle.json"
        code, out, _ = run(
            capsys,
            "--seed",
            "5",
            "--output",
            str(oracle_path),
            "export-oracle",
            a3_file,
            "s1 s2 s3",
        )
        assert code == 0
        assert out == ""
        payload = run_json(capsys, "reconstruct", str(oracle_path))
        assert len(payload["word"]) == 3
        matrix = payload["cartan"]["matrix"]
        assert sorted(c for row in matrix for c in row) == [-1, -1, -1, -1, 0, 0, 2, 2, 2]

    def test_seed_determinism(self, capsys, a3_file):
        one = run_json(capsys, "--seed", "9", "export-oracle", a3_file, "s1 s2")
        two = run_json(capsys, "--seed", "9", "export-oracle", a3_file, "s1 s2")
        other = run_json(capsys, "--seed", "10", "export-oracle", a3_file, "s1 s2")
        assert one == two
        assert one != other

    def test_stdout_independent_of_hash_seed(self, a3_file):
        """The oracle's bytes do not depend on str hashing."""
        src = str(Path(schubertisom.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "schubertisom.cli", "--seed", "5",
                "export-oracle", a3_file, "s1 s2 s3"]
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                                  timeout=60)
            outs.append(done.stdout)
        assert outs[0] and outs[0] == outs[1]


# Exported oracles to mutate: one finite, one rank-2 non-simply-laced and
# one affine, each small enough to reconstruct in milliseconds.
FUZZ_ORACLES = [
    export_oracle(element_from_word(A, word), seed=seed).to_json()
    for A, word, seed in (
        (A3, ["s1", "s2", "s1", "s3"], 1),
        (B2, ["s1", "s2", "s1"], 2),
        (A2_AFFINE, ["s0", "s1", "s2", "s0"], 3),
    )
]
WRONG_TYPES = (None, 1, 1.5, True, "2", [1], {"id": 1})

# One mutation: (kind, two picks that index into whatever the kind edits, a value).
MUTATIONS = st.tuples(
    st.sampled_from(
        ["repeat", "drop", "empty", "basis_id", "term_id", "retarget", "degree", "coeff",
         "generators"]
    ),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(WRONG_TYPES + (-2, 0, 3, 4, -1, "bzz")),
)


def _mutate(data, kind, i, j, value):
    """Apply one mutation to oracle JSON in place."""
    products = data["products"]
    key = sorted(products)[i % len(products)] if products else None
    terms = products.get(key) or []
    if kind == "repeat" and terms:
        term = dict(terms[j % len(terms)])
        if type(value) is int:
            term["coeff"] = value
        terms.append(term)
    elif kind == "drop" and key:
        del products[key]
    elif kind == "empty" and key:
        products[key] = []
    elif kind == "basis_id":
        data["basis"][i % len(data["basis"])]["id"] = value
    elif kind == "term_id" and terms:
        terms[j % len(terms)]["id"] = value
    elif kind == "retarget" and terms:
        terms[j % len(terms)]["id"] = data["basis"][i % len(data["basis"])]["id"]
    elif kind == "degree":
        data["basis"][i % len(data["basis"])]["degree"] = value
    elif kind == "coeff" and terms:
        terms[j % len(terms)]["coeff"] = value
    elif kind == "generators":
        gens = data["generators"]
        ids = [entry["id"] for entry in data["basis"]]
        if j % 4 == 0 and gens:
            gens.pop(i % len(gens))
        elif j % 4 == 1:
            gens.append(ids[i % len(ids)])
        elif j % 4 == 2 and gens:
            gens[i % len(gens)] = value
        else:
            gens.reverse()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(FUZZ_ORACLES) - 1), st.lists(MUTATIONS, min_size=1, max_size=3))
def test_reconstruct_fuzzed_oracle_exits_cleanly(which, mutations):
    """A mutated oracle file either reconstructs (exit 0) or is rejected as
    a typed error (exit 2); no exception escapes cli.main."""
    data = copy.deepcopy(FUZZ_ORACLES[which])
    for mutation in mutations:
        _mutate(data, *mutation)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "oracle.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reconstruct", path])
    assert code in (0, 2)
    if code == 0:
        assert set(json.loads(out.getvalue())) == {"cartan", "word", "free_entries"}
    else:
        assert err.getvalue().startswith("error: ")


# Valid matrices to mutate; at the lengths the fuzz passes, every command
# answers on each of them in milliseconds.
FUZZ_CARTANS = [A.to_json() for A in (A3, B2, A2_AFFINE, D4)]
ENTRY_VALUES = (None, 1.5, -1.7, 2.0, True, False, "2", "-1", [1], {}, -1, 0, 1, 2, -2, -3,
                -10**20)
LABEL_VALUES = ("s1", "s9", "", "1", 1, True, None, [1], {"s": 1})
SHAPE_VALUES = ("ab", "s1s2", {"s1": 0, "s2": 1}, None, 3, [], [[2]], "22")

CARTAN_MUTATIONS = st.tuples(
    st.sampled_from(["entry", "label", "index_set", "matrix", "drop_row", "drop_entry",
                     "drop_key", "extra_key", "top"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(ENTRY_VALUES + LABEL_VALUES + SHAPE_VALUES),
)
# After the JSON is written: cut it at a position, or put one byte there.
BYTE_MUTATIONS = st.none() | st.tuples(st.integers(0, 10**6), st.none() | st.integers(0, 255))

# Words mix labels (the first five tokens, drawn more often), unknown labels
# and JSON-array syntax; expressions are drawn from the tokens of the
# free-algebra parser.
WORD_TOKENS = ("s0", "s1", "s2", "s3", "s4", "s9", "1", "[", "]", '"s1"', '"s2"', ",", "")
EXPRESSION_TOKENS = ("f1", "h2", "e3", "e1", "f[s1]", "h[s2]", "e[s2]", "a12", "a[s1,s2]",
                     "a", "f", "g1", "(", ")", "[", "]", ",", "*", "+", "-", "0", "3", " ")
WORDS = st.lists(st.sampled_from(WORD_TOKENS[:5]) | st.sampled_from(WORD_TOKENS),
                 max_size=8).map(" ".join)
EXPRESSIONS = st.lists(st.sampled_from(EXPRESSION_TOKENS), min_size=1, max_size=10).map("".join)
COMMANDS = ("validate", "word", "bruhat", "equiv", "isom-classes", "cohomology",
            "export-oracle", "automorphisms", "normal-form")


def _mutate_cartan(data, kind, i, j, value):
    """Apply one mutation to Cartan JSON; returns the (possibly new) document."""
    if not isinstance(data, dict):
        return data
    value = copy.deepcopy(value)
    labels, matrix = data.get("index_set"), data.get("matrix")
    rows = [row for row in matrix if isinstance(row, list)] if isinstance(matrix, list) else []
    if kind == "entry" and rows and rows[i % len(rows)]:
        row = rows[i % len(rows)]
        row[j % len(row)] = value
    elif kind == "label" and isinstance(labels, list) and labels:
        labels[i % len(labels)] = value
    elif kind == "index_set":
        data["index_set"] = value
    elif kind == "matrix":
        data["matrix"] = value
    elif kind == "drop_row" and rows:
        matrix.remove(rows[i % len(rows)])
    elif kind == "drop_entry" and rows and rows[i % len(rows)]:
        rows[i % len(rows)].pop(j % len(rows[i % len(rows)]))
    elif kind == "drop_key":
        data.pop(("index_set", "matrix")[i % 2], None)
    elif kind == "extra_key":
        data["extra"] = value
    elif kind == "top":
        return [data] if i % 2 else value
    return data


def _cli_argv(command, path, words, expression, flag):
    """argv for one request; '--' keeps a value that starts with '-' positional."""
    if command == "validate":
        return ["validate", path]
    if command == "word":
        return ["word"] + ["--canonical"] * flag + ["--", path, words[0]]
    if command == "bruhat":
        return ["bruhat", "--", path, words[0], words[1]]
    if command == "equiv":
        return ["equiv", "--left", f"{path}:{words[0]}", "--right", f"{path}:{words[1]}"]
    if command == "isom-classes":
        return ["--max-length", "3", "isom-classes", path]
    if command in ("cohomology", "export-oracle"):
        return ["--max-elements", "64", command, "--", path, words[0]]
    if command == "automorphisms":
        return ["automorphisms"] + ["--graph"] * flag + [path]
    return ["normal-form"] + ["--specialize", path] * flag + ["--", expression]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, len(FUZZ_CARTANS) - 1),
    st.lists(CARTAN_MUTATIONS, max_size=3),
    BYTE_MUTATIONS,
    st.sampled_from(COMMANDS),
    st.tuples(WORDS, WORDS),
    EXPRESSIONS,
    st.booleans(),
)
def test_cli_fuzzed_input_exits_cleanly(which, mutations, cut, command, words, expression,
                                        flag):
    """Mutated Cartan JSON and CLI arguments either succeed (exit 0, and
    `validate` echoes the input matrix exactly) or are rejected as a typed
    error (exit 2, an `error:` line and nothing on stdout); no exception
    escapes cli.main."""
    data = copy.deepcopy(FUZZ_CARTANS[which])
    for mutation in mutations:
        data = _mutate_cartan(data, *mutation)
    raw = json.dumps(data).encode()
    if cut is not None:
        at, byte = cut[0] % (len(raw) + 1), cut[1]
        raw = raw[:at] + (bytes([byte]) + raw[at:] if byte is not None else b"")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cartan.json")
        with open(path, "wb") as fh:
            fh.write(raw)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_cli_argv(command, path, words, expression, flag))
    assert code in (0, 2), err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue())
        if command == "validate":
            source = json.loads(raw)
            assert payload["cartan"] == {key: source[key] for key in ("index_set", "matrix")}
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


class TestNormalForm:
    def test_plain(self, capsys):
        payload = run_json(capsys, "normal-form", "h1*e2*e3*f2")
        assert payload["normal_form"] == "(-a12)*f2*e2*e3 + h1*h2*e3 + f2*h1*e2*e3"

    def test_specialize(self, capsys, a3_file):
        payload = run_json(
            capsys,
            "normal-form",
            "h[s1]*e[s2]*e[s3]*f[s2]",
            "--specialize",
            a3_file,
        )
        assert "specialized" in payload
        assert "a[" not in payload["specialized"]

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "normal-form", "g1*f2")
        assert code == 2
        code, out, err = run(capsys, "normal-form", "f1 $ f2")
        assert (code, out) == (2, "")
        assert "unexpected character" in err

    @pytest.mark.parametrize("text", ["f[+]", "f[(]", "e[]]", "h[,]", "e[+]*f[+]"])
    def test_bad_bracket_index_exits_2(self, capsys, text):
        code, out, err = run(capsys, "normal-form", text)
        assert code == 2
        assert out == ""
        assert "expected an index label" in err

    def test_rewrite_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(freealg, "REWRITE_CAP", 100)
        code, out, err = run(capsys, "normal-form", "*".join(["e1"] * 5 + ["f1"] * 5))
        assert code == 2
        assert out == ""
        assert "rewrite cap 100" in err

    def test_leading_dash_is_a_usage_error(self, capsys):
        """Without '--', '-h1' is read as the -h option with an argument on
        every Python version (3.13's argparse alone would print the help):
        main returns the usage error's status instead of raising SystemExit."""
        code, out, err = run(capsys, "normal-form", "-h1")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ")


class TestAutomorphisms:
    def test_d4_diagram(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(D4.to_json()))
        payload = run_json(capsys, "automorphisms", str(path))
        assert payload["count"] == 6

    def test_c3_graph_vs_diagram(self, capsys, c3_file):
        assert run_json(capsys, "automorphisms", c3_file)["count"] == 1
        assert (
            run_json(capsys, "automorphisms", c3_file, "--graph")["count"] == 2
        )

    def test_d4_affine(self, capsys, tmp_path):
        path = tmp_path / "d4aff.json"
        path.write_text(json.dumps(D4_AFFINE.to_json()))
        payload = run_json(capsys, "automorphisms", str(path))
        assert payload["count"] == 24


class TestFormatting:
    def test_table_output(self, capsys, a3_file):
        code, out, _ = run(capsys, "--format", "table", "word", a3_file, "s1 s2")
        assert code == 0
        assert "length" in out
        assert "{" not in out

    def test_output_file(self, capsys, a3_file, tmp_path):
        dest = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "--output", str(dest), "word", a3_file, "s1 s2"
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["length"] == 2

    def test_deterministic_json(self, capsys, a3_file):
        one = run(capsys, "word", a3_file, "s2 s1 s3 s2")[1]
        two = run(capsys, "word", a3_file, "s2 s1 s3 s2")[1]
        assert one == two


def _mixed_requests(cartan, tmp_path):
    """Requests that set each global option, and the same requests without
    it, with typed errors, usage errors and help among them."""
    out = str(tmp_path / "out.json")
    return [
        ["word", cartan, "s2 s3 s1 s2"],
        ["--format", "table", "word", cartan, "s2 s3 s1 s2"],
        ["word", cartan, "s1 s2", "--canonical"],
        ["word", cartan, "s1 s2"],
        ["--strict", "bruhat", cartan, "s1 s2", "s2 s1"],
        ["bruhat", cartan, "s1 s2", "s2 s1"],
        ["--output", out, "validate", cartan],
        ["validate", cartan],
        ["--max-length", "4", "isom-classes", cartan],
        ["isom-classes", cartan],
        ["--seed", "7", "export-oracle", cartan, "s1 s2 s3"],
        ["export-oracle", cartan, "s1 s2 s3"],
        ["--max-elements", "2", "cohomology", cartan, "s1 s2 s3"],
        ["automorphisms", cartan, "--graph"],
        ["automorphisms", cartan],
        ["normal-form", "h1*e2*e3*f2"],
        ["word", cartan, "s7"],
        ["normal-form", "g1*f2"],
        ["normal-form", "-h1"],
        ["--max-length", "x", "isom-classes", cartan],
        ["frobnicate"],
        ["bruhat", cartan],
        ["--help"],
        ["word", "--help"],
    ]


def test_cap_flags_name_what_they_bound():
    helps = {a.dest: a.help for a in cli.build_parser()._actions}
    assert helps["max_length"].startswith("isom-classes:")
    assert helps["max_elements"].startswith("isom-classes, cohomology, export-oracle:")


def test_parser_built_once(capsys, monkeypatch, a3_file, tmp_path):
    """Every request in a process after the first reuses the first's parser."""
    monkeypatch.setattr(cli, "_parser", None)
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    requests = _mixed_requests(a3_file, tmp_path)
    for argv in requests + requests[::-1]:
        run(capsys, *argv)
    assert len(builds) == 1


def test_shared_parser_answers_as_a_fresh_one(capsys, monkeypatch, a3_file, tmp_path):
    """A request's (status, stdout, stderr) does not depend on which requests
    the held parser served before it: forward and reversed through one
    parser, and through a fresh parser per request, all agree."""
    monkeypatch.setenv("COLUMNS", "80")
    requests = _mixed_requests(a3_file, tmp_path)
    monkeypatch.setattr(cli, "_parser", None)
    forward = [run(capsys, *argv) for argv in requests]
    reversed_ = [run(capsys, *argv) for argv in requests[::-1]][::-1]
    fresh = []
    for argv in requests:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert forward == reversed_ == fresh
    statuses = [code for code, _, _ in fresh]
    assert statuses.count(0) >= 14 and {1, 2} <= set(statuses)


def _readme_cli_lines():
    """The command lines of the README's CLI example block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """Every README CLI line exits 0, in order (reconstruct reads the oracle
    that export-oracle wrote), against fixture files of the README's names."""
    numbered = CartanMatrix(["1", "2", "3"], A3.entries)
    for name, A in [("a3", A3), ("c3", C3), ("d4", D4), ("a3-numbered", numbered)]:
        (tmp_path / f"{name}.json").write_text(json.dumps(A.to_json()))
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) == 10
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "schubertisom"
        code, _, err = run(capsys, *argv)
        assert code == 0, f"{line}: {err}"
