"""Tests of the benchmark itself: its generators and its output checks.

    python3 -m pytest bench/test_bench.py

These import only the benchmark's own modules, never the package.
"""

import json
from collections import Counter

import pytest

import algebra
import compare
import workloads as W
from model import Model, classify


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generators_repeat_for_a_seed(workload):
    generate = W.GENERATORS[workload]
    assert json.dumps(generate(7)) == json.dumps(generate(7))
    assert json.dumps(generate(7)) != json.dumps(generate(8))


def test_generators_give_the_stated_shares():
    ops = W.roundtrip_inputs(7)
    cells = Counter((len(matrix[0]), len(word)) for _, matrix, word, _ in ops[:-2])
    assert len(cells) == 3 * W.ROUNDTRIP_MAX_LENGTH
    assert set(cells.values()) == {W.ROUNDTRIP_PER_CELL}
    assert all(Model(*matrix).is_reduced(word) for _, matrix, word, _ in ops)

    _, requests = W.queries_inputs(7)
    assert Counter(kind for kind, _ in requests) == dict(W.QUERY_MIX)
    autos = Counter(" ".join(argv) for kind, argv in requests if kind == "automorphisms")
    assert len(autos) == len(W.AUTOMORPHISMS) and len(set(autos.values())) == 1


def test_paper_references_agree_with_the_model():
    a3 = W._classes_reference("A3", W.LIBRARY["A3"], 6)["table"]
    assert a3 == classify(Model(*W.LIBRARY["A3"]), 6)
    assert len(classify(Model(*W.LIBRARY["A4"]), 10)) == W.PAPER_COUNTS["A4"]
    vector = algebra.normal_form(algebra.parse(W.CRITERION_8[0]))
    assert vector == algebra.parse(W.CRITERION_8[1])


def _classes_output(table):
    return {"classes": [sorted(list(w) for w in members) for members in table]}


def test_classes_check_rejects_a_count_off_by_one():
    inputs = [("A3", W.LIBRARY["A3"], 6), ("A4", W.LIBRARY["A4"], 10)]
    a3 = W._classes_reference("A3", W.LIBRARY["A3"], 6)["table"]
    a4 = classify(Model(*W.LIBRARY["A4"]), 10)
    good = [_classes_output(a3), _classes_output(a4)]
    assert W.check_classes(inputs, good, {}) == {}

    merged = sorted(a4, key=len)
    merged = [merged[0] | merged[1]] + merged[2:]
    failures = W.check_classes(inputs, [good[0], _classes_output(merged)], {})
    assert list(failures) == [1] and "53 classes" in failures[1]

    split = sorted(a3, key=len)
    big = sorted(split[-1])
    split = split[:-1] + [frozenset(big[:1]), frozenset(big[1:])]
    assert len(W.check_classes(inputs, [_classes_output(split), good[1]], {})) == 1


def test_roundtrip_check_rejects_a_mutated_witness():
    matrix = W.LIBRARY["A3"]
    word = ("s1", "s2", "s3")
    inputs = [("r0", matrix, word, 0)]
    out = {"cartan": list(matrix), "word": list(word),
           "sigma": {"s1": "s1", "s2": "s2", "s3": "s3"}}
    assert W.check_roundtrip(inputs, [out]) == {}
    mutated = dict(out, sigma={"s1": "s2", "s2": "s1", "s3": "s3"})
    assert len(W.check_roundtrip(inputs, [mutated])) == 1
    assert len(W.check_roundtrip(inputs, [dict(out, sigma=None)])) == 1
    assert len(W.check_roundtrip(inputs, [{"error": "TypeError: boom"}])) == 1


def test_query_check_rejects_wrong_bytes():
    files = {name: {"index_set": m[0], "matrix": m[1]} for name, m in W.LIBRARY.items()}
    argv = ["word", "@A3", "s2 s3 s1 s2"]
    good = W._word_reference(files, argv)
    assert json.loads(good)["canonical_word"] == ["s2", "s1", "s3", "s2"]
    assert W.query_problem(files, "word", argv, (0, good, None), {}) is None
    wrong = good.replace('"length": 4', '"length": 5')
    assert W.query_problem(files, "word", argv, (0, wrong, None), {}) is not None
    assert W.query_problem(files, "word", argv, (1, good, None), {}) is not None

    autos = ["automorphisms", "@D4"]
    d4 = W._dumps({"count": 1, "automorphisms": [{s: s for s in W.LIBRARY["D4"][0]}]})
    assert W.query_problem(files, "automorphisms", autos, (0, d4, None), {}) is not None

    bad = ["validate", "@missing_index_set"]
    assert W.query_problem(files, "malformed", bad, (2, "", None), {}) is None
    assert W.query_problem(files, "malformed", bad, (None, "", "KeyError"), {}) is not None


def test_compare_verdicts():
    assert compare.verdict([10, 11, 10, 12], [5, 6, 5, 6], "lower", 0.1) == "better"
    assert compare.verdict([10, 11, 10, 12], [15, 16, 15, 16], "lower", 0.1) == "worse"
    assert compare.verdict([10, 11, 10, 12], [10, 11, 10, 12], "lower", 0.1) == "unresolved"
