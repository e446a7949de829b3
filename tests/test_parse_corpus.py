"""Pin every parse result and every ParseError text on a seeded corpus.

The corpus mixes valid and invalid pieces of the text syntax, so that a
change to the reader that moves one accepted input, parsed value or error
message changes the digest.
"""

import hashlib
import random

from schubertisom.freealg import ParseError, parse

FACTORS = [
    "f1", "h2", "e3", "f[s1]", "e[01]", "a12", "a[s1,s2]", "(a12+1)", "0", "3", "12",
    "a123", "g1", "((a12))", "(f2)", "f[+]", "a[s1 s2]",
    "f[", "h[s2", "a[", "a[s1", "a[s1,", "a[s1,s2", "e[]", "$",
]
OPS = ["+", "-", "*", "(", ")", "[", "]", ","]
CORPUS_SIZE = 20_000
# sha256 of the records, computed on commit 22c9b00, before the reader was
# reduced to one token reader and one bracket reader.  2,317 of the 20,000
# expressions parse.
DIGEST = "42b66034f96da9471a8e51b94174e61df81976384ed4b0c44f10995754c4363c"


def corpus(seed=0, size=CORPUS_SIZE):
    """Half the expressions are factors joined by +, - or *; the other half
    are pieces and operators in any order.  Spaces appear between pieces."""
    rng = random.Random(seed)
    out = []
    for i in range(size):
        n = rng.randint(1, 5)
        if i % 2:
            pieces = [rng.choice(FACTORS + OPS) for _ in range(n)]
        else:
            pieces = [rng.choice(FACTORS)]
            for _ in range(n - 1):
                pieces += [rng.choice("+-*"), rng.choice(FACTORS)]
            if rng.random() < 0.2:
                pieces.insert(0, "-")
        out.append("".join(p + rng.choice(["", "", "", " "]) for p in pieces))
    return out


def records(texts):
    out = []
    for text in texts:
        try:
            out.append("ok " + str(parse(text)))
        except ParseError as exc:
            out.append(f"error {exc}")
    return out


def test_corpus_parses_and_errors_are_pinned():
    found = records(corpus())
    assert sum(r.startswith("ok ") for r in found) >= 1_000
    digest = hashlib.sha256("\n".join(found).encode()).hexdigest()
    assert digest == DIGEST
