"""Command-line interface with deterministic, diff-stable JSON/text output."""

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import cohomology, equivalence, freealg, weyl
from .reconstruct import reconstruct as _reconstruct_oracle
from .cartan import CartanMatrix, diagram_automorphisms, graph_automorphisms, simple_graph
from .errors import SchubertError


def _json_loads(text):
    """json.loads, reporting input nested too deep for the decoder as a typed error."""
    try:
        return json.loads(text)
    except RecursionError:
        raise SchubertError("JSON input is nested too deeply") from None


def _load_cartan(path):
    with open(path) as fh:
        data = _json_loads(fh.read())
    return CartanMatrix.from_json(data)


def _parse_word(text):
    text = text.strip()
    if text.startswith("["):
        return tuple(_json_loads(text))
    return tuple(text.split())


def _parse_pair(value, matrices):
    """Parse 'cartan.json:word' into (CartanMatrix, word), each file read once into `matrices`."""
    path, sep, word = value.partition(":")
    if not sep:
        raise SchubertError(f"expected FILE:WORD, got {value!r}")
    if path not in matrices:
        matrices[path] = _load_cartan(path)
    return matrices[path], _parse_word(word)


def _json_text(value, pad="\n"):
    """The text of json.dumps(value, indent=2, sort_keys=True), for the
    str-keyed dicts, lists, tuples, str, int, bool and None that payloads
    hold.  With indent set the json module runs its pure-Python encoder,
    whose nested closures leave a reference cycle behind on every call;
    this writer is plain recursion and leaves none."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_quote(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in value) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _count(text):
    """The argparse type of --max-length and --max-elements: an integer >= 0,
    else a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _emit(args, payload, exit_code=0):
    if args.format == "table":
        text = _render_table(payload)
    else:
        text = _json_text(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _render_table(payload, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        width = max((len(str(k)) for k in payload), default=0)
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_table(value, indent + 1))
            else:
                lines.append(f"{pad}{str(key).ljust(width)}  {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_table(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return "\n".join(lines)


def cmd_validate(args):
    A = _load_cartan(args.cartan)
    return _emit(args, {"valid": True, "cartan": A.to_json()})


def cmd_word(args):
    A = _load_cartan(args.cartan)
    w = weyl.element_from_word(A, _parse_word(args.word))
    order = A.index_set.index
    if args.canonical:
        return _emit(args, list(w.canonical_word))
    return _emit(
        args,
        {
            "canonical_word": list(w.canonical_word),
            "length": w.length,
            "support": sorted(weyl.support(w), key=order),
            "left_descents": sorted(w.left_descents(), key=order),
            "right_descents": sorted(w.right_descents(), key=order),
        },
    )


def cmd_bruhat(args):
    A = _load_cartan(args.cartan)
    u = weyl.element_from_word(A, _parse_word(args.lower))
    w = weyl.element_from_word(A, _parse_word(args.upper))
    leq = weyl.bruhat_leq(u, w)
    return _emit(args, {"leq": leq}, 0 if leq or not args.strict else 1)


def cmd_equiv(args):
    matrices = {}
    A, word_left = _parse_pair(args.left, matrices)
    B, word_right = _parse_pair(args.right, matrices)
    w = weyl.element_from_word(A, word_left)
    w_prime = weyl.element_from_word(B, word_right)
    witness = equivalence.check_equivalence(w, w_prime)
    payload = {
        "equivalent": witness is not None,
        "witness": witness.to_json() if witness else None,
    }
    return _emit(args, payload, 0 if witness or not args.strict else 1)


def cmd_isom_classes(args):
    A = _load_cartan(args.cartan)
    classes = equivalence.isom_classes(A, args.max_length, args.max_elements)
    payload = {
        "count": len(classes),
        "classes": [
            {
                "representative": list(members[0].canonical_word),
                "members": [list(m.canonical_word) for m in members],
            }
            for members in classes
        ],
    }
    return _emit(args, payload)


def cmd_cohomology(args):
    A = _load_cartan(args.cartan)
    w = weyl.element_from_word(A, _parse_word(args.word))
    itv = weyl.interval(w, args.max_elements)
    words = [v.canonical_word for v in itv.elements]
    order = A.index_set.index
    products = {}
    for s in sorted(weyl.support(w), key=order):
        k = order(s)
        for word_u, covers in zip(words, itv.up):
            # Position order is ShortLex by label index; the output lists
            # terms by their label words, which differ when labels are not
            # listed in sorted order.
            terms = sorted([(words[q], c) for q, coroot in covers if (c := coroot[k])])
            products[f"{s}|{' '.join(word_u)}"] = [
                {"word": list(word), "coeff": c} for word, c in terms
            ]
    return _emit(args, {"interval_size": len(itv), "products": products})


def cmd_export_oracle(args):
    A = _load_cartan(args.cartan)
    w = weyl.element_from_word(A, _parse_word(args.word))
    oracle = cohomology.export_oracle(w, seed=args.seed, max_elements=args.max_elements)
    return _emit(args, oracle.to_json())


def cmd_reconstruct(args):
    with open(args.oracle) as fh:
        oracle = cohomology.CohomologyOracle.from_json(_json_loads(fh.read()))
    presentation = _reconstruct_oracle(oracle)
    return _emit(args, presentation.to_json())


def cmd_normal_form(args):
    tau = freealg.parse(args.expression)
    normal = freealg.eta(tau)
    payload = {"input": str(tau), "normal_form": str(normal)}
    if args.specialize:
        A = _load_cartan(args.specialize)
        payload["specialized"] = str(freealg.specialize(normal, A))
    return _emit(args, payload)


def cmd_automorphisms(args):
    A = _load_cartan(args.cartan)
    if args.graph:
        autos = graph_automorphisms(simple_graph(A))
    else:
        autos = diagram_automorphisms(A)
    payload = {
        "count": len(autos),
        "automorphisms": [
            {s: sigma[s] for s in A.labels} for sigma in autos
        ],
    }
    return _emit(args, payload)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schubertisom",
        description="Exact Schubert variety isomorphism toolkit",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--output", metavar="FILE", default=None)
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on negative domain results")
    parser.add_argument("--max-length", type=_count, default=20,
                        help="isom-classes: classify the elements of at most this length "
                             "(default %(default)s)")
    parser.add_argument("--max-elements", type=_count, default=weyl.DEFAULT_ELEMENT_CAP,
                        help="isom-classes, cohomology, export-oracle: exit 2 rather "
                             "than enumerate more than this many elements "
                             "(default %(default)s)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a Cartan matrix JSON file")
    p.add_argument("cartan")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("word", help="canonical form, length, support, descents")
    p.add_argument("cartan")
    p.add_argument("word")
    p.add_argument("--canonical", action="store_true",
                   help="print only the canonical reduced word")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("bruhat", help="test u <= w in Bruhat order")
    p.add_argument("cartan")
    p.add_argument("lower")
    p.add_argument("upper")
    p.set_defaults(func=cmd_bruhat)

    p = sub.add_parser("equiv", help="decide Cartan equivalence of two pairs")
    p.add_argument("--left", required=True, metavar="FILE:WORD")
    p.add_argument("--right", required=True, metavar="FILE:WORD")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("isom-classes", help="isomorphism classes up to a length")
    p.add_argument("cartan")
    p.set_defaults(func=cmd_isom_classes)

    p = sub.add_parser("cohomology", help="Chevalley products over [e,w]")
    p.add_argument("cartan")
    p.add_argument("word")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("export-oracle", help="anonymized cohomology oracle JSON")
    p.add_argument("cartan")
    p.add_argument("word")
    p.set_defaults(func=cmd_export_oracle)

    p = sub.add_parser("reconstruct", help="rebuild (w', A') from an oracle file")
    p.add_argument("oracle")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("normal-form", help="free-algebra normal form of an expression")
    p.add_argument("expression")
    p.add_argument("--specialize", metavar="CARTAN_FILE", default=None)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("automorphisms", help="diagram or graph automorphisms")
    p.add_argument("cartan")
    p.add_argument("--graph", action="store_true",
                   help="automorphisms of the simple Coxeter graph")
    p.set_defaults(func=cmd_automorphisms)

    return parser


# The parser main builds on its first call and reuses on every later one;
# parse_args keeps no state between calls, so each request parses as it
# would with a fresh parser.
_parser = None


def main(argv=None):
    """Run one request and return its exit status, argparse's included:
    0 for --help, 2 for a usage error.

    A token "-h<more>" before "--" is a usage error on every Python version:
    argparse up to 3.12 refuses it, but 3.13 reads "-h1" as "-h -1" and
    prints the help."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    options = argv[:argv.index("--")] if "--" in argv else argv
    try:
        for arg in options:
            if arg.startswith("-h") and arg != "-h":
                _parser.error(f"argument -h/--help: ignored explicit argument {arg[2:]!r}")
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except SchubertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
