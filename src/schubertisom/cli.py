"""Command-line interface with deterministic, diff-stable JSON/text output."""

import argparse
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import cohomology, equivalence, freealg, weyl
from .reconstruct import reconstruct as _reconstruct_oracle
from .cartan import CartanMatrix, diagram_automorphisms, graph_automorphisms, simple_graph
from .errors import SchubertError


def _converted(convert, value):
    """convert(value), with an integer past sys.get_int_max_str_digits(), which
    int() and str() refuse with a plain ValueError, as a typed error."""
    try:
        return convert(value)
    except (json.JSONDecodeError, UnicodeError):  # ValueErrors too, which main reports
        raise
    except ValueError as exc:
        raise SchubertError(f"integer too long to convert: {exc}") from None


def _json_loads(text):
    """json.loads, reporting input nested too deep for the decoder as a typed error."""
    try:
        return _converted(json.loads, text)
    except RecursionError:
        raise SchubertError("JSON input is nested too deeply") from None


def _read_json(path):
    """The JSON value of a file's bytes, which json.loads decodes whatever the
    locale: UTF-8, with or without a BOM, or UTF-16 or UTF-32."""
    with open(path, "rb") as fh:
        return _json_loads(fh.read())


def _load_cartan(path):
    return CartanMatrix.from_json(_read_json(path))


def _parse_word(text):
    text = text.strip()
    return tuple(_json_loads(text) if text.startswith("[") else text.split())


def _parse_pair(value, matrices):
    """Parse 'cartan.json:word' into (CartanMatrix, word), each file read once into `matrices`."""
    path, sep, word = value.partition(":")
    if not sep:
        raise SchubertError(f"expected FILE:WORD, got {value!r}")
    if path not in matrices:
        matrices[path] = _load_cartan(path)
    return matrices[path], _parse_word(word)


def _json_text(value):
    """The text of json.dumps(value, indent=2, sort_keys=True) for str-keyed
    payloads.  One pass writes into one text buffer: a str or int in an
    entry is written inline, and a list of strings is quoted and joined at C
    speed.  The buffer holds a large output once, where a list of fragments
    would hold each as an object.  json.dumps with indent set runs the
    pure-Python encoder, slower, and leaves a reference cycle on every call."""
    buf = io.StringIO()
    _write(value, "\n", buf.write, "")
    return buf.getvalue()


def _write(value, pad, write, lead):
    """Write lead and the text of value, indented at pad."""
    inner = pad + "  "
    sep = "," + inner
    if isinstance(value, dict):
        head = lead + "{" + inner
        for k in sorted(value):  # sorting the keys alone is faster than the items
            v = value[k]
            if type(v) is str:
                write(f"{head}{_quote(k)}: {_quote(v)}")
            elif type(v) is int:
                write(f"{head}{_quote(k)}: {v}")
            else:
                _write(v, inner, write, f"{head}{_quote(k)}: ")
            head = sep
        write(pad + "}" if value else lead + "{}")
    elif isinstance(value, (list, tuple)):
        if value and type(value[0]) is str:
            try:  # _quote refuses anything but a str, so the text is exact
                write(f"{lead}[{inner}" + sep.join(map(_quote, value)) + f"{pad}]")
                return
            except TypeError:
                pass
        head = lead + "[" + inner
        for v in value:
            if type(v) is str:
                write(head + _quote(v))
            elif type(v) is int:
                write(f"{head}{v}")
            else:
                _write(v, inner, write, head)
            head = sep
        write(pad + "]" if value else lead + "[]")
    elif value is None or type(value) is bool:
        write(lead + ("null" if value is None else "true" if value else "false"))
    else:  # a str or int subclass, or json's own TypeError for a non-JSON value
        write(lead + json.dumps(value))


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
    text = _converted(_render_table if args.format == "table" else _json_text, payload)
    if args.output:
        if not text.isascii():  # JSON always is; a table fails here, before the file opens
            text.encode("utf-8")
        with open(args.output, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)
    return exit_code


def _render_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):  # else a list
        width = max((len(str(k)) for k in payload), default=0)
        items = [(f"{k}:", str(k).ljust(width) + " ", payload[k]) for k in sorted(payload)]
    else:
        items = [("-", "-", value) for value in payload]
    lines = []
    for header, lead, value in items:
        if isinstance(value, (dict, list)):
            lines += [pad + header, _render_table(value, indent + 1)]
        else:
            lines.append(f"{pad}{lead} {value}")
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
    texts = [" ".join(word) for word in words]
    table = cohomology._product_table(itv, words)
    del itv
    products = {
        f"{words[g][0]}|{texts[p]}": [{"word": list(word), "coeff": c} for word, c in terms]
        for g, p, terms in table
    }
    return _emit(args, {"interval_size": len(words), "products": products})


def cmd_export_oracle(args):
    A = _load_cartan(args.cartan)
    w = weyl.element_from_word(A, _parse_word(args.word))
    oracle = cohomology.export_oracle(w, seed=args.seed, max_elements=args.max_elements)
    return _emit(args, oracle.to_json())


def cmd_reconstruct(args):
    oracle = cohomology.CohomologyOracle.from_json(_read_json(args.oracle))
    return _emit(args, _reconstruct_oracle(oracle).to_json())


def cmd_normal_form(args):
    tau = freealg.parse(args.expression)
    normal = freealg.eta(tau)
    payload = {"input": _converted(str, tau), "normal_form": _converted(str, normal)}
    if args.specialize:
        A = _load_cartan(args.specialize)
        payload["specialized"] = _converted(str, freealg.specialize(normal, A))
    return _emit(args, payload)


def cmd_automorphisms(args):
    A = _load_cartan(args.cartan)
    if args.graph:
        autos = graph_automorphisms(simple_graph(A))
    else:
        autos = diagram_automorphisms(A)
    return _emit(args, {"count": len(autos), "automorphisms": autos})


def build_parser():
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--format", choices=("json", "table"), default="json")
    options.add_argument("--output", metavar="FILE", default=None)
    options.add_argument("--strict", action="store_true",
                         help="exit 1 on negative domain results")
    options.add_argument("--max-length", type=_count, default=20,
                         help="isom-classes: classify the elements of at most this length "
                              "(default %(default)s)")
    options.add_argument("--max-elements", type=_count, default=weyl.DEFAULT_ELEMENT_CAP,
                         help="isom-classes, cohomology, export-oracle: exit 2 rather "
                              "than enumerate more than this many elements "
                              "(default %(default)s)")
    options.add_argument("--seed", type=int, default=0)
    parser = argparse.ArgumentParser(
        prog="schubertisom",
        description="Exact Schubert variety isomorphism toolkit",
        parents=[options],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # What _parse reads: each subcommand's parser, and the global options' defaults
    parser.subcommands = sub.choices
    parser.global_defaults = vars(options.parse_args([]))  # immutable: requests share them

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


def _parse(parser, argv):
    """parser.parse_args(argv), but a request that starts with a subcommand is
    parsed by that subcommand's parser alone, into the global defaults, as
    global options go before it.  Its usage error shows the subcommand's usage,
    and a hint if a token before "--" is, or abbreviates, a global option."""
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    try:
        return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0], **parser.global_defaults))
    except SystemExit as exc:
        names = ["--" + name.replace("_", "-") for name in sorted(parser.global_defaults)]
        heads = [t.partition("=")[0] for t in (argv[:argv.index("--")] if "--" in argv else argv)]
        if exc.code and any(len(h) > 2 and n.startswith(h) for h in heads for n in names):
            print(f"hint: the global options ({', '.join(names)}) go before the subcommand",
                  file=sys.stderr)
        raise


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
        args = _parse(_parser, argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except SchubertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
