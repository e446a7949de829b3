"""Spans around the package's layer functions, installed from outside it.

Each wrapped call records a span: its function, start, end, parent span and
the id of the benchmark op it belongs to.  Spans are kept in flat arrays in
memory and written out when the pass ends.  A function is wrapped at every
module that binds it by name, so calls made through an imported alias
(equivalence.element_from_word, cli._reconstruct_oracle, ...) become child
spans too.  Self time is a span's duration minus the time its children
cover.
"""

import gzip
import math
import sys
import time
from array import array

# The layer functions the traced run wraps, as (module, function).
TARGETS = (
    ("weyl", "multiply"), ("weyl", "element_from_word"),
    ("weyl", "enumerate_elements"), ("weyl", "interval"),
    ("weyl", "subword_products"), ("weyl", "cover_reflection"),
    ("weyl", "bruhat_leq"),
    ("cohomology", "export_oracle_with_map"), ("cohomology", "chevalley_product"),
    ("reconstruct", "reconstruct"), ("reconstruct", "recover_cartan"),
    ("reconstruct", "reduced_word_sets"),
    ("equivalence", "isom_classes"), ("equivalence", "check_equivalence"),
    ("cartan", "diagram_automorphisms"), ("cartan", "graph_automorphisms"),
    ("freealg", "parse"), ("freealg", "eta"), ("freealg", "specialize"),
    ("cli", "main"),
)

# Per-layer metrics besides <module>.<function>.calls and .self_s:
# (name, unit, better).
DERIVED = (
    ("weyl.interval.elements", "count", "lower"),
    ("weyl.interval.covers", "count", "lower"),
    ("reconstruct.words_built", "count", "lower"),
    ("reconstruct.words_used_ratio", "ratio", "higher"),
    ("equivalence.check_equivalence.hit_ratio", "ratio", "higher"),
    ("cartan.automorphisms.hit_ratio", "ratio", "higher"),
    ("freealg.eta.terms_out", "count", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("errors.typed", "count", "higher"),
    ("errors.untyped", "count", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.slowdown", "ratio", "lower"),
)

# Which end-to-end metric, on which workload, each layer should move.
LAYER_MAP = {
    "weyl.multiply, weyl.element_from_word, weyl.enumerate_elements":
        "classes.ops_per_s; queries.latency_p50_ms",
    "weyl.interval, weyl.subword_products, weyl.interval.elements, weyl.interval.covers, weyl.cover_reflection":
        "roundtrip.ops_per_s and latency_p99_ms; queries.ops_per_s (cold cohomology; "
        "queries.latency_p99_ms is set by the rank-8 automorphism searches); not classes",
    "weyl.bruhat_leq": "queries.latency_p50_ms",
    "cohomology.export_oracle_with_map, cohomology.chevalley_product": "roundtrip.ops_per_s",
    "reconstruct.reconstruct, reconstruct.recover_cartan, reconstruct.reduced_word_sets, "
    "reconstruct.words_built, reconstruct.words_used_ratio": "roundtrip.latency_p99_ms",
    "equivalence.isom_classes, equivalence.check_equivalence, equivalence.check_equivalence.hit_ratio":
        "classes.ops_per_s; not roundtrip",
    "cartan.diagram_automorphisms, cartan.graph_automorphisms, cartan.automorphisms.hit_ratio":
        "queries.latency_p99_ms",
    "freealg.parse, freealg.eta, freealg.specialize, freealg.eta.terms_out": "queries.latency_p50_ms",
    "cli.main, cli.output_bytes": "queries.latency_p50_ms",
    "errors.typed, errors.untyped": "queries failed/attempted",
}


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, function in TARGETS:
        out.append((f"{module}.{function}.calls", "count", "lower"))
        out.append((f"{module}.{function}.self_s", "s", "lower"))
    return out + list(DERIVED)


def _interval(counts, args, result):
    counts["weyl.interval.elements"] += len(result)
    counts["weyl.interval.covers"] += sum(len(v) for v in result.covers_up.values())


def _words(counts, args, result):
    counts["reconstruct.words_built"] += sum(len(words) for words in result.values())
    counts["reconstruct.basis"] += len(result)


def _witness(counts, args, result):
    counts["equivalence.check_equivalence.hits"] += result is not None


def _automorphisms(size):
    def hook(counts, args, result):
        counts["cartan.automorphisms.found"] += len(result)
        counts["cartan.automorphisms.tried"] += math.factorial(size(args[0]))
    return hook


def _terms(counts, args, result):
    counts["freealg.eta.terms_out"] += len(result.terms)


HOOKS = {
    "weyl.interval": _interval,
    "reconstruct.reduced_word_sets": _words,
    "equivalence.check_equivalence": _witness,
    "cartan.diagram_automorphisms": _automorphisms(lambda A: len(A.labels)),
    "cartan.graph_automorphisms": _automorphisms(lambda G: len(G.vertices.labels)),
    "freealg.eta": _terms,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.kinds = array("i")
        self.parents = array("q")
        self.ops = array("q")
        self.stack = []
        self.op = -1
        self.counts = dict.fromkeys(
            ("weyl.interval.elements", "weyl.interval.covers", "reconstruct.words_built",
             "reconstruct.basis", "equivalence.check_equivalence.hits",
             "cartan.automorphisms.found", "cartan.automorphisms.tried",
             "freealg.eta.terms_out"), 0)

    def install(self, package):
        """Wrap every TARGETS function wherever a package module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module_name, function in TARGETS:
            fn = getattr(sys.modules[f"{package}.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        kind = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        starts, ends, kinds, parents, ops, stack = (
            self.starts, self.ends, self.kinds, self.parents, self.ops, self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            kinds.append(kind)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """Per-layer metrics of the spans recorded so far."""
        n = len(self.starts)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            kind = self.kinds[i]
            calls[kind] += 1
            self_s[kind] += self.ends[i] - self.starts[i] - covered[i]
        out = {}
        for kind, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[kind]
            out[f"{name}.self_s"] = self_s[kind]
        c = self.counts
        out["weyl.interval.elements"] = c["weyl.interval.elements"]
        out["weyl.interval.covers"] = c["weyl.interval.covers"]
        out["reconstruct.words_built"] = c["reconstruct.words_built"]
        out["reconstruct.words_used_ratio"] = _ratio(c["reconstruct.basis"], c["reconstruct.words_built"])
        out["equivalence.check_equivalence.hit_ratio"] = _ratio(
            c["equivalence.check_equivalence.hits"], out["equivalence.check_equivalence.calls"])
        out["cartan.automorphisms.hit_ratio"] = _ratio(
            c["cartan.automorphisms.found"], c["cartan.automorphisms.tried"])
        out["freealg.eta.terms_out"] = c["freealg.eta.terms_out"]
        return out

    def write(self, path):
        """Write every span as a gzipped TSV line, times relative to the first."""
        origin = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{names[self.kinds[i]]}\t{self.starts[i] - origin:.9f}\t"
                         f"{self.ends[i] - origin:.9f}\t{self.parents[i]}\t{self.ops[i]}\n")


def _ratio(num, den):
    return num / den if den else 0.0
