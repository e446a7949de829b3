"""Compare two result sets from bench/run.py, workload by workload.

    python3 bench/compare.py OLD NEW

OLD and NEW are files holding the stdout of one or more runs; each run
prints one `record` line per workload.  Runs are paired in file order.  For
every workload and metric this prints each side's median and quartiles and
a verdict:

  better      NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than OLD's interquartile range;
  worse       the same rule with the sides swapped, or NEW's median is worse
              than OLD's by more than the metric's bound in BENCHMARK.json
              while OLD's own spread is within that bound;
  unresolved  anything else.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

import spans  # noqa: E402


def load_records(path):
    records = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("record "):
            rec = json.loads(line[len("record "):])
            records.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return records


def metric_specs():
    """{name: (better, bound or None)} from BENCHMARK.json and the layer list."""
    specs = {name: (better, None) for name, _, better in spans.per_layer_metrics()}
    bench_json = BENCH.parent / "BENCHMARK.json"
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        for m in spec["end_to_end"]:
            specs[m["name"]] = (m["better"], m["bound"])
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    sign = 1 if better == "higher" else -1
    pairs = list(zip(old, new))
    new_wins = sum(sign * (n - o) > 0 for o, n in pairs)
    old_wins = sum(sign * (o - n) > 0 for o, n in pairs)
    q1, median_old, q3 = quartiles(old)
    median_new = quartiles(new)[1]
    gap = abs(median_new - median_old)
    if pairs and new_wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "better"
    if pairs and old_wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "worse"
    if bound is not None and median_old:
        spread = (q3 - q1) / abs(median_old)
        if spread <= bound and sign * (median_new - median_old) < -bound * abs(median_old):
            return "worse"
    return "unresolved"


def compare(old_path, new_path):
    old_sets, new_sets = load_records(old_path), load_records(new_path)
    specs = metric_specs()
    rows = []
    for key in sorted(set(old_sets) & set(new_sets)):
        old_runs, new_runs = old_sets[key], new_sets[key]
        for name, m in old_runs[0]["metrics"].items():
            old = [r["metrics"][name]["value"] for r in old_runs if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for r in new_runs if name in r["metrics"]]
            if not old or not new:
                continue
            better, bound = specs.get(name, ("lower", None))
            rows.append((key[0], name, m["unit"], quartiles(old), quartiles(new),
                         f"{len(old)}/{len(new)}", verdict(old, new, better, bound)))
    return rows


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    fmt = "{:<10} {:<42} {:<6} {:>34} {:>34} {:>6} {}"
    print(fmt.format("workload", "metric", "unit", "old median [q1, q3]",
                     "new median [q1, q3]", "runs", "verdict"))
    for workload, name, unit, old, new, runs, result in compare(*args):
        cell = "{1:.6g} [{0:.6g}, {2:.6g}]"
        print(fmt.format(workload, name, unit, cell.format(*old), cell.format(*new), runs, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
