"""One pass of a workload against the package, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--setup-only] [--spans FILE]

Imports the package from the checkout's src/, generates the workload's
inputs from the seed and runs every op once, timing each.  The last line
of stdout is a JSON object with the timings, memory figures, host
calibration and raw outputs; run.py checks the outputs.  With --setup-only
it stops after the set-up; with --spans it traces the pass and writes the
spans to FILE.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PACKAGE = "schubertisom"

import workloads  # noqa: E402  (bench/ is sys.path[0] when run as a script)


def import_package():
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"worker: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    for module in ("cartan", "weyl", "equivalence", "cohomology", "reconstruct",
                   "freealg", "errors", "cli"):
        importlib.import_module(f"{PACKAGE}.{module}")
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve() != init.resolve():
        raise SystemExit(f"worker: imported {package.__file__}, not {init}")
    return package


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb():
    """VmHWM: this process's own peak RSS.  (ru_maxrss would also count the
    parent's RSS at fork, which execve carries over.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Classes:
    """One op is one isom_classes call; its units are the elements classified."""

    def __init__(self, pkg, inputs, workdir):
        self.pkg = pkg
        self.calls = [(pkg.validate_cartan(rows, labels), bound)
                      for _, (labels, rows), bound in inputs]

    def ops(self):
        return len(self.calls)

    def run(self, i):
        A, bound = self.calls[i]
        words = [[list(m.canonical_word) for m in members]
                 for members in self.pkg.isom_classes(A, bound)]
        return sum(map(len, words)), {"classes": words}


class Roundtrip:
    """One op is export_oracle -> JSON -> reconstruct -> check_equivalence."""

    def __init__(self, pkg, inputs, workdir):
        self.pkg = pkg
        self.ops_ = [(pkg.validate_cartan(rows, labels), word, seed)
                     for _, (labels, rows), word, seed in inputs]

    def ops(self):
        return len(self.ops_)

    def run(self, i):
        pkg = self.pkg
        A, word, seed = self.ops_[i]
        w = pkg.element_from_word(A, word)
        text = json.dumps(pkg.export_oracle(w, seed=seed).to_json())
        rp = pkg.reconstruct(pkg.CohomologyOracle.from_json(json.loads(text)))
        witness = pkg.check_equivalence(w, pkg.element_from_word(rp.cartan, rp.word))
        return 1, {
            "cartan": [list(rp.cartan.labels), [list(r) for r in rp.cartan.entries]],
            "word": list(rp.word),
            "sigma": witness.sigma if witness is not None else None,
        }


class Queries:
    """One op is one CLI request made in-process through cli.main."""

    def __init__(self, pkg, inputs, workdir):
        self.cli = sys.modules[f"{PACKAGE}.cli"]
        files, requests = inputs
        workdir.mkdir(parents=True)
        for name, content in files.items():
            text = content if isinstance(content, str) else json.dumps(content)
            (workdir / f"{name}.json").write_text(text)
        # relative paths keep a ':' in the checkout's path out of FILE:WORD
        path_of = lambda name: os.path.relpath(workdir / f"{name}.json")  # noqa: E731
        self.requests = [(kind, workloads.resolve(argv, path_of)) for kind, argv in requests]
        self.counts = {"cli.output_bytes": 0, "errors.typed": 0, "errors.untyped": 0}

    def ops(self):
        return len(self.requests)

    def run(self, i):
        kind, argv = self.requests[i]
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaping exception is a failed request
                code, escaped = None, type(exc).__name__
        stdout = out.getvalue()
        self.counts["cli.output_bytes"] += len(stdout.encode())
        if escaped:
            self.counts["errors.untyped"] += 1
        elif kind == "malformed" and code == 2:
            self.counts["errors.typed"] += 1
        return 1, [code, stdout, escaped]


RUNNERS = {"classes": Classes, "roundtrip": Roundtrip, "queries": Queries}


# Host speed on a shared machine drifts by up to 1.6x over minutes.  A
# fixed pure-Python loop, timed by an interval timer throughout the pass
# (inside long ops too), measures that speed alongside the pass; run.py
# scales the pass's times by it.  The loop's own time is taken out of the
# op it interrupted.
CALIBRATION_EVERY_S = 0.2
CALIBRATION_LOOPS = 3


def calibrate():
    """Seconds one fixed pure-Python loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


class Calibrator:
    """Times calibrate() on SIGALRM every CALIBRATION_EVERY_S while active."""

    def __init__(self):
        self.samples = [calibrate() for _ in range(CALIBRATION_LOOPS)]
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += [calibrate() for _ in range(CALIBRATION_LOOPS)]


def run_pass(runner, tracer):
    n = runner.ops()
    latencies, outputs, units = [], [], 0
    tenth = max(1, -(-n // 10))
    rss_tenth = None
    with Calibrator() as calibrator:
        for i in range(n):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            spent = calibrator.spent
            try:
                done, out = runner.run(i)
            except Exception as exc:  # a raising op is a failed op; keep measuring
                done, out = 0, {"error": f"{type(exc).__name__}: {exc}"}
            latencies.append(time.perf_counter() - start - (calibrator.spent - spent))
            units += done
            outputs.append(out)
            if i + 1 == tenth:
                rss_tenth = rss_mb()
    return {
        "latencies_s": latencies,
        "units": units,
        "busy_s": sum(latencies),
        "rss_growth_mb": rss_mb() - rss_tenth,
        "peak_rss_mb": peak_rss_mb(),
        "calibration_s": statistics.median(calibrator.samples),
        "calibrations": len(calibrator.samples),
        "outputs": outputs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, metavar="FILE")
    args = parser.parse_args(argv)

    pkg = import_package()
    inputs = workloads.GENERATORS[args.workload](args.seed)
    workdir = BENCH / "work" / str(os.getpid())
    try:
        runner = RUNNERS[args.workload](pkg, inputs, workdir)
        if args.setup_only:
            return 0
        tracer = None
        if args.spans:
            from spans import Tracer
            tracer = Tracer()
            tracer.install(PACKAGE)
        result = run_pass(runner, tracer)
        if tracer is not None:
            layers = tracer.summary()
            layers.update(getattr(runner, "counts", {}))
            result["per_layer"] = layers
            tracer.write(args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
