# Checks shared by the bash steps of .github/workflows/tests.yml, one
# function per kind of check.  A step sources this file (`. tools/ci.sh`)
# and runs under `bash -eo pipefail`, so a check that returns non-zero ends
# the step.  Files go to $RUNNER_TEMP.  Failure notes go to the step's own
# stderr (fd 9), even when a check's caller redirects stderr to a file.
exec 9>&2
ci_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# exits CODE CMD...: CMD exits with status CODE.
exits() {
  local want=$1 status=0
  shift
  "$@" || status=$?
  [ "$status" -eq "$want" ] || { echo "exit $status, expected $want: $*" >&9; return 1; }
}

# bounded SECONDS MB CMD...: CMD exits 0 within SECONDS, at a peak RSS below MB.
bounded() {
  timeout "$1" python -c 'import resource, subprocess, sys; status = subprocess.call(sys.argv[2:]); peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024; print(*sys.argv[2:4], f"peak RSS {peak:.0f} MB", file=sys.stderr); sys.exit(status or peak >= float(sys.argv[1]))' "${@:2}"
}

# canonical FILE: FILE holds JSON in the bytes of `json.tool --indent 2 --sort-keys`.
canonical() {
  python -m json.tool --indent 2 --sort-keys "$1" | cmp - "$1"
}

# refuses PATTERN CMD...: CMD is refused as the CLI refuses bad input: it
# exits 2, writes nothing to stdout and no `Traceback` to stderr, and its
# stderr matches PATTERN, a Python regular expression in which ^ and $ match
# at each line.
refuses() {
  local pattern=$1 out="$RUNNER_TEMP/refuses.out" err="$RUNNER_TEMP/refuses.err"
  shift
  exits 2 "$@" > "$out" 2> "$err" || return 1
  [ ! -s "$out" ] || { echo "refusal wrote to stdout: $*" >&9; return 1; }
  ! grep Traceback "$err" >&9 || return 1
  python -c 'import re, sys; sys.exit(not re.search(sys.argv[1], open(sys.argv[2], encoding="utf-8", errors="replace").read(), re.M))' "$pattern" "$err" ||
    { echo "stderr does not match $pattern: $*" >&9; cat "$err" >&9; return 1; }
}

# field FILE KEY JSON: FILE holds a JSON object whose KEY equals the JSON
# value, both read with the json module, so `true` is not `1` and `14` is
# not `146`.
field() {
  python -c 'import json, sys; got, want = (json.dumps(v, sort_keys=True) for v in (json.load(open(sys.argv[1]))[sys.argv[2]], json.loads(sys.argv[3]))); sys.exit(got != want and f"{sys.argv[1]}: {sys.argv[2]} is {got}, expected {want}")' "$@" 2>&9
}

# rebuilt CARTAN WORD: the oracle of WORD over CARTAN exports within 60 s as
# canonical JSON, reconstructs, and the rebuilt pair is equivalent to the first.
rebuilt() {
  local out word
  out="$RUNNER_TEMP/$(basename "$1" .json)-rebuilt"
  timeout 60 schubertisom --output "$out.json" export-oracle "$1" "$2" &&
    canonical "$out.json" &&
    schubertisom reconstruct "$out.json" > "$out.out" &&
    word="$(python -c 'import json, sys; d = json.load(open(sys.argv[1])); json.dump(d["cartan"], open(sys.argv[2], "w")); print(" ".join(d["word"]))' "$out.out" "$out-cartan.json")" &&
    schubertisom equiv --left "$1:$2" --right "$out-cartan.json:$word" > "$out-equiv.out" &&
    field "$out-equiv.out" equivalent true
}

# matrix EXPR: print the JSON of a Cartan matrix from the test catalogue in
# tests/conftest.py, such as `matrix 'star(6)'` or `matrix B4`.  The
# repository is found from this file, so a step may run anywhere.
matrix() {
  python -c 'import json, sys; sys.path[:0] = sys.argv[2:]; import conftest; print(json.dumps(eval(sys.argv[1], vars(conftest)).to_json()))' "$1" "$ci_root/tests" "$ci_root/src"
}

# classes SECONDS EXPR LENGTH COUNT: `isom-classes` on the catalogue matrix
# EXPR to LENGTH ends within SECONDS under 300 MB and prints COUNT classes as
# canonical JSON.
classes() {
  local out
  out="$RUNNER_TEMP/classes-$(printf '%s-%s' "$2" "$3" | tr -c 'A-Za-z0-9-' _)"
  matrix "$2" > "$out.json" &&
    bounded "$1" 300 schubertisom --max-length "$3" isom-classes "$out.json" > "$out.out" &&
    field "$out.out" count "$4" &&
    canonical "$out.out"
}

# bench_smoke TRACE: each benchmark workload runs for 3 s with --trace TRACE
# and its last line reports correct results.  classes checks only `correct`:
# the benchmark's A5 = 316 datum fails one op on correct code (ROADMAP item
# 1a); the other workloads need failed == 0.
bench_smoke() {
  local workload
  for workload in classes roundtrip queries; do
    python3 bench/run.py --workload "$workload" --seconds 3 --trace "$1" | tee "$RUNNER_TEMP/$workload-$1.out" &&
      tail -n 1 "$RUNNER_TEMP/$workload-$1.out" | python3 -c 'import json, sys; r = json.load(sys.stdin); sys.exit(not (r["correct"] is True and (sys.argv[1] == "classes" or r["failed"] == 0)))' "$workload" ||
      return 1
  done
}
