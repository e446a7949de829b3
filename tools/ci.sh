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

# refused OUT ERR: a refusal left OUT empty and no traceback in ERR.
refused() {
  [ ! -s "$1" ] || { echo "refusal wrote to stdout: $1" >&9; return 1; }
  ! grep Traceback "$2" >&9
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
    grep -q '"equivalent": true' "$out-equiv.out"
}

# matrix EXPR: print the JSON of a Cartan matrix from the test catalogue in
# tests/conftest.py, such as `matrix 'star(6)'` or `matrix B4`.  The
# repository is found from this file, so a step may run anywhere.
matrix() {
  python -c 'import json, sys; sys.path[:0] = sys.argv[2:]; import conftest; print(json.dumps(eval(sys.argv[1], vars(conftest)).to_json()))' "$1" "$ci_root/tests" "$ci_root/src"
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
