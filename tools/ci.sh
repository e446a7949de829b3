# Checks shared by the bash steps of .github/workflows/tests.yml, one
# function per kind of check.  A step sources this file (`. tools/ci.sh`)
# and runs under `bash -eo pipefail`, so a check that returns non-zero ends
# the step.  Files go to $RUNNER_TEMP.  Failure notes go to the step's own
# stderr (fd 9), even when a check's caller redirects stderr to a file.
exec 9>&2

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

# type_a N [FIRST]: print the Cartan matrix JSON of type A_N over the labels
# sFIRST, sFIRST+1, ... (FIRST defaults to 1).
type_a() {
  python -c 'import json, sys; n, k = map(int, sys.argv[1:]); print(json.dumps({"index_set": [f"s{i + k}" for i in range(n)], "matrix": [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]}))' "$1" "${2:-1}"
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
