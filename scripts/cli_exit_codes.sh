#!/bin/sh
# Runs the `lenalg` command line out of process on the two remark
# fixtures: make -> check --json -> verify-cert, comparing every command's
# exit code with the expected one (a pipe would report only the last).
#
#   remark-repaired: 0, 0, 0   (length one, certificate valid)
#   remark-literal:  0, 1, 0   (length > 1, violation certificate valid)
#
# The exhaustive pair oracle runs the same way: `oracle` exits 0 on the
# fixture dim3-f2-type3 and 1 on remark-literal made over F5, and
# `verify-cert` of each one's `oracle --json` report exits 0 (a "yes" has no
# certificate, so `verify-cert` runs the oracle again).  The text
# report on remark-literal over F5 must print `pairs checked: 614`: the
# position of the first violating pair, found through the line sweep, its
# partner scan and the witness re-scan.  Over Q the oracle scans basis
# lines and is exact too: it exits 0 on remark-repaired and 1 on
# remark-literal, and `verify-cert` of each one's `oracle --json` report
# exits 0.
#
# The characteristic-2 decider runs the same way: on the fixture
# char2-typeII-seeded (GF4, hidden basis) `check --json` and `verify-cert`
# both exit 0.  That fixture's identity is dense, so the engines that work
# modulo F*1 in A's own coordinates run on it too: `oracle` exits 0, and
# `length --json` and `verify-cert` of its report both exit 0.  `check` on
# the fixture dim3-f2-type4 prints `certificate: char-2 form dim3-f2-type4`.
# A forged certificate must be refused: `verify-cert` exits 1 on a report
# that claims the F2-only form dim3-f2-type3 for the table of that form over
# GF4, which is not length one.
# That table fails the crossed relation: `check` exits 1 and prints the
# witness `  left  = ([0,0], [1,0], [0,1])`, and `verify-cert` of its
# `check --json` report exits 0.
#
# `identities` on remark-repaired exits 0 and prints the associativity
# counterexample `associative: fails  (triple at indices [1, 1, 2])`.  Its
# `--json` report proves power-associativity by the length-one certificate
# (`"kind": "length-one"`), while on M_2(F2), which is not length one, the
# sweep tests one vector per line of A/F*1, 7 of its 16 (`"tested": 7`).
# Over Q the sweep tests a grid of C(dim-2+d, d) points: on M_2(Q) from
# `make matrix`, `identities --json` reports `"tested": 28` and no
# `"exhaustive"` key, since every verdict is a proof, and `--budget 419`
# exits 2, below the 28 * 15 = 420 products charged at degree 6.
#
# The word-span commands run the same way on M_2(F2) from `make matrix`:
# `length` prints `l(A) = 2`, and `length-set --set "e2;e3" --json` and
# `verify-cert` of its report both exit 0.  A set that does not generate
# is reported the same way: `length-set --set e2` prints
# `generates: no (closure has dimension 2)` and `dims: 1, 2, 2`, and
# `verify-cert` of its `--json` report exits 0.  An `algebra-length` certificate
# is checked out of process too: on F3+F3+F3 from `make direct-sum`,
# `length --json` exits 0 with `"value": 2`, and `verify-cert` of that
# report, which enumerates the subspaces again, exits 0.  Over F2 the word
# spans run on bitmask rows: on F2^5 from `make direct-sum`, `length` prints
# `l(A) = 2` and `subspaces examined: 67`, and `length --json` and
# `verify-cert` of its report, which enumerates again on those rows in a
# fresh process, both exit 0.
#
# Eight malformed calls must exit 2: `check` on a document over "F4" (4 is
# not prime), `check` on a document whose "metadata" is [] (not an object),
# `oracle --budget 10` on remark-repaired, whose 4 basis lines make 16
# pairs, `oracle --samples 5`, since the oracle does not sample,
# `check --budget 5`, since `check` takes no budget, `length-set --set e9`
# on the four-dimensional M_2(F2), `length-set --set "e²"` there, without
# a traceback (a superscript is not a basis index), and `oracle` on
# dim3-f2-type3 with LENALG_BUDGET=abc, whose error names LENALG_BUDGET.
# A closed stdout exits 2 too, with no traceback: `check --json` on
# remark-repaired piped into `true`, which exits before the report is
# written.
#
# Usage: sh scripts/cli_exit_codes.sh
# It runs the `lenalg` on PATH, or, when there is none, `python3 -m lenalg`
# with this checkout's `src` on PYTHONPATH.
set -u
if ! command -v lenalg > /dev/null 2>&1; then
    src=$(cd "$(dirname "$0")/../src" && pwd)
    lenalg() {
        PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python3 -m lenalg "$@"
    }
fi
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0
exec 3>&2  # the script's own stderr, for failures of calls whose stderr is redirected

run() {  # run EXPECTED_EXIT ARG...: one lenalg call
    want=$1
    shift
    lenalg "$@"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: lenalg $* exited $got, expected $want" >&3
        status=1
    fi
}

for case in "remark-repaired 0" "remark-literal 1"; do
    set -- $case
    doc="$dir/$1.json"
    report="$dir/$1.report.json"
    run 0 make fixture --name "$1" -o "$doc"
    run "$2" check --json "$doc" > "$report"
    run 0 verify-cert "$report"
done

run 0 identities "$dir/remark-repaired.json" > "$dir/repaired.identities.txt"
if ! grep -qxF "associative: fails  (triple at indices [1, 1, 2])" "$dir/repaired.identities.txt"; then
    echo "FAIL: lenalg identities on remark-repaired.json did not print the associativity counterexample" >&2
    status=1
fi

run 0 make fixture --name dim3-f2-type3 -o "$dir/type3.json"
run 0 oracle "$dir/type3.json"
run 0 oracle --json "$dir/type3.json" > "$dir/type3.oracle.json"
run 0 verify-cert "$dir/type3.oracle.json"
run 0 make fixture --name remark-literal --field F5 -o "$dir/literal-f5.json"
run 1 oracle --json "$dir/literal-f5.json" > "$dir/literal-f5.oracle.json"
run 0 verify-cert "$dir/literal-f5.oracle.json"
run 1 oracle "$dir/literal-f5.json" > "$dir/literal-f5.oracle.txt"
if ! grep -qx "pairs checked: 614" "$dir/literal-f5.oracle.txt"; then
    echo "FAIL: lenalg oracle on literal-f5.json did not print 'pairs checked: 614'" >&2
    status=1
fi

run 0 oracle "$dir/remark-repaired.json" > /dev/null
run 0 oracle --json "$dir/remark-repaired.json" > "$dir/repaired.oracle.json"
run 0 verify-cert "$dir/repaired.oracle.json"
run 1 oracle "$dir/remark-literal.json" > /dev/null
run 1 oracle --json "$dir/remark-literal.json" > "$dir/literal.oracle.json"
run 0 verify-cert "$dir/literal.oracle.json"

run 0 make fixture --name char2-typeII-seeded -o "$dir/typeII.json"
run 0 check --json "$dir/typeII.json" > "$dir/typeII.report.json"
run 0 verify-cert "$dir/typeII.report.json"
run 0 oracle "$dir/typeII.json"
run 0 length --json "$dir/typeII.json" > "$dir/typeII.length.json"
run 0 verify-cert "$dir/typeII.length.json"
run 0 make fixture --name dim3-f2-type4 -o "$dir/type4.json"
run 0 check "$dir/type4.json" > "$dir/type4.txt"
if ! grep -qx "certificate: char-2 form dim3-f2-type4" "$dir/type4.txt"; then
    echo "FAIL: lenalg check on type4.json did not print 'certificate: char-2 form dim3-f2-type4'" >&2
    status=1
fi
cat > "$dir/forged.json" <<'EOF'
{"report_version": 1, "kind": "length-one-decision", "verdict": true,
 "path": ["forged"], "flags": [],
 "certificate": {"type": "char2-form", "form": "dim3-f2-type3", "beta": [],
  "change": [["[1,0]","[0,0]","[0,0]"],["[0,0]","[1,0]","[0,0]"],["[0,0]","[0,0]","[1,0]"]],
  "congruence_constants": {"squares": ["[0,0]","[0,0]"],
                           "products": [["[0,0]","[0,0]"],["[0,0]","[0,0]"]]}},
 "algebra": {"field": "GF4", "dim": 3, "one": ["[1,0]","[0,0]","[0,0]"],
  "table": [[["[1,0]","[0,0]","[0,0]"],["[0,0]","[1,0]","[0,0]"],["[0,0]","[0,0]","[1,0]"]],
            [["[0,0]","[1,0]","[0,0]"],["[0,0]","[0,0]","[0,0]"],["[0,0]","[0,0]","[0,0]"]],
            [["[0,0]","[0,0]","[1,0]"],["[0,0]","[0,0]","[1,0]"],["[0,0]","[0,0]","[1,0]"]]]}}
EOF
run 1 verify-cert "$dir/forged.json"
run 0 make fixture --name dim3-f2-type3 --field GF4 -o "$dir/type3-gf4.json"
run 1 check "$dir/type3-gf4.json" > "$dir/type3-gf4.txt"
if ! grep -qxF "  left  = ([0,0], [1,0], [0,1])" "$dir/type3-gf4.txt"; then
    echo "FAIL: lenalg check on type3-gf4.json did not print the crossed-relation witness" >&2
    status=1
fi
run 1 check --json "$dir/type3-gf4.json" > "$dir/type3-gf4.report.json"
run 0 verify-cert "$dir/type3-gf4.report.json"

run 0 identities --json "$dir/remark-repaired.json" > "$dir/repaired.identities.json"
if ! grep -qF '"kind": "length-one"' "$dir/repaired.identities.json"; then
    echo "FAIL: lenalg identities --json on remark-repaired.json did not prove power-associativity by the certificate" >&2
    status=1
fi

run 0 make matrix --field F2 --n 2 -o "$dir/m2.json"
run 0 identities --json "$dir/m2.json" > "$dir/m2.identities.json"
if ! grep -qF '"tested": 7' "$dir/m2.identities.json"; then
    echo "FAIL: lenalg identities --json on m2.json did not report '"tested": 7'" >&2
    status=1
fi
if grep -qF '"exhaustive"' "$dir/m2.identities.json"; then
    echo "FAIL: lenalg identities --json on m2.json reported an \"exhaustive\" key" >&2
    status=1
fi
run 0 make matrix --field Q --n 2 -o "$dir/m2q.json"
run 0 identities --json "$dir/m2q.json" > "$dir/m2q.identities.json"
if ! grep -qF '"tested": 28' "$dir/m2q.identities.json" \
        || grep -qF '"exhaustive"' "$dir/m2q.identities.json"; then
    echo "FAIL: lenalg identities --json on m2q.json did not report '"tested": 28' without \"exhaustive\"" >&2
    status=1
fi
run 2 identities --budget 419 "$dir/m2q.json" 2> /dev/null
run 0 length "$dir/m2.json" > "$dir/m2.length.txt"
if ! grep -qx "l(A) = 2" "$dir/m2.length.txt"; then
    echo "FAIL: lenalg length on m2.json did not print 'l(A) = 2'" >&2
    status=1
fi
run 0 length-set --set "e2;e3" --json "$dir/m2.json" > "$dir/m2.set.json"
run 0 verify-cert "$dir/m2.set.json"
run 0 length-set --set e2 "$dir/m2.json" > "$dir/m2.e2.txt"
if ! grep -qx "generates: no (closure has dimension 2)" "$dir/m2.e2.txt" \
        || ! grep -qx "dims: 1, 2, 2" "$dir/m2.e2.txt"; then
    echo "FAIL: lenalg length-set --set e2 on m2.json did not print 'generates: no (closure has dimension 2)' and 'dims: 1, 2, 2'" >&2
    status=1
fi
run 0 length-set --set e2 --json "$dir/m2.json" > "$dir/m2.e2.json"
run 0 verify-cert "$dir/m2.e2.json"
run 0 make direct-sum --field F3 --k 3 -o "$dir/f3x3.json"
run 0 length --json "$dir/f3x3.json" > "$dir/f3x3.length.json"
if ! grep -qF '"value": 2,' "$dir/f3x3.length.json"; then
    echo "FAIL: lenalg length --json on f3x3.json did not report \"value\": 2" >&2
    status=1
fi
run 0 verify-cert "$dir/f3x3.length.json"
run 0 make direct-sum --field F2 --k 5 -o "$dir/f2x5.json"
run 0 length "$dir/f2x5.json" > "$dir/f2x5.length.txt"
if ! grep -qx "l(A) = 2" "$dir/f2x5.length.txt" \
        || ! grep -qx "subspaces examined: 67" "$dir/f2x5.length.txt"; then
    echo "FAIL: lenalg length on f2x5.json did not print 'l(A) = 2' and 'subspaces examined: 67'" >&2
    status=1
fi
run 0 length --json "$dir/f2x5.json" > "$dir/f2x5.length.json"
run 0 verify-cert "$dir/f2x5.length.json"

bad="$dir/f4.json"
echo '{"field": "F4", "dim": 1, "one": ["1"], "table": [[["1"]]]}' > "$bad"
run 2 check "$bad"
echo '{"field": "Q", "dim": 1, "one": ["1"], "table": [[["1"]]], "metadata": []}' \
    > "$dir/metadata.json"
run 2 check "$dir/metadata.json"
run 2 oracle --budget 10 "$dir/remark-repaired.json"
run 2 oracle "$dir/remark-repaired.json" --samples 5
run 2 check "$dir/remark-repaired.json" --budget 5
run 2 length-set --set e9 "$dir/m2.json"
run 2 length-set --set "e²" "$dir/m2.json" 2> "$dir/superscript.err"
if grep -qF "Traceback" "$dir/superscript.err"; then
    echo "FAIL: lenalg length-set --set \"e²\" printed a traceback" >&2
    status=1
fi
export LENALG_BUDGET=abc
run 2 oracle "$dir/type3.json" 2> "$dir/budget.err"
unset LENALG_BUDGET
if ! grep -qF "LENALG_BUDGET" "$dir/budget.err"; then
    echo "FAIL: lenalg oracle with LENALG_BUDGET=abc did not name LENALG_BUDGET" >&2
    status=1
fi
( lenalg check --json "$dir/remark-repaired.json" 2> "$dir/pipe.err"
  echo $? > "$dir/pipe.code" ) | true
if [ "$(cat "$dir/pipe.code")" -ne 2 ] || grep -qF "Traceback" "$dir/pipe.err"; then
    echo "FAIL: lenalg check --json into a closed pipe exited $(cat "$dir/pipe.code"), expected 2 without a traceback" >&2
    status=1
fi
exit $status
