#!/bin/sh
# Runs the installed `lenalg` script out of process on the two remark
# fixtures: make -> check --json -> verify-cert, comparing every command's
# exit code with the expected one (a pipe would report only the last).
#
#   remark-repaired: 0, 0, 0   (length one, certificate valid)
#   remark-literal:  0, 1, 0   (length > 1, violation certificate valid)
#
# Usage: sh scripts/cli_exit_codes.sh   (with `lenalg` on PATH)
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
status=0

run() {  # run EXPECTED_EXIT ARG...: one lenalg call
    want=$1
    shift
    lenalg "$@"
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: lenalg $* exited $got, expected $want" >&2
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
exit $status
