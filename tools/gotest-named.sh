#!/usr/bin/env bash
# Runs `go test -v -run '^(NAMES)$'` and fails unless every test NAMES
# lists printed "--- PASS". `go test -run` on its own passes when a
# renamed or deleted test matches nothing, so a gate that names its
# tests would silently stop gating. NAMES are exact top-level test
# names; the pattern is anchored so a prefix cannot stand in for one.
#
#   tools/gotest-named.sh 'TestA|TestB' [go test flags] PACKAGES...
set -euo pipefail

names=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT

go test -v -run "^(${names})\$" "$@" | tee "$out"

missing=0
IFS='|' read -ra tests <<< "$names"
for name in "${tests[@]}"; do
	if ! grep -Eq -- "^--- PASS: ${name} \(" "$out"; then
		echo "::error::${name} did not run and pass"
		missing=1
	fi
done
exit "$missing"
