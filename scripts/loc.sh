#!/usr/bin/env bash
# loc.sh — the one counting rule deletion PRs quote: lines of non-test .go
# files that are neither blank nor //-only, per internal/* package, cmd/,
# examples/, scripts/, the root package, and in total. benchmark/ is its
# own module measuring this one and is left out. Run via `make loc`.
set -euo pipefail

cd "$(dirname "$0")/.."

# count DIR [-maxdepth N]: code lines of the non-test .go files under DIR.
count() {
	local dir="$1"
	shift
	find "$dir" "$@" -name '*.go' ! -name '*_test.go' -print0 |
		xargs -0 -r cat | grep -cvE '^[[:space:]]*(//.*)?$' || true
}

total=0
row() {
	printf '%-20s %6d\n' "$1" "$2"
	total=$((total + $2))
}

for pkg in internal/*/; do
	row "${pkg%/}" "$(count "$pkg")"
done
for dir in cmd examples scripts; do
	row "$dir/" "$(count "$dir")"
done
row "(root)" "$(count . -maxdepth 1)"
printf '%-20s %6d\n' "total" "$total"
