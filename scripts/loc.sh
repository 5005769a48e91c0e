#!/usr/bin/env bash
# Non-test Go lines per package, and the total outside benchmark/ — the
# figure ROADMAP.md's "delete what the system does not need" item tracks.
# Plain `wc -l`: comments and blank lines count, *_test.go files do not.
# Run from anywhere; prints one "lines<TAB>package" row per directory,
# largest first, then the total.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$' | while read -r f; do
	[ -f "$f" ] || continue # deleted but not yet staged
	printf '%s\t%s\n' "$(wc -l <"$f")" "$(dirname "$f")"
done | awk -F'\t' '
	{ pkg[$2] += $1; if ($2 !~ /^benchmark(\/|$)/) total += $1 }
	END {
		for (p in pkg) printf "%6d\t%s\n", pkg[p], p | "sort -rn"
		close("sort -rn")
		printf "%6d\ttotal outside benchmark/\n", total
	}'
