#!/usr/bin/env bash
# Runs stingmark in alternating pairs, a parent commit against this
# checkout, and judges each end-to-end metric by the paired-runs rule a
# claimed gain must meet: the change wins at least 9 of every 10 pairs
# (ties count for neither side), and its median differs from the parent's,
# in the better direction, by more than the parent's interquartile range,
# and no more of its operations fail than of the parent's.
#
#   scripts/pairs.sh <parent-rev> <workload> <pairs> <seconds>
#   make pairs PARENT=<rev> WORKLOAD=remote_rtt N=10 SECONDS=10
#
# The parent is unpacked with `git archive` into a temporary directory, so
# .git is not touched; each side's stingmark is built by that side's own
# benchmark/run.sh. Pair i runs both sides on seed 100+i; even pairs run
# the parent first, odd pairs the change. Each run's JSON result line goes
# to stderr as it lands; the verdict table goes to stdout, with each side's
# total failed operations under it.
set -euo pipefail
if [ $# -ne 4 ] || [ -z "$1" ]; then
	echo "usage: $0 <parent-rev> <workload> <pairs> <seconds>" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

work="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"

# run.sh builds into <tree>/.bench_build/stingmark and then execs it; the
# -print-benchmark-json run only prints, so it leaves a built binary behind.
for tree in "$work/parent" "$root"; do
	bash "$tree/benchmark/run.sh" -print-benchmark-json >/dev/null
done

run() { # side seed
	local tree=$root
	[ "$1" = parent ] && tree="$work/parent"
	local line
	line="$("$tree/.bench_build/stingmark" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
	echo "$1 seed=$2 $line" >&2
	# one "side pair failed n" row for the run's failed operations, and one
	# "side pair metric value" row per end-to-end metric
	echo "$1 $3 failed $(grep -o '"failed":[0-9]*' <<<"$line" | cut -d: -f2)" >>"$work/failed"
	grep -o '"[a-z0-9_]*":{"value":[-0-9.e+]*' <<<"$line" |
		sed 's/"\([a-z0-9_]*\)":{"value":/\1 /' |
		while read -r m v; do echo "$1 $3 $m $v"; done >>"$work/rows"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((100 + i))
	if ((i % 2 == 0)); then
		run parent "$seed" "$i"
		run change "$seed" "$i"
	else
		run change "$seed" "$i"
		run parent "$seed" "$i"
	fi
done

# Which way is better, per metric, as BENCHMARK.json states it.
awk -F'"' '/"name":/ {n = $4} /"better":/ {print n, $4}' "$root/BENCHMARK.json" >"$work/better"

printf '%s, %d pairs at %ss, parent %s\n' "$workload" "$pairs" "$seconds" "$rev"
printf '%-16s %-34s %-34s %8s %6s  %s\n' metric "parent median [q1 q3]" "change median [q1 q3]" change wins "gain by the rule"
# A change whose runs fail more operations than the parent's meets no gain.
read -r pfail cfail < <(awk '{f[$1] += $4} END {print f["parent"] + 0, f["change"] + 0}' "$work/failed")
worse=$((cfail > pfail))
awk -v pairs="$pairs" -v worse="$worse" '
FNR == NR { better[$1] = $2; next }
{ v[$1, $2, $3] = $4; metrics[$3] = 1 }
function quart(a, n, p,   h, lo) { # linear interpolation between order statistics
	h = (n - 1) * p; lo = int(h)
	return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function stats(side, m,   i, n, a, j, t) {
	n = 0
	for (i = 0; i < pairs; i++) if ((side, i, m) in v) a[n++] = v[side, i, m]
	for (i = 1; i < n; i++) { t = a[i]; for (j = i - 1; j >= 0 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	med[side] = quart(a, n, 0.5); q1[side] = quart(a, n, 0.25); q3[side] = quart(a, n, 0.75)
	return n
}
END {
	for (m in metrics) {
		if (!stats("parent", m) || !stats("change", m)) continue
		dir = better[m] == "higher" ? 1 : -1
		wins = 0
		for (i = 0; i < pairs; i++) {
			if (!(("parent", i, m) in v) || !(("change", i, m) in v)) continue
			d = (v["change", i, m] - v["parent", i, m]) * dir
			if (d > 0) wins++
		}
		delta = med["change"] - med["parent"]
		pct = med["parent"] != 0 ? 100 * delta / med["parent"] : 0
		met = !worse && wins >= 0.9 * pairs && delta * dir > q3["parent"] - q1["parent"]
		printf "%-16s %-34s %-34s %+7.1f%% %3d/%-2d  %s\n", m,
			sprintf("%.6g [%.6g %.6g]", med["parent"], q1["parent"], q3["parent"]),
			sprintf("%.6g [%.6g %.6g]", med["change"], q1["change"], q3["change"]),
			pct, wins, pairs, met ? "met" : "not met"
	}
}' "$work/better" "$work/rows" | sort
note=
((worse)) && note=' (more than the parent: no gain is met)'
printf 'failed ops: parent %d, change %d%s\n' "$pfail" "$cfail" "$note"
