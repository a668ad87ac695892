#!/usr/bin/env bash
# ab.sh measures one tree against another by alternating runs of the
# two, so that drift on the host (thermal state, other load) falls on
# both sides alike.
#
#   scripts/ab.sh [-n ROUNDS] [-bench RE] [-pkg PKG] [-benchtime T] BASE [HEAD]
#   scripts/ab.sh -pipeline WORKLOAD [-n ROUNDS] [-seconds S] [-seed S] BASE [HEAD]
#
# BASE and HEAD are git revisions; without HEAD the working tree,
# uncommitted changes included, is the head side. Each revision is
# exported with git archive into a scratch directory (AB_DIR, or a
# fresh temporary one), so the checkout and its worktree list are left
# as they were.
#
# Benchmark mode builds both sides' test binaries for the package PKG
# (default ./internal/graph), runs one discarded warm-up pass per side, then N
# rounds (default 10) of -bench RE at -benchtime T (default 20x), the
# two sides in alternating order. It prints, per benchmark, the median
# ns/op of each side, the delta of the medians, the rounds the head
# side won, and benchdiff's Mann-Whitney verdict over all samples; it
# exits with benchdiff's status (1: a significant regression).
#
# Pipeline mode alternates `benchmark/run.sh --workload WORKLOAD
# --trace 0` between the two trees for N rounds (default 10, 15 s
# each, seed 42) and prints every run's end-to-end metrics, then per
# metric the medians, their delta and the rounds the head side won.
# It only calls each tree's benchmark and changes nothing in it.
set -euo pipefail

rounds=10 bench=. pkg=./internal/graph benchtime=20x pipeline= seconds=15 seed=42
while [ $# -gt 0 ]; do
	case "$1" in
	-n) rounds=$2; shift 2 ;;
	-bench) bench=$2; shift 2 ;;
	-pkg) pkg=$2; shift 2 ;;
	-benchtime) benchtime=$2; shift 2 ;;
	-pipeline) pipeline=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	sed -n '2,28p' "$0" >&2
	exit 2
fi
case "$rounds" in '' | *[!0-9]* | 0) echo "ab.sh: -n $rounds: want a positive count" >&2; exit 2 ;; esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${AB_DIR:-$(mktemp -d)}"
mkdir -p "$dir"
export_tree() { # export_tree REV DEST
	rm -rf "$2" && mkdir -p "$2"
	git -C "$root" archive "$1" | tar -x -C "$2"
}
export_tree "$1" "$dir/base"
if [ $# -eq 2 ]; then
	export_tree "$2" "$dir/head"
	head="$dir/head"
else
	head="$root"
fi
echo "ab.sh: base $1 in $dir/base, head ${2:-working tree} in $head, $rounds rounds" >&2

# order prints the two sides in round r's order.
order() { if [ $(($1 % 2)) -eq 1 ]; then echo base head; else echo head base; fi; }

if [ -n "$pipeline" ]; then
	: >"$dir/pipeline.txt"
	for r in $(seq 1 "$rounds"); do
		for side in $(order "$r"); do
			tree="$dir/base"
			[ "$side" = head ] && tree="$head"
			line=$(bash "$tree/benchmark/run.sh" --workload "$pipeline" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1)
			echo "round $r $side $line"
			echo "$r $side $line" >>"$dir/pipeline.txt"
		done
	done
	# Each metric is "name":{"value":X,...} in the result line.
	awk '
	{
		r = $1; side = $2; line = $0
		while (match(line, /"[a-z_0-9]+":\{"value":[-0-9.e+]+/)) {
			m = substr(line, RSTART + 1, RLENGTH - 1); line = substr(line, RSTART + RLENGTH)
			name = m; sub(/".*/, "", name); v = m; sub(/.*:/, "", v)
			val[name, side, r] = v; names[name] = 1
		}
		rounds[r] = 1
	}
	function median(name, side,   n, i, j, t, xs) {
		n = 0
		for (i in rounds) if ((name, side, i) in val) xs[++n] = val[name, side, i] + 0
		for (i = 2; i <= n; i++) for (j = i; j > 1 && xs[j-1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j-1]; xs[j-1] = t }
		return n % 2 ? xs[(n+1)/2] : (xs[n/2] + xs[n/2+1]) / 2
	}
	END {
		printf "\n%-18s %14s %14s %9s  %s\n", "metric", "base median", "head median", "delta", "head lower"
		for (name in names) {
			b = median(name, "base"); h = median(name, "head"); won = 0; n = 0
			for (i in rounds) { n++; if (val[name, "head", i] + 0 < val[name, "base", i] + 0) won++ }
			printf "%-18s %14.4f %14.4f %+8.1f%%  %d/%d\n", name, b, h, b ? 100 * (h - b) / b : 0, won, n
		}
	}' "$dir/pipeline.txt"
	exit 0
fi

for side in base head; do
	tree="$dir/base"
	[ "$side" = head ] && tree="$head"
	(cd "$tree" && go test -c -o "$dir/$side.test" "$pkg")
	: >"$dir/$side.txt"
done
run() { # run SIDE ROUND: one pass of the side's test binary
	tree="$dir/base"
	[ "$1" = head ] && tree="$head"
	(cd "$tree/$pkg" && "$dir/$1.test" -test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime" \
		-test.benchmem -test.count 1) | awk -v r="$2" '/^Benchmark/ { print r, $0 }'
}
for side in base head; do run "$side" 0 >/dev/null; done
for r in $(seq 1 "$rounds"); do
	for side in $(order "$r"); do run "$side" "$r" >>"$dir/$side.txt"; done
done

# suite SIDE writes the side's samples as a benchdiff suite.
suite() {
	awk -v benchtime="$benchtime" '
	BEGIN { printf "{\"suite\": \"ab\", \"benchtime\": \"%s\", \"benchmarks\": [\n", benchtime }
	{
		name = $2; sub(/-[0-9]+$/, "", name); ns = ""; bytes = ""; allocs = ""
		for (i = 4; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "B/op") bytes = $i
			if ($(i+1) == "allocs/op") allocs = $i
		}
		if (ns == "") next
		if (n++) printf ",\n"
		printf "{\"name\": \"%s\", \"ns_per_op\": %s", name, ns
		if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
		if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
		printf "}"
	}
	END { printf "\n]}\n" }' "$dir/$1.txt" >"$dir/$1.json"
}
suite base
suite head
awk '
{
	name = $2; sub(/-[0-9]+$/, "", name)
	for (i = 4; i < NF; i++) if ($(i+1) == "ns/op") val[name, FILENAME == ARGV[1] ? "base" : "head", $1] = $i
	names[name] = 1; rounds[$1] = 1
}
function median(name, side,   n, i, j, t, xs) {
	n = 0
	for (i in rounds) if ((name, side, i) in val) xs[++n] = val[name, side, i] + 0
	for (i = 2; i <= n; i++) for (j = i; j > 1 && xs[j-1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j-1]; xs[j-1] = t }
	return n % 2 ? xs[(n+1)/2] : (xs[n/2] + xs[n/2+1]) / 2
}
END {
	printf "%-56s %14s %14s %9s  %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "head faster"
	for (name in names) {
		b = median(name, "base"); h = median(name, "head"); won = 0; n = 0
		for (i in rounds) if ((name, "head", i) in val && (name, "base", i) in val) { n++; if (val[name, "head", i] + 0 < val[name, "base", i] + 0) won++ }
		printf "%-56s %14.0f %14.0f %+8.1f%%  %d/%d\n", name, b, h, b ? 100 * (h - b) / b : 0, won, n
	}
}' "$dir/base.txt" "$dir/head.txt"
echo
status=0
(cd "$root" && go run ./cmd/benchdiff -all "$dir/base.json" "$dir/head.json") || status=$?
exit "$status"
