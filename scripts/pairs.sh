#!/usr/bin/env bash
# pairs.sh — alternated parent/change perfbench pairs in one command.
#
#   scripts/pairs.sh [-w WORKLOAD] [-s SEEDS] [-t SECONDS] [-l LOG] PARENT [CHANGE]
#
#   PARENT    git ref of the parent side (e.g. HEAD~1)
#   CHANGE    git ref of the change side; default the working tree
#             (`git stash create`: tracked and staged files), or HEAD
#             when the tree is clean
#   -w        perfbench workload: reproduce, analyze or serve (default reproduce)
#   -s        seeds, as 1-10 or 3,5,8 (default 1-10)
#   -t        --seconds of each run (default 25)
#   -l        log of every run's result line (default .bench_out/pairs-WORKLOAD.log)
#
# Each side is extracted with `git archive` into a temporary directory and
# runs `bash perfbench/run.sh --workload W --seed N --seconds S --trace 0`
# there, once per seed; the parent runs first on odd seeds, the change on
# even ones. For every end-to-end metric of BENCHMARK.json the table gives
# the parent's median and quartiles, the change's median, the change's
# wins over the pairs run (ties count for neither side), whether the
# change's median is worse than the parent's by more than the metric's
# bound, and whether a gain meets the rule of at least ten pairs: wins in
# nine tenths of them and medians further apart than the parent's
# interquartile range. Exits 1 when any run reads correct: false or
# failed > 0. Run from anywhere inside the repository.
set -euo pipefail

workload=reproduce
seeds=1-10
seconds=25
log=
while getopts "w:s:t:l:" opt; do
	case $opt in
	w) workload=$OPTARG ;;
	s) seeds=$OPTARG ;;
	t) seconds=$OPTARG ;;
	l) log=$OPTARG ;;
	*) sed -n '2,14p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [[ $# -lt 1 || $# -gt 2 ]]; then
	sed -n '2,14p' "$0" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify "$1^{commit}")
if [[ $# -eq 2 ]]; then
	change=$(git rev-parse --verify "$2^{commit}")
else
	change=$(git stash create)
	[[ -n $change ]] || change=$(git rev-parse HEAD)
fi
log=${log:-$root/.bench_out/pairs-$workload.log}
mkdir -p "$(dirname "$log")"
: >"$log"

seedlist=()
IFS=, read -ra parts <<<"$seeds"
for p in "${parts[@]}"; do
	if [[ $p == *-* ]]; then
		for ((n = ${p%-*}; n <= ${p#*-}; n++)); do seedlist+=("$n"); done
	else
		seedlist+=("$p")
	fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent change; do
	mkdir -p "$work/$side"
	git archive "${!side}" | tar -x -C "$work/$side"
done

echo "pairs: $workload, seeds ${seedlist[*]}, --seconds $seconds" >&2
echo "pairs: parent $parent, change $change, log $log" >&2
run() { # side seed
	local line
	line=$(cd "$work/$1" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 | tail -n 1)
	printf '%s\t%s\t%s\n' "$1" "$2" "$line" >>"$log"
	printf '%s seed %s: %s\n' "$1" "$2" "$line" >&2
}
for seed in "${seedlist[@]}"; do
	if ((seed % 2)); then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
done

python3 - "$log" "$root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

log, bench = sys.argv[1], sys.argv[2]
specs = json.load(open(bench))["end_to_end"]
runs = {"parent": {}, "change": {}}
bad = []
for row in open(log):
    side, seed, line = row.rstrip("\n").split("\t", 2)
    res = json.loads(line)
    if not res["correct"] or res["failed"] > 0:
        bad.append(f"{side} seed {seed}: correct {res['correct']}, failed {res['failed']}")
    runs[side][seed] = {k: v["value"] for k, v in res["metrics"].items()}

seeds = sorted(runs["parent"], key=int)
n = len(seeds)
print(f"{n} pairs; parent median (q1–q3), change median, change wins, bound check, §8 rule")
print("| metric | parent | change | change/parent | wins | bound | rule |")
print("|---|---|---|---|---|---|---|")
for spec in specs:
    name, lower = spec["name"], spec["better"] == "lower"
    p = [runs["parent"][s][name] for s in seeds]
    c = [runs["change"][s][name] for s in seeds]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4) if n > 1 else (p[0], 0, p[0])
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    worse = (cm - pm) if lower else (pm - cm)
    bound = "WORSE" if pm and worse / abs(pm) > spec["bound"] else "ok"
    rule = "yes" if n >= 10 and wins >= 0.9 * n and -worse > q3 - q1 else "no"
    ratio = f"{cm / pm:.3f}" if pm else "-"
    print(f"| {name} | {pm:.4g} ({q1:.4g}–{q3:.4g}) | {cm:.4g} | {ratio} | {wins}/{n} | {bound} | {rule} |")
if bad:
    print("runs with failures:\n  " + "\n  ".join(bad), file=sys.stderr)
    sys.exit(1)
EOF
