#!/usr/bin/env bash
# Paired perf gate: is the working tree slower than BASE on the repo's
# benchmark?
#
#   .github/perf-gate.sh BASE        # BASE: any commit, e.g. origin/main or HEAD~1
#
# Builds perfbench at BASE (in a temporary git worktree) and in the working
# tree, then runs every BENCHMARK.json workload untraced in PAIRS pairs,
# BASE and change back to back on one machine; pair i uses seed i on both
# sides, and the side that runs first alternates from pair to pair. For
# each `end_to_end` metric of BENCHMARK.json the change's median is
# compared with BASE's: the gate fails when it is worse (per the metric's
# `better`) by more than the metric's `bound`, a fraction of BASE's
# median. Every ratio change/BASE is printed. Exit 0: pass; 1: a metric regressed or a run
# failed its output check; 2: usage error.
#
# Both sides run on the same host within minutes of each other, so the
# comparison does not depend on how fast that host is and there is no
# committed baseline to refresh.
set -euo pipefail

PAIRS=5
SECONDS_PER_RUN=2

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "perf-gate: \`$1\` is not a commit" >&2
    exit 2
}
spec="$root/BENCHMARK.json"
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
if [ ${#workloads[@]} -eq 0 ]; then
    echo "perf-gate: no workloads read from $spec (is jq installed?)" >&2
    exit 2
fi

work=$(mktemp -d)
cleanup() {
    git worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "perf-gate: building perfbench at ${base:0:12} and in the working tree" >&2
git worktree add --quiet --detach "$work/base" "$base"
cargo build --release --quiet --offline \
    --manifest-path "$work/base/perfbench/Cargo.toml" --target-dir "$work/target"
cp "$work/target/release/perfbench" "$work/perfbench-base"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
cp perfbench/target/release/perfbench "$work/perfbench-head"

# One untraced run; appends its result line (the last line perfbench
# prints) to $work/<workload>.<side>.jsonl.
run() {
    local side=$1 workload=$2 seed=$3 out
    if ! out=$("$work/perfbench-$side" --workload "$workload" --seed "$seed" \
        --seconds "$SECONDS_PER_RUN" --trace 0); then
        echo "perf-gate: perfbench ($side) failed on $workload seed $seed" >&2
        exit 1
    fi
    tail -n 1 <<<"$out" >>"$work/$workload.$side.jsonl"
}

# Round i runs pair i of every workload, so each workload's runs spread
# over the whole gate: a spell of host noise lasting a few runs then moves
# at most a run or two of any one workload instead of most of one side.
for seed in $(seq 1 "$PAIRS"); do
    for workload in "${workloads[@]}"; do
        echo "perf-gate: $workload pair $seed/$PAIRS" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            run base "$workload" "$seed"
            run head "$workload" "$seed"
        else
            run head "$workload" "$seed"
            run base "$workload" "$seed"
        fi
    done
done

# One TSV row per (workload, metric): medians, ratio, verdict.
compare() {
    local workload=$1
    jq -rn --arg w "$workload" \
        --slurpfile spec "$spec" \
        --slurpfile base "$work/$workload.base.jsonl" \
        --slurpfile head "$work/$workload.head.jsonl" '
        def median: sort | if length % 2 == 1 then .[length / 2 | floor]
            else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        def med($runs; $m): [$runs[] | .metrics[$m].value
            // error("\($w): no \($m) in a result line")] | median;
        $spec[0].end_to_end[]
        | med($base; .name) as $b | med($head; .name) as $h
        | (if $b != 0 then $h / $b elif $h == 0 then 1 else infinite end) as $r
        | (if .better == "lower" then $r > 1 + .bound else $r < 1 - .bound end) as $worse
        | [$w, .name, $b, $h, $r, .bound, (if $worse then "WORSE" else "ok" end)]
        | @tsv'
}

for workload in "${workloads[@]}"; do
    compare "$workload" >>"$work/verdicts.tsv"
done
printf '%-16s %-15s %14s %14s %7s %6s  %s\n' \
    workload metric base change ratio bound verdict
while IFS=$'\t' read -r w metric b h r bound verdict; do
    printf '%-16s %-15s %14.6g %14.6g %7.3f %6s  %s\n' \
        "$w" "$metric" "$b" "$h" "$r" "$bound" "$verdict"
done <"$work/verdicts.tsv"

worse=$(awk -F'\t' '$7 != "ok" { print "  " $1 " " $2 }' "$work/verdicts.tsv")
if [ -n "$worse" ]; then
    echo "perf-gate: FAIL: a median is worse than at ${base:0:12} by more than its bound:" >&2
    echo "$worse" >&2
    exit 1
fi
echo "perf-gate: PASS against ${base:0:12}"
