#!/usr/bin/env bash
# Interleaved A/B comparison of two revisions on the repository benchmark.
#
#   scripts/ab.sh REV_A REV_B [--workload W] [--seed S] [--pairs N]
#                             [--trace 0|1]
#
# Builds perfbench at each revision in its own `git worktree` under a
# temporary directory, then runs the two builds N times each, in
# alternating order (A B, B A, A B, ...), from a temporary working
# directory, each run as long as BENCHMARK.json's `run_seconds`.
# Prints, for every end-to-end metric that BENCHMARK.json lists, the
# median and quartiles of each side, the change of the median, how many
# pairs B read better, and the metric's bound; then one row per pair;
# with --trace 1, each run's per-layer metrics; and each side's scheme
# digests and failed operations. REV_A is the parent ("parent" column),
# REV_B the change.
#
# Any git revision works. To measure uncommitted work, stage it and pass
# `$(git stash create)` as REV_B.
set -euo pipefail

usage() {
  echo "usage: scripts/ab.sh REV_A REV_B [--workload W] [--seed S] [--pairs N] [--trace 0|1]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1
rev_b=$2
shift 2
workload=fig9 seed=7 pairs=10 trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --trace) trace=$2 ;;
    *) usage ;;
  esac
  shift 2
done
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$repo/BENCHMARK.json")
commit_a=$(git -C "$repo" rev-parse --verify "$rev_a^{commit}")
commit_b=$(git -C "$repo" rev-parse --verify "$rev_b^{commit}")
tmp=$(mktemp -d)
cleanup() {
  for side in a b; do
    git -C "$repo" worktree remove --force "$tmp/$side" 2>/dev/null || true
  done
  git -C "$repo" worktree prune || true
  rm -rf "$tmp"
}
trap cleanup EXIT

for side in a b; do
  commit=commit_$side
  echo "==> building $side: ${!commit}" >&2
  git -C "$repo" worktree add --quiet --detach "$tmp/$side" "${!commit}"
  cargo build --release --quiet --offline --manifest-path "$tmp/$side/perfbench/Cargo.toml"
done

mkdir "$tmp/run" "$tmp/results"
cd "$tmp/run"
for pair in $(seq 1 "$pairs"); do
  order="a b"
  [ $((pair % 2)) -eq 0 ] && order="b a"
  for side in $order; do
    echo "==> pair $pair/$pairs: $side" >&2
    "$tmp/$side/perfbench/target/release/perfbench" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" > "$tmp/results/$side-$pair.txt"
  done
done

python3 - "$repo/BENCHMARK.json" "$tmp/results" "$pairs" "$workload" "$seed" <<'PY'
import json, statistics, sys

bench_path, results, pairs, workload, seed = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(bench_path))["end_to_end"]


def run(side, pair):
    lines = open(f"{results}/{side}-{pair}.txt").read().splitlines()
    digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), "?")
    return json.loads(lines[-1]), digest


runs = {s: [run(s, p) for p in range(1, pairs + 1)] for s in "ab"}
# Only the metrics every run reports.
metrics = [m for m in metrics
           if all(m["name"] in doc["metrics"] for s in "ab" for doc, _ in runs[s])]


def values(side, name):
    return [doc["metrics"][name]["value"] for doc, _ in runs[side]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def g(x):
    return f"{x:.4g}"


print(f"**{workload}, seed {seed}** ({pairs} pairs; medians with quartiles; "
      "“better” counts pairs where the change read better):\n")
print("| metric | parent | change | Δ median | better | bound |")
print("|---|---:|---:|---:|---:|---:|")
for m in metrics:
    name = m["name"]
    a, b = values("a", name), values("b", name)
    ma, mb = statistics.median(a), statistics.median(b)
    (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
    lower = m["better"] == "lower"
    better = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    delta = (mb - ma) / ma * 100 if ma else 0.0
    iqr = (qa3 - qa1) / ma * 100 if ma else 0.0
    print(f"| `{name}` | {g(ma)} [{g(qa1)}–{g(qa3)}] | {g(mb)} [{g(qb1)}–{g(qb3)}] "
          f"| {delta:+.1f}% | {better}/{pairs} | {m['bound'] * 100:.0f}% (parent IQR {iqr:.1f}%) |")

names = [m["name"] for m in metrics]
print("\n| pair | " + " | ".join(f"`{n}`" for n in names) + " |")
print("|---|" + "---:|" * len(names))
for p in range(pairs):
    cells = [f"{g(values('a', n)[p])} / {g(values('b', n)[p])}" for n in names]
    print(f"| {p + 1} | " + " | ".join(cells) + " |")

# A traced run (--trace 1) adds per-layer metrics: each run's value.
layers = [n for n in runs["a"][0][0]["metrics"] if n not in names]
if layers:
    print("\n| layer metric | parent | change |")
    print("|---|---:|---:|")
    for n in layers:
        cells = [", ".join(g(doc["metrics"][n]["value"]) for doc, _ in runs[s]
                           if n in doc["metrics"]) for s in "ab"]
        print(f"| `{n}` | {cells[0]} | {cells[1]} |")

print()
for side, label in (("a", "parent"), ("b", "change")):
    digests = sorted({d for _, d in runs[side]})
    failed = sum(doc["failed"] for doc, _ in runs[side])
    attempted = sum(doc["attempted"] for doc, _ in runs[side])
    print(f"{label}: digest {', '.join(digests)}; {failed} of {attempted} checked operations failed")
PY
