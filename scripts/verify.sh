#!/usr/bin/env bash
# Full local verification: what CI runs, in the order CI runs it.
# Zero network required — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (checked proofs: every SAT verdict replayed)"
ROWPOLY_CHECK_PROOFS=1 cargo test --workspace -q

echo "==> boolfun suite, exhaustive sampling, checked proofs"
ROWPOLY_CHECK_PROOFS=1 cargo test -p rowpoly-boolfun --release --features rowpoly-obs/exhaustive -q

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> fig9 smoke (--quick --phases --json)"
out=$(cargo run --release -p rowpoly-bench --bin fig9 -- --quick --phases --json)
case "$out" in
  '{'*'}') echo "    JSON output OK (${#out} bytes)" ;;
  *) echo "    fig9 --json did not emit a JSON object" >&2; exit 1 ;;
esac

echo "==> projection regression smoke (phase budget + fast-path accounting)"
# Three quick runs; the gate takes the cleanest one (noise only ever
# inflates the project share).
proj_dir=$(mktemp -d)
printf '%s' "$out" > "$proj_dir/fig9-1.json"
for i in 2 3; do
  cargo run --release -p rowpoly-bench --bin fig9 -- --quick --json > "$proj_dir/fig9-$i.json"
done
python3 scripts/check_projection.py "$proj_dir"/fig9-*.json
rm -rf "$proj_dir"
# The committed full-scale report also carries the environment-growth
# gate (w/o-fields time per definition, largest workload over smallest).
python3 scripts/check_projection.py BENCH_fig9.json

echo "==> incremental SAT gate (committed BENCH_project.json + quick edit replay)"
# The committed report must show the incremental session re-checking a
# single-clause edit >= 1.5x faster than a fresh solve, with identical
# per-edit verdicts and classes; the live quick run re-proves parity
# (and every session verdict is replayed through the proof checker).
python3 scripts/check_projection.py BENCH_project.json
incr_dir=$(mktemp -d)
ROWPOLY_CHECK_PROOFS=1 cargo run --release -p rowpoly-bench --bin project -- --quick --json \
  > "$incr_dir/project.json"
python3 scripts/check_projection.py "$incr_dir/project.json"
rm -rf "$incr_dir"

echo "==> batch smoke (parallel check + warm cache)"
# programs/bad_select.rp is deliberately ill-typed, so `check programs/`
# exits 1 by design — assert on the JSON report, not the exit code.
batch_cache=$(mktemp -d)
trap 'rm -rf "$batch_cache"' EXIT
run1=$(cargo run --release --bin rowpoly -- check programs/ --jobs 2 --cache-dir "$batch_cache" --json) || true
run2=$(cargo run --release --bin rowpoly -- check programs/ --jobs 2 --cache-dir "$batch_cache" --json) || true
RUN1="$run1" RUN2="$run2" python3 - <<'PY'
import json, os
one = json.loads(os.environ['RUN1'])
two = json.loads(os.environ['RUN2'])
assert one['stats']['defs'] > 0, one
assert one['stats']['errors'] == 1, one          # bad_select.rp only
assert two['stats']['cache_hits'] > 0, two
print(f"    {one['stats']['defs']} defs, warm run hit {two['stats']['cache_hits']} cached groups")
PY

echo "==> profile smoke (concurrency profile + worker-track trace)"
profile_dir=$(mktemp -d)
cargo run --release --bin rowpoly -- check programs/ --jobs 2 --no-cache \
  --profile "$profile_dir/profile.json" > /dev/null 2> /dev/null || true
python3 scripts/check_profile.py "$profile_dir/profile.json" "$profile_dir/profile.trace.json"
cargo run --release --bin rowpoly -- profile programs/ --jobs 2 --no-cache --json \
  > "$profile_dir/profile-cmd.json" || true
python3 scripts/check_profile.py "$profile_dir/profile-cmd.json"
rm -rf "$profile_dir"

echo "==> batch scaling gate (committed BENCH_batch.json + quick live sweep)"
# The committed report must clear the CPU-aware scaling floor (>= 2x at
# 4 workers when the host has the cores; non-degrading otherwise); the
# live smoke re-runs a quick sweep and gates schema + sweep shape.
python3 scripts/check_batch.py BENCH_batch.json
batch_bench=$(mktemp -d)
cargo run --release -p rowpoly-bench --bin batch -- --quick --json > "$batch_bench/batch.json"
python3 scripts/check_batch.py "$batch_bench/batch.json" --quick
rm -rf "$batch_bench"

echo "==> memory accounting gate (committed BENCH reports + live smoke)"
# The committed reports must carry well-formed counting-allocator
# blocks and clear the budgets: fig9 accounting overhead < 5% wall,
# batch bytes/def + peak-RSS ceilings, serve memo within its byte
# bound. The live smoke checks the rowpoly CLI surface end to end.
python3 scripts/check_mem.py BENCH_fig9.json BENCH_batch.json BENCH_serve.json
mem_out=$(ROWPOLY_MEM=1 cargo run --release --bin rowpoly -- check programs/ --jobs 2 --no-cache --json) || true
MEM_OUT="$mem_out" python3 - <<'PY'
import json, os
doc = json.loads(os.environ['MEM_OUT'])
mem = doc['mem']
assert mem['enabled'] is True, mem
assert mem['alloc_bytes'] > 0, mem
assert mem['peak_bytes'] >= mem['live_bytes'], mem
assert 'lang.interner' in mem['sites'], sorted(mem['sites'])
print(f"    live mem block OK: {mem['alloc_bytes']} bytes allocated, "
      f"sites {sorted(mem['sites'])}")
PY

echo "==> serve smoke (20-edit trace replay, checked proofs) + BENCH_serve gate"
# The committed full-scale report must clear the >= 10x p99 floor; the
# live smoke replays a quick 20-edit trace with every SAT verdict
# replayed through the proof checker, gating schema + cutoff shape.
python3 scripts/check_serve.py BENCH_serve.json
serve_dir=$(mktemp -d)
ROWPOLY_CHECK_PROOFS=1 cargo run --release -p rowpoly-bench --bin edits -- --quick --edits 20 --json \
  > "$serve_dir/serve.json"
python3 scripts/check_serve.py "$serve_dir/serve.json" --quick
rm -rf "$serve_dir"

echo "==> all checks passed"
