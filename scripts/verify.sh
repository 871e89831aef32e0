#!/usr/bin/env bash
# Full verification: every check, in one list. CI's `verify` job runs
# this script; its remaining steps only produce the uploaded artifacts.
# Zero network required — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (checked proofs: every SAT verdict replayed)"
ROWPOLY_CHECK_PROOFS=1 cargo test --workspace -q

echo "==> cargo test, five more runs (the suite must pass on every run)"
for run in 1 2 3 4 5; do
  echo "    run $run/5"
  cargo test --workspace -q
done

echo "==> boolfun suite, exhaustive sampling, checked proofs"
ROWPOLY_CHECK_PROOFS=1 cargo test -p rowpoly-boolfun --release --features rowpoly-obs/exhaustive -q

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> fig9 smoke (--quick --phases --json + Chrome trace)"
out=$(cargo run --release -p rowpoly-bench --bin fig9 -- --quick --phases --json)
FIG9="$out" python3 -c "import json, os; d=json.loads(os.environ['FIG9']); assert d['bench']=='fig9' and d['workloads']"
echo "    JSON output OK (${#out} bytes)"
trace_dir=$(mktemp -d)
ROWPOLY_TRACE="$trace_dir/trace.json" cargo run --release -p rowpoly-bench --bin fig9 -- --quick > /dev/null
python3 -c "import json, sys; d=json.load(open(sys.argv[1])); assert d['traceEvents']" "$trace_dir/trace.json"
rm -rf "$trace_dir"

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

echo "==> batch smoke (parallel check + warm cache)"
# programs/bad_select.rp is deliberately ill-typed, so `check programs/`
# exits 1 by design — assert on the JSON report, not the exit code.
batch_cache=$(mktemp -d)
trap 'rm -rf "$batch_cache"' EXIT
run1=$(cargo run --release --bin rowpoly -- check programs/ --jobs 2 --cache-dir "$batch_cache" --json) || true
# A warm run that changes nothing leaves cache.json as it was: same
# bytes, and the old modification time set here.
cp "$batch_cache/cache.json" "$batch_cache/cold.json"
touch -d '2001-01-01 00:00:00 UTC' "$batch_cache/cache.json"
run2=$(cargo run --release --bin rowpoly -- check programs/ --jobs 2 --cache-dir "$batch_cache" --json) || true
cmp "$batch_cache/cold.json" "$batch_cache/cache.json"
if [ "$(stat -c %Y "$batch_cache/cache.json")" != "$(date -d '2001-01-01 00:00:00 UTC' +%s)" ]; then
  echo "a warm run rewrote cache.json"
  exit 1
fi
RUN1="$run1" RUN2="$run2" python3 - <<'PY'
import json, os
one = json.loads(os.environ['RUN1'])
two = json.loads(os.environ['RUN2'])
assert one['stats']['defs'] > 0, one
assert one['stats']['errors'] == 1, one          # bad_select.rp only
assert two['stats']['cache_hits'] > 0, two
# The warm run serves every fully-checked file from its record and
# parses only the files with an error.
failing = [f['path'] for f in two['files']
           if 'parse_error' in f or any(d['status'] != 'ok' for d in f['defs'])]
assert two['stats']['files_parsed'] == len(failing) == 1, (two['stats'], failing)
# Everything but the scheduling-dependent statistics is identical.
assert one['files'] == two['files'], 'the warm report differs from the cold one'
timing = {'cache_hits', 'cache_misses', 'steals', 'wall_ms', 'files_parsed'}
assert {k: v for k, v in one['stats'].items() if k not in timing} == \
       {k: v for k, v in two['stats'].items() if k not in timing}
print(f"    {one['stats']['defs']} defs, warm run hit {two['stats']['cache_hits']} cached groups, "
      f"parsed only {failing[0]}, identical report, cache.json untouched")
PY

echo "==> depth smoke (deep nesting is a diagnostic, never a stack overflow)"
# 3,000 nested parentheses and a 20,000-term chain must exit 1 with the
# parser's depth diagnostic (exit 134 is an overflowed stack). Files at
# the bound must check with two workers, one of them a 2 MiB pool thread.
# Types are bounded too: 14 definitions that each compose the previous
# one with itself double the result type's depth per line, and must end
# in unification's depth diagnostic, cold and warm.
depth_dir=$(mktemp -d)
python3 - "$depth_dir" <<'PY'
import os, sys
d = sys.argv[1]
os.makedirs(f"{d}/too_deep")
os.makedirs(f"{d}/at_bound")
def write(path, body):
    open(path, "w").write(f"def x = {body}\ndef y = 2\n")
write(f"{d}/too_deep/parens.rp", "(" * 3000 + "1" + ")" * 3000)
write(f"{d}/too_deep/chain.rp", " + ".join(["1"] * 20000))
open(f"{d}/too_deep/doubling.rp", "w").write(
    "def f0 x = {a = x}\n" + "".join(f"def f{i} x = f{i-1} (f{i-1} x)\n" for i in range(1, 15)))
for i in range(4):
    write(f"{d}/at_bound/chain{i}.rp", " + ".join(["1"] * 256))
    write(f"{d}/at_bound/record{i}.rp", "{a = " * 127 + "1" + "}" * 127)
    write(f"{d}/at_bound/parens{i}.rp", "(" * 255 + "1" + ")" * 255)
PY
for f in parens chain; do
  status=0
  diag=$(cargo run --release --quiet --bin rowpoly -- check "$depth_dir/too_deep/$f.rp" --no-cache 2>&1) || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF 'nests deeper than 256 levels' <<< "$diag"; then
    echo "$f.rp: exit $status, expected 1 with the depth diagnostic:"
    echo "$diag"
    exit 1
  fi
  echo "    $f.rp: exit 1, $(grep -m1 -F 'nests deeper' <<< "$diag")"
done
for run in cold warm; do
  status=0
  diag=$(cargo run --release --quiet --bin rowpoly -- check "$depth_dir/too_deep/doubling.rp" \
    --jobs 2 --cache-dir "$depth_dir/doubling-cache" 2>&1) || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF 'type nests deeper than 512 levels' <<< "$diag" \
     || ! grep -qF -- '--> 10:12' <<< "$diag"; then
    echo "doubling.rp ($run): exit $status, expected 1 with the type-depth diagnostic at 10:12:"
    echo "$diag"
    exit 1
  fi
done
echo "    doubling.rp: exit 1 cold and warm, type nests deeper than 512 levels at 10:12"
cargo run --release --quiet --bin rowpoly -- check "$depth_dir/at_bound" --jobs 2 --no-cache > /dev/null
echo "    12 files at the bound check with --jobs 2"

echo "==> cache smoke (an entry too deep to load drops only itself)"
# `v`'s scheme nests records 180 deep, past the JSON parser's bound, so
# its cache line is dropped on load; `w`'s and `y`'s groups still hit.
python3 - "$depth_dir/deep_entry.rp" <<'PY'
import sys
record = "{a = " * 10 + "x" + "}" * 10
apply = "w (" * 18 + "1" + ")" * 18
open(sys.argv[1], "w").write(f"def w x = {record}\ndef v = {apply}\ndef y = 2\n")
PY
for run in 1 2; do
  report=$(cargo run --release --quiet --bin rowpoly -- check "$depth_dir/deep_entry.rp" \
    --cache-dir "$depth_dir/cache" --json)
done
REPORT="$report" python3 - <<'PY'
import json, os
stats = json.loads(os.environ['REPORT'])['stats']
assert stats['cache_hits'] > 0, stats
print(f"    second run: {stats['cache_hits']} hits, {stats['cache_misses']} misses")
PY
rm -rf "$depth_dir"

echo "==> diagnostic smoke (explain and check --explain print the same bytes)"
# `check --explain` prints a rejected definition as a `path: def: error`
# header and the diagnostic indented by two spaces, among the accepted
# definitions' lines and a summary line. Its indented lines, unindented,
# must be `explain`'s output byte for byte — on programs/bad_select.rp,
# on a program whose failing access reads a field another definition
# removed, and on an open one where `g` binds the ambient `x`'s type,
# which `f` shares, to `Int` before `k` selects from `f`.
diag_dir=$(mktemp -d)
printf 'def r = %%a {a = 1}\ndef use = #a r\n' > "$diag_dir/cross_def.rp"
printf 'def f = x\ndef g = f + 1\ndef k = #foo f\n' > "$diag_dir/open.rp"
for prog in programs/bad_select.rp "$diag_dir/cross_def.rp" "$diag_dir/open.rp"; do
  explain=$(cargo run --release --quiet --bin rowpoly -- explain "$prog" 2>&1) || true
  check=$(cargo run --release --quiet --bin rowpoly -- check --explain --no-cache "$prog" 2>&1) || true
  block=$(sed -n 's/^  //p' <<< "$check")
  if [ -z "$explain" ] || [ "$explain" != "$block" ]; then
    echo "rowpoly explain and check --explain differ on $prog:"
    diff <(echo "$explain") <(echo "$block") || true
    exit 1
  fi
  echo "    $(basename "$prog"): $(wc -l <<< "$explain") identical lines"
  [ "$prog" = programs/bad_select.rp ] || continue
  # It names the field, points at the access and prints the minimal core.
  for want in 'field `colour` may not exist' '--> 3:12' '3 of 10 β clauses'; do
    if ! grep -qF -- "$want" <<< "$explain"; then
      echo "rowpoly explain: missing '$want' in:"
      echo "$explain"
      exit 1
    fi
  done
  echo "    bad_select.rp: field \`colour\` at 3:12, 3 of 10 β clauses"
done
rm -rf "$diag_dir"

echo "==> profile smoke (concurrency profile + worker-track trace)"
profile_dir=$(mktemp -d)
cargo run --release --bin rowpoly -- check programs/ --jobs 2 --no-cache \
  --profile "$profile_dir/profile.json" > /dev/null 2> /dev/null || true
python3 scripts/check_profile.py "$profile_dir/profile.json" "$profile_dir/profile.trace.json"
cargo run --release --bin rowpoly -- profile programs/ --jobs 2 --no-cache --json \
  > "$profile_dir/profile-cmd.json" || true
python3 scripts/check_profile.py "$profile_dir/profile-cmd.json"
# One profiled `check` per worker count over the same corpus.
for j in 1 2 4 8; do
  cargo run --release --bin rowpoly -- check programs/ --jobs "$j" --no-cache \
    --profile "$profile_dir/profile-j$j.json" > /dev/null 2> /dev/null || true
  python3 scripts/check_profile.py "$profile_dir/profile-j$j.json" "$profile_dir/profile-j$j.trace.json"
done
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
# batch bytes/def + peak-RSS ceilings, serve store within its byte
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
# The memory twin of the batch sweep: a quick profiled run with the
# counting allocator on must sample its waves with a watermark peak.
mem_sweep=$(cargo run --release -p rowpoly-bench --bin batch -- --quick --mem --json)
MEM_SWEEP="$mem_sweep" python3 - <<'PY'
import json, os
doc = json.loads(os.environ['MEM_SWEEP'])
mem = doc['mem']
assert mem['enabled'] is True, mem
assert mem['alloc_bytes'] > 0, mem
waves = doc['mem_waves']
assert waves, 'profiled mem run must sample waves'
peaks = [w['peak_bytes'] for w in waves]
assert peaks == sorted(peaks), f'peak must be a watermark: {peaks}'
print(f"    batch mem sweep OK: {len(waves)} waves sampled")
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
# With accounting on, every workload must finish with the memo's live
# bytes inside its configured bound (the eviction loop actually evicts).
cargo run --release -p rowpoly-bench --bin edits -- --quick --edits 20 --mem --json \
  > "$serve_dir/serve-mem.json"
python3 - "$serve_dir/serve-mem.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for w in doc['workloads']:
    live, cap = w['mem']['memo_live_bytes'], w['mem']['memo_max_bytes']
    assert cap and live <= cap, f"{w['name']}: memo {live} over bound {cap}"
print('    memo live bytes within bound for', len(doc['workloads']), 'workloads')
PY
# With a cache dir the daemon's one store is what `save` writes: after
# 300 literal edits under a small byte bound, cache.json holds no more
# entries than the store reports.
python3 - > "$serve_dir/edits.jsonl" <<'PY'
import json
text = lambda n: f"def a = {n}\ndef b = a + 1\ndef c = b + 1"
print(json.dumps({"id": 0, "method": "open", "params": {"path": "a.rp", "text": text(0)}}))
for n in range(1, 301):
    print(json.dumps({"id": n, "method": "edit", "params": {"path": "a.rp", "text": text(n)}}))
print(json.dumps({"id": 301, "method": "save"}))
print(json.dumps({"id": 302, "method": "counters"}))
print(json.dumps({"id": 303, "method": "shutdown"}))
PY
cargo run --release --quiet --bin rowpoly -- serve --json-rpc --cache-dir "$serve_dir/bound" \
  --memo-max-bytes 4000 < "$serve_dir/edits.jsonl" > "$serve_dir/edits.out"
python3 - "$serve_dir/edits.out" "$serve_dir/bound/cache.json" <<'PY'
import json, sys
memo = json.loads(open(sys.argv[1]).read().splitlines()[302])['result']['memo']
saved = len(json.load(open(sys.argv[2]))['entries'])
assert saved <= memo['entries'], f"cache.json has {saved} entries, the store {memo['entries']}"
assert memo['live_bytes'] <= memo['max_bytes'], memo
print(f"    300 edits under a 4000 B bound: store {memo['entries']} entries, cache.json {saved}")
PY
# `check` and `serve` share one cache: a daemon save of another file
# keeps the corpus's entries for the next `check`.
shared="$serve_dir/shared"
cargo run --release --quiet --bin rowpoly -- check programs/ --cache-dir "$shared" --json > /dev/null || true
printf '%s\n' '{"id":1,"method":"open","params":{"path":"z.rp","text":"def z = 1"}}' \
  '{"id":2,"method":"save"}' '{"id":3,"method":"shutdown"}' |
  cargo run --release --quiet --bin rowpoly -- serve --json-rpc --cache-dir "$shared" > /dev/null
warm=$(cargo run --release --quiet --bin rowpoly -- check programs/ --cache-dir "$shared" --json) || true
WARM="$warm" python3 - <<'PY'
import json, os
stats = json.loads(os.environ['WARM'])['stats']
assert stats['cache_hits'] > 0, stats
print(f"    check after a daemon save: {stats['cache_hits']} cache hits")
PY
# One literal edit of a 300-definition document costs one definition's
# reparse and one group's inference: the splice reparses only what the
# edit touched, and the multi-field update's binder is numbered within
# its definition, so its key survives every revision. A cascade edit of
# the helper every `s<k>` shares then re-infers the helper and exactly
# its dependents (one wave, spread over the daemon's workers), and the
# daemon's schemes match a one-shot `check` of the same text.
python3 - "$serve_dir/cascade.rp" > "$serve_dir/literal.jsonl" <<'PY'
import json, sys
def text(lit, helper="@{a = 1, b = 2} r"):
    defs = [f"def upd r = {helper}"]
    for k in range(1, 300):
        if k % 3 == 0:
            defs.append(f"def n{k} = {k}")
        elif k % 3 == 1:
            defs.append(f"def r{k} = {{x = {k}, y = {k + 1}}}")
        else:
            defs.append(f"def s{k} = #x (upd r{k - 1}) + {lit if k == 152 else k}")
    return "\n".join(defs) + "\n"
cascade = text(8, "@{a = 1, b = 2, c = 3} r")
open(sys.argv[1], "w").write(cascade)
print(json.dumps({"id": 1, "method": "open", "params": {"path": "doc.rp", "text": text(7)}}))
print(json.dumps({"id": 2, "method": "edit", "params": {"path": "doc.rp", "text": text(8)}}))
print(json.dumps({"id": 3, "method": "edit", "params": {"path": "doc.rp", "text": cascade}}))
for line in range(300):
    print(json.dumps({"id": 4 + line, "method": "hover",
                      "params": {"path": "doc.rp", "line": line, "character": 4}}))
print(json.dumps({"id": 304, "method": "shutdown"}))
PY
cargo run --release --quiet --bin rowpoly -- serve --json-rpc --no-cache \
  < "$serve_dir/literal.jsonl" > "$serve_dir/literal.out"
one_shot=$(cargo run --release --quiet --bin rowpoly -- check "$serve_dir/cascade.rp" --no-cache --json)
ONE_SHOT="$one_shot" python3 - "$serve_dir/literal.out" "$serve_dir/cascade.rp" <<'PY'
import json, os, sys
replies = [json.loads(l)['result'] for l in open(sys.argv[1]).read().splitlines()]
opened, edited, cascaded = replies[:3]
assert opened['ok'] and opened['stats']['parse_misses'] == 300, opened['stats']
stats = edited['stats']
assert edited['ok'], edited
assert stats['parse_misses'] == 1 and stats['parse_hits'] == 299, stats
assert stats['verdict_recomputed'] == 1, stats
print(f"    literal edit of 300 definitions: parse_misses 1, verdict_recomputed 1, "
      f"{stats['verdict_hits']} hits")
dependents = sum('(upd ' in l for l in open(sys.argv[2]).read().splitlines())
stats = cascaded['stats']
assert cascaded['ok'], cascaded
assert stats['verdict_recomputed'] == dependents + 1, (dependents, stats)
served = [(h['name'], h['status'], h['scheme']) for h in replies[3:303]]
checked = [(d['name'], d['status'], d['scheme'])
           for d in json.loads(os.environ['ONE_SHOT'])['files'][0]['defs']]
assert served == checked, 'serve and one-shot check disagree after the cascade'
print(f"    cascade edit of the helper: verdict_recomputed {stats['verdict_recomputed']} "
      f"= {dependents} dependents + 1, schemes match one-shot check")
PY
rm -rf "$serve_dir"

echo "==> perfbench smoke (build + known answers, one second per workload)"
# The benchmark is a package of its own, so nothing above builds or runs
# it: without this step a library change that breaks its build or its
# known answers would first show in the benchmark pipeline. Each run
# checks every answer it gets; the last line must report failed == 0.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in batch fig9; do
  line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  LINE="$line" WORKLOAD="$workload" python3 - <<'PY'
import json, os
doc = json.loads(os.environ['LINE'])
assert doc['failed'] == 0, doc
print(f"    {os.environ['WORKLOAD']}: {doc['attempted']} checked operations, 0 failed")
PY
done

echo "==> all checks passed"
