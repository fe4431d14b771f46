#!/usr/bin/env bash
# The offline CI gauntlet: formatting, lints, release build, full test
# suite. Mirrors .github/workflows/ci.yml so it can run anywhere
# without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test (serial: DCE_BCN_THREADS=1) =="
DCE_BCN_THREADS=1 cargo test --workspace -q

echo "== cargo test (parallel: DCE_BCN_THREADS=4) =="
DCE_BCN_THREADS=4 cargo test --workspace -q

echo "== sweep scaling smoke (equivalence check) =="
# Reduced grid; write to a scratch directory so the committed
# full-grid BENCH_sweeps.json is not overwritten by smoke numbers.
DCE_BCN_SWEEP_GRID=8 DCE_BCN_SWEEP_REPS=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin sweep_scaling

echo "== fluid engine smoke (analytic vs DOPRI5 agreement) =="
# Quick mode: 5x5 grid, agreement + verdict gates only (the 5x speedup
# gate applies to the full 13x13 run that produces BENCH_fluid.json).
DCE_BCN_QUICK=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin fluid_engine

echo "== criterion atlas artifact gate (regenerates byte-identically) =="
# The atlas is deterministic; any change to a verdict path that moves a
# committed cell shows up as a byte diff.
atlas_dir=$(mktemp -d)
DCE_BCN_RESULTS="$atlas_dir" cargo run --release -p bench --bin exp_criterion_sweep
cmp "$atlas_dir/exp_criterion_sweep.csv" results/exp_criterion_sweep.csv

echo "== fabric engine artifact gate (PAUSE HOL regenerates byte-identically) =="
# exp_pause_hol is the only committed artifact the network engine
# produces; any change to NetSim that moves an output bit shows up here.
hol_dir=$(mktemp -d)
DCE_BCN_RESULTS="$hol_dir" cargo run --release -p bench --bin exp_pause_hol
cmp "$hol_dir/exp_pause_hol.csv" results/exp_pause_hol.csv

echo "== fault-injection smoke (Theorem 1 degradation gap + campaign resume) =="
# Quick mode writes a reduced grid; keep it out of the committed results/.
# Run once journalling every grid point, then resume from the populated
# journal into a fresh results dir: all points restore (no sims re-run)
# and the artifacts must match byte-for-byte.
fd_results=$(mktemp -d)
fd_ckpt=$(mktemp -d)
DCE_BCN_QUICK=1 DCE_BCN_RESULTS="$fd_results" DCE_BCN_CHECKPOINT_DIR="$fd_ckpt" \
  cargo run --release -p bench --bin exp_feedback_degradation
fd_resume=$(mktemp -d)
fd_out=$(DCE_BCN_QUICK=1 DCE_BCN_RESULTS="$fd_resume" DCE_BCN_CHECKPOINT_DIR="$fd_ckpt" \
  cargo run --release -p bench --bin exp_feedback_degradation)
echo "$fd_out" | grep -q "checkpoint: restored 4 of 4 grid points"
cmp "$fd_results/exp_feedback_degradation.csv" "$fd_resume/exp_feedback_degradation.csv"
cmp "$fd_results/feedback_degradation.json" "$fd_resume/feedback_degradation.json"

echo "== packet engine smoke (wheel/heap equivalence + zero allocs) =="
# Quick mode: short horizons, replay-speedup gate skipped; every
# bit-identity check (schedulers x worker counts x fault plans) and the
# steady-state allocation gate still run in full.
DCE_BCN_QUICK=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin packet_engine

echo "== topo engine smoke (fabric equivalence + zero allocs) =="
# Quick mode: fat-tree k=4 scale, the end-to-end and route-lookup
# speedup gates skipped; every bit-identity check (schedulers x worker
# counts x fault plans) and the steady-state allocation gate still run.
DCE_BCN_QUICK=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin topo_engine

echo "== hybrid engine smoke (bounded divergence + always-packet identity) =="
# Quick mode: short horizons, the 3x end-to-end speedup gate skipped;
# the divergence bound, always-packet bit-identity (single runs and
# batches x worker counts) and zero-allocation gates still run.
DCE_BCN_QUICK=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin hybrid_engine

echo "== query engine smoke (batched vs naive answer equality) =="
# Quick mode: smoke-sized workloads, the 3x hot-speedup gate skipped;
# the bitwise answer-equality and zero-allocation gates still run.
DCE_BCN_QUICK=1 DCE_BCN_RESULTS=$(mktemp -d) \
  cargo run --release -p bench --bin query_engine

echo "== telemetry overhead gate (quick mode) =="
# Off-level hooks within 2% of uninstrumented; trace level within the
# documented 10% budget over summary (DESIGN.md section 8.5).
DCE_BCN_QUICK=1 cargo run --release -p bench --bin telemetry_overhead

echo "== report pipeline smoke (limit-cycle scenario) =="
report_dir=$(mktemp -d)
./target/release/dcebcn report limit-cycle --t-end 0.01 --out-dir "$report_dir"
grep -q '"scenario": "limit-cycle"' "$report_dir/report.json"
grep -q '"kind": "solver_leg"' "$report_dir/report.json"
grep -q "# TYPE solver_steps_accepted counter" "$report_dir/metrics.prom"
for svg in timeline_queue.svg timeline_rate.svg; do
  if [ ! -s "$report_dir/$svg" ]; then
    echo "report smoke: $svg missing or empty" >&2
    exit 1
  fi
done

echo "== scheduler equivalence smoke (heap reference vs wheel CLI) =="
# The two backends must render byte-identical packet summaries,
# faulted and clean alike.
for faults in "" "--faults feedback-loss=0.05,seed=7"; do
  a=$(./target/release/dcebcn packet --t-end 0.02 --scheduler wheel $faults)
  b=$(./target/release/dcebcn packet --t-end 0.02 --scheduler heap $faults)
  if [ "$a" != "$b" ]; then
    echo "scheduler outputs diverged (faults: '$faults')" >&2
    exit 1
  fi
done

echo "== fabric CLI smoke (--topo under both schedulers, byte-diffed) =="
# A generator-compiled leaf-spine incast must render byte-identical
# summaries under both schedulers, faulted and clean alike.
topo_spec="leaf-spine:leaves=4,spines=2,hosts-per-leaf=8"
for faults in "" "--faults feedback-loss=0.05,seed=7"; do
  a=$(./target/release/dcebcn packet --topo "$topo_spec" \
    --traffic incast:senders=16 --t-end 0.004 --scheduler wheel $faults)
  b=$(./target/release/dcebcn packet --topo "$topo_spec" \
    --traffic incast:senders=16 --t-end 0.004 --scheduler heap $faults)
  if [ "$a" != "$b" ]; then
    echo "fabric scheduler outputs diverged (faults: '$faults')" >&2
    exit 1
  fi
done
echo "$a" | grep -q "fabric run over 0.004 s: 32 hosts, 6 switches, 16 flows"

echo "== hybrid always-packet smoke (wrapper vs pure engine CLI) =="
# With the always-packet guard the hybrid wrapper must render the same
# packet summary byte for byte (no epochs, so no hybrid stats line).
a=$(./target/release/dcebcn packet --t-end 0.02)
b=$(./target/release/dcebcn packet --t-end 0.02 --engine hybrid --hybrid-guard always-packet)
if [ "$a" != "$b" ]; then
  echo "hybrid always-packet output diverged from the pure engine" >&2
  exit 1
fi

echo "== query round-trip smoke (JSONL in -> out -> decode -> re-encode) =="
# The answer stream must re-encode byte-identically and be invariant
# under chunk size (batch boundaries cannot change any answer).
q_dir=$(mktemp -d)
printf '%s\n' '{"type":"schema","version":2}' \
  '{"type":"query","gi":2.0}' \
  '{"type":"query","gi":2.0,"gd":0.03}' \
  '{"type":"query","n":100,"buffer":2.0e7}' > "$q_dir/q.jsonl"
./target/release/dcebcn query --in "$q_dir/q.jsonl" --out "$q_dir/a.jsonl" \
  | grep -q "answered 3 queries"
./target/release/dcebcn query --chunk 1 < "$q_dir/q.jsonl" > "$q_dir/a_chunked.jsonl"
cmp "$q_dir/a.jsonl" "$q_dir/a_chunked.jsonl"
test "$(grep -c '"type":"answer"' "$q_dir/a.jsonl")" = 3
# Answers decode as queries' inverse stream: feeding them back through
# the tool under --strict must fail loudly (wrong record type), proving
# the decoder actually parses rather than passing bytes through. (The
# default streams past bad lines as inline error records.)
if ./target/release/dcebcn query --strict < "$q_dir/a.jsonl" >/dev/null 2>&1; then
  echo "query accepted an answer stream as input" >&2
  exit 1
fi

echo "== batch quarantine smoke (panicking seed isolated + postmortem) =="
# One intentionally panicking seed must be quarantined (exit 0, 7 of 8
# seeds complete) and leave a flight-recorder postmortem; --fail-fast
# must turn the same run into exit 9.
pm_dir=$(mktemp -d)
out=$(./target/release/dcebcn batch --seeds 8 --t-end 0.01 \
  --faults panic-seed=3 --postmortem-dir "$pm_dir" 2>/dev/null)
echo "$out" | grep -q "quarantined 1 of 8 seeds"
grep -q '"type":"postmortem"' "$pm_dir/postmortem-3.jsonl"
grep -q '"kind":"batch_seed"' "$pm_dir/postmortem-3.jsonl"
if ./target/release/dcebcn batch --seeds 8 --t-end 0.01 \
  --faults panic-seed=3 --fail-fast >/dev/null 2>&1; then
  echo "fail-fast unexpectedly succeeded" >&2
  exit 1
elif [ "$(./target/release/dcebcn batch --seeds 8 --t-end 0.01 \
  --faults panic-seed=3 --fail-fast >/dev/null 2>&1; echo $?)" != "9" ]; then
  echo "fail-fast exited with the wrong code" >&2
  exit 1
fi

echo "== kill-and-resume smoke (SIGKILL mid-batch, byte-identical artifact) =="
# A checkpointed batch killed with SIGKILL at an arbitrary point must
# resume to a merged CSV byte-identical to an uninterrupted run. The
# check is kill-point agnostic: whether the signal lands before the
# first shard, mid-seed, or after completion, resume replays only the
# missing seeds and the artifact cannot differ.
kr_dir=$(mktemp -d)
kr_flags="--seeds 48 --t-end 0.02 --faults feedback-loss=0.1,seed=9"
./target/release/dcebcn batch $kr_flags --out "$kr_dir/clean.csv" >/dev/null
./target/release/dcebcn batch $kr_flags --checkpoint-dir "$kr_dir/ckpt" \
  --out "$kr_dir/killed.csv" >/dev/null 2>&1 &
kr_pid=$!
sleep 0.3
kill -9 "$kr_pid" 2>/dev/null || true
wait "$kr_pid" 2>/dev/null || true
./target/release/dcebcn batch $kr_flags --checkpoint-dir "$kr_dir/ckpt" \
  --resume --out "$kr_dir/resumed.csv" >/dev/null
cmp "$kr_dir/clean.csv" "$kr_dir/resumed.csv"
# A second resume restores every seed from the journal (no re-runs)
# and must still render the identical artifact.
out=$(./target/release/dcebcn batch $kr_flags --checkpoint-dir "$kr_dir/ckpt" \
  --resume --out "$kr_dir/resumed2.csv")
echo "$out" | grep -q "supervision: 48 seed(s) restored from checkpoint"
cmp "$kr_dir/clean.csv" "$kr_dir/resumed2.csv"

echo "== fabric kill-and-resume smoke (net shards, byte-identical artifact) =="
# The same check on a leaf-spine incast batch, whose shards go through
# the network-outcome codec.
fk_dir=$(mktemp -d)
fk_flags="--topo leaf-spine:leaves=4,spines=2,hosts-per-leaf=8 --traffic incast:senders=16
  --seeds 64 --t-end 0.1 --faults feedback-loss=0.1,seed=9"
./target/release/dcebcn batch $fk_flags --out "$fk_dir/clean.csv" >/dev/null
./target/release/dcebcn batch $fk_flags --checkpoint-dir "$fk_dir/ckpt" \
  --out "$fk_dir/killed.csv" >/dev/null 2>&1 &
fk_pid=$!
sleep 0.3
kill -9 "$fk_pid" 2>/dev/null || true
wait "$fk_pid" 2>/dev/null || true
./target/release/dcebcn batch $fk_flags --checkpoint-dir "$fk_dir/ckpt" \
  --resume --out "$fk_dir/resumed.csv" >/dev/null
cmp "$fk_dir/clean.csv" "$fk_dir/resumed.csv"
out=$(./target/release/dcebcn batch $fk_flags --checkpoint-dir "$fk_dir/ckpt" \
  --resume --out "$fk_dir/resumed2.csv")
echo "$out" | grep -q "supervision: 64 seed(s) restored from checkpoint"
cmp "$fk_dir/clean.csv" "$fk_dir/resumed2.csv"

echo "== perfbench build (the benchmark still compiles against the public API) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== replay smoke (postmortem dumps re-run deterministically) =="
# The quarantine smoke's postmortem embeds the seeded config and fault
# plan; replay must re-run it and reproduce the recorded panic.
./target/release/dcebcn replay "$pm_dir/postmortem-3.jsonl" \
  | grep -q "recorded failure reproduced"
# A tampered cause must be caught as a divergence: exit 11.
sed 's/intentional panic/a different failure/' "$pm_dir/postmortem-3.jsonl" \
  > "$pm_dir/tampered.jsonl"
code=0
./target/release/dcebcn replay "$pm_dir/tampered.jsonl" >/dev/null 2>&1 || code=$?
if [ "$code" != "11" ]; then
  echo "tampered replay exited with code $code, expected 11" >&2
  exit 1
fi

echo "== watchdog smoke (event-budget demotion, typed exit 10) =="
wd_dir=$(mktemp -d)
out=$(./target/release/dcebcn batch --seeds 4 --t-end 0.01 --max-seed-events 200 \
  --telemetry full --postmortem-dir "$wd_dir")
echo "$out" | grep -q "watchdog demoted 4 of 4 seeds"
# The demotion is deterministic, so its postmortem replays too.
./target/release/dcebcn replay "$wd_dir/postmortem-0.jsonl" \
  | grep -q "event budget exhausted"
code=0
./target/release/dcebcn batch --seeds 4 --t-end 0.01 --max-seed-events 200 \
  --fail-fast >/dev/null 2>&1 || code=$?
if [ "$code" != "10" ]; then
  echo "watchdog fail-fast exited with code $code, expected 10" >&2
  exit 1
fi

echo "== fabric watchdog smoke (--topo demotion, typed exit 10) =="
# The --topo path shares the batch command's fail-fast tail, so a
# demoted fabric batch must map to the same exit code.
fw_flags="--topo leaf-spine:leaves=4,spines=2,hosts-per-leaf=8 --traffic incast:senders=16
  --seeds 4 --t-end 0.01 --max-seed-events 200"
./target/release/dcebcn batch $fw_flags | grep -q "watchdog demoted 4 of 4 seeds"
code=0
./target/release/dcebcn batch $fw_flags --fail-fast >/dev/null 2>&1 || code=$?
if [ "$code" != "10" ]; then
  echo "fabric watchdog fail-fast exited with code $code, expected 10" >&2
  exit 1
fi

echo "== query streaming smoke (malformed lines become error records) =="
printf '%s\n' '{"type":"schema","version":2}' \
  '{"type":"query","gi":2.0}' \
  'garbage' \
  '{"type":"query","gd":0.03}' > "$q_dir/bad.jsonl"
./target/release/dcebcn query --in "$q_dir/bad.jsonl" --out "$q_dir/bad_a.jsonl" \
  | grep -q "skipped 1 malformed line"
test "$(grep -c '"type":"answer"' "$q_dir/bad_a.jsonl")" = 2
grep -q '"type":"error","line":3' "$q_dir/bad_a.jsonl"
code=0
./target/release/dcebcn query --in "$q_dir/bad.jsonl" --strict >/dev/null 2>&1 || code=$?
if [ "$code" != "3" ]; then
  echo "strict query exited with code $code, expected 3" >&2
  exit 1
fi

echo "CI OK"
