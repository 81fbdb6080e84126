#!/usr/bin/env bash
# Full CI, in order:
#   1. configure + build with -Werror, then ctest (unit tests, lint
#      fixtures, golden byte-identity);
#   2. the determinism lint over src/ bench/ examples/ (report:
#      lint_determinism.json);
#   3. the clang-tidy and clang -Wthread-safety lanes (SKIP without
#      clang);
#   4. --jobs 1 vs 8 byte-identity of bank_sensitivity: plain, bank
#      contention, DRAM contention, DRAM timing, and traced with
#      --obs-dir; plus a traced quickstart and the tracing overhead;
#   5. micro_pipeline throughput against scripts/perf_floors.json, and
#      micro_structures when google-benchmark is present;
#   6. the ASan+UBSan and TSan lanes (CI_SANITIZE=0 skips them).
# Each stage archives a BENCH_*.json under the build dir;
# BENCH_correctness.json records which gates ran and which skipped.
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== configure (-Wall -Wextra -Werror) =="
cmake -B "$build" -S "$repo" -DGARIBALDI_WERROR=ON

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"

# ---- correctness gates (see README "Correctness tooling") ------------
# Determinism lint: hard gate; the fixture corpus that proves each rule
# fires runs as the lint_determinism_fixtures ctest above.
echo "== determinism lint (src/ bench/ examples/) =="
lint_status="pass"
if command -v python3 > /dev/null 2>&1; then
  python3 "$repo/scripts/lint_determinism.py" \
      --json "$build/lint_determinism.json" \
      "$repo/src" "$repo/bench" "$repo/examples"
  echo "determinism lint: clean"
else
  lint_status="skip (no python3)"
  echo "determinism lint: SKIP (no python3 on PATH)"
fi

# clang-tidy gate: zero warnings via WarningsAsErrors in .clang-tidy;
# SKIPs on toolchains without clang-tidy (this container ships GCC
# only) rather than failing.
echo "== clang-tidy gate =="
tidy_out=$("$repo/scripts/tidy.sh" "$build") || { echo "$tidy_out"; exit 1; }
echo "$tidy_out"
case "$tidy_out" in
  *SKIP*) tidy_status="skip (no clang-tidy)" ;;
  *)      tidy_status="pass" ;;
esac

# Clang thread-safety lane: -Wthread-safety -Wthread-safety-beta as
# errors over every TU, driven by the src/common/thread_safety.hh
# annotations; SKIPs honestly on GCC-only hosts.
echo "== clang thread-safety lane =="
ts_out=$("$repo/scripts/thread_safety.sh") || { echo "$ts_out"; exit 1; }
echo "$ts_out"
case "$ts_out" in
  *SKIP*) thread_safety_status="skip (no clang)" ;;
  *)      thread_safety_status="pass" ;;
esac

# (sweep_test, run by the ctest pass above, pins the unit-level
# determinism properties; here we also pin the end-to-end bytes.
# The diff uses a fixed --jobs 8 so the multi-threaded path is
# exercised even on a 1-CPU host, where $(nproc) would compare the
# serial path against itself.)
#
# jobs_identity OUT LABEL OBS ARGS...: run bank_sensitivity ARGS at
# --jobs 1 and at --jobs 8 into $build/OUT_j1.txt and OUT_j8.txt and
# fail, printing the diff, unless the two are byte-identical.  With a
# non-empty OBS each run also writes --obs-dir $build/OBS_j1 (or _j8),
# and the two artifact directories must match too.  Each run's wall
# seconds land in jobs_secs[1] and jobs_secs[8].
declare -a jobs_secs
jobs_identity() {
  local out="$1" label="$2" obs="$3" n start
  shift 3
  for n in 1 8; do
    local obs_args=()
    if [ -n "$obs" ]; then
      rm -rf "$build/${obs}_j$n"
      obs_args=(--obs-dir "$build/${obs}_j$n")
    fi
    start=$(date +%s.%N)
    "$build/bank_sensitivity" "$@" --jobs "$n" "${obs_args[@]}" \
        > "$build/${out}_j$n.txt"
    jobs_secs[$n]=$(echo "$(date +%s.%N) $start" \
                    | awk '{printf "%.3f", $1 - $2}')
  done
  if ! diff -q "$build/${out}_j1.txt" "$build/${out}_j8.txt" > /dev/null \
     || { [ -n "$obs" ] \
          && ! diff -rq "$build/${obs}_j1" "$build/${obs}_j8" > /dev/null; }; then
    echo "FAIL: bank_sensitivity $label differs between --jobs 1 and --jobs 8"
    diff "$build/${out}_j1.txt" "$build/${out}_j8.txt" | head -20
    if [ -n "$obs" ]; then
      diff -rq "$build/${obs}_j1" "$build/${obs}_j8" | head -10
    fi
    exit 1
  fi
  echo "bank_sensitivity $label: --jobs 1 vs --jobs 8 byte-identical"
}

echo "== sweep determinism (bank_sensitivity bytes, --jobs 1 vs 8) =="
jobs_identity bank "(plain)" "" --warmup 10000 --instr 20000 --mixes 1

# Wall-clock speedup is only meaningful on multi-core hosts; the JSON
# records host_cpus so 1-CPU results read as the no-op they are.
t1=${jobs_secs[1]}
tn=${jobs_secs[8]}
speedup=$(echo "$t1 $tn" | awk '{printf "%.3f", $1 / $2}')
cat > "$build/BENCH_sweep.json" <<EOF
{
  "bench": "bank_sensitivity",
  "workers": 8,
  "host_cpus": $jobs,
  "serial_seconds": $t1,
  "parallel_seconds": $tn,
  "speedup": $speedup
}
EOF
echo "sweep wall-clock: ${t1}s serial vs ${tn}s with 8 workers on $jobs cpu(s) (speedup ${speedup}x)"
cat "$build/BENCH_sweep.json"

# Contention mode: the per-bank queuing model must keep the same
# byte-identity guarantee across --jobs, and its headline curve (avg
# LLC queuing delay falling as banks grow) is archived as a bench
# artifact for trend tracking.
echo "== bank contention (per-bank queuing model, --jobs 1 vs 8) =="
# --svc/--ports passed explicitly so the artifact's config label stays
# truthful even if the bench's defaults change.
jobs_identity bank_cont --contention "" --warmup 10000 --instr 20000 \
    --mixes 1 --contention --svc 4 --ports 1

# Table columns: cores banks shift geomean_metric vs_monolithic
# avg_queue_delay; keep the cores=16 shift=0 curve.
banks_list=$(awk '$1 == 16 && $3 == 0 {printf "%s%s", sep, $2; sep=", "}' \
             "$build/bank_cont_j1.txt")
delay_list=$(awk '$1 == 16 && $3 == 0 {printf "%s%s", sep, $6; sep=", "}' \
             "$build/bank_cont_j1.txt")
cat > "$build/BENCH_bank_contention.json" <<EOF
{
  "bench": "bank_sensitivity --contention",
  "config": "16 cores, svc=4, ports=1, shift=0",
  "metric": "avg queuing delay per bank-array reservation (cycles)",
  "banks": [$banks_list],
  "avg_queue_delay_cycles": [$delay_list]
}
EOF
cat "$build/BENCH_bank_contention.json"

# DRAM contention: the channel-queueing model (arrival-keyed backfill,
# multi-slot channels, DRAM-fed LLC MSHRs) must hold the same
# byte-identity guarantee across --jobs, and its headline curve (avg
# DRAM queue delay falling as channels grow) is archived for trend
# tracking alongside the weighted-speedup column.
echo "== dram contention (channel sweep, --jobs 1 vs 8) =="
jobs_identity dram_cont --dram-sweep "" --warmup 10000 --instr 20000 \
    --mixes 1 --contention --svc 4 --ports 1 --dram-sweep --dram-ports 1 \
    --dram-mshr

# Table columns: cores dramch geomean_metric vs_2ch
# avg_dram_queue_delay; keep the cores=16 curve.
chan_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $2; sep=", "}' \
            "$build/dram_cont_j1.txt")
dly_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $5; sep=", "}' \
           "$build/dram_cont_j1.txt")
spd_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $3; sep=", "}' \
           "$build/dram_cont_j1.txt")
cat > "$build/BENCH_dram_contention.json" <<EOF
{
  "bench": "bank_sensitivity --dram-sweep",
  "config": "16 cores, 4 llc banks, svc=4, dram-ports=1, dram-fed mshrs",
  "metric": "avg DRAM queue delay per access (cycles) + weighted speedup",
  "channels": [$chan_list],
  "avg_dram_queue_delay_cycles": [$dly_list],
  "weighted_speedup": [$spd_list]
}
EOF
cat "$build/BENCH_dram_contention.json"

# DRAM timing: the first-order DDR5 model (row-buffer split,
# read<->write turnaround, tREFI/tRFC refresh) must hold the same
# byte-identity guarantee across --jobs; its headline curve — row-hit
# rate and avg DRAM read latency over channel counts — is archived
# for trend tracking.  The knobs are passed explicitly so the
# artifact's config label stays truthful even if the bench defaults
# change.
echo "== dram timing (row/turnaround/refresh model, --jobs 1 vs 8) =="
jobs_identity dram_timing --dram-timing "" --warmup 10000 --instr 20000 \
    --mixes 1 --dram-timing --row-bits 7 --turnaround 12 \
    --refresh-interval 11700 --refresh-penalty 885

# Table columns: cores dramch geomean_metric row_hit_rate avg_read_lat
# avg_hit_lat avg_miss_lat avg_conflict_lat; keep the cores=16 curve.
tch_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $2; sep=", "}' \
           "$build/dram_timing_j1.txt")
hitrate_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $4; sep=", "}' \
               "$build/dram_timing_j1.txt")
readlat_list=$(awk '$1 == 16 && $2 ~ /^[0-9]+$/ {printf "%s%s", sep, $5; sep=", "}' \
               "$build/dram_timing_j1.txt")
cat > "$build/BENCH_dram_timing.json" <<EOF
{
  "bench": "bank_sensitivity --dram-timing",
  "config": "16 cores, 4 llc banks, row-bits=7, turnaround=12, refresh=11700/885",
  "metric": "row-buffer hit rate + avg DRAM read latency per access (cycles)",
  "channels": [$tch_list],
  "row_hit_rate": [$hitrate_list],
  "avg_dram_read_latency_cycles": [$readlat_list]
}
EOF
cat "$build/BENCH_dram_timing.json"

# Observability: with every obs knob off the tracer hook is a single
# null-pointer branch, so knobs-off quickstart/fig04/fig11 (and
# quickstart --audit, a pure checker) stay byte-identical to
# scripts/goldens/ — pinned by the golden_* ctests above.  Here, with
# tracing on, artifacts must be byte-identical across --jobs, and the
# sampling overhead is measured on a fully-traced sweep and archived
# honestly.
echo "== obs: traced quickstart (Perfetto JSON + telemetry JSONL) =="
obs_dir="$build/obs"
rm -rf "$obs_dir"
"$build/quickstart" --warmup 20000 --instr 50000 \
    --trace-sample 64 --trace-out "$obs_dir/quickstart.trace.json" \
    --telemetry-window 50000 \
    --telemetry-out "$obs_dir/quickstart.telemetry.jsonl" \
    > "$build/quickstart_traced.txt"
for f in quickstart.trace.json quickstart.trace.json.csv \
         quickstart.telemetry.jsonl; do
  if [ ! -s "$obs_dir/$f" ]; then
    echo "FAIL: traced quickstart did not write $f"
    exit 1
  fi
done
# The trace must stay loadable by Perfetto / chrome://tracing: a JSON
# object opening with a traceEvents array.
if ! head -c 16 "$obs_dir/quickstart.trace.json" \
    | grep -q '{"traceEvents"'; then
  echo "FAIL: trace JSON does not open with a traceEvents object"
  exit 1
fi
events=$(grep -o '"ph":' "$obs_dir/quickstart.trace.json" | wc -l)
windows=$(wc -l < "$obs_dir/quickstart.telemetry.jsonl")
echo "traced quickstart: $events trace events, $windows telemetry windows"

echo "== obs: sweep artifacts byte-identical (--obs-dir, --jobs 1 vs 8) =="
jobs_identity obs_bank "traced sweep (--obs-dir)" obs --warmup 10000 \
    --instr 20000 --mixes 1 --trace-sample 16 --telemetry-window 50000
n_artifacts=$(ls "$build/obs_j1" | wc -l)
echo "traced sweep: stdout + $n_artifacts artifacts byte-identical across --jobs"

# Overhead is measured on the bank sweep because --obs-dir traces
# EVERY job there — quickstart would dilute the number with its two
# untraced policy runs.  Full tracing is dominated by trace-file
# serialization, which is the honest cost of asking for every
# transaction.
echo "== obs: sampling overhead (off / 1-in-64 / full) =="
ovh_args=(--warmup 10000 --instr 20000 --mixes 1 --jobs 1)
o_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" > /dev/null
o_end=$(date +%s.%N)
s_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" --trace-sample 64 \
    --telemetry-window 50000 --obs-dir "$build/obs_ovh64" > /dev/null
s_end=$(date +%s.%N)
f_start=$(date +%s.%N)
"$build/bank_sensitivity" "${ovh_args[@]}" --trace-sample 1 \
    --telemetry-window 50000 --obs-dir "$build/obs_ovh1" > /dev/null
f_end=$(date +%s.%N)
t_off=$(echo "$o_end $o_start" | awk '{printf "%.3f", $1 - $2}')
t_s64=$(echo "$s_end $s_start" | awk '{printf "%.3f", $1 - $2}')
t_full=$(echo "$f_end $f_start" | awk '{printf "%.3f", $1 - $2}')
p64=$(echo "$t_s64 $t_off" | awk '{printf "%.1f", ($1 / $2 - 1) * 100}')
pfull=$(echo "$t_full $t_off" | awk '{printf "%.1f", ($1/$2 - 1) * 100}')
cat > "$build/BENCH_obs_overhead.json" <<EOF
{
  "bench": "bank_sensitivity --warmup 10000 --instr 20000 --mixes 1 --jobs 1, every job traced via --obs-dir",
  "metric": "wall seconds; overhead percent relative to obs-off",
  "obs_off_seconds": $t_off,
  "trace_1in64_seconds": $t_s64,
  "trace_full_seconds": $t_full,
  "overhead_1in64_pct": $p64,
  "overhead_full_pct": $pfull
}
EOF
cat "$build/BENCH_obs_overhead.json"

echo "== hot-path throughput (accesses/sec; track across PRs) =="
# Keep the previous run's archive (if any) around for the regression
# warning below before this run overwrites it.
prev_rate16=""
if [ -f "$build/BENCH_micro_pipeline.json" ]; then
  prev_rate16=$(awk -F'[:,]' '/"accesses_per_sec_16core"/ {gsub(/ /,"",$2); print $2}' \
                "$build/BENCH_micro_pipeline.json")
fi
"$build/micro_pipeline" --quick | tee "$build/micro_pipeline.txt"
rate=$(awk '$1 == 8 && $2 == 1 {print $3}' "$build/micro_pipeline.txt")
rate16=$(awk '$1 == 16 && $2 == 1 {print $3}' "$build/micro_pipeline.txt")
cat > "$build/BENCH_micro_pipeline.json" <<EOF
{
  "bench": "micro_pipeline",
  "config": "--quick; 8-core/1-bank row + 16-core/1-bank headline row",
  "accesses_per_sec": ${rate:-0},
  "accesses_per_sec_16core": ${rate16:-0}
}
EOF
cat "$build/BENCH_micro_pipeline.json"

# Throughput-regression guard: the hard floor is the seed revision's
# measured rate (scripts/perf_floors.json, committed); dropping below
# it fails CI.  Falling short of the previous archived run only warns —
# run-to-run noise on shared hosts is real, a trend is not a cliff.
floor=$(awk -F'[:,]' '/"micro_pipeline_16core_floor"/ {gsub(/ /,"",$2); print $2}' \
        "$repo/scripts/perf_floors.json")
if [ -z "${rate16:-}" ]; then
  echo "FAIL: micro_pipeline printed no 16-core/1-bank headline row"
  exit 1
fi
if awk "BEGIN{exit !(${rate16} < ${floor:-660000})}"; then
  echo "FAIL: micro_pipeline 16-core rate ${rate16} below seed floor ${floor:-660000}"
  exit 1
fi
echo "micro_pipeline 16-core rate ${rate16} >= seed floor ${floor:-660000}"
if [ -n "$prev_rate16" ] && awk "BEGIN{exit !(${rate16} < ${prev_rate16})}"; then
  echo "WARN: micro_pipeline 16-core rate ${rate16} below previous archived ${prev_rate16}"
fi

# Per-structure microbenchmarks (google-benchmark; optional dep): the
# per-policy churn rows give every PolicyKind its own baseline.
if [ -x "$build/micro_structures" ]; then
  echo "== per-structure microbenchmarks =="
  "$build/micro_structures" --benchmark_min_time=0.05 \
      --benchmark_format=json > "$build/BENCH_micro_structures.json"
  awk -F'"' '/"name"/ {print $4}' "$build/BENCH_micro_structures.json" \
      | sed 's/^/  archived: /'
else
  echo "micro_structures not built (google-benchmark missing); skipping"
fi

# ---- sanitizer lanes -------------------------------------------------
# Each lane is its own build tree (sanitizer runtimes must not mix):
# full ctest plus a short traced-free sweep at --jobs 8 with --audit on,
# so the thread pool, the solo-IPC cache, and every audit check run
# instrumented.  CI_SANITIZE=0 skips the lanes (e.g. quick local runs);
# the stamp below records the skip honestly.
run_sanitizer_lane() {
  lane_name="$1"; lane_flags="$2"; lane_build="$build-$1"
  echo "== sanitizer lane: $lane_name (-fsanitize=${lane_flags//;/,}) =="
  cmake -B "$lane_build" -S "$repo" -DSIM_SANITIZE="$lane_flags" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$lane_build" -j "$jobs"
  ctest --test-dir "$lane_build" --output-on-failure -j "$jobs"
  "$lane_build/quickstart" --warmup 5000 --instr 10000 --audit > /dev/null
  "$lane_build/bank_sensitivity" --warmup 2000 --instr 5000 --mixes 1 \
      --jobs 8 --audit > /dev/null
  echo "sanitizer lane $lane_name: clean"
}
if [ "${CI_SANITIZE:-1}" != "0" ]; then
  run_sanitizer_lane asan "address;undefined"
  asan_status="pass"
  run_sanitizer_lane tsan "thread"
  tsan_status="pass"
else
  asan_status="skip (CI_SANITIZE=0)"
  tsan_status="skip (CI_SANITIZE=0)"
  echo "== sanitizer lanes: SKIP (CI_SANITIZE=0) =="
fi

# One artifact recording what the correctness gates actually ran, so a
# lane silently skipping can never masquerade as a pass.
cat > "$build/BENCH_correctness.json" <<EOF
{
  "lint_determinism": "$lint_status",
  "clang_tidy": "$tidy_status",
  "thread_safety": "$thread_safety_status",
  "asan_ubsan_lane": "$asan_status",
  "tsan_lane": "$tsan_status",
  "audit_golden_identity": "pass"
}
EOF
cat "$build/BENCH_correctness.json"

echo "CI OK"
