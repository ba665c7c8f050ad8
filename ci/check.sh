#!/usr/bin/env bash
# ci/check.sh — the pre-merge gate (ROADMAP.md, DESIGN.md §11, §16).
#
#   ci/check.sh quick   # warnings-as-errors build, dlint, clang-tidy*,
#                       # tier-1 ctest, e2ebench smoke, bounded dcheck
#                       # model checking
#   ci/check.sh full    # quick + ASan+UBSan full suite + TSan threaded
#                       # suites + unbounded-depth dcheck exploration
#
# *clang-tidy and -Wthread-safety need clang; on gcc-only machines those legs
#  degrade to a logged skip rather than a failure, so the script runs
#  everywhere the toolchain does.
#
# Every leg builds into its own directory under build-ci/ so a plain dev
# build/ is never clobbered. Exit is non-zero on the first failing leg.
# Alongside the console output the script always writes
# build-ci/check_summary.json — per-leg status and duration, plus the number
# of dcheck schedules explored — even when a leg fails, so CI dashboards can
# parse the verdict without scraping the log.
set -euo pipefail

mode="${1:-quick}"
case "$mode" in
  quick|full) ;;
  *) echo "usage: $0 [quick|full]" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
ci_root="${root}/build-ci"
mkdir -p "$ci_root"

step() { printf '\n=== %s ===\n' "$*"; }

# --- machine-readable summary --------------------------------------------
# Each completed leg appends "name|status|seconds"; the EXIT trap turns the
# list into build-ci/check_summary.json no matter how the script ends.
summary_file="$ci_root/check_summary.json"
legs=()
dcheck_schedules=0

write_summary() {
  local code=$1
  {
    printf '{\n'
    printf '  "mode": "%s",\n' "$mode"
    printf '  "ok": %s,\n' "$([ "$code" -eq 0 ] && echo true || echo false)"
    printf '  "dcheck_schedules": %s,\n' "$dcheck_schedules"
    printf '  "legs": [\n'
    local i n=${#legs[@]}
    for ((i = 0; i < n; ++i)); do
      IFS='|' read -r name status secs <<<"${legs[$i]}"
      printf '    {"name": "%s", "status": "%s", "seconds": %s}%s\n' \
        "$name" "$status" "$secs" "$([ $((i + 1)) -lt "$n" ] && echo ,)"
    done
    printf '  ]\n}\n'
  } >"$summary_file"
}
trap 'write_summary $?' EXIT

# run_leg <name> <fn> — time the leg, record pass/fail/skip, fail fast.
# The leg function may `return 77` to record a skip that does not gate.
run_leg() {
  local name="$1" fn="$2" status rc started
  step "$name"
  started=$SECONDS
  rc=0
  "$fn" || rc=$?
  case "$rc" in
    0) status=pass ;;
    77) status=skip; rc=0 ;;
    *) status=fail ;;
  esac
  legs+=("${name}|${status}|$((SECONDS - started))")
  [ "$rc" -eq 0 ] || exit "$rc"
}

configure_build() {
  # configure_build <dir> <cmake-args...>
  local dir="$1"; shift
  cmake -S "$root" -B "$dir" "$@" >"$dir.configure.log" 2>&1 \
    || { tail -40 "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$jobs" >"$dir.build.log" 2>&1 \
    || { tail -60 "$dir.build.log"; return 1; }
}

# Sum the "schedules" counters out of a dcheck --json artifact.
count_schedules() {
  grep -o '"schedules": [0-9]*' "$1" 2>/dev/null \
    | awk '{s += $2} END {print s + 0}'
}

werror_dir="$ci_root/werror"
dcheck_dir="$ci_root/dcheck"

# --- Leg 1: warnings-as-errors build (gcc or clang; clang adds
# -Wthread-safety through the dinfomap_warnings target). ------------------
leg_werror() {
  mkdir -p "$werror_dir"
  configure_build "$werror_dir" -DCMAKE_BUILD_TYPE=Release -DDINFOMAP_WERROR=ON
}
run_leg "werror build (-Wall -Wextra -Wpedantic -Wshadow as errors)" leg_werror

# --- Leg 2: dlint over everything we ship. -------------------------------
leg_dlint() {
  "$werror_dir/tools/dlint/dlint" --root "$root" src tests bench examples
}
run_leg "dlint (determinism, concurrency & lock-order rules)" leg_dlint

# --- Leg 3: clang-tidy when available (the CMake target self-skips). -----
leg_tidy() {
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake --build "$werror_dir" --target tidy
  else
    echo "clang-tidy not installed here; leg skipped (runs on clang CI hosts)"
    return 77
  fi
}
run_leg "clang-tidy (bugprone-*, concurrency-*, performance-*)" leg_tidy

# --- Leg 4: tier-1 tests on the werror build. ----------------------------
leg_ctest() {
  ctest --test-dir "$werror_dir" --output-on-failure -j "$jobs"
}
run_leg "tier-1 ctest" leg_ctest

# --- Leg 4a: end-to-end benchmark smoke. ---------------------------------
# e2ebench/run.py --smoke builds the benchmark program from this checkout,
# runs every BENCHMARK.json workload once at toy size (edge list on disk ->
# partition on disk), and checks that its output check rejects a perturbed
# assignment — so a driver change that breaks the pipeline fails here.
leg_e2e_smoke() {
  (cd "$root" && python3 e2ebench/run.py --smoke)
}
run_leg "e2ebench smoke (edge list -> partition pipeline)" leg_e2e_smoke

# --- Leg 4b: socket-transport cross-backend gate. ------------------------
# Redundant with leg 4's full run, but the transport label is the acceptance
# gate for backend bit-identity (DESIGN.md §14) — identical partitions, MDL,
# and round traces across inproc and socket, including under a fault plan at
# 4 ranks — so its verdict gets its own line in the CI log.
leg_transport() {
  ctest --test-dir "$werror_dir" --output-on-failure -L transport
}
run_leg "socket transport cross-backend suite (ctest -L transport)" \
  leg_transport

# --- Leg 4c: out-of-core backend gate. -----------------------------------
# The blockgraph label is the acceptance gate for the compressed-block
# substrate (DESIGN.md §15): codec round-trips, corrupt-block detection,
# cache bounds, and bit-identical dist results between the
# resident and blocks backends across engines, thread counts, and fault
# plans — so its verdict gets its own line in the CI log too.
leg_blockgraph() {
  ctest --test-dir "$werror_dir" --output-on-failure -L blockgraph
}
run_leg "out-of-core backend suite (ctest -L blockgraph)" leg_blockgraph

# --- Leg 4d: dcheck model checking, bounded (DESIGN.md §16). -------------
# A separate tree because DINFOMAP_DCHECK=ON swaps the sync primitives for
# their instrumented twins repo-wide. --validate is the gate: every harness
# must pass clean AND catch its seeded mutation with a replayable schedule.
# The 60 s per-harness budget keeps the quick gate quick; typical runs
# finish in well under a second per harness.
leg_dcheck() {
  mkdir -p "$dcheck_dir"
  configure_build "$dcheck_dir" -DCMAKE_BUILD_TYPE=Release \
    -DDINFOMAP_DCHECK=ON || return 1
  ctest --test-dir "$dcheck_dir" --output-on-failure -L dcheck || return 1
  "$dcheck_dir/tools/dcheck/dcheck" --all --validate --max-seconds 60 \
    --json "$ci_root/dcheck_quick.json" || return 1
  dcheck_schedules=$(count_schedules "$ci_root/dcheck_quick.json")
  echo "dcheck explored $dcheck_schedules schedules (bounded, budget 60 s/harness)"
}
run_leg "dcheck model checking (bounded, ctest -L dcheck + --all --validate)" \
  leg_dcheck

# --- Leg 5: bench drift vs checked-in baselines (informational). ---------
# Reruns the engine-comparison bench and diffs its artifact against
# bench_results/. Deterministic metrics (final_L, eval counters) must
# reproduce bit-for-bit; timing columns get a loose band. Never fails the
# gate — a slow or loaded machine is not a regression — but the delta table
# lands in the CI log for humans.
leg_benchdiff() {
  local benchdiff_tmp
  benchdiff_tmp="$(mktemp -d)"
  # bench_blockgraph exits non-zero when the ISSUE 9 acceptance bounds fail
  # (memory ≤50% of resident at a 25% cache budget, gather ≤2×) — that part
  # is a real gate, not informational.
  if (cd "$benchdiff_tmp" && "$werror_dir/bench/bench_async_convergence" \
        >bench.log 2>&1 \
      && "$werror_dir/bench/bench_blockgraph" >>bench.log 2>&1); then
    "$werror_dir/tools/benchdiff/benchdiff" "$root/bench_results" \
      "$benchdiff_tmp/bench_results" || true
  else
    echo "bench run failed (or blockgraph acceptance bounds violated)"
    tail -15 "$benchdiff_tmp/bench.log" || true
    rm -rf "$benchdiff_tmp"
    return 1
  fi
  rm -rf "$benchdiff_tmp"
}
run_leg "benchdiff vs bench_results/ baselines (informational)" leg_benchdiff

if [ "$mode" = "quick" ]; then
  step "quick gate passed"
  exit 0
fi

# --- Leg 6 (full): ASan+UBSan over the whole suite. ----------------------
# -fno-sanitize-recover is wired in CMake, so any UBSan hit is a hard fail.
# The suite includes the transport label, so the socket backend's reader
# threads, frame codecs, and forked CLI workers all run instrumented here.
leg_asan() {
  local asan_dir="$ci_root/asan-ubsan"
  mkdir -p "$asan_dir"
  configure_build "$asan_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDINFOMAP_SANITIZE=address,undefined || return 1
  ctest --test-dir "$asan_dir" --output-on-failure -j "$jobs"
}
run_leg "ASan+UBSan full suite" leg_asan

# --- Leg 7 (full): TSan on the concurrency suites. -----------------------
# Scope: the comm substrate, thread-pool, threaded-ingest, async-engine, and
# blockgraph tests.
# What TSan covers there: the comm reader threads (socket backend) and the
# rank threads sharing each in-process mailbox; the shared send channel,
# which a sender and its receivers' retransmit requests (in-process) or the
# peer's reader thread (sockets) touch concurrently; the ingest's slots
# (read_edge_list's byte ranges, build_csr's bucket scatter and row fill,
# at 1-8 slots: test_ingest and test_graph's Builder.*), which write
# disjoint slices of shared arrays between pool dispatches; and the
# blockgraph decode cache, which hands slots across threads through its
# lease mutex.
# The async engine itself is single-threaded per rank. RelaxMap is excluded by
# repo convention — its module reads are racy by design (published
# consistency model; see the SharedLevel comment in src/core/relaxmap.cpp).
leg_tsan() {
  local tsan_dir="$ci_root/tsan"
  mkdir -p "$tsan_dir"
  configure_build "$tsan_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDINFOMAP_SANITIZE=thread || return 1
  ctest --test-dir "$tsan_dir" --output-on-failure -j "$jobs" \
    -L 'comm-faults|threads|async|transport|blockgraph' -E RelaxMap
}
run_leg "TSan (comm-faults + threads + async + transport + blockgraph, RelaxMap excluded)" \
  leg_tsan

# --- Leg 8 (full): dcheck, unbounded depth. ------------------------------
# --bound -1 removes the preemption bound entirely: full DFS over every
# interleaving of each harness, subject only to the wall-clock budget. The
# bounded quick leg already proves mutation coverage; this one chases bugs
# that need 4+ forced switches. Truncation by the budget is not a failure —
# it still reports how far it got.
leg_dcheck_full() {
  "$dcheck_dir/tools/dcheck/dcheck" --all --validate --bound -1 \
    --max-seconds 300 --json "$ci_root/dcheck_full.json" || return 1
  local full_schedules
  full_schedules=$(count_schedules "$ci_root/dcheck_full.json")
  dcheck_schedules=$((dcheck_schedules + full_schedules))
  echo "dcheck explored $full_schedules schedules (unbounded depth, budget 300 s/harness)"
}
run_leg "dcheck model checking (unbounded depth, --bound -1)" leg_dcheck_full

step "full gate passed"
