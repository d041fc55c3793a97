#!/usr/bin/env bash
# Tier-1 verification gate, meant to be run before every merge:
#
#   1. Release-ish build + full ctest suite (the tier-1 contract from
#      ROADMAP.md: every test passing, determinism bit-for-bit).
#   2. Metrics snapshot: bench_metrics_dump drives one geo commit + one
#      cross-site send through the full pipeline and archives every
#      registered counter group as build/METRICS_dump.json (validated as
#      JSON when python3 is available).
#   2b. End-to-end benchmark self-test: e2ebench/test_e2ebench.py builds
#       e2ebench into .bench_build/ and runs every workload's short
#       mode, untraced and traced, checking each result against
#       BENCHMARK.json and that injected violations are caught (about
#       20 s after the build). Runs under --fast too.
#   3. Pipeline smoke: bench_pipeline --smoke compares window 1 vs 8 on
#      the Table-I WAN matrix and fails unless window 8 is strictly
#      faster (the DESIGN.md §9 pipelining regression gate), then sweeps
#      adaptive vs static daemon windows over the remote-delivery path
#      with and without injected loss and fails unless adaptive beats
#      the best static window under loss while matching it lossless
#      (the DESIGN.md §13 congestion-control gate).
#      Every bench pass MUST refresh its repo-root BENCH_*.json copy —
#      a bench that ran without updating the versioned results fails
#      the gate (refresh_bench below).
#   3c. Quorum-cert gate: bench_fig6_communication --qc runs the send
#       workload with real crypto, without and with geo mirroring, and
#       fails when a scenario exceeds its fixed ceiling on individual MAC
#       verifications or WAN proof bytes (communication: 60 and 3,120;
#       geo: 120 and 4,000 — the DESIGN.md §14 gate). Writes
#       BENCH_qc.json.
#   4a. Static analysis: clang-tidy (.clang-tidy at the repo root; the
#       gate set is bugprone-* + performance-*) over src/ using the
#       compile database — skipped with a notice when clang-tidy is not
#       installed.
#   4b. bplint: the project-invariant static-analysis suite
#       (scripts/bplint; rules BP001–BP006 and BP009–BP011 —
#       determinism, entropy hygiene, wire-field coverage, dispatch
#       exhaustiveness, integer consensus math, metrics/trace hygiene,
#       lock-scope discipline, timer hygiene, bounded decode; the
#       entropy/float rules chase call chains across translation units
#       via the project call graph). A discarded Status is a compile
#       error instead: Status/StatusOr are [[nodiscard]] and pass 1
#       builds with -Werror.
#       Zero unsuppressed diagnostics required; the serial run, a
#       rerun, and a --jobs=4 run must all be byte-identical; and the
#       whole-tree pass must finish inside its 1.5 s budget. Runs even
#       under --fast: it is self-contained Python.
#   5. The same suite under ASan+UBSan in a separate Debug build tree
#      (build-asan/). The zero-copy payload paths share one allocation
#      across broadcast fan-out, retransmission buffers, and reorder
#      buffers — exactly the kind of lifetime bug a sanitizer catches and
#      a passing test hides.
#
# Usage: scripts/check.sh [--fast|--chaos-smoke]
#   --fast         passes 1–3c + bplint; skip clang-tidy and sanitizers.
#   --chaos-smoke  quick chaos gate (<60s): build, then run the chaos
#                  regression + a reduced soak (2 seeds per template via
#                  CHAOS_SOAK_SEEDS) and the fig-8 chaos bench variant,
#                  which fails unless throughput recovers after the
#                  scheduled site outage. Failing campaigns print their
#                  JSON for seed-exact reproduction (see EXPERIMENTS.md).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS_SMOKE="$(nproc 2>/dev/null || echo 4)"

# Copies build/$1 to the repo root, failing when the bench pass that was
# supposed to produce it did not: versioned bench results must never go
# stale relative to a bench run that succeeded.
refresh_bench() {
  local name="$1"
  [[ -s "build/$name" ]] \
    || { echo "$name missing after its bench pass — not refreshed"; exit 1; }
  cp "build/$name" "$name"
  cmp -s "build/$name" "$name" \
    || { echo "$name at the repo root does not match the fresh run"; exit 1; }
  echo "refreshed $name"
}

if [[ "${1:-}" == "--chaos-smoke" ]]; then
  echo "=== chaos smoke: build ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS_SMOKE"
  echo "=== chaos smoke: regression + reduced soak ==="
  build/tests/chaos_test
  CHAOS_SOAK_SEEDS=2 build/tests/chaos_soak_test
  echo "=== chaos smoke: fig-8 chaos bench (outage recovery gate) ==="
  build/bench/bench_fig8_failures --chaos --out=build/BENCH_chaos.json
  refresh_bench BENCH_chaos.json
  echo "=== chaos smoke passed ==="
  exit 0
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== pass 1: tier-1 build + tests (warnings are errors) ==="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DBLOCKPLANE_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

# Pass 4b (bplint) is cheap and dependency-free, so it also runs in --fast
# builds. The serial run, a rerun, and a --jobs=4 run must all agree byte
# for byte: a lint whose output wobbles — across time or across worker
# counts — cannot gate a determinism-obsessed repo. The timed first run
# must also stay inside the 1.5 s whole-tree budget that keeps the gate
# viable as a pre-commit hook.
run_bplint() {
  echo "=== pass 4b: bplint (BP001-BP011 project invariants) ==="
  local t0 t1 elapsed_ms
  t0="$(date +%s%N)"
  python3 scripts/bplint -p build src bench | tee build/bplint.out
  t1="$(date +%s%N)"
  elapsed_ms=$(( (t1 - t0) / 1000000 ))
  python3 scripts/bplint -p build src bench > build/bplint.rerun.out
  cmp build/bplint.out build/bplint.rerun.out \
    || { echo "bplint output is not byte-identical across runs"; exit 1; }
  python3 scripts/bplint -p build --jobs 4 src bench > build/bplint.jobs.out
  cmp build/bplint.out build/bplint.jobs.out \
    || { echo "bplint --jobs=4 output differs from the serial run"; exit 1; }
  [[ "$elapsed_ms" -lt 1500 ]] \
    || { echo "bplint took ${elapsed_ms}ms, over the 1500ms budget"; exit 1; }
  echo "bplint clean (${elapsed_ms}ms; serial == rerun == --jobs=4)"
}

echo "=== pass 2: metrics registry snapshot ==="
build/bench/bench_metrics_dump --out=build/METRICS_dump.json >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open('build/METRICS_dump.json'))" \
    || { echo "METRICS_dump.json is not valid JSON"; exit 1; }
fi
echo "metrics snapshot OK (build/METRICS_dump.json)"

echo "=== pass 2b: e2ebench self-test (short mode of every workload) ==="
python3 e2ebench/test_e2ebench.py
echo "e2ebench self-test OK"

echo "=== pass 3: pipeline smoke (window 1 vs 8, adaptive vs static) ==="
build/bench/bench_pipeline --smoke --out=build/BENCH_pipeline.json
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open('build/BENCH_pipeline.json'))" \
    || { echo "BENCH_pipeline.json is not valid JSON"; exit 1; }
fi
refresh_bench BENCH_pipeline.json
echo "pipeline smoke OK (BENCH_pipeline.json)"

echo "=== pass 3c: quorum-cert gate (DESIGN.md §14) ==="
# Each scenario must stay at or under its fixed ceilings on individual MAC
# verifications and WAN proof bytes; the bench exits non-zero otherwise.
build/bench/bench_fig6_communication --qc --out=build/BENCH_qc.json
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open('build/BENCH_qc.json'))" \
    || { echo "BENCH_qc.json is not valid JSON"; exit 1; }
fi
refresh_bench BENCH_qc.json
echo "qc gate OK (BENCH_qc.json)"

if [[ "$FAST" == "1" ]]; then
  run_bplint
  echo "=== --fast: skipping clang-tidy and sanitizer passes ==="
  exit 0
fi

echo "=== pass 4a: clang-tidy (bugprone-*, performance-*) ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # The full check set (with readability/modernize/misc additions) lives
  # in .clang-tidy for IDEs and `run-clang-tidy`; the merge gate enforces
  # the bugprone-* + performance-* core.
  mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
  clang-tidy -p build \
    --quiet \
    --warnings-as-errors='bugprone-*,performance-*' \
    --checks='-*,bugprone-*,performance-*,-bugprone-easily-swappable-parameters,-bugprone-exception-escape' \
    "${TIDY_SOURCES[@]}"
  echo "clang-tidy clean"
else
  echo "clang-tidy not installed; skipping static analysis pass"
fi

run_bplint

echo "=== pass 5: ASan+UBSan build + tests ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  >/dev/null
cmake --build build-asan -j "$JOBS"
# The suite includes one sanitized chaos-soak configuration: a reduced
# seed count keeps the fault-campaign sweep affordable under ASan while
# still exercising every schedule template with full instrumentation.
ASAN_OPTIONS=detect_leaks=1 CHAOS_SOAK_SEEDS=4 \
  ctest --test-dir build-asan --output-on-failure

echo "=== all checks passed ==="
