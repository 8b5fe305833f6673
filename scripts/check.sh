#!/usr/bin/env bash
# Verification gate: tier-1 build + full test suite, then a second build
# with AddressSanitizer + UBSan (-DCAQP_SANITIZE=ON) re-running the tests
# (including the fault-injection and serde byte-mutation fuzz suites, where
# ASan catches OOB reads the Status paths might otherwise hide), then a
# ThreadSanitizer build (-DCAQP_SANITIZE=thread) running the
# concurrency-sensitive suites (caqp::serve incl. deadline/shedding paths,
# the caqp::dist coordinator/shard scatter-gather suites, the adaptive
# replanner, the obs v2 span/histogram/shard/flight-recorder suites, the
# calibration aggregator and drift-policy suites, the regret-planner and
# uncertainty-box suites incl. the widen-mode drift loop, the columnar
# batch-executor differential and shared-profile concurrency suites, and
# the PR 10 telemetry suites — exposer scrapes, SLO burn recording, and the
# shard-flapping calibration/trace-join stress tests, and the shared
# DatasetEstimator suites) plus the fault suites again.
# Usage: scripts/check.sh [--skip-sanitizers]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_san=0
[[ "${1:-}" == "--skip-sanitizers" ]] && skip_san=1

echo "== tier-1: regular build + ctest =="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

if [[ "$skip_san" == 1 ]]; then
  echo "== sanitizers skipped =="
  exit 0
fi

echo "== ASan/UBSan build + ctest (incl. fault + serde-fuzz suites) =="
cmake -B build-asan -S . -DCAQP_SANITIZE=ON
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

echo "== TSan build + concurrency and fault suites =="
cmake -B build-tsan -S . -DCAQP_SANITIZE=thread
cmake --build build-tsan -j
ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
  -R '^Serve|^Dist|^Adaptive|^Fault|^SerdeFuzz|^CompiledPlan|^Span|^Histogram|^ShardedRegistry|^FlightRecorder|^Calibration|^Drift|^Regret|^BatchExec|^Telemetry|^DatasetEstimator'

echo "== all checks passed =="
