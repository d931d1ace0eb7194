#!/usr/bin/env sh
# Builds the concurrency-relevant targets under ThreadSanitizer and
# runs the tests that exercise the parallel engine. A clean pass here
# plus the determinism assertions in test_parallel_sym is the
# project's data-race story for the fault-sharded driver.
#
# Usage: tools/run_tsan.sh [extra ctest args...]
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-tsan"

cmake -S "$repo" -B "$build" -DMOTSIM_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# A bounded job count: a bare -j starts every compile at once, which
# under TSan instrumentation can exhaust a small machine's memory.
jobs="$(nproc 2>/dev/null || echo 2)"
cmake --build "$build" -j "$jobs" \
  --target test_parallel_sym test_options test_pipeline test_hybrid \
  test_sgraph test_obs test_serve

cd "$build"
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --output-on-failure \
  -R 'test_parallel_sym|test_options|test_pipeline|test_hybrid|test_sgraph|test_obs|test_serve' "$@"

echo "TSan pass complete."
