#!/usr/bin/env bash
# Builds the library and tests under a sanitizer and runs the tier-1 suite.
# Any sanitizer report fails the run (halt_on_error).
#
#   $ tools/run_sanitizers.sh tsan            # ThreadSanitizer, build-tsan/
#   $ tools/run_sanitizers.sh asan            # AddressSanitizer, build-asan/
#   $ tools/run_sanitizers.sh ubsan           # UBSanitizer,     build-ubsan/
#   $ tools/run_sanitizers.sh tsan my-dir     # custom build dir
#   $ OCT_SANITIZE=asan tools/run_sanitizers.sh   # env var instead of arg
#
# tsan additionally runs the observability, serve stress, and router
# suites first — they are the densest sources of cross-thread
# interleavings in the repo (tail-sampler shards vs. finishing requests;
# snapshot publish vs. readers; concurrent routes vs. publishers and the
# shared route-index cache). ubsan builds with float-cast-overflow on top
# of -fsanitize=undefined (see CMakeLists.txt).
#
# Benchmarks and examples are skipped: they add nothing to sanitizer
# coverage and google-benchmark is not instrumented.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-${OCT_SANITIZE:-tsan}}"
BUILD_DIR="${2:-$REPO_ROOT/build-$MODE}"

case "$MODE" in
  tsan)
    CMAKE_SANITIZE=thread
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
    ;;
  asan)
    CMAKE_SANITIZE=address
    # detect_leaks=0: the obs/metrics/thread-pool singletons are leaked on
    # purpose (shutdown-order safety); LSan would flag them all.
    export ASAN_OPTIONS="halt_on_error=1 detect_leaks=0"
    ;;
  ubsan)
    CMAKE_SANITIZE=undefined
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
    ;;
  *)
    echo "usage: $0 [tsan|asan|ubsan] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DOCT_SANITIZE="$CMAKE_SANITIZE" \
  -DOCT_BUILD_BENCHMARKS=OFF \
  -DOCT_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ "$MODE" = "tsan" ]; then
  echo "== observability suite under TSan =="
  # Trace propagation, tail-sampler shard contention, the lock-free SLO
  # buckets, and the watchdog heartbeats all cross threads by design.
  "$BUILD_DIR/tests/test_obs"
  "$BUILD_DIR/tests/test_expose"
  echo "== serve stress tests under TSan =="
  "$BUILD_DIR/tests/test_serve_stress"
  echo "== router suite under TSan =="
  "$BUILD_DIR/tests/test_router"
fi

echo "== full tier-1 suite under $MODE =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "$MODE run clean: no issues reported."
