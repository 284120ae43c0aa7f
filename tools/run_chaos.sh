#!/usr/bin/env bash
# Chaos runner: replays randomized failpoint schedules against the chaos
# tests in tests/test_serve_stress (serving + version-log commits, delta
# splices, replica failover). Each round draws per-site error/delay
# probabilities from a seeded stream and injects them through
# OCT_FAILPOINTS / OCT_FAILPOINT_SEED, so any failing round is exactly
# reproducible from the seed it prints.
#
#   $ tools/run_chaos.sh              # 3 rounds against build/
#   $ tools/run_chaos.sh 10           # 10 rounds
#   $ tools/run_chaos.sh 5 tsan       # 5 rounds under ThreadSanitizer
#   $ OCT_CHAOS_SEED=99 tools/run_chaos.sh   # different schedule stream
#
# Only `error` and `delay` actions are drawn: `crash` one-shots abort the
# test process by design and are exercised separately (and are unsafe
# under TSan).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ROUNDS="${1:-3}"
MODE="${2:-plain}"
SEED="${OCT_CHAOS_SEED:-20260806}"

case "$MODE" in
  plain)
    BUILD_DIR="$REPO_ROOT/build"
    if [ ! -d "$BUILD_DIR" ]; then
      cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
    fi
    ;;
  tsan)
    BUILD_DIR="$REPO_ROOT/build-tsan"
    export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
      -DOCT_SANITIZE=thread \
      -DOCT_BUILD_BENCHMARKS=OFF \
      -DOCT_BUILD_EXAMPLES=OFF
    ;;
  *)
    echo "usage: $0 [rounds] [plain|tsan]" >&2
    exit 2
    ;;
esac

TARGETS="test_serve_stress"
# Plain mode also gets the kill-and-recover bench: real fork + SIGKILL
# writers plus replica failover under live /route traffic. Unsafe (and not
# built) under TSan, where the error/delay replication round below covers
# the same invariants without killing processes.
if [ "$MODE" = plain ]; then
  TARGETS="$TARGETS store_recovery"
fi
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j "$(nproc)" --target $TARGETS

# Deterministic schedule stream: bash's $RANDOM reseeds from assignment.
RANDOM="$SEED"

# prob <max_percent> — a probability in [0, max_percent/100) with 2 digits.
prob() {
  printf '0.%02d' "$((RANDOM % $1))"
}

for round in $(seq 1 "$ROUNDS"); do
  fp_seed="$((SEED + round))"
  schedule="serve.rebuild=error:$(prob 40)"
  schedule="$schedule,serve.publish=error:$(prob 30)"
  schedule="$schedule,store.commit=error:$(prob 40)"
  schedule="$schedule,store.manifest.commit=error:$(prob 30)"
  schedule="$schedule,mis.solve=delay:$((RANDOM % 3 + 1))ms:$(prob 60)"
  echo "== chaos round $round/$ROUNDS  seed=$fp_seed"
  echo "   OCT_FAILPOINTS=$schedule"
  OCT_FAILPOINTS="$schedule" OCT_FAILPOINT_SEED="$fp_seed" \
    "$BUILD_DIR/tests/test_serve_stress" \
    --gtest_filter='ServeStress.ReadersSurviveChaosScheduleWithRecoverableLog'

  # Same round, delta path: kill splices mid-flight and verify failed
  # pumps leave the published tree untouched and the maintainer recovers.
  delta_schedule="delta.apply=error:$(prob 30)"
  delta_schedule="$delta_schedule,delta.component=error:$(prob 20)"
  delta_schedule="$delta_schedule,delta.splice=error:$(prob 30)"
  echo "   OCT_FAILPOINTS=$delta_schedule"
  OCT_FAILPOINTS="$delta_schedule" OCT_FAILPOINT_SEED="$fp_seed" \
    "$BUILD_DIR/tests/test_serve_stress" \
    --gtest_filter='ServeStress.DeltaSpliceFailuresRecoverUnderChaos'

  # Same round, durability path: drop replica ships, fail log commits and
  # installs, race promotions — the replica set must quarantine divergence,
  # heal on reseed, and end with every replica on the primary lineage.
  store_schedule="repl.ship=error:$(prob 30)"
  store_schedule="$store_schedule,repl.install=error:$(prob 20)"
  store_schedule="$store_schedule,store.commit=error:$(prob 15)"
  store_schedule="$store_schedule,repl.promote=error:$(prob 20)"
  store_schedule="$store_schedule,store.record.read=delay:$((RANDOM % 2 + 1))ms:$(prob 30)"
  echo "   OCT_FAILPOINTS=$store_schedule"
  OCT_FAILPOINTS="$store_schedule" OCT_FAILPOINT_SEED="$fp_seed" \
    "$BUILD_DIR/tests/test_serve_stress" \
    --gtest_filter='ServeStress.StoreReplicationFailoverUnderChaos'
done

# Kill-and-recover round (plain mode only): forked writers die by SIGKILL /
# SIGABRT mid-commit and replicas are promoted under live router traffic.
# The bench hard-gates 100/100 exact recoveries, zero torn reads, and
# sheds-never-stalls internally.
if [ "$MODE" = plain ]; then
  echo "== kill-and-recover round (bench/store_recovery)"
  "$BUILD_DIR/bench/store_recovery"
fi

echo "chaos run clean: $ROUNDS round(s), base seed $SEED, mode $MODE."
