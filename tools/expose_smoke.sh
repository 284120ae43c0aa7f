#!/usr/bin/env bash
# End-to-end smoke test of the exposition endpoint: launches the
# online_store example with OCT_EXPOSE_PORT, waits for the port, scrapes
# /metrics, /healthz, /statusz, and /route with curl, and validates the
# /metrics payload with tools/check_prom_text.py (format + presence of the
# serve.*, ctcr.*, kernel.*, router.* and delta.* families). Also exercises the
# tail-sampling pipeline: a burst of /route calls with a microscopic
# deadline_ms forces shed requests, which must surface on /slowz (with
# trace ids) and leave /sloz rendering its objectives. Run by the CI
# exposition-smoke job; works identically on a laptop:
#
#   $ tools/expose_smoke.sh             # build dir: build, port 9187
#   $ tools/expose_smoke.sh my-build 9999

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
PORT="${2:-9187}"
BIN="$BUILD_DIR/examples/online_store"
TMP_DIR="$(mktemp -d)"

if [ ! -x "$BIN" ]; then
  echo "missing $BIN -- build the examples first:" >&2
  echo "  cmake -B $BUILD_DIR -S $REPO_ROOT && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

OCT_EXPOSE_PORT="$PORT" OCT_EXPOSE_LINGER_SECONDS=60 \
  "$BIN" > "$TMP_DIR/online_store.log" 2>&1 &
STORE_PID=$!
trap 'kill "$STORE_PID" 2> /dev/null || true; wait "$STORE_PID" 2> /dev/null || true; rm -rf "$TMP_DIR"' EXIT

# The walkthrough builds a tree before lingering; give it time on slow CI.
BASE="http://127.0.0.1:$PORT"
for _ in $(seq 1 100); do
  if curl -sf "$BASE/healthz" > /dev/null 2>&1; then break; fi
  if ! kill -0 "$STORE_PID" 2> /dev/null; then
    echo "online_store exited before serving; log:" >&2
    cat "$TMP_DIR/online_store.log" >&2
    exit 1
  fi
  sleep 0.3
done

echo "== /healthz =="
HEALTH="$(curl -sf "$BASE/healthz")"
echo "$HEALTH"
case "$HEALTH" in
  ok*) ;;
  *) echo "expected healthy process, got: $HEALTH" >&2; exit 1 ;;
esac

echo "== /statusz =="
STATUS="$(curl -sf "$BASE/statusz")"
echo "$STATUS" | head -c 400; echo
python3 -c 'import json,sys; doc=json.loads(sys.argv[1]); \
  assert doc["app"]["snapshot_version"] >= 1, "no snapshot published"; \
  assert doc["endpoints"], "no endpoints listed"' "$STATUS"

echo "== /route =="
# A live routed query: attribute 0 value 0 always exists in the generated
# catalog, so the router must answer 200 with a ranked array (possibly
# empty) and the served snapshot version.
ROUTE="$(curl -sf "$BASE/route?q=0%3A0&k=3")"
echo "$ROUTE" | head -c 400; echo
python3 -c 'import json,sys; doc=json.loads(sys.argv[1]); \
  assert "ranked" in doc, "no ranked array"; \
  assert doc["version"] >= 1, "routed against no snapshot"' "$ROUTE"
# Missing and malformed q must be client errors, never 5xx or a hang.
for bad in "/route" "/route?q=zzzznope"; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE$bad")"
  if [ "$CODE" != "400" ]; then
    echo "expected 400 for $bad, got $CODE" >&2
    exit 1
  fi
done
echo "(missing/malformed q -> 400)"

echo "== /slowz + /sloz (tail sampling under load) =="
# A burst of routes with a 1-microsecond deadline: the deadline is gone
# before scoring, the requests shed, and the tail sampler must promote them
# into the slow log. Clean requests above stay out of it.
for _ in $(seq 1 20); do
  curl -s -o /dev/null "$BASE/route?q=0%3A0&deadline_ms=0.001" || true
done
SLOWZ="$(curl -sf "$BASE/slowz")"
echo "$SLOWZ" | head -c 400; echo
python3 -c 'import json,sys; doc=json.loads(sys.argv[1]); \
  entries=doc["requests"]; \
  assert entries, "tail sampler promoted nothing under shed load"; \
  assert all(e["trace_id"] for e in entries), "entry without a trace id"; \
  assert any(e["reason"] in ("shed","slow","error") for e in entries), \
      "no shed/slow entry: " + repr(entries[:3])' "$SLOWZ"
SLOZ="$(curl -sf "$BASE/sloz")"
echo "$SLOZ" | head -c 400; echo
python3 -c 'import json,sys; doc=json.loads(sys.argv[1]); \
  names=[o["name"] for o in doc["objectives"]]; \
  assert "router.latency" in names and "router.availability" in names, \
      "missing SLO objectives: " + repr(names); \
  assert isinstance(doc["pumps"], list), "no pump heartbeat array"' "$SLOZ"
# The shed burst must also be visible in the sampling ledger.
python3 -c 'import json,sys; doc=json.loads(sys.argv[1]); \
  tail=doc["app"]["tail_sampling"]; \
  assert tail["traces_promoted"] >= 1, "ledger saw no promotions"; \
  assert tail["slow_log_added"] >= 1, "nothing reached the slow log"' \
  "$(curl -sf "$BASE/statusz")"

echo "== /metrics =="
curl -sf "$BASE/metrics" > "$TMP_DIR/metrics.txt"
head -n 6 "$TMP_DIR/metrics.txt"
echo "..."
python3 "$REPO_ROOT/tools/check_prom_text.py" "$TMP_DIR/metrics.txt" \
  --require serve_ --require ctcr_ --require kernel_ --require router_ \
  --require delta_

echo "exposition smoke: OK"
