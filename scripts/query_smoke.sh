#!/usr/bin/env sh
# query_smoke.sh — end-to-end check of the corpus query service.
#
# Builds fsfleet and fsqueryd, generates a small corpus, then
# drives the service through its contract surface: a cold scan, a cache
# hit proven by the obs counter, 429 backpressure under the built-in
# load generator at a starved admission pool, and a clean SIGTERM drain.
#
# Usage: scripts/query_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."

PORT="${1:-9481}"
WORK="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/fsfleet" ./cmd/fsfleet
go build -o "$WORK/fsqueryd" ./cmd/fsqueryd

"$WORK/fsfleet" -out "$WORK/traces" -machines 4 -hours 1 -seed 9 -progress 0 >/dev/null

"$WORK/fsqueryd" -dir "$WORK/traces" -addr "127.0.0.1:$PORT" \
  -workers 2 2>"$WORK/log" &
PID=$!

# Poll until the service answers (or dies early).
for _ in $(seq 1 50); do
  if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$PID" 2>/dev/null || { echo "fsqueryd exited early:"; cat "$WORK/log"; exit 1; }
  sleep 0.2
done

SCAN="http://127.0.0.1:$PORT/v1/scan?kinds=Read,Write&cols=kind,start&limit=10"

# Cold scan, then the same query again: bodies must be byte-identical
# and the second must register as a cache hit in /metrics.
curl -fsS "$SCAN" > "$WORK/cold.json"
grep -q '"matched"' "$WORK/cold.json" || { echo "scan body lacks matched count"; cat "$WORK/cold.json"; exit 1; }
curl -fsS "$SCAN" > "$WORK/hit.json"
cmp -s "$WORK/cold.json" "$WORK/hit.json" \
  || { echo "cached body differs from cold body"; exit 1; }

HITS="$(curl -fsS "http://127.0.0.1:$PORT/metrics" | awk '/^query_cache_hits_total/ {print $2}')"
[ "${HITS:-0}" -ge 1 ] || { echo "query_cache_hits_total = ${HITS:-absent}, want >= 1"; exit 1; }

# A report artifact must serve and cache too.
curl -fsS "http://127.0.0.1:$PORT/v1/report?artifact=table2" | grep -q '"text"' \
  || { echo "report artifact failed"; exit 1; }

# Backpressure: a separate instance with a starved admission pool under
# its own load generator must refuse some requests with 429 and finish
# without transport errors.
LOAD="$("$WORK/fsqueryd" -dir "$WORK/traces" -addr "127.0.0.1:0" \
  -max-inflight 1 -max-queue 1 -load -load-clients 16 -load-requests 25 2>/dev/null)"
echo "$LOAD"
case "$LOAD" in
  *" rejected=0 "*) echo "load run never tripped the 429 path"; exit 1 ;;
  *" errors=0 "*) : ;;
  *) echo "load run saw errors"; exit 1 ;;
esac

# Clean drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
[ "$rc" -eq 0 ] || { echo "expected exit 0 on SIGTERM, got $rc"; cat "$WORK/log"; exit 1; }
grep -q "drained" "$WORK/log" || { echo "drain never logged"; cat "$WORK/log"; exit 1; }

echo "query smoke OK: cold scan, cache hit, 429 backpressure, clean drain"
