#!/usr/bin/env sh
# trace_smoke.sh — end-to-end check of the span tracing surface.
#
# Builds fsfleet and fsqueryd, generates a small corpus, then
# drives a traced scan and asserts the whole tracing contract: the
# response carries X-Trace-Id, /debug/spans resolves that trace to a
# span tree covering admission → cache → fan-out → merge → encode, and
# /metrics carries a latency-histogram exemplar whose trace ID resolves
# in the flight recorder.
#
# Usage: scripts/trace_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."

PORT="${1:-9482}"
WORK="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/fsfleet" ./cmd/fsfleet
go build -o "$WORK/fsqueryd" ./cmd/fsqueryd

"$WORK/fsfleet" -out "$WORK/traces" -machines 4 -hours 1 -seed 9 -progress 0 >/dev/null

"$WORK/fsqueryd" -dir "$WORK/traces" -addr "127.0.0.1:$PORT" \
  -workers 2 -slow-ms 0 2>"$WORK/log" &
PID=$!

for _ in $(seq 1 50); do
  if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
    break
  fi
  kill -0 "$PID" 2>/dev/null || { echo "fsqueryd exited early:"; cat "$WORK/log"; exit 1; }
  sleep 0.2
done

SCAN="http://127.0.0.1:$PORT/v1/scan?kinds=Read,Write&cols=kind,start&limit=10"

# A traced scan must hand back its trace ID.
curl -fsS -D "$WORK/hdrs" "$SCAN" >/dev/null
TID="$(awk 'tolower($1) == "x-trace-id:" {gsub("\r", "", $2); print $2}' "$WORK/hdrs")"
[ -n "$TID" ] || { echo "no X-Trace-Id header on scan response"; cat "$WORK/hdrs"; exit 1; }

# The flight recorder must resolve it to the full stage tree.
curl -fsS "http://127.0.0.1:$PORT/debug/spans?trace=$TID" > "$WORK/spans"
fail=0
for stage in admit cache scan merge encode; do
  if ! grep -q " $stage" "$WORK/spans"; then
    echo "MISSING stage: $stage"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || { echo "--- /debug/spans?trace=$TID ---"; cat "$WORK/spans"; exit 1; }
grep -q "blocks_scanned=" "$WORK/spans" \
  || { echo "machine scan spans lack the block ledger"; cat "$WORK/spans"; exit 1; }

# The recent-traces listing must include the scan too.
curl -fsS "http://127.0.0.1:$PORT/debug/spans" | grep -q "$TID" \
  || { echo "trace $TID absent from /debug/spans listing"; exit 1; }

# /metrics must carry a latency exemplar resolvable in the recorder.
EXTID="$(curl -fsS "http://127.0.0.1:$PORT/metrics" \
  | awk '/^# exemplar query_request_wall_us_bucket/ {
      if (match($0, /trace_id=[0-9a-f]+/)) { print substr($0, RSTART+9, RLENGTH-9); exit }
    }')"
[ -n "$EXTID" ] || { echo "no exemplar comment in /metrics"; exit 1; }
curl -fsS "http://127.0.0.1:$PORT/debug/spans?trace=$EXTID" >/dev/null \
  || { echo "exemplar trace $EXTID not resolvable in /debug/spans"; exit 1; }

kill -TERM "$PID"
wait "$PID" || true

echo "trace smoke OK: X-Trace-Id served, span tree complete, exemplar resolvable"
