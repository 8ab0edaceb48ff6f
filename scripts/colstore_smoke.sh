#!/usr/bin/env sh
# colstore_smoke.sh — end-to-end check of the columnar corpus pipeline.
#
# Traces a small fleet (saved as colstore segments, *.fsc), verifies
# every segment's logical-stream SHA-256 with `fscorpus verify`, inspects
# layout stats and runs a pushdown scan.
#
# Usage: scripts/colstore_smoke.sh
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/fstrace" ./cmd/fstrace
go build -o "$WORK/fscorpus" ./cmd/fscorpus

"$WORK/fstrace" -machines 4 -hours 1 -seed 9 -workers 2 -out "$WORK/traces"

ls "$WORK/traces"/*.fsc >/dev/null
if ls "$WORK/traces"/*.trz >/dev/null 2>&1; then
  echo "FAIL: fstrace saved row streams" >&2
  exit 1
fi

# Every segment decodes, re-encodes and digests to its footer SHA-256.
"$WORK/fscorpus" verify "$WORK/traces" | tee "$WORK/verify.out"
grep -q '^verified 4 machines' "$WORK/verify.out"
if grep -q FAIL "$WORK/verify.out"; then
  echo "FAIL: verification failures" >&2
  exit 1
fi

# Layout stats and a pushdown scan must run cleanly.
"$WORK/fscorpus" stats "$WORK/traces" >/dev/null
"$WORK/fscorpus" scan -kinds read,write "$WORK/traces" | tee "$WORK/scan.out"
grep -q 'pushdown:' "$WORK/scan.out"

echo "colstore smoke OK" >&2
