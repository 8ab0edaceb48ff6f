#!/usr/bin/env sh
# colstore_smoke.sh — end-to-end check of the columnar corpus pipeline.
#
# Traces a small fleet (saved as colstore segments, *.fsc, and snapshots,
# *.snap), verifies every segment's logical-stream SHA-256 and every
# snapshot record with `fscorpus verify`, checks that a corrupt snapshot
# fails it by name, inspects layout stats and runs a pushdown scan.
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

# Every segment decodes, re-encodes and digests to its footer SHA-256,
# and every record of the 8 snapshots (a start and a closing walk per
# machine) passes its checks.
"$WORK/fscorpus" verify "$WORK/traces" | tee "$WORK/verify.out"
grep -q '^verified 4 machines' "$WORK/verify.out"
grep -q '^verified 8 snapshots: [1-9][0-9]* walk records pass every check$' "$WORK/verify.out"
if grep -q FAIL "$WORK/verify.out"; then
  echo "FAIL: verification failures" >&2
  exit 1
fi

# A snapshot that fails its checks fails verify, which names it: the
# first header byte (the machine name's length) set to 0xff.
cp -r "$WORK/traces" "$WORK/bad"
SNAP="$(ls "$WORK/bad"/*.snap | head -n 1)"
printf '\377' | dd of="$SNAP" bs=1 seek=8 conv=notrunc 2>/dev/null
if "$WORK/fscorpus" verify -q "$WORK/bad" >"$WORK/bad.out" 2>&1; then
  echo "FAIL: verify passed a corrupt snapshot" >&2
  exit 1
fi
grep -q "snapshot $(basename "$SNAP") FAILED verification" "$WORK/bad.out"

# Layout stats and a pushdown scan must run cleanly.
"$WORK/fscorpus" stats "$WORK/traces" >/dev/null
"$WORK/fscorpus" scan -kinds read,write "$WORK/traces" | tee "$WORK/scan.out"
grep -q 'pushdown:' "$WORK/scan.out"

echo "colstore smoke OK" >&2
