#!/usr/bin/env sh
# colstore_smoke.sh — end-to-end check of the columnar corpus pipeline.
#
# Traces a small fleet with fsfleet (saved as colstore segments, *.fsc,
# and snapshots, *.snap), verifies every segment's logical-stream SHA-256
# and every snapshot record with `fscorpus verify`, checks that a corrupt
# snapshot fails it by name, inspects layout stats, runs a pushdown scan
# and prints report sections by name with `fsreport -in`. Last, ships a
# small fleet to `fsfleet -serve` and checks the client saved nothing.
#
# Usage: scripts/colstore_smoke.sh
set -eu

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/fsfleet" ./cmd/fsfleet
go build -o "$WORK/fscorpus" ./cmd/fscorpus
go build -o "$WORK/fsreport" ./cmd/fsreport

"$WORK/fsfleet" -machines 4 -hours 1 -seed 9 -workers 2 -progress 0 -out "$WORK/traces"

ls "$WORK/traces"/*.fsc >/dev/null
if ls "$WORK/traces"/*.trz >/dev/null 2>&1; then
  echo "FAIL: fsfleet saved row streams" >&2
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

# fsreport prints the sections named, and only those, in the order given.
"$WORK/fsreport" -in "$WORK/traces" table2 section5 >"$WORK/report.out"
HEADINGS="$(grep -E '^(Table [0-9]|Figure [0-9]|Section [0-9]|Per-process|Per-file-type|Follow-up|Cache policy)' \
  "$WORK/report.out" | cut -d. -f1 | tr '\n' ',')"
if [ "$HEADINGS" != "Table 2,Section 5," ]; then
  echo "FAIL: fsreport table2 section5 printed the headings $HEADINGS" >&2
  exit 1
fi

# An unknown section name fails and lists the valid ones.
if "$WORK/fsreport" -in "$WORK/traces" fig1 >"$WORK/fig1.out" 2>&1; then
  echo "FAIL: fsreport accepted the unknown section fig1" >&2
  exit 1
fi
grep -q 'valid names:.* figure1 ' "$WORK/fig1.out"

# A shipping client (-collect) saves nothing locally: the corpus, and its
# obs.json, are the collection server's. Run the client from an empty
# directory, so a stray default -out (traces/) would show there.
"$WORK/fsfleet" -serve 127.0.0.1:0 -out "$WORK/srv" 2>"$WORK/srv.log" &
SRV=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's/^collection server listening on //p' "$WORK/srv.log")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: collection server did not start" >&2; cat "$WORK/srv.log" >&2; kill "$SRV"; exit 1; }
mkdir "$WORK/client"
(cd "$WORK/client" && "$WORK/fsfleet" -collect "$ADDR" -machines 2 -hours 0.25 -seed 9 -workers 2 -progress 0)
kill -TERM "$SRV"
wait "$SRV"
if [ -n "$(ls -A "$WORK/client")" ]; then
  echo "FAIL: fsfleet -collect wrote into its working directory: $(ls -A "$WORK/client")" >&2
  exit 1
fi
ls "$WORK/srv"/*.fsc "$WORK/srv/obs.json" >/dev/null

echo "colstore smoke OK" >&2
