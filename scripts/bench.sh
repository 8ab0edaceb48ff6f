#!/usr/bin/env sh
# bench.sh — run the study build, snapshot walk and save,
# analysis-engine, report-render and query benchmarks and emit the
# tracked perf baseline:
#
#   BENCH_analysis.txt   raw `go test -bench` output (benchstat-ready:
#                        feed two of these to benchstat old.txt new.txt)
#   BENCH_analysis.json  one object per benchmark line, for dashboards
#
# Usage: scripts/bench.sh [benchtime] [count]
#   benchtime  go -benchtime value (default 3x)
#   count      repetitions per benchmark for benchstat (default 5)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
COUNT="${2:-5}"
TXT=BENCH_analysis.txt
JSON=BENCH_analysis.json

go test -run NONE \
  -bench 'BenchmarkStudyBuild|BenchmarkStudySave|BenchmarkSnapshotWalk|BenchmarkDataSetDecode|BenchmarkComputeResults|BenchmarkColumnarEncode|BenchmarkColumnarScan|BenchmarkColumnarCompute|BenchmarkQueryCold|BenchmarkQueryCacheHit|BenchmarkLoadCorpus|BenchmarkSection5Snapshots|BenchmarkRenderReport|BenchmarkCachePolicySweep' \
  -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$TXT"

# The obs and span hot paths are nanosecond-scale: at a small -benchtime
# the numbers would be harness overhead (and RunParallel's setup shows up
# as phantom allocations), so they get a fixed high iteration count.
go test -run NONE -bench 'BenchmarkObsHotPath|BenchmarkSpanHotPath' \
  -benchtime 1000000x -count "$COUNT" . | tee -a "$TXT"

# Benchmark lines look like:
#   BenchmarkComputeResults/workers=4-8  3  408389528 ns/op  186966 instances
# Convert each into {"name":..., "iterations":..., "ns_per_op":..., metrics...}.
awk '
  BEGIN { print "[" ; n = 0 }
  /^Benchmark/ {
    line = sprintf("  {\"name\": \"%s\", \"iterations\": %s", $1, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
      key = $(i + 1)
      gsub(/[^A-Za-z0-9_]/, "_", key)
      line = line sprintf(", \"%s\": %s", key, $i)
    }
    line = line "}"
    if (n++) print ","
    printf "%s", line
  }
  END { if (n) print "" ; print "]" }
' "$TXT" > "$JSON"

echo "wrote $TXT and $JSON" >&2
