#!/usr/bin/env python3
"""Steadiness proof for the benchmark in BENCHMARK.json.

    python3 perfbench/steadiness.py spread --seeds 1-10 [--workloads reproduce,analyze]
    python3 perfbench/steadiness.py exact --seeds 1,11 [--workloads reproduce,analyze]

`spread` runs every workload once per seed with tracing off and prints, per
end-to-end metric, the median and the distance between the first and third
quartile as a share of the median (statistics.quantiles(values, n=4)):
"ok" below a third of the metric's bound, "within bound" up to the bound,
"WIDE" above it, which fails the check. setup_s is checked like the rest.
`exact` makes two traced runs per seed and requires the exact counts to
repeat. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = ("sim.events", "iomgr.irp_dispatches", "iomgr.fastio_hit_ratio",
         "cachemgr.read_hit_ratio", "cachemgr.readahead_used_ratio",
         "cachemgr.lazy_write_bursts", "tracedrv.records",
         "tracedrv.overflow_records", "colstore.blocks_scanned",
         "colstore.bytes_decoded")


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    run.wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr[-2000:]}")
    return res


def spread(bench, workloads, seed_list):
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for s in seed_list:
            res = run(bench, w, s, 0)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {s} ({run.wall:.0f} s): " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            bound = m["bound"]
            flag = "ok" if share < bound / 3 else "within bound" if share <= bound else "WIDE"
            ok &= share <= bound
            print(f"  {w:9s} {m['name']:18s} median {med:12.4f} {m['unit']:4s} spread {share:6.3f} (bound {bound}) {flag}")
    return ok


def exact(bench, workloads, seed_list):
    ok = True
    for w in workloads:
        for s in seed_list:
            a, b = (run(bench, w, s, 1)["metrics"] for _ in range(2))
            for name in EXACT:
                same = a[name]["value"] == b[name]["value"]
                ok &= same
                print(f"{w} seed {s} {name}: {a[name]['value']} {b[name]['value']} {'ok' if same else 'DIFFERS'}", flush=True)
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["spread", "exact"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    check = spread if args.mode == "spread" else exact
    sys.exit(0 if check(bench, workloads, seeds(args.seeds)) else 1)


if __name__ == "__main__":
    main()
