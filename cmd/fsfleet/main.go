// Command fsfleet runs the full §2/§3 study — 45 machines traced for
// 4 weeks — as a sharded fleet across a worker pool. It is fstrace at
// production scale: each machine runs on its own scheduler shard, live
// progress (events/sec, sim:real ratio, per-shard lag) prints while the
// fleet runs, completed machines checkpoint so an interrupted run can
// resume, and per-machine stream hashes let two runs be compared without
// shipping the corpora.
//
// Usage:
//
//	fsfleet -out traces/ -workers 8 -checkpoint-dir ckpt/
//	fsfleet -out traces/ -workers 8 -checkpoint-dir ckpt/ -resume
//
//	fsfleet -serve :9470 -out traces/        # run a collection server
//	fsfleet -collect host:9470 -workers 8    # ship the study to it
//
// The per-machine trace streams are byte-identical at any -workers value,
// and a resumed run converges to the same corpus as an uninterrupted one.
// With -collect, agents ship over the fault-tolerant NTTRACE2 wire (spill
// ring, retry/backoff, idempotent resend); records that overflow the
// spill ring during an outage are counted and reported, never silently
// lost.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/collect"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsfleet: ")
	var (
		out      = flag.String("out", "traces", "output directory for the trace corpus")
		machines = flag.Int("machines", 45, "fleet size (paper: 45)")
		weeks    = flag.Float64("weeks", 4, "traced period in simulated weeks (paper: 4)")
		hours    = flag.Float64("hours", 0, "traced period in simulated hours (overrides -weeks)")
		seed     = flag.Uint64("seed", 1, "study seed (same seed ⇒ identical corpus at any worker count)")
		workers  = flag.Int("workers", runtime.NumCPU(), "machine shards running concurrently")
		ckptDir  = flag.String("checkpoint-dir", "", "persist each completed machine here (enables -resume)")
		resume   = flag.Bool("resume", false, "restore completed machines from -checkpoint-dir")
		network  = flag.Bool("network", true, "mount per-user network shares over the redirector")
		noFast   = flag.Bool("block-fastio", false, "insert an opaque filter that blocks FastIO (§10 ablation)")
		hash     = flag.Bool("hash", false, "print each machine's compressed-stream SHA-256")
		interval = flag.Duration("progress", 5*time.Second, "progress print interval (0 disables)")
		collAddr = flag.String("collect", "", "ship trace streams to a live collection server at this address (corpus lives server-side)")
		spill    = flag.Int("spill", 0, "per-agent spill-ring capacity in buffers for -collect (0 = default 64)")
		serve    = flag.String("serve", "", "run as a collection server on this listen address (with -out; fleet flags ignored)")
		metrics  = flag.String("metrics-addr", "", "serve live Prometheus-text /metrics, /debug/spans and /debug/pprof on this address")
		traceOut = flag.String("trace-out", "", "write the run's span trees as Chrome trace_event JSON here (load in Perfetto)")
		top      = flag.Bool("top", false, "repaint a top(1)-style per-shard view instead of one-line progress")
	)
	flag.Parse()

	// One registry instruments the whole process (fleet run or collection
	// server). Metrics and spans are observational only: the corpus is
	// byte-identical with or without them. Shard spans ride the virtual
	// clock, so the tracer costs nothing on the simulated timeline.
	reg := obs.NewRegistry()
	var tracer *trace.Tracer
	if *traceOut != "" || *metrics != "" {
		tracer = trace.New(trace.Config{})
	}
	if *metrics != "" {
		ms, err := obs.Serve(*metrics, reg,
			obs.Mount{Pattern: "/debug/spans", Handler: tracer.Handler()})
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (spans on /debug/spans, pprof on /debug/pprof/)\n", ms.Addr)
	}

	if *serve != "" {
		runServer(*serve, *out, reg)
		return
	}

	duration := sim.FromSeconds(*weeks * 7 * 24 * 3600)
	if *hours > 0 {
		duration = sim.FromSeconds(*hours * 3600)
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume needs -checkpoint-dir")
	}
	if *collAddr != "" && (*ckptDir != "" || *resume) {
		log.Fatal("-collect is incompatible with -checkpoint-dir/-resume (the server owns the corpus)")
	}

	study := core.NewStudy(core.Config{
		Seed:            *seed,
		Machines:        *machines,
		Duration:        duration,
		WithNetwork:     *network,
		SnapshotAtStart: true,
		FastIOBlocked:   *noFast,
		Workers:         *workers,
		CheckpointDir:   *ckptDir,
		Resume:          *resume,
		CollectAddr:     *collAddr,
		NetSink:         agent.NetSinkConfig{SpillSlots: *spill},
		Obs:             reg,
		Trace:           tracer,
	})

	// writeTrace exports whatever spans exist so far; it runs on the
	// interrupt path too, so a killed run still leaves an inspectable
	// trace beside its checkpoints.
	writeTrace := func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tracer.WriteTraceEvents(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: trace out: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote span trace to %s\n", *traceOut)
	}

	st := study.Engine.Status()
	fmt.Fprintf(os.Stderr, "fleet of %d machines, %.1f simulated days, %d workers (seed %d)\n",
		*machines, duration.Seconds()/86400, *workers, *seed)
	if st.Restored > 0 {
		fmt.Fprintf(os.Stderr, "restored %d machines from %s\n", st.Restored, *ckptDir)
	}

	// SIGINT/SIGTERM cancel the run; completed machines keep their
	// checkpoints, so the same command with -resume picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan struct{})
	if *top {
		ivl := *interval
		if ivl <= 0 {
			ivl = time.Second
		}
		go func() {
			t := time.NewTicker(ivl)
			defer t.Stop()
			prev := 0
			for {
				select {
				case <-done:
					return
				case <-t.C:
					prev = repaintTop(study.Engine.Status(), prev)
				}
			}
		}()
	} else if *interval > 0 {
		go func() {
			t := time.NewTicker(*interval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					fmt.Fprintln(os.Stderr, study.Engine.Status())
				}
			}
		}()
	}
	start := time.Now()
	err := study.RunContext(ctx)
	close(done)
	if err != nil {
		if ctx.Err() != nil {
			st := study.Engine.Status()
			fmt.Fprintf(os.Stderr, "interrupted after %s: %s\n", time.Since(start).Round(time.Second), st)
			if *ckptDir != "" && st.Done+st.Restored > 0 {
				fmt.Fprintf(os.Stderr, "re-run with -resume -checkpoint-dir %s to continue\n", *ckptDir)
			}
			writeTrace()
			os.Exit(130)
		}
		log.Fatal(err)
	}

	st = study.Engine.Status()
	fmt.Fprintf(os.Stderr, "finished in %s: %s\n", time.Since(start).Round(time.Second), st)

	// End-of-run telemetry snapshot beside the corpus (the checkpoint-dir
	// copy is written by the fleet engine, even on interrupted runs).
	if err := reg.WriteSnapshot(filepath.Join(*out, "obs.json")); err != nil {
		fmt.Fprintf(os.Stderr, "warning: obs snapshot: %v\n", err)
	}
	writeTrace()

	if *collAddr != "" {
		// The corpus lives on the collection server; report delivery
		// accounting instead of saving locally. Loss is never silent.
		ns := study.NetStats()
		fmt.Fprintf(os.Stderr, "shipped %d records to %s (%d spilled buffers, %d send errors, %d reconnects)\n",
			ns.Shipped, *collAddr, ns.Spilled, ns.SendErrors, ns.Reconnects)
		if ns.Lost > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d records LOST (spill-ring overflow or drain timeout)\n", ns.Lost)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "no records lost")
		return
	}
	fmt.Fprintf(os.Stderr, "collected %d trace records, %d snapshots, %d KB compressed\n",
		study.TotalEvents(), len(study.Snapshots), study.Store.CompressedBytes()/1024)

	if *hash {
		for _, name := range study.Store.Machines() {
			sum, err := study.Store.StreamSum(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%x  %s\n", sum, name)
		}
	}
	if err := study.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saved corpus to %s\n", *out)
}

// repaintTop redraws the top(1)-style fleet view in place, erasing to the
// end of every line so shrinking cells leave no residue; prev is the line
// count of the previous frame. Returns this frame's line count.
func repaintTop(st fleet.Status, prev int) int {
	var buf bytes.Buffer
	st.RenderTop(&buf)
	lines := bytes.Count(buf.Bytes(), []byte{'\n'})
	if prev > 0 {
		fmt.Fprintf(os.Stderr, "\033[%dA", prev)
	}
	out := bytes.ReplaceAll(buf.Bytes(), []byte{'\n'}, []byte("\033[K\n"))
	os.Stderr.Write(out)
	return lines
}

// runServer runs a collection server until SIGINT/SIGTERM, then saves the
// gathered corpus to out. Mid-stream truncations (agent died after the
// handshake) are reported with machine name and frame count; agents that
// reconnect resend idempotently, so truncation alone is not data loss.
func runServer(addr, out string, reg *obs.Registry) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	store := collect.NewStore()
	srv := collect.ServeObs(ln, store, reg)
	fmt.Fprintf(os.Stderr, "collection server listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	srv.Close()
	for _, e := range srv.Errors() {
		fmt.Fprintf(os.Stderr, "stream error: %v\n", e)
	}
	if err := store.Finalize(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "received %d records from %d machines\n",
		store.TotalRecords(), len(store.Machines()))
	if _, err := store.SaveColumnarDir(out, colstore.Options{}); err != nil {
		log.Fatal(err)
	}
	if err := reg.WriteSnapshot(filepath.Join(out, "obs.json")); err != nil {
		fmt.Fprintf(os.Stderr, "warning: obs snapshot: %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "saved corpus to %s\n", out)
}
