// Command fsqueryd serves a saved trace corpus over HTTP: raw
// predicate-pushdown scans and the paper's report artifacts, answered
// from a sharded LRU result cache so repeated questions cost a hash
// lookup instead of a corpus pass.
//
// Usage:
//
//	fsqueryd -dir traces/ -addr :8090
//	curl 'localhost:8090/v1/scan?kinds=ReadFile&min_h=1&max_h=3&limit=10'
//	curl 'localhost:8090/v1/report?artifact=table2'
//	curl 'localhost:8090/metrics'
//
// The built-in load generator saturates the admission pool and prints
// the outcome mix (ok / 429-rejected / errors):
//
//	fsqueryd -dir traces/ -load -load-clients 32
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsqueryd: ")

	dir := flag.String("dir", "traces", "trace corpus directory (from fsfleet)")
	addr := flag.String("addr", ":8090", "listen address (port 0 picks a free one)")
	workers := flag.Int("workers", 4, "scan/report fan-out width")
	cacheMB := flag.Int("cache-mb", 64, "result cache bound in MiB")
	maxInflight := flag.Int("max-inflight", 8, "requests executing concurrently")
	maxQueue := flag.Int("max-queue", 32, "requests allowed to queue for a slot")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful drain bound on SIGTERM")
	slowMS := flag.Int64("slow-ms", 1000, "log requests slower than this many ms with their stage breakdown (0 disables)")
	load := flag.Bool("load", false, "run the built-in load generator against this process, then exit")
	loadClients := flag.Int("load-clients", 16, "load generator: concurrent clients")
	loadRequests := flag.Int("load-requests", 200, "load generator: requests per client")
	loadSeed := flag.Uint64("load-seed", 1, "load generator: query mix seed")
	flag.Parse()

	reg := obs.NewRegistry()
	tracer := trace.New(trace.Config{})
	corpus, err := query.OpenCorpusTrace(*dir, reg, tracer)
	if err != nil {
		log.Fatal(err)
	}
	svc := query.NewService(corpus, query.Config{
		Workers:     *workers,
		CacheBytes:  int64(*cacheMB) << 20,
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		Timeout:     *timeout,
		Obs:         reg,
		Tracer:      tracer,
		SlowMS:      *slowMS,
	})

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/spans", tracer.Handler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving %s (%d machines, %d records, corpus %s) on %s",
		*dir, len(corpus.Machines()), corpus.TotalRecords(), corpus.SHAHex()[:12], ln.Addr())

	if *load {
		stats := query.RunLoad(context.Background(), "http://"+ln.Addr().String(), corpus.Machines(), query.LoadConfig{
			Clients:  *loadClients,
			Requests: *loadRequests,
			Seed:     *loadSeed,
		})
		fmt.Println(stats)
		shutdown(svc, srv, *drainTimeout)
		if stats.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	log.Printf("%s: draining (bound %s)", got, *drainTimeout)
	shutdown(svc, srv, *drainTimeout)
}

// shutdown drains admitted requests, then closes the listener. Order
// matters: Drain first so in-flight work completes while the socket
// still accepts the (refused-with-503) stragglers, then Shutdown to
// release the port.
func shutdown(svc *query.Service, srv *http.Server, bound time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		log.Printf("drain: %v (closing anyway)", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	log.Print("drained")
}
