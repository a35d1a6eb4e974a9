// Command simd serves simulations over HTTP with a durable, resumable
// job lifecycle.
//
// Jobs are JSON specs resolved through the scenario registry; every
// lifecycle transition is event-sourced to an append-only log under the
// store directory, per-run results land in a content-addressed cache
// keyed by (scenario spec hash, run seed, engine version), and
// completed sweep-run indices are checkpointed as they finish. Killing
// the process — even with SIGKILL — loses at most the runs in flight:
// the next simd over the same store requeues interrupted jobs and
// re-runs only the missing indices, merging a report byte-identical to
// an uninterrupted run. SIGTERM and SIGINT drain gracefully.
//
// Usage:
//
//	simd -addr 127.0.0.1:8080 -store ./simd-data
//
// See the README's "Simulation as a service" section for the HTTP API
// walkthrough.
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

	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	storeDir := flag.String("store", "simd-data", "durable job store directory")
	jobs := flag.Int("jobs", 1, "jobs executed concurrently (each job's sweep already fans across CPUs)")
	sweepWorkers := flag.Int("sweep-workers", 0, "per-job sweep pool size (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown budget on SIGTERM/SIGINT")
	lease := flag.Duration("lease", 0, "claim lease for distributed jobs (0 = 15s default)")
	maxAttempts := flag.Int("max-attempts", 0, "per-index attempt budget before a distributed run is quarantined (0 = 5 default)")
	flag.Parse()
	log.SetPrefix("simd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	if err := run(*addr, *storeDir, *jobs, *sweepWorkers, *drainTimeout, *lease, *maxAttempts); err != nil {
		log.Fatal(err)
	}
}

func run(addr, storeDir string, jobs, sweepWorkers int, drainTimeout, lease time.Duration, maxAttempts int) error {
	store, err := jobstore.Open(storeDir)
	if err != nil {
		return err
	}
	srv, err := simsrv.New(simsrv.Config{
		Store:        store,
		Workers:      jobs,
		SweepWorkers: sweepWorkers,
		Lease:        lease,
		MaxAttempts:  maxAttempts,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The listen line goes to stdout so scripts (and the smoke tests)
	// can discover a port-0 address.
	fmt.Printf("simd listening on %s (store %s, engine %s)\n", ln.Addr(), storeDir, sim.Version)

	httpSrv := &http.Server{Handler: srv.Handler()}
	srv.Start()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("received %s, draining (budget %s)", sig, drainTimeout)
	case err := <-serveErr:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	log.Printf("drained cleanly; interrupted jobs are requeued and resume on restart")
	return nil
}
