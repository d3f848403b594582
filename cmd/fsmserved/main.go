// Command fsmserved serves the automated FSM predictor design flow (§4)
// over HTTP: a concurrent daemon with a content-addressed design cache,
// request deduplication, a bounded worker pool that sheds load when
// saturated, and a metrics endpoint.
//
// Usage:
//
//	fsmserved -addr :8080 -workers 8 -queue 64 -cache 1024
//
// Endpoints:
//
//	POST /v1/design   {"trace":"0000 1000 ...","options":{"order":2}}
//	POST /v1/simulate {"machine":{...},"trace":"0101...","skip":2}
//	POST /v1/search   {"trace":"0101...","options":{"states":4,"mode":"adaptive"}}
//	GET  /healthz
//	GET  /metrics
//
// Instead of an inline "trace", every POST endpoint accepts a "workload"
// reference ({"program":"gsm","variant":"train","events":250000,
// "pc":"0x12004008"}) naming a branch trace in the process-wide packed
// trace store; repeated references reuse one generated, packed copy,
// and /metrics exposes the store's hit/miss/byte gauges
// (fsmpredict_tracestore_{hits,misses,bytes}).
//
// Passing -cache-dir gives the design cache, the block-table cache, and
// the trace store a persistent disk tier: a restarted daemon serves
// previously computed artifacts (byte-identical) instead of redesigning
// them. -cache-size bounds the directory (LRU eviction).
//
// Passing -pprof host:port additionally serves the net/http/pprof
// endpoints (/debug/pprof/...) on that address, on a mux separate from the
// public listener so profiling is never exposed to API clients.
//
// The daemon exits cleanly on SIGINT/SIGTERM, draining in-flight
// requests first. Each request is bounded by -timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fsmpredict/internal/cachewire"
	"fsmpredict/internal/cliutil"
	"fsmpredict/internal/service"
)

// pprofServer serves the runtime profiling endpoints on their own mux and
// listener, keeping /debug/pprof off the public API surface. It returns
// the bound address (useful with port 0).
func pprofServer(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return ln.Addr(), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsmserved: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", 0, "concurrent design pipelines (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "design queue depth before shedding load (0 = 8x workers)")
		cache     = flag.Int("cache", 0, "design cache entries (0 = 1024, negative disables)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty disables)")
		cacheDir  = flag.String("cache-dir", "", "persistent artifact cache directory (empty disables the disk tier)")
		cacheSize = flag.String("cache-size", "", "disk cache size bound, e.g. 512M or 2G (empty = 512M)")
	)
	flag.Parse()
	if *workers < 0 {
		cliutil.BadUsage("fsmserved: -workers must be >= 0, got %d", *workers)
	}
	if *queue < 0 {
		cliutil.BadUsage("fsmserved: -queue must be >= 0, got %d", *queue)
	}
	if *timeout <= 0 {
		cliutil.BadUsage("fsmserved: -timeout must be positive, got %v", *timeout)
	}
	if flag.NArg() > 0 {
		cliutil.BadUsage("fsmserved: unexpected arguments %v", flag.Args())
	}
	maxBytes, err := cachewire.ParseSize(*cacheSize)
	if err != nil {
		cliutil.BadUsage("fsmserved: %v", err)
	}
	if *cacheDir == "" && *cacheSize != "" {
		cliutil.BadUsage("fsmserved: -cache-size requires -cache-dir")
	}
	disk, err := cachewire.Setup(*cacheDir, maxBytes)
	if err != nil {
		log.Fatalf("opening cache dir: %v", err)
	}
	if disk != nil {
		log.Printf("disk cache at %s (%d artifacts)", disk.Dir(), disk.Len())
	}

	if *pprofAddr != "" {
		pa, err := pprofServer(*pprofAddr)
		if err != nil {
			log.Fatalf("pprof listener: %v", err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pa)
	}

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		Disk:         disk,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// http.TimeoutHandler bounds each request and cancels its context,
	// which releases the service-side wait for a worker slot.
	srv := &http.Server{
		Handler:           http.TimeoutHandler(service.NewHandler(svc), *timeout, "request timed out\n"),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	svc.Close()
	log.Printf("shut down cleanly")
}
