// Command dexpanderd is the long-running graph analytics server: a
// snapshot registry of fingerprinted graphs plus a single-flight result
// cache over the library's kernels (expander decomposition, triangle
// counting and enumeration), served as an HTTP/JSON API. See
// internal/service/README.md for the endpoint schema.
//
// Examples:
//
//	dexpanderd -addr 127.0.0.1:8437
//	dexpanderd -addr 127.0.0.1:8437 -workers 4 -queue 32
//	dexpanderd -addr 127.0.0.1:8440 -peers http://127.0.0.1:8441,http://127.0.0.1:8442
//
// The binary only serves. main_test.go boots a coordinator and three
// replicas through run in-process and checks what the binary wires
// together (flags, listener, peer list, shutdown); the served answers
// themselves are pinned against the library by internal/service's
// tests (TestServerEndToEnd, TestDecomposeBackendDispatch,
// TestDistCountMatchesLocalKernel and the rest).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dexpander/internal/cli"
	"dexpander/internal/obs"
	"dexpander/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cli.Main("dexpanderd", func() error { return run(ctx, os.Args[1:], nil) })
}

// run parses args, opens the listener and serves until ctx is done,
// then shuts down gracefully within 10 s. ready, when non-nil, receives
// the bound address once the listener is open. -h prints the usage and
// returns nil; a bad flag or an unlistenable -addr fails before ready.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("dexpanderd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8437", "listen address")
		workers    = fs.Int("workers", 0, "compute pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 0, "pending-computation queue capacity (0 = 4*workers)")
		maxSnaps   = fs.Int("max-snapshots", 64, "snapshot registry capacity")
		maxParam   = fs.Float64("max-gen-param", 1<<20, "cap on generator-spec parameters")
		maxResults = fs.Int("max-results", 0, "result cache capacity (0 = 256); cost-aware eviction beyond it")
		maxTenants = fs.Int("max-tenants", 0, "distinct-tenant cap (0 = 64)")
		tenSnaps   = fs.Int("tenant-snapshots", 0, "per-tenant snapshot-reference quota (0 = unlimited)")
		tenFlight  = fs.Int("tenant-inflight", 0, "per-tenant admitted-computation quota (0 = unlimited)")
		rate       = fs.Float64("rate", 0, "per-tenant request rate limit in req/s (0 = off)")
		burst      = fs.Float64("burst", 0, "rate-limit burst depth (0 = max(2*rate, 1))")
		peers      = fs.String("peers", "", "comma-separated replica base URLs the count-dist coordinator deals row ranges across (empty = local fallback)")
		distWindow = fs.Int("dist-window", 0, "in-flight count requests per peer for count-dist, each a batch of row ranges (0 = 4)")
		maxFrag    = fs.Int64("max-fragment-bytes", 0, "replica cache byte bound for the whole forward CSRs of the snapshots it serves; a larger CSR is refused and counted on the coordinator (0 = 256 MiB)")
		logLevel   = fs.String("log-level", "info", "structured log level: debug, info, warn, error (any case)")
		slowMS     = fs.Int("slow-query-ms", 1000, "queries at or above this wall time log at warn with slow=true (0 = off)")
		traceSpans = fs.Int("trace-spans", 4096, "trace ring capacity in finished spans (0 = tracing off)")
		traceSamp  = fs.Float64("trace-sample", 1, "fraction of traces sampled into the ring (hashed from the trace ID)")
		debugAddr  = fs.String("debug-addr", "", "separate listener serving net/http/pprof under /debug/pprof/ (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := obs.NewJSONLogger(os.Stderr, level)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	peerList := splitPeers(*peers)
	svc := service.New(service.Config{
		Workers:            *workers,
		Queue:              *queue,
		MaxSnapshots:       *maxSnaps,
		MaxGenParam:        *maxParam,
		MaxResults:         *maxResults,
		MaxTenants:         *maxTenants,
		TenantMaxSnapshots: *tenSnaps,
		TenantMaxInFlight:  *tenFlight,
		RatePerSec:         *rate,
		RateBurst:          *burst,
		Peers:              peerList,
		DistWindow:         *distWindow,
		MaxFragmentBytes:   *maxFrag,
		Tracer:             obs.NewTracer(*traceSpans, *traceSamp),
		Logger:             logger,
		SlowQuery:          time.Duration(*slowMS) * time.Millisecond,
	})
	defer svc.Close()

	// The pprof endpoints live on their OWN listener so the profiling
	// surface is never reachable through the API address (bind it to
	// localhost or a management network).
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		defer dsrv.Close()
		go func() {
			if err := dsrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", dln.Addr().String(), "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", dln.Addr().String())
	}

	server := &http.Server{
		Handler: svc.Handler(),
		// Bound slow clients: headers promptly, whole request (incl. a
		// large upload body) within 10 minutes, idle keep-alives dropped.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- server.Serve(ln) }()
	bound := ln.Addr().String()
	logger.Info("dexpanderd listening",
		"addr", bound,
		"workers", svc.Stats().Workers,
		"queue_cap", svc.Stats().QueueCap,
		"peers", len(peerList),
		"trace_spans", *traceSpans,
		"trace_sample", *traceSamp,
		"log_level", strings.ToLower(level.String()),
	)
	if ready != nil {
		ready(bound)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		logger.Info("dexpanderd shutting down")
		err := server.Shutdown(shutdownCtx)
		<-errc // Serve returns ErrServerClosed as soon as Shutdown starts
		return err
	}
}

// splitPeers parses the -peers flag (comma-separated base URLs, blanks
// ignored).
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
