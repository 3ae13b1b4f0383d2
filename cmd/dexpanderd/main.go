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
//	dexpanderd -smoke http://127.0.0.1:8437
//
// With -smoke the binary runs as a client instead: it registers a
// generated graph on the server at the given URL, queries every
// algorithm endpoint, recomputes each result in-process with the
// library, and exits non-zero unless all checksums agree — the
// end-to-end determinism check CI runs against a live server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dexpander/internal/cli"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

func main() { cli.Main("dexpanderd", run) }

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8437", "listen address")
		workers    = flag.Int("workers", 0, "compute pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "pending-computation queue capacity (0 = 4*workers)")
		maxSnaps   = flag.Int("max-snapshots", 64, "snapshot registry capacity")
		maxParam   = flag.Float64("max-gen-param", 1<<20, "cap on generator-spec parameters")
		maxResults = flag.Int("max-results", 0, "result cache capacity (0 = 256); cost-aware eviction beyond it")
		maxTenants = flag.Int("max-tenants", 0, "distinct-tenant cap (0 = 64)")
		tenSnaps   = flag.Int("tenant-snapshots", 0, "per-tenant snapshot-reference quota (0 = unlimited)")
		tenFlight  = flag.Int("tenant-inflight", 0, "per-tenant admitted-computation quota (0 = unlimited)")
		rate       = flag.Float64("rate", 0, "per-tenant request rate limit in req/s (0 = off)")
		burst      = flag.Float64("burst", 0, "rate-limit burst depth (0 = max(2*rate, 1))")
		peers      = flag.String("peers", "", "comma-separated replica base URLs the count-dist coordinator deals row ranges across (empty = local fallback)")
		distWindow = flag.Int("dist-window", 0, "in-flight count requests per peer for count-dist, each a batch of row ranges (0 = 4)")
		maxFrag    = flag.Int64("max-fragment-bytes", 0, "replica cache byte bound for the whole forward CSRs of the snapshots it serves; a larger CSR is refused and counted on the coordinator (0 = 256 MiB)")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error (any case)")
		slowMS     = flag.Int("slow-query-ms", 1000, "queries at or above this wall time log at warn with slow=true (0 = off)")
		traceSpans = flag.Int("trace-spans", 4096, "trace ring capacity in finished spans (0 = tracing off)")
		traceSamp  = flag.Float64("trace-sample", 1, "fraction of traces sampled into the ring (hashed from the trace ID)")
		debugAddr  = flag.String("debug-addr", "", "separate listener serving net/http/pprof under /debug/pprof/ (empty = off)")
		smoke      = flag.String("smoke", "", "run the end-to-end smoke check against this server URL and exit")
		smokeDist  = flag.String("smoke-dist", "", "run the distributed-count smoke check against this coordinator URL and exit")
	)
	flag.Parse()

	if *smoke != "" {
		return runSmoke(*smoke)
	}
	if *smokeDist != "" {
		return runSmokeDist(*smokeDist)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	logger := obs.NewJSONLogger(os.Stderr, level)

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
		Peers:              splitPeers(*peers),
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
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		defer dsrv.Close()
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr)
	}

	server := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Bound slow clients: headers promptly, whole request (incl. a
		// large upload body) within 10 minutes, idle keep-alives dropped.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	logger.Info("dexpanderd listening",
		"addr", *addr,
		"workers", svc.Stats().Workers,
		"queue_cap", svc.Stats().QueueCap,
		"peers", len(splitPeers(*peers)),
		"trace_spans", *traceSpans,
		"trace_sample", *traceSamp,
		"log_level", strings.ToLower(level.String()),
	)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		logger.Info("dexpanderd shutting down")
		return server.Shutdown(shutdownCtx)
	}
}

// runSmoke drives a live server end to end and diffs every served
// checksum against a direct library computation.
func runSmoke(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := service.NewClient(base)

	spec := gen.Spec{
		Family: "ring",
		Params: map[string]float64{"blocks": 4, "size": 8},
		Seed:   7,
	}
	snap, err := c.RegisterSpec(ctx, spec)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	fmt.Printf("smoke: registered %s (n=%d m=%d)\n", snap.ID, snap.N, snap.M)

	g, err := spec.Build()
	if err != nil {
		return err
	}
	view := graph.WholeGraph(g)

	count, err := c.TriangleCount(ctx, snap.ID, service.CountParams{})
	if err != nil {
		return fmt.Errorf("triangle-count: %w", err)
	}
	directSet := triangle.BruteForce(view)
	if err := diff("triangle-count", count.Checksum, checksum(directSet.Checksum())); err != nil {
		return err
	}

	enum, err := c.Enumerate(ctx, snap.ID, service.EnumerateParams{Seed: 3})
	if err != nil {
		return fmt.Errorf("enumerate: %w", err)
	}
	enumSet, _, err := triangle.Enumerate(view, triangle.Options{Seed: 3})
	if err != nil {
		return err
	}
	if err := diff("enumerate", enum.Checksum, checksum(enumSet.Checksum())); err != nil {
		return err
	}

	// Decompose through every registered backend: each served checksum
	// must equal the direct library run's, and the direct run must pass
	// the structural validity check and the measured quality bound — the
	// smoke check now exercises the full certificate, not just the digest.
	const smokeEps = 0.4
	for _, backend := range core.BackendNames() {
		decQ := service.DecomposeParams{Eps: smokeEps, K: 2, Seed: 1, Backend: backend}
		dec, err := c.Decompose(ctx, snap.ID, decQ)
		if err != nil {
			return fmt.Errorf("decompose (%s): %w", backend, err)
		}
		if dec.Backend != backend {
			return fmt.Errorf("smoke: decompose backend=%s served by %q", backend, dec.Backend)
		}
		b, err := core.LookupBackend(backend)
		if err != nil {
			return err
		}
		directDec, _, err := b.Decompose(view, core.Options{
			Eps: decQ.Eps, K: decQ.K, Preset: nibble.Practical, Seed: decQ.Seed,
		})
		if err != nil {
			return err
		}
		if err := directDec.CheckPartition(view); err != nil {
			return fmt.Errorf("smoke: decompose (%s) partition invalid: %w", backend, err)
		}
		if q := directDec.Evaluate(view); q.InterFraction > smokeEps {
			return fmt.Errorf("smoke: decompose (%s) inter-fraction %.4f above eps %v",
				backend, q.InterFraction, smokeEps)
		}
		words := make([]uint64, 0, len(directDec.Labels)+2)
		words = append(words, uint64(directDec.Count), uint64(directDec.CutEdges))
		for _, l := range directDec.Labels {
			words = append(words, uint64(int64(l)))
		}
		if err := diff("decompose/"+backend, dec.Checksum, checksum(triangle.HashWords(words...))); err != nil {
			return err
		}
	}

	// backend=auto must resolve to a registered backend and serve a result
	// meeting the requested quality bound.
	auto, err := c.Decompose(ctx, snap.ID, service.DecomposeParams{
		Eps: smokeEps, K: 2, Seed: 1, Backend: "auto", MaxEpsFraction: smokeEps,
	})
	if err != nil {
		return fmt.Errorf("decompose (auto): %w", err)
	}
	if _, err := core.LookupBackend(auto.Backend); err != nil {
		return fmt.Errorf("smoke: auto resolved to %q: %w", auto.Backend, err)
	}
	if auto.EpsAchieved > smokeEps {
		return fmt.Errorf("smoke: auto served eps_achieved %.4f above bound %v", auto.EpsAchieved, smokeEps)
	}
	fmt.Printf("smoke: decompose/auto  resolved to %s (eps_achieved %.4f <= %v)\n",
		auto.Backend, auto.EpsAchieved, smokeEps)

	// A request whose budget is already spent must be refused with the
	// "deadline" envelope code — the deadline is enforced server-side and
	// the doomed computation never occupies a worker.
	if err := smokeDeadline(ctx, base, snap.ID); err != nil {
		return err
	}

	st, err := c.ServerStats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.SchemaVersion != 3 {
		return fmt.Errorf("smoke: stats schema version %d, want 3", st.SchemaVersion)
	}
	if st.Computations < 3 {
		return fmt.Errorf("smoke: server reports %d computations, want >= 3", st.Computations)
	}
	// Every registered backend ran at least once above, so the per-backend
	// stats section must account for each of them.
	for _, backend := range core.BackendNames() {
		bs, ok := st.Decompose[backend]
		if !ok || bs.Requests < 1 {
			return fmt.Errorf("smoke: stats decompose section missing backend %s: %+v", backend, st.Decompose)
		}
	}
	if err := smokeObservability(ctx, base, snap.ID); err != nil {
		return err
	}

	if err := c.Release(ctx, snap.ID); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	fmt.Println("smoke: PASS — all served checksums equal the library's")
	return nil
}

// smokeObservability exercises the observability surface of a live
// server: healthz must report build facts, a query issued under a fixed
// X-Request-Id must yield a retrievable trace, and /metrics must parse
// as valid Prometheus text covering the core series.
func smokeObservability(ctx context.Context, base, id string) error {
	c := service.NewClient(base)

	h, err := c.Healthz(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" || !strings.HasPrefix(h.GoVersion, "go") || h.GOMAXPROCS < 1 {
		return fmt.Errorf("smoke: implausible healthz report: %+v", h)
	}
	fmt.Printf("smoke: healthz        %s %s gomaxprocs=%d peers=%d\n",
		h.Status, h.GoVersion, h.GOMAXPROCS, h.Peers)

	// A traced query: the fixed request ID names the trace, and the
	// debug endpoint must serve it back with the request pipeline spans.
	c.RequestID = "smoketrace0000001"
	if _, err := c.Enumerate(ctx, id, service.EnumerateParams{Seed: 11}); err != nil {
		return fmt.Errorf("traced enumerate: %w", err)
	}
	tr, err := c.Trace(ctx, c.RequestID)
	if err != nil {
		return fmt.Errorf("smoke: fetch trace %s: %w", c.RequestID, err)
	}
	spans := map[string]bool{}
	for _, sp := range tr.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"http", "query"} {
		if !spans[want] {
			return fmt.Errorf("smoke: trace %s has no %q span (%d spans)", c.RequestID, want, len(tr.Spans))
		}
	}
	fmt.Printf("smoke: trace          %s retrieved with %d spans\n", tr.TraceID, len(tr.Spans))

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	names, err := obs.ValidateProm(resp.Body)
	if err != nil {
		return fmt.Errorf("smoke: /metrics is not valid Prometheus text: %w", err)
	}
	for _, want := range []string{
		"dexpander_computations_total",
		"dexpander_hits_total",
		"dexpander_compute_latency_seconds",
		"dexpander_tenant_queries_total",
		"dexpander_decompose_requests_total",
	} {
		if !names[want] {
			return fmt.Errorf("smoke: /metrics is missing series %q", want)
		}
	}
	fmt.Printf("smoke: metrics        valid exposition, %d series\n", len(names))
	return nil
}

// smokeDeadline issues a decompose under a zero-millisecond budget (a
// fresh params key, so the cache cannot answer it) and asserts the
// uniform error envelope: HTTP 504, code "deadline", retryable, with a
// Retry-After hint.
func smokeDeadline(ctx context.Context, base, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/graphs/"+id+"/decompose", strings.NewReader(`{"seed": 999}`))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.TimeoutHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("deadline probe: %w", err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error service.ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		return fmt.Errorf("deadline probe: decode envelope: %w", err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || envelope.Error.Code != service.CodeDeadline {
		return fmt.Errorf("smoke: expired budget answered %d %q, want 504 %q",
			resp.StatusCode, envelope.Error.Code, service.CodeDeadline)
	}
	if !envelope.Error.Retryable || resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("smoke: deadline envelope not marked retryable: %+v", envelope.Error)
	}
	fmt.Println("smoke: deadline       expired budget -> 504 deadline (retryable)")
	return nil
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

// runSmokeDist drives a coordinator with a configured peer fleet: it
// registers a skewed graph, runs count-dist, and diffs the served total
// and checksum against the in-process 2D kernel — the multi-replica
// bit-identity check CI runs against a live loopback fleet. A second
// job at another grid on the same snapshot must be served from the
// replicas' resident CSRs: no peer's push count may rise.
func runSmokeDist(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := service.NewClient(base)

	spec := gen.Spec{
		Family: "barabasi-albert",
		Params: map[string]float64{"n": 2048, "m0": 6},
		Seed:   5,
	}
	snap, err := c.RegisterSpec(ctx, spec)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	fmt.Printf("smoke-dist: registered %s (n=%d m=%d)\n", snap.ID, snap.N, snap.M)

	g, err := spec.Build()
	if err != nil {
		return err
	}
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)

	// The fixed request ID makes the fan-out's cross-replica trace
	// retrievable below.
	c.RequestID = "smokedist0000001"
	res, err := c.TriangleCountDist(ctx, snap.ID, service.DistCountParams{})
	if err != nil {
		return fmt.Errorf("count-dist: %w", err)
	}
	if res.Triangles != want {
		return fmt.Errorf("smoke-dist: served %d triangles, library kernel %d", res.Triangles, want)
	}
	if err := diff("count-dist", res.Checksum, checksum(triangle.HashWords(uint64(want)))); err != nil {
		return err
	}
	fmt.Printf("smoke-dist: %d row ranges over %d peers (%d retries)\n",
		res.DistTriples, res.DistPeers, res.DistRetries)

	// One trace out of the whole job: coordinator spans plus a
	// replica.count span per count request, tagged with the peer that
	// ran it.
	if res.DistPeers > 0 {
		tr, err := c.Trace(ctx, c.RequestID)
		if err != nil {
			return fmt.Errorf("smoke-dist: fetch trace: %w", err)
		}
		replicaSpans := 0
		peersSeen := map[string]bool{}
		for _, sp := range tr.Spans {
			if sp.Name == "replica.count" {
				replicaSpans++
				peersSeen[sp.Attrs["peer"]] = true
			}
		}
		if replicaSpans == 0 {
			return fmt.Errorf("smoke-dist: trace %s has no replica.count spans (%d spans)", tr.TraceID, len(tr.Spans))
		}
		if len(peersSeen) != res.DistPeers {
			return fmt.Errorf("smoke-dist: trace names %d peers, schedule used %d", len(peersSeen), res.DistPeers)
		}
		fmt.Printf("smoke-dist: trace %s spans %d replicas (%d replica.count spans)\n",
			tr.TraceID, len(peersSeen), replicaSpans)
	}

	if err := smokeDistResident(ctx, c, snap.ID, res, want); err != nil {
		return err
	}

	if err := c.Release(ctx, snap.ID); err != nil {
		return fmt.Errorf("release: %w", err)
	}
	fmt.Println("smoke-dist: PASS — distributed total bit-identical to the 2D kernel")
	return nil
}

// smokeDistResident runs a second count-dist on the snapshot at a grid
// other than the first job's and fails if its total differs from want or
// if any peer's push count in the coordinator's stats rose across it:
// the replicas must serve every grid from the CSR they already hold.
// The first job's DistTriples is its number of row ranges, which is its
// grid; the second job runs one range fewer (two after a one-range job),
// which keeps it within the service's grid cap.
func smokeDistResident(ctx context.Context, c *service.Client, id string, first *service.Result, want int) error {
	grid := first.DistTriples - 1
	if grid < 1 {
		grid = 2
	}
	before, err := c.ServerStats(ctx)
	if err != nil {
		return fmt.Errorf("smoke-dist: stats: %w", err)
	}
	res, err := c.TriangleCountDist(ctx, id, service.DistCountParams{Grid: grid})
	if err != nil {
		return fmt.Errorf("count-dist grid %d: %w", grid, err)
	}
	if res.Triangles != want {
		return fmt.Errorf("smoke-dist: grid %d served %d triangles, library kernel %d", grid, res.Triangles, want)
	}
	after, err := c.ServerStats(ctx)
	if err != nil {
		return fmt.Errorf("smoke-dist: stats: %w", err)
	}
	for base, ps := range after.DistPeers {
		var pushed uint64
		if prev := before.DistPeers[base]; prev != nil {
			pushed = prev.Pushes
		}
		if ps.Pushes != pushed {
			return fmt.Errorf("smoke-dist: grid %d pushed to %s again (%d -> %d pushes)", grid, base, pushed, ps.Pushes)
		}
	}
	fmt.Printf("smoke-dist: grid %d served from resident CSRs (%d row ranges, no pushes)\n", grid, res.DistTriples)
	return nil
}

func checksum(sum uint64) string { return fmt.Sprintf("fnv64:%016x", sum) }

func diff(what, served, direct string) error {
	if served != direct {
		return errors.New("smoke: " + what + " checksum mismatch: served " + served + ", library " + direct)
	}
	fmt.Printf("smoke: %-14s %s == library\n", what, served)
	return nil
}
