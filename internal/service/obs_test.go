package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/triangle"
)

// startTracedReplicas boots n loopback replicas that trace (so they can
// Adopt coordinator traces).
func startTracedReplicas(t *testing.T, n int) (bases []string, svcs []*Service) {
	t.Helper()
	for i := 0; i < n; i++ {
		svc := New(Config{Workers: 2, Tracer: obs.NewTracer(256, 1)})
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
		svcs = append(svcs, svc)
	}
	return bases, svcs
}

// TestTraceDistPropagation is the tentpole acceptance test: a count-dist
// query against a 3-replica fleet, issued over HTTP with a fixed
// X-Request-Id, must yield ONE trace — retrievable from the coordinator
// at GET /v1/debug/traces/{id} — whose spans cover the coordinator
// pipeline (http, query, compute, dist, dist.push, dist.count) AND the
// replica-side replica.count spans from all three peers.
func TestTraceDistPropagation(t *testing.T) {
	bases, _ := startTracedReplicas(t, 3)
	coord := New(Config{
		Workers:    2,
		Peers:      bases,
		DistWindow: 2,
		Tracer:     obs.NewTracer(1024, 1),
	})
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	ctx := context.Background()
	cl := NewClient(srv.URL)
	cl.RequestID = "trace-dist-test-001"

	spec := gen.Spec{Family: "gnp", Params: map[string]float64{"n": 96, "p": 0.2}, Seed: 7}
	snap, err := coord.RegisterSpec("", spec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	// Grid 4 → 4 row ranges, so the deterministic schedule gives every
	// one of the 3 peers work.
	res, err := cl.TriangleCountDist(ctx, snap.ID, DistCountParams{Grid: 4})
	if err != nil {
		t.Fatalf("count-dist: %v", err)
	}
	// Bit-identity with instrumentation ENABLED: the traced, fleet-wide
	// count serves the same total and checksum as the local kernel.
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	if res.Triangles != want || res.Checksum != checksumString(triangle.HashWords(uint64(want))) {
		t.Fatalf("traced dist count %d (%s), local kernel %d", res.Triangles, res.Checksum, want)
	}

	tr, err := cl.Trace(ctx, cl.RequestID)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	if tr.TraceID != cl.RequestID {
		t.Fatalf("trace id %q, want %q", tr.TraceID, cl.RequestID)
	}
	byName := map[string]int{}
	peers := map[string]bool{}
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		if sp.TraceID != cl.RequestID {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.TraceID, cl.RequestID)
		}
		byName[sp.Name]++
		if sp.Name == "replica.count" {
			peers[sp.Attrs["peer"]] = true
		}
		if ids[sp.ID] {
			t.Fatalf("duplicate span ID %d in trace", sp.ID)
		}
		ids[sp.ID] = true
	}
	for _, want := range []string{"http", "query", "compute", "dist", "dist.plan", "dist.push", "dist.count", "replica.count"} {
		if byName[want] == 0 {
			t.Fatalf("trace has no %q span; got %v", want, byName)
		}
	}
	if byName["replica.count"] != byName["dist.count"] {
		t.Fatalf("%d replica.count spans for %d dist.count spans", byName["replica.count"], byName["dist.count"])
	}
	// Each count request is a batch: the replicas ship back one
	// triangle.rows span per row range, 4 in all, and the coordinator's
	// one dist.plan span records the cut.
	if byName["triangle.rows"] != res.DistTriples || res.DistTriples != 4 {
		t.Fatalf("%d triangle.rows spans for %d row ranges, want 4", byName["triangle.rows"], res.DistTriples)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "dist.plan" && (byName["dist.plan"] != 1 || sp.Attrs["grid"] != "4" || sp.Attrs["ranges"] != "4") {
			t.Fatalf("%d dist.plan spans, one with attrs %v, want one with grid 4 and 4 ranges", byName["dist.plan"], sp.Attrs)
		}
	}
	if len(peers) != 3 {
		t.Fatalf("replica.count spans name %d distinct peers, want 3: %v", len(peers), peers)
	}
	for pb := range peers {
		found := false
		for _, b := range bases {
			if pb == b {
				found = true
			}
		}
		if !found {
			t.Fatalf("replica.count peer %q is not a configured base %v", pb, bases)
		}
	}

	// Parent links resolve within the trace: every non-root span's
	// parent is a span the ring also holds (the fan-out is small enough
	// that nothing was evicted).
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Fatalf("span %q (id %d) has dangling parent %d", sp.Name, sp.ID, sp.Parent)
		}
	}
	// The first job pushed the snapshot's CSR once per peer. A second job
	// at another grid finds it resident: count requests only, no push.
	if byName["dist.push"] != 3 {
		t.Fatalf("%d dist.push spans in the snapshot's first job, want one per peer", byName["dist.push"])
	}
	cl.RequestID = "trace-dist-test-002"
	if _, err := cl.TriangleCountDist(ctx, snap.ID, DistCountParams{Grid: 6}); err != nil {
		t.Fatalf("second count-dist: %v", err)
	}
	if tr, err = cl.Trace(ctx, cl.RequestID); err != nil {
		t.Fatalf("fetch second trace: %v", err)
	}
	clear(byName)
	for _, sp := range tr.Spans {
		byName[sp.Name]++
	}
	if byName["dist.push"] != 0 || byName["dist.count"] == 0 || byName["replica.count"] != byName["dist.count"] {
		t.Fatalf("second job's trace spans %v, want dist.count and replica.count only", byName)
	}
}

// TestTraceCount2DTriples pins the per-range spans of a traced
// kernel=2d count: its "count" span must hold exactly one
// "triangle.rows" child per row range, whose ranges tile the rank space
// [0, n) without gap or overlap and whose counts sum to the served
// total. A service that stopped handing the kernel its span on the
// context would lose them all.
func TestTraceCount2DTriples(t *testing.T) {
	svc := New(Config{Workers: 2, Tracer: obs.NewTracer(1024, 1)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	snap, err := svc.RegisterSpec("", gen.Spec{Family: "gnp", Params: map[string]float64{"n": 96, "p": 0.2}, Seed: 7})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx := context.Background()
	cl := NewClient(srv.URL)
	cl.RequestID = "trace-count-2d-001"
	res, err := cl.TriangleCount(ctx, snap.ID, CountParams{Kernel: "2d"})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	tr, err := cl.Trace(ctx, cl.RequestID)
	if err != nil {
		t.Fatalf("fetch trace: %v", err)
	}
	var count *obs.Span
	for i := range tr.Spans {
		if tr.Spans[i].Name == "count" {
			if count != nil {
				t.Fatal("trace holds two count spans")
			}
			count = &tr.Spans[i]
		}
	}
	if count == nil || count.Attrs["kernel"] != "2d" {
		t.Fatalf("trace has no kernel=2d count span: %+v", count)
	}
	hiOf := map[int]int{} // range lo -> hi
	total := 0
	for _, sp := range tr.Spans {
		if sp.Name != "triangle.rows" {
			continue
		}
		if sp.Parent != count.ID {
			t.Fatalf("triangle.rows span %d parents under %d, not the count span %d", sp.ID, sp.Parent, count.ID)
		}
		var lo, hi, n int
		for k, dst := range map[string]*int{"lo": &lo, "hi": &hi, "count": &n} {
			v, err := strconv.Atoi(sp.Attrs[k])
			if err != nil {
				t.Fatalf("triangle.rows attr %s = %q: %v", k, sp.Attrs[k], err)
			}
			*dst = v
		}
		if _, dup := hiOf[lo]; dup || lo >= hi {
			t.Fatalf("row range [%d, %d) repeated or empty", lo, hi)
		}
		hiOf[lo] = hi
		total += n
	}
	// The ranges chain from 0 to the vertex count, one span each.
	at, spans := 0, 0
	for at < snap.N {
		hi, ok := hiOf[at]
		if !ok {
			t.Fatalf("no triangle.rows span starts at rank %d (ranges %v)", at, hiOf)
		}
		at, spans = hi, spans+1
	}
	if at != snap.N || spans != len(hiOf) || spans < 2 {
		t.Fatalf("%d triangle.rows spans reach rank %d of %d, %d of them chained; want at least 2 tiling [0, %d)",
			len(hiOf), at, snap.N, spans, snap.N)
	}
	if total != res.Triangles {
		t.Fatalf("row-range spans count %d triangles, served %d", total, res.Triangles)
	}
}

// TestTraceDecomposeEnumerateSpans pins the span trees a traced
// decompose and a traced enumerate hang under their query: each kernel
// phase span must sit under its named parent, and every parent link must
// resolve within the trace. A run that stopped handing its span down on
// the context would drop its subtree.
func TestTraceDecomposeEnumerateSpans(t *testing.T) {
	svc := New(Config{Workers: 1, Tracer: obs.NewTracer(4096, 1)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	// At eps 0.9, Phase 1 hands this graph's core to Phase 2, so every
	// decompose phase span appears.
	snap, err := svc.RegisterGraph("", gen.SatelliteCliques(40, 12, 2, 1))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx := context.Background()
	cl := NewClient(srv.URL)
	for _, tc := range []struct {
		id    string
		query func() error
		edges [][2]string // {child, parent} span names
	}{
		{"trace-decompose-001", func() error {
			_, err := cl.Decompose(ctx, snap.ID, DecomposeParams{Eps: 0.9, Backend: "cs19"})
			return err
		}, [][2]string{
			{"core.phase1.level", "decompose"}, {"core.ldd", "core.phase1.level"}, {"core.ldd.task", "core.ldd"},
			{"core.cut", "core.phase1.level"}, {"core.cut.task", "core.cut"},
			{"core.phase2", "decompose"}, {"core.phase2.component", "core.phase2"},
		}},
		{"trace-enumerate-001", func() error {
			_, err := cl.Enumerate(ctx, snap.ID, EnumerateParams{})
			return err
		}, [][2]string{
			{"enumerate.level", "enumerate"}, {"core.phase1.level", "enumerate.level"},
			{"enumerate.component", "enumerate.level"},
		}},
	} {
		cl.RequestID = tc.id
		if err := tc.query(); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		tr, err := cl.Trace(ctx, tc.id)
		if err != nil {
			t.Fatalf("%s: fetch trace: %v", tc.id, err)
		}
		byID := map[uint64]obs.Span{}
		for _, sp := range tr.Spans {
			byID[sp.ID] = sp
		}
		found := map[[2]string]bool{}
		for _, sp := range tr.Spans {
			if sp.Parent == 0 {
				continue
			}
			parent, ok := byID[sp.Parent]
			if !ok {
				t.Fatalf("%s: span %q (id %d) has dangling parent %d", tc.id, sp.Name, sp.ID, sp.Parent)
			}
			found[[2]string{sp.Name, parent.Name}] = true
		}
		for _, e := range tc.edges {
			if !found[e] {
				t.Errorf("%s: no %q span under %q", tc.id, e[0], e[1])
			}
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after a mixed workload and
// checks the exposition parses as valid Prometheus text (ValidateProm
// enforces bucket cumulativity, le monotonicity, and +Inf == _count)
// and covers every stats v3 field's series.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Workers: 2, Tracer: obs.NewTracer(256, 1)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	ctx := context.Background()
	snap, err := svc.RegisterSpec("acme", gen.Spec{Family: "gnp", Params: map[string]float64{"n": 64, "p": 0.2}, Seed: 3})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := svc.Query(ctx, "acme", snap.ID, DecomposeParams{}); err != nil {
		t.Fatalf("decompose: %v", err)
	}
	if _, err := svc.Query(ctx, "acme", snap.ID, CountParams{}); err != nil {
		t.Fatalf("count: %v", err)
	}
	if _, err := svc.Query(ctx, "acme", snap.ID, CountParams{}); err != nil { // cache hit
		t.Fatalf("count (hit): %v", err)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("content type %q, want %q", ct, promContentType)
	}
	names, err := obs.ValidateProm(resp.Body)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	// One series per stats v3 field (the README's mapping table).
	want := []string{
		"dexpander_stats_schema_version",
		"dexpander_snapshots", "dexpander_cache_entries", "dexpander_in_flight",
		"dexpander_workers", "dexpander_queue_cap", "dexpander_queue_depth", "dexpander_max_results",
		"dexpander_computations_total", "dexpander_hits_total", "dexpander_joins_total",
		"dexpander_busy_total", "dexpander_snapshot_evictions_total", "dexpander_cache_evictions_total",
		"dexpander_cancellations_total", "dexpander_quota_rejections_total",
		"dexpander_compute_latency_seconds", "dexpander_queue_depth_observed",
		"dexpander_fragment_stores_total", "dexpander_fragment_hits_total",
		"dexpander_fragment_bytes", "dexpander_fragment_evictions_total", "dexpander_dist_triples_total",
		"dexpander_tenant_queries_total", "dexpander_tenant_computations_total",
		"dexpander_tenant_hits_total", "dexpander_tenant_joins_total", "dexpander_tenant_busy_total",
		"dexpander_tenant_quota_rejections_total", "dexpander_tenant_cancellations_total",
		"dexpander_tenant_snapshot_refs", "dexpander_tenant_in_flight",
		"dexpander_decompose_requests_total", "dexpander_decompose_latency_seconds",
		"dexpander_trace_ring_capacity", "dexpander_trace_sample_ratio",
		"dexpander_trace_spans_total", "dexpander_trace_spans_evicted_total",
		"dexpander_phase_total", "dexpander_phase_seconds_total",
	}
	for _, n := range want {
		if !names[n] {
			t.Fatalf("exposition is missing series %q", n)
		}
	}
}

// TestHealthzReport checks the enriched healthz payload.
func TestHealthzReport(t *testing.T) {
	svc := New(Config{Workers: 1, Peers: []string{"http://a", "http://b"}})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	h, err := NewClient(srv.URL).Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("status %q", h.Status)
	}
	if !strings.HasPrefix(h.GoVersion, "go") {
		t.Fatalf("go_version %q", h.GoVersion)
	}
	if h.ModuleVersion == "" {
		t.Fatalf("module_version empty")
	}
	if h.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs %d", h.GOMAXPROCS)
	}
	if h.Peers != 2 {
		t.Fatalf("peers %d, want 2", h.Peers)
	}
}

// TestRequestIDEcho checks header round-tripping: a valid caller ID is
// echoed back; a malformed one is replaced with a generated trace ID.
func TestRequestIDEcho(t *testing.T) {
	svc := New(Config{Workers: 1, Tracer: obs.NewTracer(64, 1)})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "my-req.01")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "my-req.01" {
		t.Fatalf("echoed request id %q, want %q", got, "my-req.01")
	}

	req, _ = http.NewRequest("GET", srv.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad id with junk!")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	got := resp.Header.Get(RequestIDHeader)
	if got == "" || got == "bad id with junk!" || len(got) != 16 {
		t.Fatalf("malformed id not replaced with a generated trace ID: %q", got)
	}
}

// TestQueryLogFields checks the structured query log line carries the
// per-request fields the Observability contract names.
func TestQueryLogFields(t *testing.T) {
	var buf bytes.Buffer
	svc := New(Config{
		Workers:   1,
		Logger:    obs.NewJSONLogger(&buf, slog.LevelInfo),
		SlowQuery: time.Nanosecond, // everything is slow: exercise the slow path
	})
	t.Cleanup(svc.Close)

	snap, err := svc.RegisterSpec("acme", gen.Spec{Family: "gnp", Params: map[string]float64{"n": 48, "p": 0.2}, Seed: 1})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := svc.Query(context.Background(), "acme", snap.ID, CountParams{}); err != nil {
		t.Fatalf("count: %v", err)
	}
	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"ts", "level", "msg", "tenant", "fingerprint", "algorithm", "outcome", "duration_ms", "slow"} {
		if _, ok := rec[k]; !ok {
			t.Fatalf("log line missing %q: %s", k, line)
		}
	}
	if rec["tenant"] != "acme" || rec["outcome"] != "computed" || rec["level"] != "warn" {
		t.Fatalf("unexpected log fields: %s", line)
	}
}
