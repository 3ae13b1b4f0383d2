package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/triangle"
)

func startServer(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, NewClient(srv.URL)
}

func TestServerEndToEnd(t *testing.T) {
	_, c := startServer(t, Config{Workers: 2})
	ctx := context.Background()

	spec := gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 4, "size": 6}, Seed: 2}
	snap, err := c.RegisterSpec(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != 24 || snap.Refs != 1 || snap.Spec == nil {
		t.Fatalf("registered snapshot: %+v", snap)
	}

	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := graph.WholeGraph(g)
	direct := triangle.BruteForce(view)

	count, err := c.TriangleCount(ctx, snap.ID, CountParams{})
	if err != nil {
		t.Fatal(err)
	}
	if count.Triangles != direct.Len() || count.Checksum != checksumString(direct.Checksum()) {
		t.Fatalf("count over HTTP: %d/%s, library %d/%s",
			count.Triangles, count.Checksum, direct.Len(), checksumString(direct.Checksum()))
	}

	enum, err := c.Enumerate(ctx, snap.ID, EnumerateParams{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := triangle.Enumerate(view, triangle.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if enum.Checksum != checksumString(set.Checksum()) || enum.Rounds == 0 {
		t.Fatalf("enumerate over HTTP: %+v", enum)
	}

	dec, err := c.Decompose(ctx, snap.ID, DecomposeParams{Eps: 0.6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := decomposeChecksum(view, DecomposeParams{Eps: 0.6, K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Checksum != want {
		t.Fatalf("decompose over HTTP: %s, library %s", dec.Checksum, want)
	}

	// Second identical query is served from cache: same body, a hit in
	// the counters.
	dec2, err := c.Decompose(ctx, snap.ID, DecomposeParams{Eps: 0.6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(dec)
	b2, _ := json.Marshal(dec2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated decompose responses differ")
	}
	st, err := c.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Computations != 3 || st.Hits != 1 || st.Snapshots != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.SchemaVersion != 3 {
		t.Fatalf("stats schema version = %d, want 3", st.SchemaVersion)
	}
	// The per-tenant section attributes all of it to the default tenant.
	ts, ok := st.Tenants[DefaultTenant]
	if !ok || ts.Computations != 3 || ts.Hits != 1 {
		t.Fatalf("default tenant stats: %+v (tenants: %+v)", ts, st.Tenants)
	}
	if st.ComputeLatencyUS == nil || st.QueueDepthHist == nil {
		t.Fatal("histograms missing from stats")
	}
	var lat uint64
	for _, n := range st.ComputeLatencyUS.Counts {
		lat += n
	}
	if lat != 3 {
		t.Fatalf("latency histogram observed %d computations, want 3", lat)
	}

	// List, then release to zero: snapshot and cache evicted.
	snaps, err := c.Snapshots(ctx)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("list: %v %v", snaps, err)
	}
	if err := c.Release(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TriangleCount(ctx, snap.ID, CountParams{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query served after release to zero: %v", err)
	}
	var apiErr *APIError
	if err := c.Release(ctx, snap.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != CodeNotFound {
		t.Fatalf("double release: %v", err)
	}
}

func TestServerGzipUpload(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	g := gen.RingOfCliques(3, 5, 1)
	var plain bytes.Buffer
	if err := graph.WriteEdgeList(&plain, g); err != nil {
		t.Fatal(err)
	}
	var packed bytes.Buffer
	zw := gzip.NewWriter(&packed)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := c.RegisterEdgeList(ctx, &packed)
	if err != nil {
		t.Fatal(err)
	}
	if snap.N != g.N() || snap.M != g.M() || snap.Spec != nil {
		t.Fatalf("uploaded snapshot: %+v", snap)
	}
	if snap.ID != snapshotID(g.Fingerprint()) {
		t.Fatalf("upload id %s, want %s", snap.ID, snapshotID(g.Fingerprint()))
	}

	res, err := c.TriangleCount(ctx, snap.ID, CountParams{})
	if err != nil {
		t.Fatal(err)
	}
	if want := triangle.BruteForce(graph.WholeGraph(g)).Len(); res.Triangles != want {
		t.Fatalf("triangles on uploaded graph: %d, want %d", res.Triangles, want)
	}
}

// TestUploadSNAPHeaderAllocationBounded reads a 31-byte upload whose
// SNAP header claims 99,999,999 edges through the service's upload
// limits. An untrusted claim may pre-size the edge slice only up to a
// small constant, so the read must allocate under 1 MiB; sizing the
// slice by the claim, or by the limits' 2^26 edges, would take
// gigabytes.
func TestUploadSNAPHeaderAllocationBounded(t *testing.T) {
	const body = "# Nodes: 2 Edges: 99999999\n0 1\n"
	if len(body) != 31 {
		t.Fatalf("upload is %d bytes, want 31", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := graph.ReadEdgeListLimited(strings.NewReader(body), uploadLimits)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("read n=%d m=%d, want n=2 m=1", g.N(), g.M())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a %d-byte upload allocated %d bytes, want under 1 MiB", len(body), grew)
	}
}

// TestServerWideVertexIDs: an upload whose two triangles differ only
// above bit 20 of a vertex id ({0,1,3} and {0,1,2^21+3}) is served the
// same count by kernel=auto and kernel=rank as by kernel=2d.
func TestServerWideVertexIDs(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	body := "2097156 5\n0 1\n1 2097155\n0 2097155\n1 3\n0 3\n"
	snap, err := c.RegisterEdgeList(ctx, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.TriangleCount(ctx, snap.ID, CountParams{Kernel: "2d"})
	if err != nil {
		t.Fatal(err)
	}
	if want.Triangles != 2 {
		t.Fatalf("kernel=2d: %d triangles, want 2", want.Triangles)
	}
	for _, kernel := range []string{"auto", "rank"} {
		got, err := c.TriangleCount(ctx, snap.ID, CountParams{Kernel: kernel})
		if err != nil {
			t.Fatal(err)
		}
		if got.Triangles != want.Triangles {
			t.Errorf("kernel=%s: %d triangles, kernel=2d: %d", kernel, got.Triangles, want.Triangles)
		}
	}
}

// TestServerErrorEnvelope pins the uniform error envelope: every error
// arrives as {"error":{"code","message","retryable"}} with the right
// status and code, and the client's APIError unwraps to the sentinel.
func TestServerErrorEnvelope(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	ctx := context.Background()

	var apiErr *APIError
	_, err := c.TriangleCount(ctx, "fnv64:0000000000000000", CountParams{})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != CodeNotFound {
		t.Fatalf("unknown snapshot: %v", err)
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("APIError does not unwrap to ErrNotFound: %v", err)
	}
	if _, err := c.RegisterSpec(ctx, gen.Spec{Family: "nope"}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
		t.Fatalf("bad spec: %v", err)
	}
	if _, err := c.RegisterEdgeList(ctx, bytes.NewReader([]byte("not a graph"))); !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Fatalf("bad upload: %v", err)
	}

	// Out-of-range decomposition params are rejected up front as 400 —
	// never run, never cached, never misreported as a server fault.
	snap, err := c.RegisterSpec(ctx, gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 3, "size": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompose(ctx, snap.ID, DecomposeParams{Eps: 3}); !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Fatalf("eps out of range: %v", err)
	}
	if _, err := c.Decompose(ctx, snap.ID, DecomposeParams{K: -2}); !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Fatalf("negative k: %v", err)
	}

	// Typed params reject fields from other algorithms instead of
	// silently dropping them.
	resp, err := http.Post(c.Base+"/v1/graphs/"+snap.ID+"/decompose", "application/json",
		strings.NewReader(`{"kernel":"rank"}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != CodeBadRequest {
		t.Fatalf("cross-algorithm field: %d %+v", resp.StatusCode, envelope)
	}

	resp, err = http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestErrorCodesRoundTrip walks errorCodes: an error wrapping each row's
// sentinel, written by writeError and read back by Client, carries the
// row's status, code and retryability and unwraps to the sentinel (the
// busy code to ErrBusy, which ErrClosed shares). An error no row matches
// comes back as a 400 bad_request that unwraps to nothing.
func TestErrorCodesRoundTrip(t *testing.T) {
	// DELETE /v1/graphs/{i} answers with row i's sentinel; any other i
	// with an unmatched error.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(path.Base(r.URL.Path))
		if i < 0 || i >= len(errorCodes) {
			writeError(w, errors.New("malformed request"))
			return
		}
		writeError(w, fmt.Errorf("%w: row %d", errorCodes[i].err, i))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()
	for i, row := range errorCodes {
		err := c.Release(ctx, strconv.Itoa(i))
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != row.status || apiErr.Code != row.code || apiErr.Retryable != row.retryable {
			t.Fatalf("row %d (%v): got %v, want %d %s retryable=%v", i, row.err, err, row.status, row.code, row.retryable)
		}
		want := row.err
		if row.code == CodeBusy {
			want = ErrBusy
		}
		if !errors.Is(err, want) {
			t.Fatalf("row %d (%v): %v does not unwrap to %v", i, row.err, err, want)
		}
	}
	err := c.Release(ctx, "-1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest || apiErr.Retryable || apiErr.Unwrap() != nil {
		t.Fatalf("unmatched error: got %v, want a plain 400 %s", err, CodeBadRequest)
	}
}

// TestServerHugeKRejected: a decompose request whose k overflows the
// phi ladder's allocation is a 400, and the daemon keeps serving. Before
// k was bounded by core.MaxK this body panicked a service worker and took
// the whole process down.
func TestServerHugeKRejected(t *testing.T) {
	_, c := startServer(t, Config{Workers: 1})
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	status, body := post("/v1/graphs", `{"spec":{"family":"dumbbell","params":{"size":6}}}`)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); status != http.StatusCreated || err != nil {
		t.Fatalf("register: %d %s (%v)", status, body, err)
	}
	status, body = post("/v1/graphs/"+snap.ID+"/decompose", `{"k": 9223372036854775807}`)
	var envelope errorResponse
	if err := json.Unmarshal(body, &envelope); status != http.StatusBadRequest || err != nil || envelope.Error.Code != CodeBadRequest {
		t.Fatalf("k = MaxInt64: %d %s", status, body)
	}
	resp, err := http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the rejected request: %d", resp.StatusCode)
	}
	if status, body = post("/v1/graphs/"+snap.ID+"/decompose", `{"k": 2}`); status != http.StatusOK {
		t.Fatalf("k = 2 after the rejected request: %d %s", status, body)
	}
}

// TestServerBusyMapsTo503 pins the backpressure contract through the
// HTTP layer: queue-full rejections surface as 503 + Retry-After with
// code "busy" and the retryable flag, and the client decodes them into
// an APIError satisfying errors.Is(err, ErrBusy).
func TestServerBusyMapsTo503(t *testing.T) {
	slowGate = make(chan struct{})
	slowStarted = make(chan struct{}, 4)
	s, c := startServer(t, Config{Workers: 1, Queue: 1})
	ctx := context.Background()

	snap, err := c.RegisterSpec(ctx, gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 3, "size": 5}})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the worker and the queue slot via the service directly.
	done := make(chan struct{}, 2)
	for seed := uint64(1); seed <= 2; seed++ {
		go func(seed uint64) {
			s.Query(bg, "", snap.ID, slowParams{Seed: seed}) //nolint:errcheck
			done <- struct{}{}
		}(seed)
	}
	<-slowStarted
	for s.Stats().InFlight != 2 {
		runtime.Gosched()
	}

	// Any fresh computation over HTTP now gets the retryable 503.
	_, err = c.TriangleCount(ctx, snap.ID, CountParams{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
		apiErr.Code != CodeBusy || !apiErr.Retryable {
		t.Fatalf("busy over HTTP: %v", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("busy does not unwrap to ErrBusy: %v", err)
	}

	close(slowGate)
	<-done
	<-done
	// After the backlog drains, the same request succeeds.
	if _, err := c.TriangleCount(ctx, snap.ID, CountParams{}); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
}

// TestServerDeadlineMapsTo504 pins the deadline path end to end.
// Server side: a request carrying X-Timeout-Ms while the only worker is
// parked behind the test gate deterministically expires — the compute
// cannot finish because the gate never opens — and the last-waiter
// cancellation frees the worker without the gate. Client side: a ctx
// deadline is forwarded as the header and the decoded envelope unwraps
// to ErrDeadline.
func TestServerDeadlineMapsTo504(t *testing.T) {
	slowGate = make(chan struct{})
	slowStarted = make(chan struct{}, 1)
	s, c := startServer(t, Config{Workers: 1, Queue: 2})
	ctx := context.Background()

	snap, err := c.RegisterSpec(ctx, gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 3, "size": 5}})
	if err != nil {
		t.Fatal(err)
	}

	// Park the only worker behind the gate.
	parked := make(chan error, 1)
	go func() {
		_, err := s.Query(bg, "", snap.ID, slowParams{Seed: 1})
		parked <- err
	}()
	<-slowStarted

	// Raw request with the timeout header and NO client-side deadline:
	// the expiry is observed server-side, so the envelope (not a torn
	// connection) carries the outcome. The query sits in the pool queue
	// behind the parked worker, so the 1ms budget always expires first.
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/graphs/"+snap.ID+"/decompose",
		strings.NewReader(`{"seed":99}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TimeoutHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout || envelope.Error.Code != CodeDeadline || !envelope.Error.Retryable {
		t.Fatalf("deadline over HTTP: %d %+v", resp.StatusCode, envelope)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline response missing Retry-After")
	}
	if st := s.Stats(); st.Cancellations != 1 {
		t.Fatalf("expired request did not cancel its flight: %+v", st)
	}

	// Client side: a ctx deadline becomes the header automatically, and
	// the typed error unwraps to ErrDeadline. A stub server answers with
	// the envelope instantly, so the client transport never races its
	// own deadline.
	var gotTimeout atomic.Value
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTimeout.Store(r.Header.Get(TimeoutHeader))
		writeError(w, fmt.Errorf("%w: stub", ErrDeadline))
	}))
	defer stub.Close()
	sc := NewClient(stub.URL)
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	_, err = sc.Decompose(dctx, snap.ID, DecomposeParams{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("stubbed deadline does not unwrap to ErrDeadline: %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout || !apiErr.Retryable {
		t.Fatalf("stubbed deadline envelope: %v", err)
	}
	if hv, _ := gotTimeout.Load().(string); hv == "" {
		t.Fatal("client did not forward its ctx deadline as " + TimeoutHeader)
	}

	close(slowGate)
	if err := <-parked; err != nil {
		t.Fatalf("parked flight: %v", err)
	}
}
