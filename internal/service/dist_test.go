package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/triangle"
)

// fragPutCounter wraps a replica handler and counts fragment PUTs by
// path — the direct witness that the coordinator transfers each
// snapshot's CSR to each replica at most once per residency.
type fragPutCounter struct {
	next http.Handler

	mu   sync.Mutex
	puts map[string]int // fragment path -> PUT count
}

func (fc *fragPutCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut {
		fc.mu.Lock()
		fc.puts[r.URL.Path]++
		fc.mu.Unlock()
	}
	fc.next.ServeHTTP(w, r)
}

// total returns the number of PUTs received.
func (fc *fragPutCounter) total() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	n := 0
	for _, c := range fc.puts {
		n += c
	}
	return n
}

func (fc *fragPutCounter) maxPuts() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	m := 0
	for _, n := range fc.puts {
		if n > m {
			m = n
		}
	}
	return m
}

// startReplicas boots n loopback dexpanderd replicas with PUT counters.
func startReplicas(t *testing.T, n int) (bases []string, svcs []*Service, counters []*fragPutCounter) {
	t.Helper()
	counters = make([]*fragPutCounter, n)
	bases, svcs = startWrappedReplicas(t, n, func(i int, h http.Handler) http.Handler {
		counters[i] = &fragPutCounter{next: h, puts: make(map[string]int)}
		return counters[i]
	})
	return bases, svcs, counters
}

// startWrappedReplicas boots n loopback replicas, each behind the
// handler wrap returns for it.
func startWrappedReplicas(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) (bases []string, svcs []*Service) {
	t.Helper()
	for i := 0; i < n; i++ {
		svc := New(Config{Workers: 2})
		srv := httptest.NewServer(wrap(i, svc.Handler()))
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
		svcs = append(svcs, svc)
	}
	return bases, svcs
}

// TestDistCountMatchesLocalKernel is the acceptance property: for every
// generator family, seed, and replica count (0 = local fallback), the
// distributed total and checksum are bit-identical to CountParallel2D —
// and no replica receives the snapshot's CSR twice.
func TestDistCountMatchesLocalKernel(t *testing.T) {
	families := []struct {
		name  string
		build func(seed uint64) *graph.Graph
	}{
		{"gnp", func(seed uint64) *graph.Graph { return gen.GNP(72, 0.2, seed) }},
		{"ba", func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(120, 5, seed) }},
		{"ring", func(seed uint64) *graph.Graph { return gen.RingOfCliques(5, 6, seed) }},
	}
	ctx := context.Background()
	for _, fam := range families {
		for seed := uint64(1); seed <= 2; seed++ {
			g := fam.build(seed)
			want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
			wantSum := checksumString(triangle.HashWords(uint64(want)))
			for _, replicas := range []int{0, 1, 2, 3} {
				bases, svcs, counters := startReplicas(t, replicas)
				coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
				snap, err := coord.RegisterGraph("", g)
				if err != nil {
					t.Fatalf("%s seed %d: register: %v", fam.name, seed, err)
				}
				res, err := coord.Query(ctx, "", snap.ID, DistCountParams{})
				if err != nil {
					t.Fatalf("%s seed %d replicas %d: %v", fam.name, seed, replicas, err)
				}
				if res.Triangles != want || res.Checksum != wantSum {
					t.Fatalf("%s seed %d replicas %d: got %d (%s), local kernel %d (%s)",
						fam.name, seed, replicas, res.Triangles, res.Checksum, want, wantSum)
				}
				if replicas > 0 && res.DistTriples == 0 {
					t.Fatalf("%s seed %d replicas %d: schedule reported no row ranges", fam.name, seed, replicas)
				}
				servedRanges := uint64(0)
				for ri, svc := range svcs {
					st := svc.Stats()
					servedRanges += st.DistTriples
					if m := counters[ri].maxPuts(); m > 1 {
						t.Fatalf("%s seed %d replicas %d: replica %d received a fragment key %d times",
							fam.name, seed, replicas, ri, m)
					}
					if st.FragmentStores != uint64(len(counters[ri].puts)) {
						t.Fatalf("%s seed %d replicas %d: replica %d stored %d fragments for %d distinct PUTs",
							fam.name, seed, replicas, ri, st.FragmentStores, len(counters[ri].puts))
					}
				}
				if replicas > 0 && servedRanges != uint64(res.DistTriples) {
					t.Fatalf("%s seed %d replicas %d: replicas served %d row ranges, schedule had %d",
						fam.name, seed, replicas, servedRanges, res.DistTriples)
				}
				coord.Close()
			}
		}
	}
}

// TestDistCountGridSweep pins p-independence through the service: every
// forced grid dimension yields the same count and checksum. It also pins
// residency across jobs: over the whole sweep each replica receives the
// snapshot's CSR in exactly one PUT and stores it once, and the
// coordinator records one push per peer — later grids send count
// requests only.
func TestDistCountGridSweep(t *testing.T) {
	g := gen.ChungLu(96, 2.2, 8, 3)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	bases, svcs, counters := startReplicas(t, 2)
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 3})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []int{1, 2, 3, 4, 6} {
		res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		if res.Triangles != want {
			t.Fatalf("grid %d: counted %d, local kernel %d", grid, res.Triangles, want)
		}
	}
	st := coord.Stats()
	for ri, svc := range svcs {
		if n := counters[ri].total(); n != 1 {
			t.Fatalf("replica %d received %d fragment PUTs over the sweep, want 1", ri, n)
		}
		if stores := svc.Stats().FragmentStores; stores != 1 {
			t.Fatalf("replica %d stored %d fragments over the sweep, want 1", ri, stores)
		}
		if ps := st.DistPeers[bases[ri]]; ps == nil || ps.Pushes != 1 {
			t.Fatalf("coordinator's stats for replica %d: %+v, want 1 push", ri, ps)
		}
	}
}

// failAfter wraps a replica so its dist/count endpoint serves `healthy`
// requests and then kills the connection of every later one — a replica
// crashing mid-job from the coordinator's point of view.
type failAfter struct {
	next    http.Handler
	healthy int

	mu     sync.Mutex
	served int
}

func (fa *failAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/count" {
		fa.mu.Lock()
		fa.served++
		dead := fa.served > fa.healthy
		fa.mu.Unlock()
		if dead {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("test server does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
	}
	fa.next.ServeHTTP(w, r)
}

// TestDistCountSurvivesReplicaFailure kills one of three replicas after
// its first served count request: at grid 12 with a window of 2 its
// share is four row ranges in two batches, so the second batch's ranges
// must fail over to a surviving replica, and the total must stay
// bit-identical to the local kernel.
func TestDistCountSurvivesReplicaFailure(t *testing.T) {
	g := gen.BarabasiAlbert(160, 6, 9)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)

	bases, svcs := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
		if i == 1 {
			return &failAfter{next: h, healthy: 1}
		}
		return h
	})
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	// Force a grid with enough ranges that the failing replica's share
	// fills both of its batches.
	res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("with a failing replica: counted %d, local kernel %d", res.Triangles, want)
	}
	if res.DistRetries == 0 {
		t.Fatal("failing replica produced no retries — the failure never happened")
	}
	served := uint64(0)
	for _, svc := range svcs {
		served += svc.Stats().DistTriples
	}
	if served != uint64(res.DistTriples) {
		t.Fatalf("replicas counted %d of %d row ranges; the failed batch was not failed over to a survivor",
			served, res.DistTriples)
	}
}

// TestFragmentCacheEviction pins the replica cache's byte bound: storing
// a snapshot's CSR past MaxFragmentBytes evicts the least-recently-used
// snapshot, and a subsequent count on the evicted snapshot reports
// ErrFragmentMissing rather than a wrong answer.
func TestFragmentCacheEviction(t *testing.T) {
	graphs := []*graph.Graph{gen.GNP(64, 0.3, 7), gen.GNP(64, 0.3, 8)}
	enc := make([][]byte, len(graphs))
	ids := make([]string, len(graphs))
	maxEnc := 0
	for i, g := range graphs {
		enc[i] = triangle.NewForward(graph.WholeGraph(g)).Fragment().Encode()
		ids[i] = snapshotID(g.Fingerprint())
		maxEnc = max(maxEnc, len(enc[i]))
	}
	// Budget for one CSR at a time: every single store fits, no pair does.
	svc := New(Config{Workers: 1, MaxFragmentBytes: int64(maxEnc + 8)})
	defer svc.Close()
	put := func(i int) bool {
		stored, err := svc.StoreFragment(ids[i], enc[i])
		if err != nil {
			t.Fatalf("store snapshot %d: %v", i, err)
		}
		return stored
	}
	if !put(0) {
		t.Fatal("first store reported not stored")
	}
	if put(0) {
		t.Fatal("idempotent re-store reported stored")
	}
	put(1) // must evict snapshot 0
	st := svc.Stats()
	if st.FragmentEvictions == 0 {
		t.Fatalf("stores past the byte bound evicted nothing (resident %d bytes)", st.FragmentBytes)
	}
	ranks := graphs[0].N()
	_, _, err := svc.DistCountRanges(context.Background(), ids[0], ranks, [][2]int32{{0, int32(ranks)}})
	if !errors.Is(err, ErrFragmentMissing) {
		t.Fatalf("count on the evicted snapshot: err = %v, want ErrFragmentMissing", err)
	}
}

// TestHostileFragmentRankSpaceRejected replays a 42-byte fragment whose
// header claims a 2^31-1 rank universe, then a count request on a row
// range of that universe. Sizing the replica's stamp scratch by the claim
// would demand 8 GiB and kill the process; both requests must instead
// fail as caller errors (400) with the replica still serving.
func TestHostileFragmentRankSpaceRejected(t *testing.T) {
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	frag := (&triangle.Fragment{Ranks: 1<<31 - 1, Lo: 0, Hi: 0, Off: []int32{0}}).Encode()
	if len(frag) != 42 {
		t.Fatalf("hostile fragment is %d bytes, want 42", len(frag))
	}
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/dist/fragments/x", bytes.NewReader(frag))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("put fragment: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile fragment PUT answered %d, want 400", resp.StatusCode)
	}
	body := `{"snapshot": "x", "ranks": 2147483647, "ranges": [[0, 2147483647]]}`
	resp, err = srv.Client().Post(srv.URL+"/v1/dist/count", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("dist count: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile rank-space count answered %d, want 400", resp.StatusCode)
	}

	// The same input straight through the Service methods, as the
	// in-process reproduction drove it.
	if _, err := svc.StoreFragment("x", frag); err == nil {
		t.Fatal("StoreFragment accepted a 2^31-1 rank universe")
	}
	if _, _, err := svc.DistCountRanges(context.Background(), "x", 1<<31-1, [][2]int32{{0, 1<<31 - 1}}); err == nil {
		t.Fatal("DistCountRanges accepted a 2^31-1 rank universe")
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after hostile input: %v", err)
	}
	resp.Body.Close()
}

// TestDistCountRejectsHostileRanges sends a replica holding a
// snapshot's CSR count requests whose ranges are reversed, negative or
// past the rank space, whose rank space differs from the resident CSR's,
// or which carry more than maxDistGrid ranges. Each batch leads with a
// valid range, and each must be answered 400 before anything is
// counted: the replica's trace of it holds no triangle.rows span. The
// replica must still serve a valid request afterwards.
func TestDistCountRejectsHostileRanges(t *testing.T) {
	g := gen.GNP(64, 0.3, 7)
	view := graph.WholeGraph(g)
	id := snapshotID(g.Fingerprint())
	tracer := obs.NewTracer(1024, 1)
	svc := New(Config{Workers: 1, Tracer: tracer})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/dist/fragments/"+id,
		bytes.NewReader(triangle.NewForward(view).Fragment().Encode()))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("put fragment: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fragment PUT answered %d, want 200", resp.StatusCode)
	}
	post := func(trace string, ranks int, ranges [][2]int32) (int, distCountResponse) {
		t.Helper()
		body, _ := json.Marshal(distCountRequest{Snapshot: id, Ranks: ranks, Ranges: ranges, Trace: &TraceRef{ID: trace}})
		resp, err := srv.Client().Post(srv.URL+"/v1/dist/count", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("dist count: %v", err)
		}
		defer resp.Body.Close()
		var out distCountResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	n := int32(g.N())
	tooMany := make([][2]int32, maxDistGrid+1)
	for i := range tooMany {
		tooMany[i] = [2]int32{0, 1}
	}
	for i, c := range []struct {
		name   string
		ranks  int
		ranges [][2]int32
	}{
		{"lo > hi", g.N(), [][2]int32{{0, 10}, {12, 11}}},
		{"negative lo", g.N(), [][2]int32{{0, 10}, {-1, 10}}},
		{"negative hi", g.N(), [][2]int32{{0, 10}, {-3, -1}}},
		{"hi > ranks", g.N(), [][2]int32{{0, 10}, {10, n + 1}}},
		{"ranks above the CSR's", g.N() + 1, [][2]int32{{0, n}}},
		{"ranks below the CSR's", g.N() - 1, [][2]int32{{0, n - 1}}},
		{"too many ranges", g.N(), tooMany},
	} {
		trace := fmt.Sprintf("hostile-ranges-%d", i)
		if code, _ := post(trace, c.ranks, c.ranges); code != http.StatusBadRequest {
			t.Fatalf("%s: answered %d, want 400", c.name, code)
		}
		for _, sp := range tracer.Trace(trace) {
			if sp.Name == "triangle.rows" {
				t.Fatalf("%s: counted range [%s, %s) before answering 400", c.name, sp.Attrs["lo"], sp.Attrs["hi"])
			}
		}
	}
	if st := svc.Stats(); st.DistTriples != 0 {
		t.Fatalf("hostile requests counted %d row ranges, want none", st.DistTriples)
	}
	code, out := post("hostile-ranges-valid", g.N(), [][2]int32{{0, 30}, {30, 30}, {30, n}})
	if code != http.StatusOK || len(out.Counts) != 3 {
		t.Fatalf("valid request after hostile ones answered %d with %d counts", code, len(out.Counts))
	}
	if total, want := out.Counts[0]+out.Counts[1]+out.Counts[2], triangle.CountParallel2D(view, 0); total != want || out.Counts[1] != 0 {
		t.Fatalf("valid request counted %v (total %d), local kernel %d", out.Counts, total, want)
	}
}

// countRequests wraps a replica handler and counts its dist-count
// requests.
type countRequests struct {
	next http.Handler
	n    atomic.Int64
}

func (cr *countRequests) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/count" {
		cr.n.Add(1)
	}
	cr.next.ServeHTTP(w, r)
}

// TestDistCountRequestsPerPeerBounded pins the batched protocol: with
// healthy replicas a job sends each peer at most DistWindow count
// requests, however many row ranges its grid has, and every range is
// still answered exactly once.
func TestDistCountRequestsPerPeerBounded(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 4)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	for _, window := range []int{1, 2, 4} {
		counters := make([]*countRequests, 3)
		bases, svcs := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
			counters[i] = &countRequests{next: h}
			return counters[i]
		})
		coord := New(Config{Workers: 2, Peers: bases, DistWindow: window})
		snap, err := coord.RegisterGraph("", g)
		if err != nil {
			t.Fatal(err)
		}
		for _, grid := range []int{3, 8, 12} {
			before := make([]int64, len(counters))
			for i, c := range counters {
				before[i] = c.n.Load()
			}
			res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
			if err != nil {
				t.Fatalf("window %d grid %d: %v", window, grid, err)
			}
			if res.Triangles != want || res.DistRetries != 0 {
				t.Fatalf("window %d grid %d: counted %d with %d retries, local kernel %d",
					window, grid, res.Triangles, res.DistRetries, want)
			}
			for i, c := range counters {
				if sent := c.n.Load() - before[i]; sent > int64(window) {
					t.Fatalf("window %d grid %d: peer %d got %d count requests for %d row ranges",
						window, grid, i, sent, res.DistTriples)
				}
			}
		}
		served := uint64(0)
		for _, svc := range svcs {
			served += svc.Stats().DistTriples
		}
		if want := uint64(3 + 8 + 12); served != want {
			t.Fatalf("window %d: replicas counted %d row ranges, the three grids have %d", window, served, want)
		}
		coord.Close()
	}
}

// TestDistCountGrid64OneRequest sends the largest job the service
// accepts — grid 64, so 64 row ranges — to one peer with a window of 1,
// so all of it travels in one count request. The replica must serve it
// rather than refuse it for its body size or its number of ranges.
func TestDistCountGrid64OneRequest(t *testing.T) {
	g := gen.GNP(200, 0.1, 3)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	var cr *countRequests
	bases, svcs := startWrappedReplicas(t, 1, func(_ int, h http.Handler) http.Handler {
		cr = &countRequests{next: h}
		return cr
	})
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 1})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want || res.DistRetries != 0 || res.DistTriples != 64 {
		t.Fatalf("grid 64: counted %d over %d row ranges with %d retries, local kernel %d",
			res.Triangles, res.DistTriples, res.DistRetries, want)
	}
	if n := cr.n.Load(); n != 1 {
		t.Fatalf("grid 64 on one peer with window 1 sent %d count requests, want 1", n)
	}
	if st := svcs[0].Stats(); st.DistTriples != 64 {
		t.Fatalf("replica counted %d row ranges, want 64", st.DistTriples)
	}
}

// slowCount wraps a replica so each count request waits perRange for
// every row range it carries before it is served, or until the request
// is canceled.
type slowCount struct {
	next     http.Handler
	perRange time.Duration
}

func (sc *slowCount) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/count" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		var req distCountRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-time.After(time.Duration(len(req.Ranges)) * sc.perRange):
		case <-r.Context().Done():
			return
		}
	}
	sc.next.ServeHTTP(w, r)
}

// TestDistCountDeadlineIsNotPeerFailure runs a grid-8 job under a 60 ms
// deadline over three replicas that each take 200 ms per row range, so
// that even a batch of one range outlasts the deadline. The caller must
// get a deadline error, and no peer may be charged a failure: the
// requests died of the caller's deadline, not of the replicas.
func TestDistCountDeadlineIsNotPeerFailure(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 5)
	bases, _ := startWrappedReplicas(t, 3, func(_ int, h http.Handler) http.Handler {
		return &slowCount{next: h, perRange: 200 * time.Millisecond}
	})
	// One worker: the query after the deadline runs only once the dist
	// job has returned, so the stats read after it are final.
	coord := New(Config{Workers: 1, Peers: bases})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := coord.Query(ctx, "", snap.ID, DistCountParams{Grid: 8}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("grid-8 job under a 60 ms deadline: err = %v, want ErrDeadline", err)
	}
	if _, err := coord.Query(context.Background(), "", snap.ID, CountParams{}); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	for _, base := range bases {
		if ps := st.DistPeers[base]; ps != nil && ps.Failures != 0 {
			t.Fatalf("peer %s charged %d failures for the caller's deadline", base, ps.Failures)
		}
	}
}

// TestDistCountReusesPeerConnections pins the coordinator's keep-alive
// pool: repeated jobs open at most DistWindow connections per replica,
// the most a peer's batches hold at once.
func TestDistCountReusesPeerConnections(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 6)
	const replicas = 3
	var bases []string
	dials := make([]atomic.Int64, replicas)
	for i := 0; i < replicas; i++ {
		svc := New(Config{Workers: 2})
		srv := httptest.NewUnstartedServer(svc.Handler())
		srv.Config.ConnState = func(_ net.Conn, cs http.ConnState) {
			if cs == http.StateNew {
				dials[i].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
	}
	coord := New(Config{Workers: 2, Peers: bases})
	defer coord.Close()
	window := coord.cfg.DistWindow
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	for grid := 3; grid <= 8; grid++ {
		if _, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid}); err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
	}
	for i := range dials {
		if n := dials[i].Load(); n > int64(window) {
			t.Fatalf("replica %d accepted %d connections over six jobs, want at most %d", i, n, window)
		}
	}
}

// faultyReplica injects one fault of each kind into a replica, each on
// the first request it fits: it truncates the first fragment PUT body,
// flips a byte in the second, answers the first count request with
// fragment_missing and the second with no counts at all.
type faultyReplica struct {
	next http.Handler

	mu      sync.Mutex
	puts    int
	counts  int
	pending []string // faults fired since the last take
}

func (fr *faultyReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fr.mu.Lock()
	fault := ""
	switch {
	case r.Method == http.MethodPut:
		fr.puts++
		fault = map[int]string{1: "truncate", 2: "flip"}[fr.puts]
	case r.URL.Path == "/v1/dist/count":
		fr.counts++
		fault = map[int]string{1: "missing", 2: "short"}[fr.counts]
	}
	if fault != "" {
		fr.pending = append(fr.pending, fault)
	}
	fr.mu.Unlock()
	switch fault {
	case "truncate", "flip":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		if fault == "truncate" {
			body = body[:len(body)/2]
		} else {
			body[len(body)/2] ^= 0x5a
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	case "missing":
		writeError(w, fmt.Errorf("%w: injected fault", ErrFragmentMissing))
		return
	case "short":
		writeJSON(w, http.StatusOK, distCountResponse{})
		return
	}
	fr.next.ServeHTTP(w, r)
}

// take returns and clears the faults fired since the last call.
func (fr *faultyReplica) take() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := fr.pending
	fr.pending = nil
	return out
}

// TestDistCountFaultInjection drives jobs through a fleet whose second
// replica truncates a fragment upload, corrupts another, answers a
// count request with fragment_missing and another with no counts. Every
// job must return CountParallel2D's total — a corrupt upload or a short
// answer moves the peer's row ranges elsewhere, which DistRetries must
// show — and never another number.
func TestDistCountFaultInjection(t *testing.T) {
	g := gen.BarabasiAlbert(200, 5, 8)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	var faulty *faultyReplica
	bases, _ := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		faulty = &faultyReplica{next: h}
		return faulty
	})
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	cutJobs := uint64(0)
	for grid := 2; grid <= 7; grid++ {
		res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		faults := faulty.take()
		if res.Triangles != want {
			t.Fatalf("grid %d with faults %v: counted %d, local kernel %d", grid, faults, res.Triangles, want)
		}
		cut := false
		for _, f := range faults {
			fired[f] = true
			cut = cut || f != "missing"
		}
		if cut {
			cutJobs++
			if res.DistRetries == 0 {
				t.Fatalf("grid %d: faults %v cut the peer off, yet no row range was retried", grid, faults)
			}
		}
	}
	for _, f := range []string{"truncate", "flip", "missing", "short"} {
		if !fired[f] {
			t.Fatalf("fault %q never fired (fired: %v)", f, fired)
		}
	}
	// One failure per job that cut the peer off, however many of its
	// batches then found the peer dead.
	if ps := coord.Stats().DistPeers[bases[1]]; ps == nil || ps.Failures != cutJobs {
		t.Fatalf("faulty peer's stats %+v, want %d failures", ps, cutJobs)
	}
}

// startReplica boots one loopback replica with cfg behind the handler
// wrap returns for it.
func startReplica(t *testing.T, cfg Config, wrap func(h http.Handler) http.Handler) (string, *Service) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Close)
	return srv.URL, svc
}

// restartable serves whichever replica process is current behind one
// address, so swapping in a fresh one looks like a restart to the
// coordinator.
type restartable struct {
	t *testing.T

	mu sync.Mutex
	h  http.Handler
}

func (rs *restartable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rs.mu.Lock()
	h := rs.h
	rs.mu.Unlock()
	h.ServeHTTP(w, r)
}

// restart replaces the replica with a fresh process holding nothing.
func (rs *restartable) restart() {
	svc := New(Config{Workers: 2})
	rs.t.Cleanup(svc.Close)
	rs.mu.Lock()
	rs.h = svc.Handler()
	rs.mu.Unlock()
}

// TestDistCountReplicaLosesResidency runs a snapshot's jobs while one
// replica restarts and another evicts the snapshot's CSR between jobs.
// Their next count requests answer fragment_missing; the coordinator
// must re-push to each of them exactly once — however many of its
// batches learn of the loss at once — and no peer may be charged a
// failure. Every total must equal the local kernel's.
func TestDistCountReplicaLosesResidency(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 7)
	view := graph.WholeGraph(g)
	want := triangle.CountParallel2D(view, 0)
	csr := triangle.NewForward(view).Fragment().Encode()
	other := gen.ChungLu(300, 2.1, 10, 8)
	otherCSR := triangle.NewForward(graph.WholeGraph(other)).Fragment().Encode()

	rs := &restartable{t: t}
	base0, _ := startReplica(t, Config{Workers: 2}, func(h http.Handler) http.Handler {
		rs.h = h
		return rs
	})
	// Replica 1's cache fits one of the two CSRs, not both.
	bound := int64(max(len(csr), len(otherCSR)) + 8)
	base1, evicting := startReplica(t, Config{Workers: 2, MaxFragmentBytes: bound}, func(h http.Handler) http.Handler { return h })
	base2, _ := startReplica(t, Config{Workers: 2}, func(h http.Handler) http.Handler { return h })
	bases := []string{base0, base1, base2}
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 4})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	count := func(grid int) {
		t.Helper()
		res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		if res.Triangles != want || res.DistRetries != 0 || res.DistPeers != len(bases) {
			t.Fatalf("grid %d: counted %d on %d peers with %d retries, local kernel %d",
				grid, res.Triangles, res.DistPeers, res.DistRetries, want)
		}
	}
	pushes := func() []uint64 {
		st := coord.Stats()
		out := make([]uint64, len(bases))
		for i, b := range bases {
			if ps := st.DistPeers[b]; ps != nil {
				out[i] = ps.Pushes
				if ps.Failures != 0 {
					t.Fatalf("peer %d charged %d failures", i, ps.Failures)
				}
			}
		}
		return out
	}

	count(6)
	if got := pushes(); !slices.Equal(got, []uint64{1, 1, 1}) {
		t.Fatalf("pushes after the first job %v, want one per peer", got)
	}
	rs.restart()
	if stored, err := evicting.StoreFragment(snapshotID(other.Fingerprint()), otherCSR); err != nil || !stored {
		t.Fatalf("store another snapshot on replica 1: stored %v, %v", stored, err)
	}
	if st := evicting.Stats(); st.FragmentEvictions != 1 {
		t.Fatalf("replica 1 evicted %d CSRs, want 1", st.FragmentEvictions)
	}
	count(8)
	if got := pushes(); !slices.Equal(got, []uint64{2, 2, 1}) {
		t.Fatalf("pushes after the restart and the eviction %v, want one re-push to each of peers 0 and 1", got)
	}
	count(4)
	if got := pushes(); !slices.Equal(got, []uint64{2, 2, 1}) {
		t.Fatalf("pushes after a third job %v, want no more", got)
	}
}

// putStatuses wraps a replica handler and records the status of every
// fragment PUT it answers.
type putStatuses struct {
	next http.Handler

	mu       sync.Mutex
	statuses []int
}

func (ps *putStatuses) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut {
		ps.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	ps.next.ServeHTTP(sw, r)
	ps.mu.Lock()
	ps.statuses = append(ps.statuses, sw.status)
	ps.mu.Unlock()
}

func (ps *putStatuses) get() []int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return slices.Clone(ps.statuses)
}

// TestDistCountOversizeSnapshotRefused gives one of three replicas a
// fragment cache smaller than a snapshot's CSR. It must refuse that one
// push as too large, never be offered the snapshot again, and never be
// charged a failure; every job's total must still be the local
// kernel's. A smaller snapshot that fits is still offered to it. With
// every replica refusing, the coordinator counts the whole job itself.
func TestDistCountOversizeSnapshotRefused(t *testing.T) {
	big := gen.ChungLu(300, 2.1, 10, 9)
	small := gen.GNP(40, 0.2, 2)
	bigCSR := len(triangle.NewForward(graph.WholeGraph(big)).Fragment().Encode())
	smallCSR := len(triangle.NewForward(graph.WholeGraph(small)).Fragment().Encode())
	if smallCSR >= bigCSR-1 {
		t.Fatalf("small CSR %d bytes does not fit under the big one's %d", smallCSR, bigCSR)
	}
	for _, refusing := range []int{1, 3} {
		puts := make([]*putStatuses, 3)
		var bases []string
		for i := range puts {
			cfg := Config{Workers: 2}
			if i < refusing {
				cfg.MaxFragmentBytes = int64(bigCSR - 1)
			}
			base, _ := startReplica(t, cfg, func(h http.Handler) http.Handler {
				puts[i] = &putStatuses{next: h}
				return puts[i]
			})
			bases = append(bases, base)
		}
		coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
		for _, g := range []*graph.Graph{big, small} {
			want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
			snap, err := coord.RegisterGraph("", g)
			if err != nil {
				t.Fatal(err)
			}
			for grid := 3; grid <= 6; grid++ {
				res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
				if err != nil {
					t.Fatalf("%d refusing, grid %d: %v", refusing, grid, err)
				}
				if res.Triangles != want {
					t.Fatalf("%d refusing, grid %d: counted %d, local kernel %d", refusing, grid, res.Triangles, want)
				}
				if g == small && res.DistPeers != len(bases) {
					t.Fatalf("%d refusing, grid %d: the small snapshot ran on %d peers, want %d",
						refusing, grid, res.DistPeers, len(bases))
				}
				if g == big && grid > 3 && (res.DistPeers != len(bases)-refusing || res.DistRetries != 0) {
					t.Fatalf("%d refusing, grid %d: the big snapshot ran on %d peers with %d retries, want %d peers and none",
						refusing, grid, res.DistPeers, res.DistRetries, len(bases)-refusing)
				}
			}
		}
		st := coord.Stats()
		for i, base := range bases {
			want := []int{http.StatusOK, http.StatusOK}
			if i < refusing {
				want = []int{http.StatusRequestEntityTooLarge, http.StatusOK}
			}
			if got := puts[i].get(); !slices.Equal(got, want) {
				t.Fatalf("%d refusing: replica %d answered PUTs %v, want %v", refusing, i, got, want)
			}
			if ps := st.DistPeers[base]; ps == nil || ps.Failures != 0 {
				t.Fatalf("%d refusing: replica %d stats %+v, want no failures", refusing, i, ps)
			}
		}
		coord.Close()
	}
}

// TestStoreFragmentResidentSkipsDecode pins that a re-push of a resident
// snapshot is answered from the residency lookup alone: a second PUT
// whose body would fail decoding answers stored == false, and the
// resident CSR still serves counts.
func TestStoreFragmentResidentSkipsDecode(t *testing.T) {
	g := gen.GNP(64, 0.3, 7)
	view := graph.WholeGraph(g)
	data := triangle.NewForward(view).Fragment().Encode()
	id := snapshotID(g.Fingerprint())
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	put := func(body []byte) (int, map[string]bool) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/dist/fragments/"+id, bytes.NewReader(body))
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("put: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]bool
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	if code, out := put(data); code != http.StatusOK || !out["stored"] {
		t.Fatalf("first push answered %d %v, want 200 stored", code, out)
	}
	corrupt := slices.Clone(data)
	corrupt[len(corrupt)/2] ^= 0x5a
	if _, err := triangle.DecodeFragment(corrupt); err == nil {
		t.Fatal("the corrupted body decodes")
	}
	if code, out := put(corrupt); code != http.StatusOK || out["stored"] {
		t.Fatalf("re-push of a resident snapshot answered %d %v, want 200 not stored", code, out)
	}
	if st := svc.Stats(); st.FragmentStores != 1 {
		t.Fatalf("%d stores, want 1", st.FragmentStores)
	}
	ranks := g.N()
	counts, _, err := svc.DistCountRanges(context.Background(), id, ranks, [][2]int32{{0, 20}, {20, int32(ranks)}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if want := triangle.CountParallel2D(view, 0); total != want {
		t.Fatalf("resident CSR counted %d, local kernel %d", total, want)
	}
	// A request on another rank space is refused, not counted out of
	// range.
	if _, _, err := svc.DistCountRanges(context.Background(), id, 80, [][2]int32{{0, 80}}); err == nil {
		t.Fatalf("an 80-rank request counted against a %d-rank CSR", ranks)
	}
}

// TestPutFragmentBodyLength pins how a pushed CSR's body is read: a
// declared length past what arrives allocates in proportion to the bytes
// read, not to the declaration; a body cut short of its declared length
// is refused and nothing is stored; and a body without a declared length
// is stored like one with it.
func TestPutFragmentBodyLength(t *testing.T) {
	g := gen.GNP(64, 0.3, 7)
	data := triangle.NewForward(graph.WholeGraph(g)).Fragment().Encode()
	id := snapshotID(g.Fingerprint())
	svc := New(Config{Workers: 1})
	t.Cleanup(svc.Close)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readBody(bytes.NewReader(data), 64<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a %d-byte body declared as 64 MiB read with %v, want %v", len(data), err, io.ErrUnexpectedEOF)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a %d-byte body declared as 64 MiB allocated %d bytes", len(data), grew)
	}
	h := svc.Handler()
	put := func(body io.Reader, declared int64) int {
		r := httptest.NewRequest(http.MethodPut, "/v1/dist/fragments/"+id, body)
		r.ContentLength = declared
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w.Code
	}
	if code := put(bytes.NewReader(data[:len(data)/2]), int64(len(data))); code != http.StatusBadRequest {
		t.Fatalf("a body cut short of its declared length answered %d, want 400", code)
	}
	if st := svc.Stats(); st.FragmentStores != 0 {
		t.Fatalf("%d stores after a cut-short body, want 0", st.FragmentStores)
	}
	if code := put(bytes.NewReader(data), -1); code != http.StatusOK {
		t.Fatalf("a body without a declared length answered %d, want 200", code)
	}
	if st := svc.Stats(); st.FragmentStores != 1 {
		t.Fatalf("%d stores, want 1", st.FragmentStores)
	}
}

// midBodyDrop wraps a replica so its first count reply is cut off: the
// status line and headers promise the whole body, half of it is
// written, and the connection is closed.
type midBodyDrop struct {
	next http.Handler

	mu      sync.Mutex
	counts  int
	pending int // drops since the last take
}

func (md *midBodyDrop) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/dist/count" {
		md.next.ServeHTTP(w, r)
		return
	}
	md.mu.Lock()
	md.counts++
	drop := md.counts == 1
	if drop {
		md.pending++
	}
	md.mu.Unlock()
	if !drop {
		md.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	md.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	conn, buf, err := w.(http.Hijacker).Hijack()
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	buf.Write(body[:len(body)/2])
	buf.Flush()
}

// take returns and clears the number of drops since the last call.
func (md *midBodyDrop) take() int {
	md.mu.Lock()
	defer md.mu.Unlock()
	n := md.pending
	md.pending = 0
	return n
}

// TestDistCountReplyCutMidBody has a replica close the connection
// partway through its first count reply. That job must still return
// the local kernel's total, with the peer's row ranges failed over and one
// failure charged to it; every later job too, with no further failure.
func TestDistCountReplyCutMidBody(t *testing.T) {
	g := gen.BarabasiAlbert(200, 5, 4)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	var drop *midBodyDrop
	bases, _ := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
		if i != 1 {
			return h
		}
		drop = &midBodyDrop{next: h}
		return drop
	})
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 2})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	for grid := 3; grid <= 6; grid++ {
		res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: grid})
		if err != nil {
			t.Fatalf("grid %d: %v", grid, err)
		}
		if res.Triangles != want {
			t.Fatalf("grid %d: counted %d, local kernel %d", grid, res.Triangles, want)
		}
		if dropped := drop.take(); (dropped > 0) != (res.DistRetries > 0) {
			t.Fatalf("grid %d: %d replies cut, %d row ranges retried", grid, dropped, res.DistRetries)
		}
	}
	if ps := coord.Stats().DistPeers[bases[1]]; ps == nil || ps.Failures != 1 {
		t.Fatalf("peer that cut a reply: stats %+v, want 1 failure", ps)
	}
}

// lateReply wraps a replica so every count request is answered only
// after delay, whether or not the coordinator is still waiting for it:
// the replica counts on regardless of the request's cancellation and
// X-Timeout-Ms.
type lateReply struct {
	next   http.Handler
	delay  time.Duration
	active atomic.Int64 // count requests not yet answered
}

func (lr *lateReply) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/dist/count" {
		lr.active.Add(1)
		defer lr.active.Add(-1)
		time.Sleep(lr.delay)
		r = r.WithContext(context.WithoutCancel(r.Context()))
		r.Header.Del(TimeoutHeader)
	}
	lr.next.ServeHTTP(w, r)
}

// TestDistCountReplyAfterDeadline has every replica answer 150 ms late.
// A job under a 40 ms deadline must fail with ErrDeadline, charge no
// peer a failure, and leave nothing behind: once the late replies have
// landed, a job with room for them returns the local kernel's total.
func TestDistCountReplyAfterDeadline(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 5)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	late := make([]*lateReply, 3)
	bases, _ := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
		late[i] = &lateReply{next: h, delay: 150 * time.Millisecond}
		return late[i]
	})
	coord := New(Config{Workers: 1, Peers: bases})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if res, err := coord.Query(ctx, "", snap.ID, DistCountParams{Grid: 5}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("grid-5 job under a 40 ms deadline: %+v, err = %v, want ErrDeadline", res, err)
	}
	for wait := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		active := int64(0)
		for _, lr := range late {
			active += lr.active.Load()
		}
		if active == 0 {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("%d late replies still pending", active)
		}
	}
	res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want || res.DistRetries != 0 {
		t.Fatalf("job after the late replies: counted %d with %d retries, local kernel %d",
			res.Triangles, res.DistRetries, want)
	}
	st := coord.Stats()
	for _, base := range bases {
		if ps := st.DistPeers[base]; ps != nil && ps.Failures != 0 {
			t.Fatalf("peer %s charged %d failures for replies after the deadline", base, ps.Failures)
		}
	}
}
