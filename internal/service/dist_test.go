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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/triangle"
)

// fragPutCounter wraps a replica handler and counts fragment PUTs by
// full key path — the direct witness that the coordinator transfers each
// (fingerprint, tiling, rank-range) to each replica at most once per
// job.
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
// and no replica receives any fragment key twice.
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
					t.Fatalf("%s seed %d replicas %d: schedule reported no triples", fam.name, seed, replicas)
				}
				servedTriples := uint64(0)
				for ri, svc := range svcs {
					st := svc.Stats()
					servedTriples += st.DistTriples
					if m := counters[ri].maxPuts(); m > 1 {
						t.Fatalf("%s seed %d replicas %d: replica %d received a fragment key %d times",
							fam.name, seed, replicas, ri, m)
					}
					if st.FragmentStores != uint64(len(counters[ri].puts)) {
						t.Fatalf("%s seed %d replicas %d: replica %d stored %d fragments for %d distinct PUTs",
							fam.name, seed, replicas, ri, st.FragmentStores, len(counters[ri].puts))
					}
				}
				if replicas > 0 && servedTriples != uint64(res.DistTriples) {
					t.Fatalf("%s seed %d replicas %d: replicas served %d triples, schedule had %d",
						fam.name, seed, replicas, servedTriples, res.DistTriples)
				}
				coord.Close()
			}
		}
	}
}

// TestDistCountGridSweep pins p-independence through the service: every
// forced grid dimension yields the same count and checksum.
func TestDistCountGridSweep(t *testing.T) {
	g := gen.ChungLu(96, 2.2, 8, 3)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)
	bases, _, _ := startReplicas(t, 2)
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
// its first served count request: with a window of 2 its share is two
// batches, so the second one's triples must fail over to the survivors
// (or the coordinator itself) and the total must stay bit-identical to
// the local kernel.
func TestDistCountSurvivesReplicaFailure(t *testing.T) {
	g := gen.BarabasiAlbert(160, 6, 9)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)

	bases, _ := startWrappedReplicas(t, 3, func(i int, h http.Handler) http.Handler {
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
	// Force a grid with plenty of triples so the failing replica's share
	// fills both of its batches.
	res, err := coord.Query(context.Background(), "", snap.ID, DistCountParams{Grid: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("with a failing replica: counted %d, local kernel %d", res.Triangles, want)
	}
	if res.DistRetries == 0 {
		t.Fatal("failing replica produced no retries — the failure never happened")
	}
}

// TestFragmentCacheEviction pins the replica cache's byte bound: storing
// past MaxFragmentBytes evicts the least-recently-used fragment, and a
// subsequent count on the evicted key reports ErrFragmentMissing rather
// than a wrong answer.
func TestFragmentCacheEviction(t *testing.T) {
	g := gen.GNP(64, 0.3, 7)
	view := graph.WholeGraph(g)
	plan := triangle.NewDistPlan(view, 3)
	enc := make([][]byte, plan.Tiling.P)
	for b := range enc {
		enc[b] = plan.Fragment(b).Encode()
	}
	// Budget for roughly one fragment at a time (blocks differ in size;
	// bound by the largest so every single store fits but no pair does).
	maxEnc := 0
	for _, data := range enc {
		if len(data) > maxEnc {
			maxEnc = len(data)
		}
	}
	svc := New(Config{Workers: 1, MaxFragmentBytes: int64(maxEnc + 8)})
	defer svc.Close()
	id := snapshotID(g.Fingerprint())
	put := func(b int) bool {
		lo, hi := plan.Tiling.Block(b)
		stored, err := svc.StoreFragment(id, plan.Tiling.P, lo, hi, enc[b])
		if err != nil {
			t.Fatalf("store block %d: %v", b, err)
		}
		return stored
	}
	if !put(0) {
		t.Fatal("first store reported not stored")
	}
	if put(0) {
		t.Fatal("idempotent re-store reported stored")
	}
	put(1) // must evict block 0
	st := svc.Stats()
	if st.FragmentEvictions == 0 {
		t.Fatalf("stores past the byte bound evicted nothing (resident %d bytes)", st.FragmentBytes)
	}
	if _, _, err := svc.DistCountTriples(context.Background(), id, plan.Tiling, []triangle.BlockTriple{{I: 0, J: 0, K: 0}}); err == nil {
		t.Fatal("count on the evicted fragment succeeded")
	}
}

// TestHostileFragmentRankSpaceRejected replays a 42-byte fragment whose
// header claims a 2^31-1 rank universe, then a count request on a tiling
// of that universe. Sizing the replica's stamp scratch by the claim
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
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/dist/fragments/x/2/0/0", bytes.NewReader(frag))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("put fragment: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile fragment PUT answered %d, want 400", resp.StatusCode)
	}
	body := `{"snapshot": "x", "tiling": {"p": 2, "ranks": 2147483647, "cuts": [0, 0, 2147483647]}, "triples": [{"i": 0, "j": 0, "k": 0}]}`
	resp, err = srv.Client().Post(srv.URL+"/v1/dist/count", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("dist count: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile tiling count answered %d, want 400", resp.StatusCode)
	}

	// The same input straight through the Service methods, as the
	// in-process reproduction drove it.
	if _, err := svc.StoreFragment("x", 2, 0, 0, frag); err == nil {
		t.Fatal("StoreFragment accepted a 2^31-1 rank universe")
	}
	tl := triangle.Tiling{P: 2, Ranks: 1<<31 - 1, Cuts: []int32{0, 0, 1<<31 - 1}}
	if _, _, err := svc.DistCountTriples(context.Background(), "x", tl, []triangle.BlockTriple{{}}); err == nil {
		t.Fatal("DistCountTriples accepted a 2^31-1 rank universe")
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after hostile input: %v", err)
	}
	resp.Body.Close()
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
// requests, however many triples its grid has, and every triple is
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
					t.Fatalf("window %d grid %d: peer %d got %d count requests for %d triples",
						window, grid, i, sent, res.DistTriples)
				}
			}
		}
		served := uint64(0)
		for _, svc := range svcs {
			served += svc.Stats().DistTriples
		}
		if want := uint64(3*4*5/6 + 8*9*10/6 + 12*13*14/6); served != want {
			t.Fatalf("window %d: replicas counted %d triples, the three grids have %d", window, served, want)
		}
		coord.Close()
	}
}

// TestDistCountGrid64OneRequest sends the largest job the service
// accepts — grid 64, C(66, 3) = 45,760 triples — to one peer with a
// window of 1, so all of it travels in one count request. The replica
// must serve it rather than refuse it for its body size.
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
	if res.Triangles != want || res.DistRetries != 0 || res.DistTriples != 45760 {
		t.Fatalf("grid 64: counted %d over %d triples with %d retries, local kernel %d",
			res.Triangles, res.DistTriples, res.DistRetries, want)
	}
	if n := cr.n.Load(); n != 1 {
		t.Fatalf("grid 64 on one peer with window 1 sent %d count requests, want 1", n)
	}
	if st := svcs[0].Stats(); st.DistTriples != 45760 {
		t.Fatalf("replica counted %d triples, want 45760", st.DistTriples)
	}
}

// slowCount wraps a replica so each count request waits perTriple for
// every triple it carries before it is served, or until the request is
// canceled.
type slowCount struct {
	next      http.Handler
	perTriple time.Duration
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
		case <-time.After(time.Duration(len(req.Triples)) * sc.perTriple):
		case <-r.Context().Done():
			return
		}
	}
	sc.next.ServeHTTP(w, r)
}

// TestDistCountDeadlineIsNotPeerFailure runs a grid-8 job under a 60 ms
// deadline over three replicas that each take 20 ms per triple. The
// caller must get a deadline error, and no peer may be charged a
// failure: the requests died of the caller's deadline, not of the
// replicas.
func TestDistCountDeadlineIsNotPeerFailure(t *testing.T) {
	g := gen.ChungLu(300, 2.1, 10, 5)
	bases, _ := startWrappedReplicas(t, 3, func(_ int, h http.Handler) http.Handler {
		return &slowCount{next: h, perTriple: 20 * time.Millisecond}
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
// answer moves the peer's triples elsewhere, which DistRetries must
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
				t.Fatalf("grid %d: faults %v cut the peer off, yet no triple was retried", grid, faults)
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
