package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
	for i := 0; i < n; i++ {
		svc := New(Config{Workers: 2})
		fc := &fragPutCounter{next: svc.Handler(), puts: make(map[string]int)}
		srv := httptest.NewServer(fc)
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
		svcs = append(svcs, svc)
		counters = append(counters, fc)
	}
	return bases, svcs, counters
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
// its first served triple: its remaining triples must fail over to the
// survivors (or the coordinator itself) and the total must stay
// bit-identical to the local kernel.
func TestDistCountSurvivesReplicaFailure(t *testing.T) {
	g := gen.BarabasiAlbert(160, 6, 9)
	want := triangle.CountParallel2D(graph.WholeGraph(g), 0)

	var bases []string
	for i := 0; i < 3; i++ {
		svc := New(Config{Workers: 2})
		var h http.Handler = svc.Handler()
		if i == 1 {
			h = &failAfter{next: h, healthy: 1}
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
		bases = append(bases, srv.URL)
	}
	coord := New(Config{Workers: 2, Peers: bases, DistWindow: 1})
	defer coord.Close()
	snap, err := coord.RegisterGraph("", g)
	if err != nil {
		t.Fatal(err)
	}
	// Force a grid with plenty of triples so the failing replica is
	// guaranteed work after its first served count.
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
	if _, err := svc.DistCountTriple(id, plan.Tiling, triangle.BlockTriple{I: 0, J: 0, K: 0}); err == nil {
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
	body := `{"snapshot": "x", "tiling": {"p": 2, "ranks": 2147483647, "cuts": [0, 0, 2147483647]}, "triple": {"i": 0, "j": 0, "k": 0}}`
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
	if _, err := svc.DistCountTriple("x", tl, triangle.BlockTriple{}); err == nil {
		t.Fatal("DistCountTriple accepted a 2^31-1 rank universe")
	}
	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after hostile input: %v", err)
	}
	resp.Body.Close()
}
