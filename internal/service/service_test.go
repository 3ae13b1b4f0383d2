package service

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/triangle"
)

func ringSpec(seed uint64) gen.Spec {
	return gen.Spec{
		Family: "ring",
		Params: map[string]float64{"blocks": 4, "size": 6},
		Seed:   seed,
	}
}

// bg is the no-deadline context every plain test query uses.
var bg = context.Background()

func TestRegisterDedupsByFingerprint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	a, err := s.RegisterSpec("", ringSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Refs != 1 {
		t.Fatalf("first registration refs = %d", a.Refs)
	}

	// Same spec again: same snapshot, bumped refcount.
	b, err := s.RegisterSpec("", ringSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID || b.Refs != 2 {
		t.Fatalf("re-registration: id %s refs %d, want %s refs 2", b.ID, b.Refs, a.ID)
	}

	// The same graph uploaded as an edge list dedups too: fingerprints
	// are insertion-order independent.
	g, err := ringSpec(7).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.RegisterGraph("", back)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != a.ID || c.Refs != 3 {
		t.Fatalf("upload dedup: id %s refs %d, want %s refs 3", c.ID, c.Refs, a.ID)
	}

	if len(s.Snapshots()) != 1 {
		t.Fatalf("registry holds %d snapshots, want 1", len(s.Snapshots()))
	}
}

func TestReleaseEvictsAtZeroRefs(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	snap, err := s.RegisterSpec("", ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("", ringSpec(1)); err != nil {
		t.Fatal(err)
	}

	// Populate the cache so eviction has something to clear.
	if _, err := s.Query(bg, "", snap.ID, CountParams{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}

	refs, err := s.Release("", snap.ID)
	if err != nil || refs != 1 {
		t.Fatalf("first release: refs %d err %v", refs, err)
	}
	refs, err = s.Release("", snap.ID)
	if err != nil || refs != 0 {
		t.Fatalf("second release: refs %d err %v", refs, err)
	}
	if _, err := s.Snapshot(snap.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot survived release to zero: %v", err)
	}
	st := s.Stats()
	if st.CacheEntries != 0 || st.SnapshotEvictions != 1 {
		t.Fatalf("after eviction: cache=%d evictions=%d", st.CacheEntries, st.SnapshotEvictions)
	}
	if _, err := s.Query(bg, "", snap.ID, CountParams{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query on evicted snapshot: %v", err)
	}
}

// TestReleaseIsPerTenant: a tenant cannot release a reference another
// tenant holds.
func TestReleaseIsPerTenant(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	snap, err := s.RegisterSpec("alice", ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Release("mallory", snap.ID); err == nil {
		t.Fatal("foreign release accepted")
	}
	if _, err := s.Release("", snap.ID); err == nil {
		t.Fatal("default-tenant release of alice's reference accepted")
	}
	refs, err := s.Release("alice", snap.ID)
	if err != nil || refs != 0 {
		t.Fatalf("owner release: refs %d err %v", refs, err)
	}
}

func TestRegistryCapacity(t *testing.T) {
	s := New(Config{Workers: 1, MaxSnapshots: 2})
	defer s.Close()

	// Distinct structures (gnp varies with the seed; ring does not).
	gnp := func(seed uint64) gen.Spec {
		return gen.Spec{Family: "gnp", Params: map[string]float64{"n": 16, "p": 0.3}, Seed: seed}
	}
	if _, err := s.RegisterSpec("", gnp(1)); err != nil {
		t.Fatal(err)
	}
	snap2, err := s.RegisterSpec("", gnp(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("", gnp(3)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("over-capacity registration: %v", err)
	}
	if _, err := s.Release("", snap2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterSpec("", gnp(3)); err != nil {
		t.Fatalf("registration after release: %v", err)
	}
}

func TestSpecSizeCap(t *testing.T) {
	s := New(Config{Workers: 1, MaxGenParam: 100})
	defer s.Close()
	_, err := s.RegisterSpec("", gen.Spec{Family: "gnp", Params: map[string]float64{"n": 5000}})
	if err == nil {
		t.Fatal("oversized spec accepted")
	}
}

// TestQueryChecksumsMatchLibrary pins the service's determinism contract:
// served checksums equal the direct library calls' digests.
func TestQueryChecksumsMatchLibrary(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	spec := ringSpec(5)
	snap, err := s.RegisterSpec("", spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := graph.WholeGraph(g)

	res, err := s.Query(bg, "", snap.ID, CountParams{})
	if err != nil {
		t.Fatal(err)
	}
	direct := triangle.BruteForce(view)
	if res.Triangles != direct.Len() || res.Checksum != checksumString(direct.Checksum()) {
		t.Fatalf("triangle-count: served %d/%s, library %d/%s",
			res.Triangles, res.Checksum, direct.Len(), checksumString(direct.Checksum()))
	}

	enum, err := s.Query(bg, "", snap.ID, EnumerateParams{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := triangle.Enumerate(view, triangle.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if enum.Checksum != checksumString(set.Checksum()) || enum.Triangles != set.Len() {
		t.Fatalf("enumerate: served %s, library %s", enum.Checksum, checksumString(set.Checksum()))
	}
	if enum.Truncated || len(enum.List) != set.Len() {
		t.Fatalf("enumerate list: %d triangles, truncated=%v", len(enum.List), enum.Truncated)
	}

	dec, err := s.Query(bg, "", snap.ID, DecomposeParams{Eps: 0.6, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := decomposeChecksum(view, DecomposeParams{Eps: 0.6, K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Checksum != want {
		t.Fatalf("decompose: served %s, library %s", dec.Checksum, want)
	}
	if dec.Components < 1 || dec.Params != "backend=cs19 eps=0.6 k=2 max_eps=0 seed=5" {
		t.Fatalf("decompose result: %+v", dec)
	}
}

// TestCanonStrings pins the cache-key canon formats: these strings are
// the params component of every cache key, so changing a format silently
// invalidates the cache AND breaks cross-version checksum diffs. Each
// case spells out the defaults-applied rendering, including the
// defaults-omitted spellings mapping onto the same key.
func TestCanonStrings(t *testing.T) {
	cases := []struct {
		p    Params
		want string
	}{
		{DecomposeParams{}, "backend=cs19 eps=0.4 k=2 max_eps=0 seed=1"},
		{DecomposeParams{Eps: 0.4, K: 2, Seed: 1, Backend: "cs19"}, "backend=cs19 eps=0.4 k=2 max_eps=0 seed=1"},
		{DecomposeParams{Eps: 0.6, K: 3, Seed: 5}, "backend=cs19 eps=0.6 k=3 max_eps=0 seed=5"},
		{DecomposeParams{Backend: "det", MaxEpsFraction: 0.5}, "backend=det eps=0.4 k=2 max_eps=0.5 seed=1"},
		{DecomposeParams{Backend: "auto"}, "backend=auto eps=0.4 k=2 max_eps=0 seed=1"},
		{DecomposeParams{Backend: "par-cmps"}, "backend=par-cmps eps=0.4 k=2 max_eps=0 seed=1"},
		{CountParams{}, "kernel=auto"},
		{CountParams{Kernel: "auto"}, "kernel=auto"},
		{CountParams{Kernel: "2d"}, "kernel=2d"},
		{EnumerateParams{}, "seed=1 limit=1000"},
		{EnumerateParams{Seed: 1, Limit: 1000}, "seed=1 limit=1000"},
		{EnumerateParams{Seed: 9, Limit: 3}, "seed=9 limit=3"},
	}
	for _, c := range cases {
		if got := c.p.normalize().canon(); got != c.want {
			t.Errorf("%T%+v canon = %q, want %q", c.p, c.p, got, c.want)
		}
	}
}

// TestTriangleCountKernels pins the kernel query parameter: rank and
// auto must serve the identical full-set checksum (distinct cache keys,
// same bytes — the serving layer's replay of the kernels' bit-identity
// contract), 2d must report the same count under its count-only digest, and an
// unknown kernel is a caller error.
func TestTriangleCountKernels(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	snap, err := s.RegisterSpec("", gen.Spec{
		Family: "barabasi-albert",
		Params: map[string]float64{"n": 96, "m0": 5},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := s.Query(bg, "", snap.ID, CountParams{})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Params != "kernel=auto" {
		t.Fatalf("default params = %q, want kernel=auto", auto.Params)
	}
	for _, kernel := range []string{"rank", "auto"} {
		res, err := s.Query(bg, "", snap.ID, CountParams{Kernel: kernel})
		if err != nil {
			t.Fatalf("kernel %s: %v", kernel, err)
		}
		if res.Checksum != auto.Checksum || res.Triangles != auto.Triangles {
			t.Fatalf("kernel %s: served %d/%s, auto %d/%s",
				kernel, res.Triangles, res.Checksum, auto.Triangles, auto.Checksum)
		}
	}
	twod, err := s.Query(bg, "", snap.ID, CountParams{Kernel: "2d"})
	if err != nil {
		t.Fatal(err)
	}
	if twod.Triangles != auto.Triangles {
		t.Fatalf("2d counted %d, auto %d", twod.Triangles, auto.Triangles)
	}
	if twod.Checksum != checksumString(triangle.HashWords(uint64(twod.Triangles))) {
		t.Fatalf("2d checksum %s does not digest the count", twod.Checksum)
	}
	for _, unknown := range []string{"quantum", "merge"} {
		if _, err := s.Query(bg, "", snap.ID, CountParams{Kernel: unknown}); err == nil {
			t.Fatalf("unknown kernel %q accepted", unknown)
		}
	}
}

// decomposeChecksum reproduces the service's decompose digest with a
// direct library run of p's fixed backend (cs19 when unset), by the same
// formula as the bench matrix cells, and returns the run's decomposition
// beside it.
func decomposeChecksum(view *graph.Sub, p DecomposeParams) (string, *core.Decomposition, error) {
	p = p.normalize().(DecomposeParams)
	b, err := core.LookupBackend(p.Backend)
	if err != nil {
		return "", nil, err
	}
	dec, _, err := b.Decompose(view, core.Options{Eps: p.Eps, K: p.K, Preset: nibble.Practical, Seed: p.Seed})
	if err != nil {
		return "", nil, err
	}
	words := make([]uint64, 0, len(dec.Labels)+2)
	words = append(words, uint64(dec.Count), uint64(dec.CutEdges))
	for _, l := range dec.Labels {
		words = append(words, uint64(int64(l)))
	}
	return checksumString(triangle.HashWords(words...)), dec, nil
}

func TestEnumerateLimitTruncates(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	snap, err := s.RegisterSpec("", ringSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(bg, "", snap.ID, EnumerateParams{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.List) != 3 {
		t.Fatalf("limit 3: got %d triangles, truncated=%v", len(res.List), res.Truncated)
	}
	if res.Triangles <= 3 {
		t.Fatalf("full count lost under truncation: %d", res.Triangles)
	}
}

// TestNegativeParamsAndConfigClamped: hostile or typo'd inputs must not
// panic a pool worker (negative enumerate limit) or the daemon at
// startup (negative queue/registry sizes).
func TestNegativeParamsAndConfigClamped(t *testing.T) {
	s := New(Config{Workers: 1, Queue: -1, MaxSnapshots: -1, MaxGenParam: -1, MaxResults: -1})
	defer s.Close()
	if st := s.Stats(); st.QueueCap <= 0 || st.MaxResults <= 0 {
		t.Fatalf("negative config not clamped: %+v", st)
	}
	snap, err := s.RegisterSpec("", ringSpec(1))
	if err != nil {
		t.Fatalf("register under clamped config: %v", err)
	}
	res, err := s.Query(bg, "", snap.ID, EnumerateParams{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	// -1 clamps to the default limit, same cache line as the default.
	if res.Params != "seed=1 limit=1000" {
		t.Fatalf("negative limit canon: %q", res.Params)
	}
}

func TestQueryNilParams(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	snap, err := s.RegisterSpec("", ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(bg, "", snap.ID, nil); err == nil {
		t.Fatal("nil params accepted")
	}
}

func TestClosedServiceRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	snap, err := s.RegisterSpec("", ringSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Query(bg, "", snap.ID, CountParams{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if _, err := s.RegisterSpec("", ringSpec(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
}

// TestLocalCountsKeepNoCSR: on a service without count-dist peers,
// kernel=2d, kernel=rank and count-dist queries each build a forward
// CSR for their one computation and keep none, so the snapshot holds no
// CSR afterwards: the result cache answers every repeat of their keys.
// Only count-dist with peers caches the CSR, for jobs at other grids.
func TestLocalCountsKeepNoCSR(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	snap, err := s.RegisterSpec("", ringSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for _, p := range []Params{CountParams{Kernel: "2d"}, CountParams{Kernel: "rank"}, DistCountParams{}, DistCountParams{Grid: 3}} {
		res, err := s.Query(bg, "", snap.ID, p)
		if err != nil {
			t.Fatalf("%s %s: %v", p.Algorithm(), p.canon(), err)
		}
		if want < 0 {
			want = res.Triangles
		}
		if res.Triangles != want || want == 0 {
			t.Fatalf("%s %s: %d triangles, want %d (> 0)", p.Algorithm(), p.canon(), res.Triangles, want)
		}
	}
	snap.dist.mu.Lock()
	fw := snap.dist.fw
	snap.dist.mu.Unlock()
	if fw != nil {
		t.Fatal("a peer-less service kept the snapshot's forward CSR after its local counts")
	}
}
