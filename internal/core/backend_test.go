package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
)

// backendFamilies is the gen-family matrix the backend property tests
// sweep: planted sparse cuts, certified expanders, flat geometry, random
// graphs, heavy tails, and a dense clique — the regimes the pipeline
// behaves qualitatively differently on. Short mode (the -race CI job)
// keeps a four-family core so the package stays well inside the test
// binary's timeout; the full sweep runs in every normal `go test`.
func backendFamilies(seed uint64) map[string]*graph.Graph {
	fams := map[string]*graph.Graph{
		"dumbbell": gen.Dumbbell(16, 2, seed),
		"grid":     gen.Grid(8, 8),
		"gnp":      gen.GNP(64, 0.12, seed),
		"complete": gen.Complete(16),
	}
	if !testing.Short() {
		fams["ring-of-cliques"] = gen.RingOfCliques(4, 8, seed)
		fams["expander-of-cliques"] = gen.ExpanderOfCliques(4, 6, 3, seed)
		fams["barabasi-albert"] = gen.BarabasiAlbert(96, 4, seed)
	}
	return fams
}

func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{"cs19", "det", "par-cmps"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	view := graph.WholeGraph(gen.Complete(8))
	opt := Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: 1}
	for _, name := range names {
		if _, err := LookupBackend(name); err != nil {
			t.Fatal(err)
		}
		if _, served, err := RunBackend(context.Background(), view, opt, name, 0); err != nil || served != name {
			t.Fatalf("RunBackend(%s) served %q, error %v", name, served, err)
		}
	}
	if _, err := LookupBackend("nope"); err == nil {
		t.Fatal("LookupBackend(nope) succeeded")
	}
	if _, _, err := RunBackend(context.Background(), view, opt, "nope", 0); err == nil {
		t.Fatal("RunBackend(nope) succeeded")
	}
}

func TestOptionsValidationTyped(t *testing.T) {
	g := gen.Complete(8)
	view := graph.WholeGraph(g)
	cases := []struct {
		name string
		opt  Options
		want error
	}{
		{"eps zero", Options{Eps: 0, K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"eps one", Options{Eps: 1, K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"eps negative", Options{Eps: -0.1, K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"eps NaN", Options{Eps: math.NaN(), K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"eps +Inf", Options{Eps: math.Inf(1), K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"eps -Inf", Options{Eps: math.Inf(-1), K: 2, Preset: nibble.Practical}, ErrBadEps},
		{"k zero", Options{Eps: 0.4, K: 0, Preset: nibble.Practical}, ErrBadK},
		{"k negative", Options{Eps: 0.4, K: -3, Preset: nibble.Practical}, ErrBadK},
		{"k above MaxK", Options{Eps: 0.4, K: 65, Preset: nibble.Practical}, ErrBadK},
		{"k MaxInt", Options{Eps: 0.4, K: math.MaxInt, Preset: nibble.Practical}, ErrBadK},
		{"preset unset", Options{Eps: 0.4, K: 2}, ErrBadPreset},
	}
	for _, tc := range cases {
		if _, err := Decompose(view, tc.opt, SeqSubroutines{Preset: nibble.Practical}); !errors.Is(err, tc.want) {
			t.Errorf("%s: Decompose error %v, want %v", tc.name, err, tc.want)
		}
		// Every backend rejects the same way, before any work, auto
		// included.
		for _, name := range append(BackendNames(), "auto") {
			if _, _, err := RunBackend(context.Background(), view, tc.opt, name, 0); !errors.Is(err, tc.want) {
				t.Errorf("%s: backend %s error %v, want %v", tc.name, name, err, tc.want)
			}
		}
	}
	opt := Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: 1}
	for _, bound := range []float64{-0.1, 1, math.NaN()} {
		if _, _, err := RunBackend(context.Background(), view, opt, "cs19", bound); !errors.Is(err, ErrBadEps) {
			t.Errorf("bound %v: error %v, want ErrBadEps", bound, err)
		}
	}
	// A valid request under a canceled context is refused with the
	// context's error by every backend, auto included.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range append(BackendNames(), "auto") {
		if _, _, err := RunBackend(canceled, view, opt, name, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("pre-canceled: backend %s error %v, want context.Canceled", name, err)
		}
	}
}

// backendDigest folds the complete structural output — labels, counts,
// removal split, and the full final mask — into one word, so two runs
// compare bit-for-bit, not just checksum-of-labels.
func backendDigest(dec *Decomposition) uint64 {
	words := make([]uint64, 0, len(dec.Labels)+len(dec.FinalMask)+8)
	words = append(words, uint64(dec.Count), uint64(dec.CutEdges), uint64(dec.Singletons),
		uint64(dec.Removed1), uint64(dec.Removed2), uint64(dec.Removed3))
	for _, l := range dec.Labels {
		words = append(words, uint64(int64(l)))
	}
	for _, alive := range dec.FinalMask {
		var w uint64
		if alive {
			w = 1
		}
		words = append(words, w)
	}
	// FNV-1a over the words (triangle.HashWords would import a cycle here).
	h := uint64(14695981039346656037)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestBackendQualityContract runs every backend over the family matrix
// and asserts the shared contract: a structurally valid partition whose
// independently recomputed inter-cluster edge fraction meets the
// requested eps bound, and which a live cancelable context reproduces
// bit for bit (checked on the first seed).
func TestBackendQualityContract(t *testing.T) {
	const eps = 0.4
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, seed := range seeds {
		for fam, g := range backendFamilies(seed) {
			view := graph.WholeGraph(g)
			for _, name := range BackendNames() {
				b, _ := LookupBackend(name)
				opt := Options{Eps: eps, K: 2, Preset: nibble.Practical, Seed: seed}
				dec, _, err := b.Decompose(view, opt)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", fam, name, seed, err)
				}
				if seed == seeds[0] {
					withCtx, _, err := RunBackend(live, view, opt, name, eps)
					if err != nil {
						t.Fatalf("%s/%s under a live context: %v", fam, name, err)
					}
					if backendDigest(withCtx) != backendDigest(dec) {
						t.Fatalf("%s/%s: live context changed the output", fam, name)
					}
				}
				if err := dec.CheckPartition(view); err != nil {
					t.Fatalf("%s/%s seed %d: invalid partition: %v", fam, name, seed, err)
				}
				q := dec.Evaluate(view)
				if f := dec.InterFraction(view); f != q.InterFraction {
					t.Fatalf("%s/%s seed %d: InterFraction %v, Evaluate %v", fam, name, seed, f, q.InterFraction)
				}
				if q.InterFraction > eps {
					t.Fatalf("%s/%s seed %d: inter-fraction %v above eps %v",
						fam, name, seed, q.InterFraction, eps)
				}
				if math.Abs(q.InterFraction-dec.EpsAchieved) > 1e-12 {
					t.Fatalf("%s/%s seed %d: mask recount %v disagrees with accounting %v",
						fam, name, seed, q.InterFraction, dec.EpsAchieved)
				}
			}
		}
	}
}

// TestDetBackendBitIdentical is the determinism property test: for every
// family, the det backend's complete output digest is identical across
// seeds, worker counts, and GOMAXPROCS settings — each run built from a
// fresh graph and view, so nothing is shared but the code. Two of these
// runs are exactly what two independent processes would compute.
func TestDetBackendBitIdentical(t *testing.T) {
	det, _ := LookupBackend("det")
	// A baseline run plus variants each moving one axis the output must
	// not depend on — seed, worker count, GOMAXPROCS. Varying one axis at
	// a time covers the same independence claims as the full cross
	// product at a fraction of the runtime.
	runs := []struct {
		seed    uint64
		workers int
		gomax   int
	}{
		{1, 1, runtime.GOMAXPROCS(0)},  // baseline
		{99, 1, runtime.GOMAXPROCS(0)}, // seed must not matter
		{1, 0, runtime.GOMAXPROCS(0)},  // worker count must not matter
		{1, 3, 1},                      // nor GOMAXPROCS (with odd workers)
	}
	if testing.Short() {
		runs = runs[:3]
	}
	for fam := range backendFamilies(1) {
		var want uint64
		for i, run := range runs {
			old := runtime.GOMAXPROCS(run.gomax)
			// Fresh graph and view per run: the generator is deterministic
			// in its own seed, and nothing carries over between runs.
			g := backendFamilies(7)[fam]
			dec, _, err := det.Decompose(graph.WholeGraph(g), Options{
				Eps: 0.4, K: 2, Preset: nibble.Practical,
				Seed: run.seed, Workers: run.workers,
			})
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s: %v", fam, err)
			}
			digest := backendDigest(dec)
			if i == 0 {
				want = digest
			} else if digest != want {
				t.Fatalf("%s: det output drifted at seed=%d workers=%d GOMAXPROCS=%d: %016x != %016x",
					fam, run.seed, run.workers, run.gomax, digest, want)
			}
		}
	}
}

func TestDecomposeAuto(t *testing.T) {
	g := gen.Dumbbell(16, 2, 1)
	view := graph.WholeGraph(g)
	opt := Options{Eps: 0.4, K: 2, Preset: nibble.Practical, Seed: 1}

	dec, _, name, err := DecomposeAuto(view, opt, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if _, lookErr := LookupBackend(name); lookErr != nil {
		t.Fatalf("auto selected unregistered backend %q", name)
	}
	if q := dec.Evaluate(view); q.InterFraction > 0.4 {
		t.Fatalf("auto-selected %s violates bound: %v", name, q.InterFraction)
	}

	// A connected expander needs no cuts, so the head of the probe list
	// serves.
	exp := graph.WholeGraph(gen.Complete(16))
	_, _, cheap, err := DecomposeAuto(exp, opt, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if want := backends[0].name; cheap != want {
		t.Fatalf("auto on an expander selected %s, want cheapest %s", cheap, want)
	}

	// A bound below eps that par-cmps misses (inter-fraction 0.0905)
	// falls through to cs19 (0.0101), not to the slower det, which meets
	// it too.
	path200 := graph.WholeGraph(gen.Path(200))
	dec, _, name, err = DecomposeAuto(path200, Options{Eps: 0.9, K: 2, Preset: nibble.Practical, Seed: 1}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if f := dec.InterFraction(path200); name != "cs19" || f > 0.05 {
		t.Fatalf("auto on path-200 at bound 0.05 served %s at inter-fraction %v, want cs19 within the bound", name, f)
	}

	// An unreachable bound must fail with every attempt reported, not
	// silently return the best effort. A 400-vertex path forces every
	// backend to cut at least one edge (its diameter is far beyond each
	// backend's cluster-diameter bound), so no backend can reach 1e-9.
	// This runs all three backends on a big graph, so it stays out of
	// the -race short job.
	if !testing.Short() {
		path := graph.WholeGraph(gen.Grid(1, 400))
		if _, _, _, err := DecomposeAuto(path, opt, 1e-9); err == nil {
			t.Fatal("auto met an impossible bound")
		}
	}
	// Out-of-range bounds are a caller error.
	if _, _, _, err := DecomposeAuto(view, opt, 0); !errors.Is(err, ErrBadEps) {
		t.Fatalf("auto bound 0 error %v, want ErrBadEps", err)
	}
}

// TestBackendOutputsPinned pins each backend's complete output — the
// backendDigest of labels, removal split and final mask, plus the
// recursion depth and Phase 2 loop count — at Workers 1, 3 and 0 against
// constants measured before the stage fan-out was shared. ε = 0.9
// makes every case split into several parts, so the stages run more than
// one task: the path recurses three Phase 1 levels (cs19, det) or seven
// clustering rounds into 19 parts (par-cmps), and the satellite graph
// sends its core to Phase 2, which peels both satellite cliques into 38
// singletons.
func TestBackendOutputsPinned(t *testing.T) {
	cases := []struct {
		backend     string
		name        string
		g           *graph.Graph
		digest      uint64
		depth, iter int
	}{
		{"cs19", "path-200", gen.Path(200), 0x164f1286aa3bec26, 3, 0},
		{"par-cmps", "path-200", gen.Path(200), 0x1e04366db32c24df, 7, 0},
		{"det", "path-200", gen.Path(200), 0x8aa993dfb429b304, 3, 0},
		{"cs19", "satellite-cliques", gen.SatelliteCliques(70, 19, 2, 1), 0xbf37e1b419bbc976, 1, 3},
	}
	if testing.Short() {
		// det's three runs take about 50 s under -race, where
		// TestDetBackendBitIdentical already crosses worker counts.
		cases = cases[:2]
	}
	for _, c := range cases {
		b, _ := LookupBackend(c.backend)
		for _, workers := range []int{1, 3, 0} {
			opt := Options{Eps: 0.9, K: 2, Preset: nibble.Practical, Seed: 1, Workers: workers}
			dec, _, err := b.Decompose(graph.WholeGraph(c.g), opt)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", c.backend, c.name, workers, err)
			}
			if d := backendDigest(dec); d != c.digest || dec.Phase1Depth != c.depth || dec.Phase2MaxIterations != c.iter {
				t.Errorf("%s/%s workers=%d: digest %#016x depth %d phase 2 iterations %d, want %#016x %d %d",
					c.backend, c.name, workers, d, dec.Phase1Depth, dec.Phase2MaxIterations, c.digest, c.depth, c.iter)
			}
		}
	}
}
