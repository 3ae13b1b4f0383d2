package triangle

import (
	"fmt"
	"runtime"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
)

// TestComponentSeedIDWidePacking pins the packing helper: the old
// level<<20|ci packing collided as soon as a level had 2^20 components
// (pack(0, 2^20) == pack(1, 0)); the widened layout keeps every
// (level, ci) pair distinct and the component streams disjoint from the
// per-level decomposition streams.
func TestComponentSeedIDWidePacking(t *testing.T) {
	if componentSeedID(0, 1<<20) == componentSeedID(1, 0) {
		t.Fatal("regression: component 2^20 of level 0 collides with component 0 of level 1")
	}
	levels := []int{0, 1, 2, 63, 1 << 20, 1<<31 - 1}
	cis := []int{0, 1, 2, 1<<20 - 1, 1 << 20, 1 << 30, 1<<32 - 1}
	seen := make(map[uint64][2]int)
	for _, l := range levels {
		for _, c := range cis {
			id := componentSeedID(l, c)
			if prev, dup := seen[id]; dup {
				t.Fatalf("componentSeedID(%d,%d) == componentSeedID(%d,%d)", l, c, prev[0], prev[1])
			}
			seen[id] = [2]int{l, c}
			// Decomposition streams fork on the bare level; component
			// streams must never land there.
			if id == uint64(l) || id == uint64(c) {
				t.Fatalf("componentSeedID(%d,%d) = %d collides with a bare level stream", l, c, id)
			}
		}
	}
}

// TestCombineComponentsSumsTraffic is the headline regression test for
// the per-level stat combination: Rounds and CongestRounds max
// independently while Messages sum. The old combiner copied the whole
// Stats of the max-Rounds component, so with components of unequal
// traffic it reported 1000 messages instead of 1650 (and the heaviest
// channel inflation was lost whenever it belonged to a shorter run).
func TestCombineComponentsSumsTraffic(t *testing.T) {
	longRun := congest.Stats{Rounds: 40, CongestRounds: 40, Messages: 1000, Words: 4000}
	congested := congest.Stats{Rounds: 25, CongestRounds: 90, Messages: 600, Words: 2400}
	small := congest.Stats{Rounds: 10, CongestRounds: 10, Messages: 50, Words: 200}
	got := combineComponents([]congest.Stats{longRun, congested, small})
	want := congest.Stats{Rounds: 40, CongestRounds: 90, Messages: 1650, Words: 6600}
	if got != want {
		t.Fatalf("combineComponents: got %+v, want %+v", got, want)
	}
	if got := combineComponents(nil); got != (congest.Stats{}) {
		t.Fatalf("empty combination: got %+v, want zero", got)
	}
}

// TestEnumerateSumsComponentMessages drives the combination fix end to
// end: a disjoint union of two cliques of very different sizes is one
// recursion level with exactly two components of known unequal traffic,
// and Enumerate's totals must be the sum of the components' messages and
// the independent maxima of their round counts (decomposition stats are
// zero under the sequential subroutines).
func TestEnumerateSumsComponentMessages(t *testing.T) {
	b := graph.NewBuilder(19)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	for i := 5; i < 19; i++ {
		for j := i + 1; j < 19; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Graph()
	view := graph.WholeGraph(g)
	set, st, err := Enumerate(view, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := BruteForce(view); !set.Equal(want) {
		t.Fatalf("enumerate found %d triangles, brute force %d", set.Len(), want.Len())
	}
	if st.Recursions != 1 || st.Components != 2 {
		t.Fatalf("expected one level with two components, got %d levels, %d components", st.Recursions, st.Components)
	}

	// Replay the two components with the seeds Enumerate used.
	opt := Options{Seed: 3}.withDefaults()
	mask := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		mask[e] = view.Usable(e) && !g.IsLoop(e)
	}
	root := rng.New(opt.Seed)
	cur := graph.NewSub(g, view.Members(), mask)
	dec, err := core.Decompose(cur, core.Options{
		Eps: opt.Eps, K: opt.K, Preset: opt.Preset,
		Seed: root.Fork(0).Uint64(),
	}, opt.Subs)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CutEdges != 0 {
		t.Fatalf("decomposition cut %d edges of the disjoint cliques", dec.CutEdges)
	}
	final := graph.NewSub(g, view.Members(), dec.FinalMask)
	comps := final.ComponentSets()
	if len(comps) != 2 {
		t.Fatalf("%d components, want 2", len(comps))
	}
	var sum congest.Stats
	var perComp []congest.Stats
	for ci, comp := range comps {
		_, cs, err := processComponent(cur, final, comp, opt, root.Fork(componentSeedID(0, ci)).Uint64())
		if err != nil {
			t.Fatal(err)
		}
		perComp = append(perComp, cs)
		sum.CombineParallel(cs)
	}
	if perComp[0].Messages == perComp[1].Messages || perComp[0].Messages == 0 || perComp[1].Messages == 0 {
		t.Fatalf("components should have distinct nonzero traffic: %+v", perComp)
	}
	if st.Messages != perComp[0].Messages+perComp[1].Messages {
		t.Fatalf("Enumerate reported %d messages, components sent %d + %d",
			st.Messages, perComp[0].Messages, perComp[1].Messages)
	}
	if st.Rounds != sum.Rounds || st.CongestRounds != sum.CongestRounds {
		t.Fatalf("Enumerate rounds %d/%d, want independent maxima %d/%d",
			st.Rounds, st.CongestRounds, sum.Rounds, sum.CongestRounds)
	}
}

// enumerateSerialReimpl is a literal sequential re-implementation of
// Enumerate's level loop — inline component processing, no fan-out helper
// — sharing the seed derivation, used as the oracle the concurrent
// implementation must match bit for bit.
func enumerateSerialReimpl(view *graph.Sub, opt Options) (*Set, Stats, error) {
	opt = opt.withDefaults()
	g := view.Base()
	out := NewSet()
	var st Stats
	mask := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		mask[e] = view.Usable(e) && !g.IsLoop(e)
	}
	root := rng.New(opt.Seed)
	for level := 0; level < maxRecursion; level++ {
		remaining := 0
		for _, on := range mask {
			if on {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		st.Recursions++
		cur := graph.NewSub(g, view.Members(), mask)
		dec, err := core.Decompose(cur, core.Options{
			Eps: opt.Eps, K: opt.K, Preset: opt.Preset,
			Seed:    root.Fork(uint64(level)).Uint64(),
			Workers: 1,
		}, opt.Subs)
		if err != nil {
			return nil, st, err
		}
		st.Rounds += dec.Stats.Rounds
		st.CongestRounds += dec.Stats.CongestRounds
		st.Messages += dec.Stats.Messages
		st.DecompRounds += dec.Stats.Rounds
		final := graph.NewSub(g, view.Members(), dec.FinalMask)
		var level1 congest.Stats
		for ci, comp := range final.ComponentSets() {
			if comp.Len() < 2 {
				continue
			}
			st.Components++
			set, cs, err := processComponent(cur, final, comp, opt, root.Fork(componentSeedID(level, ci)).Uint64())
			if err != nil {
				return nil, st, err
			}
			out.Merge(set)
			if cs.Rounds > level1.Rounds {
				level1.Rounds = cs.Rounds
			}
			if cs.CongestRounds > level1.CongestRounds {
				level1.CongestRounds = cs.CongestRounds
			}
			level1.Messages += cs.Messages
			level1.Words += cs.Words
		}
		st.Rounds += level1.Rounds
		st.CongestRounds += level1.CongestRounds
		st.Messages += level1.Messages
		next := make([]bool, g.M())
		progress := false
		for e := 0; e < g.M(); e++ {
			if mask[e] && !dec.FinalMask[e] {
				next[e] = true
			} else if mask[e] {
				progress = true
			}
		}
		if !progress {
			out.Merge(BruteForce(graph.NewSub(g, view.Members(), next)))
			break
		}
		mask = next
	}
	return out, st, nil
}

// TestEnumerateMatchesSerialReimpl pins the concurrent Enumerate against
// the serial oracle across seeds on a graph that decomposes into several
// components per level.
func TestEnumerateMatchesSerialReimpl(t *testing.T) {
	g := gen.RingOfCliques(3, 6, 2)
	view := graph.WholeGraph(g)
	for seed := uint64(1); seed <= 3; seed++ {
		got, gotSt, err := Enumerate(view, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := enumerateSerialReimpl(view, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: concurrent Enumerate found %d triangles, serial reimpl %d",
				seed, got.Len(), want.Len())
		}
		if gotSt != wantSt {
			t.Fatalf("seed %d: stats diverged:\nconcurrent %+v\nserial     %+v", seed, gotSt, wantSt)
		}
	}
}

// TestEnumerateGOMAXPROCSSweep pins bit-identical output (triangle set
// checksum and the full Stats) for every worker regime: GOMAXPROCS 1
// takes the inline path, higher values really fan out, and explicit
// Workers overrides must change nothing either.
func TestEnumerateGOMAXPROCSSweep(t *testing.T) {
	g := gen.RingOfCliques(4, 6, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		checksum uint64
		stats    Stats
	}
	var first *outcome
	check := func(label string, set *Set, st Stats) {
		got := &outcome{checksum: set.Checksum(), stats: st}
		if first == nil {
			first = got
			return
		}
		if *got != *first {
			t.Fatalf("%s changed Enumerate output: %+v vs %+v", label, got, first)
		}
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		set, st, err := Enumerate(graph.WholeGraph(g), Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("GOMAXPROCS=%d", procs), set, st)
	}
	for _, workers := range []int{1, 2, 5} {
		set, st, err := Enumerate(graph.WholeGraph(g), Options{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Workers=%d", workers), set, st)
	}
}
