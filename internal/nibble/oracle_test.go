package nibble

import (
	"math"
	"runtime"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
	"dexpander/internal/spectral"
)

// This file pins the sparse-engine nibbles and the parallel trial
// scheduler to the original dense implementations, which are preserved
// below verbatim as test oracles (they allocate O(n) per step and scan
// all m edges for P*, exactly what the engine exists to avoid).

func denseNibble(view *graph.Sub, pr Params, v, b int) *Result {
	res := &Result{C: graph.NewVSet(view.Base().N())}
	eps := pr.EpsB(b)
	totalVol := view.TotalVol()
	minVol := 5.0 / 7.0 * math.Pow(2, float64(b-1))
	p := spectral.Chi(view.Base().N(), v)
	touched := graph.NewVSet(view.Base().N())
	denseMarkTouched(touched, p)
	for t := 1; t <= pr.T0; t++ {
		p = spectral.Truncate(view, spectral.Step(view, p), eps)
		denseMarkTouched(touched, p)
		res.Steps = t
		sweep := spectral.NewSweepOrderSupport(view, spectral.Rho(view, p))
		jmax := sweep.JMax()
		for j := 1; j <= jmax; j++ {
			volJ := sweep.PrefixVol[j]
			if sweep.Conductance(j, totalVol) > pr.Phi {
				continue
			}
			if sweep.Rho[j]*float64(volJ) < pr.Gamma {
				continue
			}
			if float64(volJ) < minVol || float64(volJ) > 5.0/6.0*float64(totalVol) {
				continue
			}
			res.C = sweep.PrefixSet(view.Base().N(), j)
			res.PStar = denseParticipating(view, touched)
			return res
		}
	}
	res.PStar = denseParticipating(view, touched)
	return res
}

func denseApproximateNibble(view *graph.Sub, pr Params, v, b int) *Result {
	res := &Result{C: graph.NewVSet(view.Base().N())}
	eps := pr.EpsB(b)
	totalVol := view.TotalVol()
	minVol := 5.0 / 7.0 * math.Pow(2, float64(b-1))
	p := spectral.Chi(view.Base().N(), v)
	touched := graph.NewVSet(view.Base().N())
	denseMarkTouched(touched, p)
	for t := 1; t <= pr.T0; t++ {
		p = spectral.Truncate(view, spectral.Step(view, p), eps)
		denseMarkTouched(touched, p)
		res.Steps = t
		sweep := spectral.NewSweepOrderSupport(view, spectral.Rho(view, p))
		jseq := appendJSequence(nil, sweep, pr.Phi)
		for x, j := range jseq {
			dense := x == 0 || j == jseq[x-1]+1
			volJ := float64(sweep.PrefixVol[j])
			phiJ := sweep.Conductance(j, totalVol)
			var ok bool
			if dense {
				ok = phiJ <= pr.Phi &&
					sweep.Rho[j]*volJ >= pr.Gamma &&
					volJ >= minVol && volJ <= 5.0/6.0*float64(totalVol)
			} else {
				prev := jseq[x-1]
				ok = phiJ <= 12*pr.Phi &&
					sweep.Rho[prev]*volJ >= pr.Gamma &&
					volJ >= minVol && volJ <= 11.0/12.0*float64(totalVol)
			}
			if ok {
				res.C = sweep.PrefixSet(view.Base().N(), j)
				res.PStar = denseParticipating(view, touched)
				return res
			}
		}
	}
	res.PStar = denseParticipating(view, touched)
	return res
}

func denseMarkTouched(set *graph.VSet, p spectral.Dist) {
	for v, mass := range p {
		if mass > 0 {
			set.Add(v)
		}
	}
}

func denseParticipating(view *graph.Sub, touched *graph.VSet) []int {
	g := view.Base()
	var out []int
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		if touched.Has(u) || touched.Has(v) {
			out = append(out, e)
		}
	}
	return out
}

func sameResult(a, b *Result) bool {
	if !a.C.Equal(b.C) || a.Steps != b.Steps || len(a.PStar) != len(b.PStar) {
		return false
	}
	for i := range a.PStar {
		if a.PStar[i] != b.PStar[i] {
			return false
		}
	}
	return true
}

func oracleFamilies(seed uint64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring-of-cliques": gen.RingOfCliques(4, 8, seed),
		"dumbbell":        gen.Dumbbell(10, 2, seed),
		"gnp":             gen.GNPConnected(40, 0.15, seed),
		"grid":            gen.Grid(6, 6),
		"torus":           gen.Torus(5),
		"expander":        gen.ExpanderByMatchings(32, 4, seed),
		"satellite":       gen.SatelliteCliques(8, 4, 3, seed),
		"planted":         gen.PlantedPartition(3, 10, 0.6, 0.05, seed),
	}
}

// TestNibbleMatchesDenseOracle sweeps families, seeds, start vertices,
// and volume scales, demanding byte-identical Results (cut, P*, step
// count) from the engine-backed nibbles and the dense originals.
func TestNibbleMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		for name, g := range oracleFamilies(seed) {
			view := graph.WholeGraph(g)
			pr := PracticalParams(view, 0.1)
			pr.T0 = 40 // keep the cross-product affordable
			members := view.MemberList()
			for i := 0; i < 3; i++ {
				v := members[(i*7+int(seed))%len(members)]
				for b := 1; b <= pr.Ell; b += 2 {
					if got, want := Nibble(view, pr, v, b), denseNibble(view, pr, v, b); !sameResult(got, want) {
						t.Fatalf("%s seed %d v=%d b=%d: Nibble diverged from dense oracle", name, seed, v, b)
					}
					if got, want := ApproximateNibble(view, pr, v, b), denseApproximateNibble(view, pr, v, b); !sameResult(got, want) {
						t.Fatalf("%s seed %d v=%d b=%d: ApproximateNibble diverged from dense oracle", name, seed, v, b)
					}
				}
			}
		}
	}
}

// TestNibbleOracleOnRestrictedViews repeats the oracle comparison on
// views with dead vertices and edges (implicit self-loops), the regime
// every mid-decomposition nibble runs in.
func TestNibbleOracleOnRestrictedViews(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := gen.RingOfCliques(4, 8, seed)
		members := graph.NewVSet(g.N())
		for v := 0; v < g.N(); v++ {
			if v%5 != 0 {
				members.Add(v)
			}
		}
		mask := make([]bool, g.M())
		for e := range mask {
			mask[e] = e%6 != 0
		}
		view := graph.NewSub(g, members, mask)
		pr := PracticalParams(view, 0.08)
		pr.T0 = 40
		ms := view.MemberList()
		for i := 0; i < 4; i++ {
			v := ms[(i*11+int(seed))%len(ms)]
			b := 1 + i%pr.Ell
			if got, want := ApproximateNibble(view, pr, v, b), denseApproximateNibble(view, pr, v, b); !sameResult(got, want) {
				t.Fatalf("seed %d v=%d b=%d: restricted-view divergence", seed, v, b)
			}
		}
	}
}

// fixedPointStep returns the first step t >= 2 at which the walk a nibble
// runs from v at scale b leaves its state bitwise unchanged, or 0 when
// none does within T0 or the support empties first.
func fixedPointStep(view *graph.Sub, pr Params, v, b int) int {
	ws := spectral.AcquireWalkState(view)
	defer ws.Release()
	ws.Init(v)
	for t := 1; t <= pr.T0; t++ {
		changed := ws.StepTruncate(pr.EpsB(b))
		if ws.SupportLen() == 0 {
			return 0
		}
		if !changed && t >= 2 {
			return t
		}
	}
	return 0
}

// TestNibbleOracleAtPracticalT0 repeats the oracle comparison at the
// uncapped Practical T0 on families whose walks reach a bitwise fixed
// point before it, so both nibbles' early stop is exercised: each family
// must have a cutless, converging walk under each nibble. At phi 0.1
// ApproximateNibble's relaxed conductance test (12 phi >= 1) accepts a
// cut within two steps, so phi is 0.05.
func TestNibbleOracleAtPracticalT0(t *testing.T) {
	families := map[string]*graph.Graph{
		"gnp":      oracleFamilies(1)["gnp"],
		"torus":    oracleFamilies(1)["torus"],
		"complete": gen.Complete(24),
	}
	for name, g := range families {
		view := graph.WholeGraph(g)
		pr := PracticalParams(view, 0.05)
		members := view.MemberList()
		var stopped [2]int // cutless walks that reached a fixed point: Nibble, ApproximateNibble
		for i := 0; i < 2; i++ {
			v := members[(i*7+1)%len(members)]
			for b := 1; b <= pr.Ell; b += 2 {
				converges := fixedPointStep(view, pr, v, b) > 0
				got, want := Nibble(view, pr, v, b), denseNibble(view, pr, v, b)
				if !sameResult(got, want) {
					t.Fatalf("%s v=%d b=%d T0=%d: Nibble diverged from dense oracle", name, v, b, pr.T0)
				}
				if got.Empty() && converges {
					stopped[0]++
				}
				got, want = ApproximateNibble(view, pr, v, b), denseApproximateNibble(view, pr, v, b)
				if !sameResult(got, want) {
					t.Fatalf("%s v=%d b=%d T0=%d: ApproximateNibble diverged from dense oracle", name, v, b, pr.T0)
				}
				if got.Empty() && converges {
					stopped[1]++
				}
			}
		}
		if stopped[0] == 0 || stopped[1] == 0 {
			t.Fatalf("%s: cutless walks that reached a fixed point within T0=%d: %v, want some for each nibble", name, pr.T0, stopped)
		}
	}
}

// TestNibbleOracleDeadStart starts the walk at a vertex whose edges are
// all dead in the view: chi_v is already a fixed point at step 1, yet its
// sweep {v} was never checked, so the walk may not stop there. For small
// b that sweep is the cut.
func TestNibbleOracleDeadStart(t *testing.T) {
	g := gen.RingOfCliques(4, 8, 1)
	mask := make([]bool, g.M())
	for e := range mask {
		u, w := g.EdgeEndpoints(e)
		mask[e] = u != 0 && w != 0
	}
	view := graph.NewSub(g, nil, mask)
	pr := PracticalParams(view, 0.1)
	if fixedPointStep(view, pr, 0, 1) != 2 {
		t.Fatal("walk from the dead vertex should repeat chi_0 from the start")
	}
	start := graph.VSetOf(g.N(), 0)
	for b := 1; b <= pr.Ell; b++ {
		got, want := Nibble(view, pr, 0, b), denseNibble(view, pr, 0, b)
		if !sameResult(got, want) {
			t.Fatalf("b=%d: Nibble diverged from dense oracle", b)
		}
		approx := ApproximateNibble(view, pr, 0, b)
		if !sameResult(approx, denseApproximateNibble(view, pr, 0, b)) {
			t.Fatalf("b=%d: ApproximateNibble diverged from dense oracle", b)
		}
		if b <= 4 && (!got.C.Equal(start) || got.Steps != 1 || !approx.C.Equal(start) || approx.Steps != 1) {
			t.Fatalf("b=%d: want the cut {0} at step 1, got %v at step %d and %v at step %d",
				b, got.C.Members(), got.Steps, approx.C.Members(), approx.Steps)
		}
	}
}

// TestParallelNibbleDeterministicAcrossWorkers pins the parallel trial
// contract: Partition output is bit-identical for every GOMAXPROCS.
func TestParallelNibbleDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Dumbbell(12, 1, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type outcome struct {
		cut        []int
		iterations int
		cond, bal  float64
	}
	var first *outcome
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		view := graph.WholeGraph(g) // fresh view: no cache reuse across runs
		pr := PracticalParams(view, 0.05)
		res := Partition(view, pr, rng.New(7))
		got := &outcome{cut: res.C.Members(), iterations: res.Iterations, cond: res.Conductance, bal: res.Balance}
		if first == nil {
			first = got
			if res.Empty() {
				t.Fatal("partition found nothing; determinism test needs a non-trivial run")
			}
			continue
		}
		if got.iterations != first.iterations || got.cond != first.cond || got.bal != first.bal || !slicesEq(got.cut, first.cut) {
			t.Fatalf("GOMAXPROCS=%d changed Partition output: %+v vs %+v", procs, got, first)
		}
	}
}

// TestParallelNibbleMatchesSerialLoop compares the worker-pool
// ParallelNibble against a literal serial re-implementation sharing the
// RNG stream.
func TestParallelNibbleMatchesSerialLoop(t *testing.T) {
	g := gen.RingOfCliques(4, 6, 2)
	for seed := uint64(1); seed <= 5; seed++ {
		view := graph.WholeGraph(g)
		pr := PracticalParams(view, 0.1)
		pr.KCap = 6 // force several instances so the pool really fans out
		got := ParallelNibble(view, pr, rng.New(seed))

		r := rng.New(seed)
		k := pr.InstanceCount(view)
		want := &ParallelResult{C: graph.NewVSet(g.N()), Instances: k}
		overlap := make(map[int]int)
		var cuts []*graph.VSet
		for i := 0; i < k; i++ {
			one := RandomNibble(view, pr, r)
			for _, e := range one.PStar {
				overlap[e]++
				if overlap[e] > want.MaxOverlap {
					want.MaxOverlap = overlap[e]
				}
			}
			cuts = append(cuts, one.C)
		}
		if want.MaxOverlap <= pr.W {
			z := 23.0 / 24.0 * float64(view.TotalVol())
			union := graph.NewVSet(g.N())
			best := graph.NewVSet(g.N())
			for _, c := range cuts {
				union.AddAll(c)
				if float64(view.Vol(union)) <= z {
					best = union.Clone()
				}
			}
			want.C = best
		} else {
			want.Overflowed = true
		}
		if got.Instances != want.Instances || got.Overflowed != want.Overflowed ||
			got.MaxOverlap != want.MaxOverlap || !got.C.Equal(want.C) {
			t.Fatalf("seed %d: parallel ParallelNibble diverged from the serial loop", seed)
		}
	}
}

func slicesEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
