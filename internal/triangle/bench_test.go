package triangle

import (
	"fmt"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

func BenchmarkBruteForce(b *testing.B) {
	g := gen.GNP(128, 0.3, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(view)
	}
}

// BenchmarkSetKernel benchmarks the sharded rank kernel on the same
// instance as BenchmarkBruteForce (compare ns/op directly), plus a
// larger instance closer to the bench matrix's heavy cells.
func BenchmarkSetKernel(b *testing.B) {
	g := gen.GNP(128, 0.3, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SetKernel(view, 0, KernelAuto)
	}
}

func BenchmarkBruteForce2048(b *testing.B) {
	g := gen.GNP(2048, 0.05, 7)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(view)
	}
}

func BenchmarkSetKernel2048(b *testing.B) {
	g := gen.GNP(2048, 0.05, 7)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SetKernel(view, 0, KernelAuto)
	}
}

func BenchmarkCountParallel2D2048(b *testing.B) {
	g := gen.GNP(2048, 0.05, 7)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountParallel2D(view, 0)
	}
}

func BenchmarkNaive(b *testing.B) {
	g := gen.GNP(48, 0.5, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Naive(view, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCliqueDLP(b *testing.B) {
	g := gen.GNP(48, 0.5, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CliqueDLP(view, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	g := gen.GNP(48, 0.5, 1)
	view := graph.WholeGraph(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Enumerate(view, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCliqueGroups sweeps the group count of the
// generalized clique scheme on one instance: small g concentrates
// handlers (serialization), large g multiplies edge copies; the DLP
// choice ~n^{1/3} sits near the round minimum.
func BenchmarkAblationCliqueGroups(b *testing.B) {
	g := gen.GNP(64, 0.5, 1)
	view := graph.WholeGraph(g)
	want := BruteForce(view)
	rounds := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, groups := range []int{1, 2, 4, 8, 16} {
			got, stats, err := CliqueWithGroups(view, groups, 1)
			if err != nil {
				b.Fatal(err)
			}
			if !got.Equal(want) {
				b.Fatalf("groups=%d: wrong enumeration", groups)
			}
			rounds[groups] = stats.Rounds
		}
	}
	for _, groups := range []int{1, 2, 4, 8, 16} {
		b.ReportMetric(float64(rounds[groups]), "rounds_g"+itoa(groups))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// countShapes are the three graph shapes count-dist serves, at the
// sizes its benchmark workload registers.
func countShapes() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(1<<16, 8, 1)},
		{"chung-lu", gen.ChungLu(1<<14, 2.1, 16, 1)},
		{"gnp", gen.GNP(1<<13, 16.0/(1<<13), 1)},
	}
}

// BenchmarkCountFragments times the block-triple task body alone: every
// triple of a p = 12 tiling counted in turn from decoded fragments, on
// the three graph shapes count-dist serves. Planning, encoding and
// decoding happen before the timer.
func BenchmarkCountFragments(b *testing.B) {
	const p = 12
	for _, sh := range countShapes() {
		pl := NewDistPlan(graph.WholeGraph(sh.g), p)
		frags := make([]*Fragment, pl.Tiling.P)
		for i := range frags {
			f, err := DecodeFragment(pl.Fragment(i).Encode())
			if err != nil {
				b.Fatal(err)
			}
			frags[i] = f
		}
		triples := pl.Tiling.Triples()
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				for _, t := range triples {
					if _, err := CountFragments(pl.Tiling, t, frags[t.I], frags[t.J]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkCountRows times the row-range task the way a replica runs a
// count-dist job: every range of a p-range cut counted in turn from a
// decoded whole-CSR fragment, on BenchmarkCountFragments' shapes at
// p = 3 and 12. A job does one pass of wedge work at any p, so p = 12
// should take about as long as p = 3. Building, cutting, encoding and
// decoding happen before the timer.
func BenchmarkCountRows(b *testing.B) {
	for _, sh := range countShapes() {
		fw := NewForward(graph.WholeGraph(sh.g))
		whole, err := DecodeFragment(fw.Fragment().Encode())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range []int{3, 12} {
			cuts := fw.RowCuts(p)
			b.Run(fmt.Sprintf("%s/p=%d", sh.name, p), func(b *testing.B) {
				for b.Loop() {
					for i := 0; i+1 < len(cuts); i++ {
						if _, err := CountRows(whole, cuts[i], cuts[i+1]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
