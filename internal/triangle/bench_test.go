package triangle

import (
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
