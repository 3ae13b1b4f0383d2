package triangle

import (
	"fmt"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// BenchmarkIntersectionStrategies sweeps the length-ratio spectrum the
// row-range tasks choose on: a short list against a long one at 1x, 4x,
// 32x (gallopRatio), and 256x skew, both strategies on every ratio.
// This is the benchmark behind the gallopRatio constant in intersect.go
// — rerun it before moving it.
func BenchmarkIntersectionStrategies(b *testing.B) {
	const short = 256
	for _, ratio := range []int{1, 4, 32, 256} {
		long := short * ratio
		a := make([]int32, short)
		for i := range a {
			a[i] = int32(i * ratio)
		}
		bl := make([]int32, long)
		for i := range bl {
			bl[i] = int32(i)
		}
		sc := newIntersectScratch(long + short*ratio)
		var dst []int32
		b.Run(fmt.Sprintf("gallop/ratio=%d", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = intersectGallop(a, bl, dst[:0])
			}
		})
		b.Run(fmt.Sprintf("stamp-amortized/ratio=%d", ratio), func(b *testing.B) {
			// The row-range tasks' shape: marks paid once, probes per pair.
			sc.markAll(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = probeMarked(bl, sc, dst[:0])
			}
		})
	}
}

// BenchmarkTriangleSkewed times the skew-proof kernels on a
// preferential-attachment hub graph (BA n=2^16, m0=8), where an
// id-ordered kernel would pay the O(deg^2) hub term: Forward.Set (rank)
// and Forward.Count (count-2d), single-threaded and on every processor.
func BenchmarkTriangleSkewed(b *testing.B) {
	g := gen.BarabasiAlbert(1<<16, 8, 7)
	view := graph.WholeGraph(g)
	kernels := []struct {
		name string
		run  func()
	}{
		{"rank-1", func() { SetKernel(view, 1, KernelRank) }},
		{"rank-par", func() { SetKernel(view, 0, KernelRank) }},
		{"count-2d-1", func() { CountParallel2D(view, 1) }},
		{"count-2d-par", func() { CountParallel2D(view, 0) }},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
