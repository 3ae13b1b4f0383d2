package bench

import (
	"context"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// TestTracingDisabledOverhead is the tracing-off overhead guard: the 2D
// kernel called the way the service calls it with tracing off — a
// Forward built for the computation, a cancelable context (so the
// per-range cancellation probe is live) and no span — must stay within
// noise of the bare CountParallel2D. The instrumentation collapses to a
// channel poll and a few nil-span tests per row range. The 2x bound is
// deliberately generous (CI machines are noisy); a real regression
// (per-task allocation, say) lands far above it.
func TestTracingDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; run without -short")
	}
	g := gen.GNP(800, 0.05, 1)
	view := graph.WholeGraph(g)
	want := triangle.CountParallel2D(view, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	base := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			triangle.CountParallel2D(view, 0)
		}
	})
	instr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := triangle.NewForward(view).Count(ctx, 0)
			if err != nil || n != want {
				b.Fatalf("instrumented kernel: count %d err %v, want %d", n, err, want)
			}
		}
	})
	ratio := float64(instr.NsPerOp()) / float64(base.NsPerOp())
	t.Logf("2D kernel: base %v/op, instrumented(disabled) %v/op, ratio %.3f",
		base.NsPerOp(), instr.NsPerOp(), ratio)
	if ratio > 2 {
		t.Errorf("tracing-disabled kernel is %.2fx the uninstrumented one (bound 2x)", ratio)
	}
}

// serveLoop drives repeated cache-hit queries — the per-query serving
// path where observability overhead would show up — against a service
// built from cfg.
func serveLoop(b *testing.B, cfg service.Config) {
	svc := service.New(cfg)
	defer svc.Close()
	snap, err := svc.RegisterSpec("", gen.Spec{
		Family: "gnp", Params: map[string]float64{"n": 256, "p": 0.05}, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, "", snap.ID, service.CountParams{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Query(ctx, "", snap.ID, service.CountParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeTracingOff / On make the serving-path overhead visible
// in the bench job output; compare ns/op across the pair.
func BenchmarkServeTracingOff(b *testing.B) {
	serveLoop(b, service.Config{Workers: 2})
}

func BenchmarkServeTracingOn(b *testing.B) {
	serveLoop(b, service.Config{Workers: 2, Tracer: obs.NewTracer(4096, 1)})
}
