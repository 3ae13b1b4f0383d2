package spectral

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// certViews returns the soundness test's views: each base graph whole,
// restricted to the members off every fifth vertex (their edges to the
// removed vertices become implicit loops), and with every seventh edge
// dead (loops again). Some of the masked views are disconnected.
func certViews() []struct {
	name string
	view *graph.Sub
} {
	bases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path60", gen.Path(60)},
		{"cycle120", gen.Cycle(120)},
		{"barbell10x40", gen.BarbellPath(10, 40)},
		{"ring8x8", gen.RingOfCliques(8, 8, 1)},
		{"dumbbell20", gen.Dumbbell(20, 1, 1)},
		{"gnp80", gen.GNP(80, 0.1, 3)},
	}
	var out []struct {
		name string
		view *graph.Sub
	}
	add := func(name string, view *graph.Sub) {
		out = append(out, struct {
			name string
			view *graph.Sub
		}{name, view})
	}
	for _, b := range bases {
		g := b.g
		add(b.name, graph.WholeGraph(g))
		members := graph.NewVSet(g.N())
		for v := range g.N() {
			if v%5 != 2 {
				members.Add(v)
			}
		}
		add(b.name+"/members", graph.NewSub(g, members, nil))
		alive := make([]bool, g.M())
		for e := range alive {
			alive[e] = e%7 != 3
		}
		add(b.name+"/mask", graph.NewSub(g, nil, alive))
	}
	return out
}

// TestLambda2AboveSound checks the certificate against the Jacobi
// spectrum: it must never claim lambda2 > sigma at sigma >= 1.000001
// lambda2, and it must find the proof at sigma <= 0.99 lambda2 on a
// connected view. It must answer false where no factorization is needed:
// a disconnected view (lambda2 = 0), fewer than two members, a
// zero-degree member, and sigma outside (0, 2).
func TestLambda2AboveSound(t *testing.T) {
	connected, disconnected := 0, 0
	for _, tc := range certViews() {
		lambda2 := Lambda2Exact(tc.view, 200)
		for _, f := range []float64{1.000001, 1.001, 1.5, 4} {
			if sigma := f * lambda2; Lambda2Above(tc.view, sigma) {
				t.Fatalf("%s: certified lambda2 > %v, but lambda2 = %v", tc.name, sigma, lambda2)
			}
		}
		if !tc.view.IsConnected() {
			disconnected++
			for _, sigma := range []float64{1e-12, 1e-3, 0.5} {
				if Lambda2Above(tc.view, sigma) {
					t.Fatalf("%s: disconnected view certified at sigma %v", tc.name, sigma)
				}
			}
			continue
		}
		connected++
		for _, f := range []float64{0.99, 0.5, 1e-3} {
			if sigma := f * lambda2; !Lambda2Above(tc.view, sigma) {
				t.Fatalf("%s: no proof at sigma %v below lambda2 = %v", tc.name, sigma, lambda2)
			}
		}
	}
	if connected < 6 || disconnected < 3 {
		t.Fatalf("%d connected and %d disconnected views; both branches need cover", connected, disconnected)
	}

	k8 := graph.WholeGraph(gen.Complete(8)) // lambda2 = 8/7
	if !Lambda2Above(k8, 1) {
		t.Fatal("K8 not certified at sigma 1 < 8/7")
	}
	for _, sigma := range []float64{0, -1, 2, 2.5, math.NaN(), math.Inf(1)} {
		if Lambda2Above(k8, sigma) {
			t.Fatalf("K8 certified at sigma %v outside (0, 2)", sigma)
		}
	}
	if Lambda2Above(graph.NewSub(gen.Complete(8), graph.VSetOf(8, 3), nil), 0.1) {
		t.Fatal("one-member view certified")
	}
	isolated := graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}})
	if Lambda2Above(graph.WholeGraph(isolated), 1e-6) {
		t.Fatal("view with an isolated member certified")
	}
}

// TestLambda2AboveConcurrent runs the certificate on shared views from
// several goroutines at once, each taking its scratch from the pool; the
// answers must match the serial ones.
func TestLambda2AboveConcurrent(t *testing.T) {
	views := certViews()
	want := make([]bool, len(views))
	for i, tc := range views {
		want[i] = Lambda2Above(tc.view, 1e-3)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range views {
				tc := views[(i+w)%len(views)]
				if got := Lambda2Above(tc.view, 1e-3); got != want[(i+w)%len(views)] {
					t.Errorf("%s: concurrent answer %v, serial %v", tc.name, got, !got)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzLambda2Above builds a multigraph of at most 20 vertices with loops,
// a member subset and an alive mask from the fuzz bytes, and takes sigma
// from them: whenever the certificate answers true, the Jacobi lambda2
// must be at least sigma, up to Jacobi's own 1e-9.
//
// Layout: byte 0 picks n, bytes 1-2 sigma in [0, 2.1), bytes 3-5 the
// member bits, then one (u, v, flags) triple per edge; flags bit 0 kills
// the edge.
func FuzzLambda2Above(f *testing.F) {
	f.Add([]byte{7, 0x00, 0x10, 0xff, 0xff, 0xff, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 0, 0})
	f.Add([]byte{4, 0x00, 0x40, 0x0f, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 0, 1, 1, 0})
	f.Add([]byte{5, 0x80, 0x00, 0x1b, 0, 0, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 0, 4, 0, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%19
		sigma := float64(binary.LittleEndian.Uint16(data[1:3])) / 65536 * 2.1
		bits := uint32(data[3]) | uint32(data[4])<<8 | uint32(data[5])<<16
		b := graph.NewBuilder(n)
		var alive []bool
		for rest := data[6:]; len(rest) >= 3 && len(alive) < 60; rest = rest[3:] {
			b.AddEdge(int(rest[0])%n, int(rest[1])%n)
			alive = append(alive, rest[2]&1 == 0)
		}
		g := b.Graph()
		members := graph.NewVSet(n)
		for v := range n {
			if bits>>v&1 == 1 {
				members.Add(v)
			}
		}
		view := graph.NewSub(g, members, alive)
		if !Lambda2Above(view, sigma) {
			return
		}
		if lambda2 := Lambda2Exact(view, 20); lambda2 < sigma-1e-9 {
			t.Fatalf("certified lambda2 > %v on n=%d members=%v, but Jacobi lambda2 = %v",
				sigma, n, members.Members(), lambda2)
		}
	})
}

// BenchmarkLambda2Above times the certificate on a ring of k/8 8-cliques
// (k members) at a sigma it proves, so every pivot of the factorization
// is computed.
func BenchmarkLambda2Above(b *testing.B) {
	for _, k := range []int{48, 96, 256} {
		view := graph.WholeGraph(gen.RingOfCliques(k/8, 8, 1))
		sigma := Lambda2Exact(view, 256) / 2
		if !Lambda2Above(view, sigma) {
			b.Fatalf("k=%d: no proof at half of lambda2", k)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for b.Loop() {
				Lambda2Above(view, sigma)
			}
		})
	}
}
