package spectral

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/rng"
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
	checkConcurrent(t, func(view *graph.Sub) bool { return Lambda2Above(view, 1e-3) })
}

// TestConductanceAboveConcurrent is TestLambda2AboveConcurrent for the
// flow certificate's pooled scratch.
func TestConductanceAboveConcurrent(t *testing.T) {
	checkConcurrent(t, func(view *graph.Sub) bool { return ConductanceAbove(view, 1e-3) })
}

// checkConcurrent runs certify on the certViews from four goroutines at
// once and compares each answer with the serial one.
func checkConcurrent(t *testing.T, certify func(*graph.Sub) bool) {
	views := certViews()
	want := make([]bool, len(views))
	for i, tc := range views {
		want[i] = certify(tc.view)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range views {
				tc := views[(i+w)%len(views)]
				if got := certify(tc.view); got != want[(i+w)%len(views)] {
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
		view := fuzzView(n, data[3:])
		if !Lambda2Above(view, sigma) {
			return
		}
		if lambda2 := Lambda2Exact(view, 20); lambda2 < sigma-1e-9 {
			t.Fatalf("certified lambda2 > %v on n=%d members=%v, but Jacobi lambda2 = %v",
				sigma, n, view.MemberList(), lambda2)
		}
	})
}

// fuzzView builds a fuzz target's view on n vertices from data: bytes 0-2
// are the member bits, then one (u, v, flags) triple per edge, at most 60
// edges; u == v makes a loop, and flags bit 0 kills the edge.
func fuzzView(n int, data []byte) *graph.Sub {
	bits := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16
	b := graph.NewBuilder(n)
	var alive []bool
	for rest := data[3:]; len(rest) >= 3 && len(alive) < 60; rest = rest[3:] {
		b.AddEdge(int(rest[0])%n, int(rest[1])%n)
		alive = append(alive, rest[2]&1 == 0)
	}
	members := graph.NewVSet(n)
	for v := range n {
		if bits>>v&1 == 1 {
			members.Add(v)
		}
	}
	return graph.NewSub(b.Graph(), members, alive)
}

// TestConductanceAboveSound checks the flow certificate against brute
// force on random multigraphs of at most 14 vertices, with loops, a random
// member set and a random alive mask: it must never claim Phi > tau at
// tau >= MinConductanceBrute's value, and it must find proofs on enough
// of them that the check has teeth. It must be sharp where its bound is
// Phi itself, and answer false on disconnected views, on one member, and
// at tau outside (0, +Inf).
func TestConductanceAboveSound(t *testing.T) {
	r := rng.New(29)
	data := make([]byte, 3+3*60)
	proved := 0
	for range 400 {
		n := 2 + r.Intn(13)
		for i := range 3 {
			data[i] = byte(r.Uint64() | r.Uint64()) // members: three in four
		}
		edges := n + r.Intn(2*n)
		for e := range edges {
			data[3+3*e], data[4+3*e] = byte(r.Intn(n)), byte(r.Intn(n))
			data[5+3*e] = byte(r.Intn(10) / 9) // one edge in ten dead
		}
		view := fuzzView(n, data[:3+3*edges])
		_, phi := view.MinConductanceBrute()
		for _, f := range []float64{1, 1 + 1e-12, 1.5} {
			if ConductanceAbove(view, f*phi) {
				t.Fatalf("n=%d members=%v: certified Phi > %v, but brute Phi = %v", n, view.MemberList(), f*phi, phi)
			}
		}
		if ConductanceAbove(view, phi/4) {
			proved++
		}
	}
	t.Logf("proved Phi > Phi/4 on %d of 400 views", proved)
	if proved < 100 {
		t.Fatalf("proved Phi > Phi/4 on %d of 400 views; the true branch needs cover", proved)
	}

	sharp := []struct {
		name string
		g    *graph.Graph
		phi  float64
	}{
		{"cycle10", gen.Cycle(10), 2.0 / 10},
		{"cycle40", gen.Cycle(40), 2.0 / 40},
		{"cycle100", gen.Cycle(100), 2.0 / 100},
		{"ring8x12", gen.RingOfCliques(8, 12, 1), 2.0 / 536},
	}
	for _, tc := range sharp {
		view := graph.WholeGraph(tc.g)
		if !ConductanceAbove(view, 0.99*tc.phi) {
			t.Fatalf("%s: no proof at tau = 0.99 Phi = %v", tc.name, 0.99*tc.phi)
		}
		if ConductanceAbove(view, tc.phi) {
			t.Fatalf("%s: certified Phi > Phi = %v", tc.name, tc.phi)
		}
	}

	twoTriangles := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	ring := gen.RingOfCliques(4, 4, 1)
	alive := make([]bool, ring.M())
	for e := range alive {
		u, v := ring.EdgeEndpoints(e)
		alive[e] = u/4 == v/4 // the ring's bridges die
	}
	for name, view := range map[string]*graph.Sub{
		"two triangles":   graph.WholeGraph(twoTriangles),
		"dead bridges":    graph.NewSub(ring, nil, alive),
		"isolated member": graph.WholeGraph(graph.FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}})),
		"one member":      graph.NewSub(gen.Complete(8), graph.VSetOf(8, 3), nil),
	} {
		if ConductanceAbove(view, 1e-6) {
			t.Fatalf("%s: certified", name)
		}
	}
	k8 := graph.WholeGraph(gen.Complete(8))
	if !ConductanceAbove(k8, 0.5) {
		t.Fatal("K8 not certified at tau 0.5")
	}
	for _, tau := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if ConductanceAbove(k8, tau) {
			t.Fatalf("K8 certified at tau %v", tau)
		}
	}
}

// FuzzConductanceAbove builds a multigraph of at most 12 vertices with
// loops, a member subset and an alive mask from the fuzz bytes, as
// FuzzLambda2Above does, and takes tau from them: whenever the
// certificate answers true, every cut's brute-force conductance must be
// above tau.
//
// Layout: byte 0 picks n, bytes 1-2 tau in [0, 0.55), then fuzzView's
// member bits and edge triples.
func FuzzConductanceAbove(f *testing.F) {
	f.Add([]byte{5, 0x00, 0x10, 0xff, 0xff, 0xff, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0, 6, 0, 0})
	f.Add([]byte{2, 0x00, 0x40, 0x0f, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 0, 1, 1, 0})
	f.Add([]byte{3, 0x80, 0x00, 0x1b, 0, 0, 0, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 4, 0, 4, 0, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%11
		tau := float64(binary.LittleEndian.Uint16(data[1:3])) / 65536 * 0.55
		view := fuzzView(n, data[3:])
		if !ConductanceAbove(view, tau) {
			return
		}
		if _, phi := view.MinConductanceBrute(); phi <= tau {
			t.Fatalf("certified Phi > %v on n=%d members=%v, but brute Phi = %v", tau, n, view.MemberList(), phi)
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

// BenchmarkConductanceAbove times the flow certificate on the rings
// BenchmarkLambda2Above uses, at a tau it proves, so every source's BFS
// and routing pass runs.
func BenchmarkConductanceAbove(b *testing.B) {
	for _, k := range []int{48, 96, 256} {
		view := graph.WholeGraph(gen.RingOfCliques(k/8, 8, 1))
		tau := 0.99 / float64(view.UsableEdgeCount()) // Phi is 2/m for an even number of cliques
		if !ConductanceAbove(view, tau) {
			b.Fatalf("k=%d: no proof at tau %v", k, tau)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for b.Loop() {
				ConductanceAbove(view, tau)
			}
		})
	}
}
