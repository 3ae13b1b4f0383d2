package triangle

import (
	"fmt"
	"slices"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// TestTilingTriplesCoverGrid sweeps grid dimensions and checks the
// block-triple schedule covers every ordered (i <= j <= k) exactly once
// — the property that makes the per-triple counts sum to the total
// without double counting.
func TestTilingTriplesCoverGrid(t *testing.T) {
	g := gen.GNP(96, 0.2, 5)
	view := graph.WholeGraph(g)
	for p := 1; p <= 9; p++ {
		pl := NewDistPlan(view, p)
		tl := pl.Tiling
		if err := tl.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		seen := make(map[BlockTriple]int)
		for _, tr := range tl.Triples() {
			seen[tr]++
		}
		want := tl.P * (tl.P + 1) * (tl.P + 2) / 6
		if len(seen) != want {
			t.Fatalf("p=%d: %d distinct triples, want %d", p, len(seen), want)
		}
		for i := 0; i < tl.P; i++ {
			for j := i; j < tl.P; j++ {
				for k := j; k < tl.P; k++ {
					if seen[BlockTriple{i, j, k}] != 1 {
						t.Fatalf("p=%d: triple (%d,%d,%d) appears %d times",
							p, i, j, k, seen[BlockTriple{i, j, k}])
					}
				}
			}
		}
	}
}

// TestFragmentRoundTrip pins the wire format: encode/decode is lossless,
// the declared size is exact, and corruption anywhere in the stream is
// detected.
func TestFragmentRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(256, 4, 11)
	view := graph.WholeGraph(g)
	pl := NewDistPlan(view, 4)
	for b := 0; b < pl.Tiling.P; b++ {
		f := pl.Fragment(b)
		data := f.Encode()
		if len(data) != f.EncodedSize() {
			t.Fatalf("block %d: encoded %d bytes, EncodedSize says %d", b, len(data), f.EncodedSize())
		}
		back, err := DecodeFragment(data)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if back.Ranks != f.Ranks || back.Lo != f.Lo || back.Hi != f.Hi ||
			back.Checksum() != f.Checksum() {
			t.Fatalf("block %d: round trip changed the fragment", b)
		}
		for r := f.Lo; r < f.Hi; r++ {
			a, bb := f.Fwd(r), back.Fwd(r)
			if len(a) != len(bb) {
				t.Fatalf("block %d rank %d: list length %d vs %d", b, r, len(a), len(bb))
			}
			for i := range a {
				if a[i] != bb[i] {
					t.Fatalf("block %d rank %d: arc %d differs", b, r, i)
				}
			}
		}
	}

	// Corruption at every byte offset must be rejected (flip a bit; the
	// checksum or a structural invariant catches it).
	f := pl.Fragment(1)
	data := f.Encode()
	for off := 0; off < len(data); off += 7 {
		bad := make([]byte, len(data))
		copy(bad, data)
		bad[off] ^= 0x40
		if _, err := DecodeFragment(bad); err == nil {
			// A flip inside a length-prefix region could in principle
			// produce another VALID fragment only if the checksum also
			// matched — astronomically unlikely; treat success as a bug.
			t.Fatalf("corruption at byte %d went undetected", off)
		}
	}
	if _, err := DecodeFragment(data[:len(data)-3]); err == nil {
		t.Fatal("truncated fragment accepted")
	}
	if _, err := DecodeFragment(append(data, 0)); err == nil {
		t.Fatal("oversized fragment accepted")
	}
}

// TestCountFragmentsEqualsLocal is the distribution layer's core
// contract: for every family, seed, and grid dimension, summing
// CountFragments over the tiling's triples (computed purely from encoded
// fragments, as a replica would) equals CountParallel2D — and each
// triple equals the coordinator-side CountTriple fallback.
func TestCountFragmentsEqualsLocal(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed uint64) *graph.Graph
	}{
		{"gnp", func(seed uint64) *graph.Graph { return gen.GNP(64, 0.25, seed) }},
		{"ba", func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(128, 5, seed) }},
		{"chung-lu", func(seed uint64) *graph.Graph { return gen.ChungLu(96, 2.2, 8, seed) }},
		{"ring", func(seed uint64) *graph.Graph { return gen.RingOfCliques(4, 6, seed) }},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			view := graph.WholeGraph(tc.build(seed))
			want := CountParallel2D(view, 0)
			for _, p := range []int{1, 2, 3, 5} {
				pl := NewDistPlan(view, p)
				// Decode through the wire format so the test exercises the
				// exact bytes a replica would count from.
				frags := make([]*Fragment, pl.Tiling.P)
				for b := range frags {
					f, err := DecodeFragment(pl.Fragment(b).Encode())
					if err != nil {
						t.Fatalf("%s seed %d p=%d block %d: %v", tc.name, seed, p, b, err)
					}
					frags[b] = f
				}
				total := 0
				for _, tr := range pl.Tiling.Triples() {
					n, err := CountFragments(pl.Tiling, tr, frags[tr.I], frags[tr.J])
					if err != nil {
						t.Fatalf("%s seed %d p=%d triple %+v: %v", tc.name, seed, p, tr, err)
					}
					if local := pl.CountTriple(tr); local != n {
						t.Fatalf("%s seed %d p=%d triple %+v: fragments counted %d, local task %d",
							tc.name, seed, p, tr, n, local)
					}
					total += n
				}
				if total != want {
					t.Fatalf("%s seed %d p=%d: distributed total %d, CountParallel2D %d",
						tc.name, seed, p, total, want)
				}
			}
		}
	}
}

// oracleCases are the graph families the per-task oracle tests sweep:
// the count-dist shapes, a clique ring, a view restricted to a vertex
// subset and an edge mask, a graph on which the tasks gallop, and a
// multigraph with a parallel edge and a loop.
func oracleCases() []struct {
	name string
	view *graph.Sub
} {
	restricted := func() *graph.Sub {
		g := gen.BarabasiAlbert(90, 5, 4)
		members := graph.NewVSet(g.N())
		for v := 0; v < g.N(); v++ {
			if v%4 != 0 {
				members.Add(v)
			}
		}
		mask := make([]bool, g.M())
		for e := range mask {
			mask[e] = e%5 != 0
		}
		return graph.NewSub(g, members, mask)
	}
	// A 43-clique whose last vertex r also closes one triangle with m,
	// a vertex of 39 leaves, and x. r's forward list is [m, x] and m's
	// is x plus its leaves, so at middle m the row-range task gallops
	// through a list 40 times longer than its one apex candidate.
	hubSkew := func() *graph.Sub {
		b := graph.NewBuilder(84)
		for u := 0; u < 43; u++ {
			for v := u + 1; v < 43; v++ {
				b.AddEdge(u, v)
			}
		}
		const r, m, x = 42, 43, 44
		b.AddEdge(r, m)
		b.AddEdge(r, x)
		b.AddEdge(m, x)
		for leaf := 45; leaf < 84; leaf++ {
			b.AddEdge(m, leaf)
		}
		return graph.WholeGraph(b.Graph())
	}
	multigraph := func() *graph.Sub {
		b := graph.NewBuilder(6)
		for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {0, 2}, {2, 2}, {3, 4}, {4, 5}, {3, 5}} {
			b.AddEdge(e[0], e[1])
		}
		return graph.WholeGraph(b.Graph())
	}
	return []struct {
		name string
		view *graph.Sub
	}{
		{"ba", graph.WholeGraph(gen.BarabasiAlbert(200, 6, 3))},
		{"chung-lu", graph.WholeGraph(gen.ChungLu(160, 2.1, 10, 2))},
		{"gnp", graph.WholeGraph(gen.GNP(96, 0.2, 5))},
		{"ring", graph.WholeGraph(gen.RingOfCliques(5, 6, 1))},
		{"restricted", restricted()},
		{"hub-skew", hubSkew()},
		{"multigraph", multigraph()},
	}
}

// TestCountRowsOracle checks every row range's task against the
// brute-force oracle on its own: for each oracle family and p in {1, 2,
// 3, 7, 12, ranks+5}, a range's count — from Forward.CountRows and from
// CountRows on a decoded whole-CSR fragment, as a replica counts — must
// equal the number of BruteForce triangles whose lowest-rank vertex lies
// in the range. The cuts must tile [0, ranks) with non-empty ranges, the
// same from a fresh Forward, and the counts must sum to CountParallel2D.
func TestCountRowsOracle(t *testing.T) {
	for _, tc := range oracleCases() {
		fw := NewForward(tc.view)
		ranks := fw.Ranks()
		rankOf := make(map[int]int32, ranks)
		for r, v := range fw.rc.order {
			rankOf[int(v)] = int32(r)
		}
		lowest := make([]int, ranks) // triangles per lowest rank
		for _, tri := range BruteForce(tc.view).Sorted() {
			lowest[min(rankOf[tri.A], rankOf[tri.B], rankOf[tri.C])]++
		}
		whole, err := DecodeFragment(fw.Fragment().Encode())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want2D := CountParallel2D(tc.view, 0)
		for _, p := range []int{1, 2, 3, 7, 12, ranks + 5} {
			name := fmt.Sprintf("%s p=%d", tc.name, p)
			cuts := fw.RowCuts(p)
			if len(cuts) != min(p, ranks)+1 || cuts[0] != 0 || int(cuts[len(cuts)-1]) != ranks {
				t.Fatalf("%s: cuts %v do not cut [0, %d) into %d ranges", name, cuts, ranks, min(p, ranks))
			}
			if again := NewForward(tc.view).RowCuts(p); !slices.Equal(again, cuts) {
				t.Fatalf("%s: a fresh Forward cut %v, first %v", name, again, cuts)
			}
			total := 0
			for i := 0; i+1 < len(cuts); i++ {
				lo, hi := cuts[i], cuts[i+1]
				if lo >= hi {
					t.Fatalf("%s: range %d = [%d, %d) is empty", name, i, lo, hi)
				}
				want := 0
				for r := lo; r < hi; r++ {
					want += lowest[r]
				}
				local := fw.CountRows(lo, hi)
				remote, err := CountRows(whole, lo, hi)
				if err != nil {
					t.Fatalf("%s range [%d, %d): %v", name, lo, hi, err)
				}
				if local != want || remote != want {
					t.Fatalf("%s range [%d, %d): Forward.CountRows %d, CountRows %d, oracle %d",
						name, lo, hi, local, remote, want)
				}
				total += local
			}
			if total != want2D {
				t.Fatalf("%s: ranges sum to %d, CountParallel2D %d", name, total, want2D)
			}
		}
	}
}

// TestCountRowsRejectsMismatch checks the replica-side validation: a
// range outside the rank space, or a fragment that is not a whole CSR,
// errors instead of miscounting.
func TestCountRowsRejectsMismatch(t *testing.T) {
	fw := NewForward(graph.WholeGraph(gen.GNP(48, 0.3, 2)))
	whole := fw.Fragment()
	n := int32(fw.Ranks())
	for _, rg := range [][2]int32{{-1, 3}, {5, 4}, {0, n + 1}} {
		if _, err := CountRows(whole, rg[0], rg[1]); err == nil {
			t.Fatalf("range [%d, %d) of a %d-rank CSR accepted", rg[0], rg[1], n)
		}
	}
	part := whole.Slice(0, n/2)
	if _, err := CountRows(&part, 0, n/2); err == nil {
		t.Fatal("a fragment of half the rows accepted as a whole CSR")
	}
}

// TestCountTripleOracle checks every block triple's task against the
// brute-force oracle on its own, not only through the sum: a triple's
// CountTriple and CountFragments must both equal the number of
// BruteForce triangles whose lowest, middle and apex ranks fall in
// blocks I, J and K. A task that counted a triangle under the wrong
// triple would keep every total right and still fail here.
func TestCountTripleOracle(t *testing.T) {
	cases := oracleCases()
	for _, tc := range cases {
		// One Forward serves every grid, as a coordinator's cached CSR does.
		fw := NewForward(tc.view)
		for _, p := range []int{1, 2, 3, 5, 8, 12} {
			checkTripleOracle(t, fmt.Sprintf("%s p=%d", tc.name, p), tc.view, fw.Plan(p))
		}
		// Wedge-balanced cuts never leave a block empty, but
		// CountFragments counts under whatever valid tiling it is given:
		// p = 8 made from the p = 5 cuts with empty blocks spliced in
		// first, in the middle and last.
		pl := NewDistPlan(tc.view, 5)
		c := pl.Tiling.Cuts
		cuts := []int32{c[0], c[0], c[1], c[2], c[2], c[3], c[4], c[5], c[5]}
		spliced := &DistPlan{rc: pl.rc, Tiling: Tiling{P: len(cuts) - 1, Ranks: pl.Tiling.Ranks, Cuts: cuts}}
		checkTripleOracle(t, tc.name+" spliced p=8", tc.view, spliced)
	}
}

// checkTripleOracle runs the per-triple oracle comparison for one plan.
func checkTripleOracle(t *testing.T, name string, view *graph.Sub, pl *DistPlan) {
	t.Helper()
	tl := pl.Tiling
	if err := tl.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	block := make([]int, tl.Ranks) // rank -> block
	for b := 0; b < tl.P; b++ {
		lo, hi := tl.Block(b)
		for r := lo; r < hi; r++ {
			block[r] = b
		}
	}
	rankOf := make(map[int]int32, len(pl.rc.order))
	for r, v := range pl.rc.order {
		rankOf[int(v)] = int32(r)
	}
	want := make(map[BlockTriple]int)
	for _, tri := range BruteForce(view).Sorted() {
		rs := []int32{rankOf[tri.A], rankOf[tri.B], rankOf[tri.C]}
		slices.Sort(rs)
		want[BlockTriple{block[rs[0]], block[rs[1]], block[rs[2]]}]++
	}
	frags := make([]*Fragment, tl.P)
	for b := range frags {
		f, err := DecodeFragment(pl.Fragment(b).Encode())
		if err != nil {
			t.Fatalf("%s block %d: %v", name, b, err)
		}
		frags[b] = f
	}
	// A replica's way: one decoded fragment of the whole CSR, sliced.
	whole, err := DecodeFragment((&Forward{rc: pl.rc}).Fragment().Encode())
	if err != nil {
		t.Fatalf("%s whole CSR: %v", name, err)
	}
	for _, tr := range tl.Triples() {
		local := pl.CountTriple(tr)
		remote, err := CountFragments(tl, tr, frags[tr.I], frags[tr.J])
		if err != nil {
			t.Fatalf("%s triple %+v: %v", name, tr, err)
		}
		fi, fj := whole.Slice(tl.Block(tr.I)), whole.Slice(tl.Block(tr.J))
		resident, err := CountFragments(tl, tr, &fi, &fj)
		if err != nil {
			t.Fatalf("%s triple %+v on the whole CSR: %v", name, tr, err)
		}
		if local != want[tr] || remote != want[tr] || resident != want[tr] {
			t.Fatalf("%s triple %+v: CountTriple %d, CountFragments %d, on the whole CSR %d, oracle %d",
				name, tr, local, remote, resident, want[tr])
		}
	}
}

// TestCountFragmentsRejectsMismatch checks the replica-side validation:
// a fragment for the wrong block, or a triple outside the grid, errors
// instead of silently miscounting.
func TestCountFragmentsRejectsMismatch(t *testing.T) {
	view := graph.WholeGraph(gen.GNP(48, 0.3, 2))
	pl := NewDistPlan(view, 3)
	f0, f1 := pl.Fragment(0), pl.Fragment(1)
	if _, err := CountFragments(pl.Tiling, BlockTriple{0, 1, 2}, f1, f1); err == nil {
		t.Fatal("fragment covering the wrong block accepted")
	}
	if _, err := CountFragments(pl.Tiling, BlockTriple{1, 0, 2}, f1, f0); err == nil {
		t.Fatal("unordered triple accepted")
	}
	if _, err := CountFragments(pl.Tiling, BlockTriple{0, 1, 3}, f0, f1); err == nil {
		t.Fatal("triple outside the grid accepted")
	}
}
