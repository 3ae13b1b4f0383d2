package route

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"dexpander/internal/congest"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// deliveryDigest hashes the deliveries grouped by destination, in
// increasing destination order and, per destination, in arrival order.
func deliveryDigest(out []Delivery) uint64 {
	byDst := make(map[int][]int64)
	for _, d := range out {
		byDst[d.Dst] = append(byDst[d.Dst], d.Payload)
	}
	dsts := make([]int, 0, len(byDst))
	for dst := range byDst {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, dst := range dsts {
		put(int64(dst))
		put(int64(len(byDst[dst])))
		for _, p := range byDst[dst] {
			put(p)
		}
	}
	return h.Sum64()
}

// TestRouterOutputsPinned pins the router's complete simulated output:
// every BuildStats and query Stats field, and the deliveries grouped by
// destination, on a single-registration expander and a multi-registered
// grid. The values were recorded when the router ran one goroutine per
// node; any change to the build, registration or query protocol, or to
// the engine's delivery order, moves them.
func TestRouterOutputsPinned(t *testing.T) {
	cases := []struct {
		name       string
		g          *graph.Graph
		opt        Options
		reqSeed    uint64
		build      congest.Stats
		query      congest.Stats
		deliveries int
		digest     uint64
	}{
		{
			name:       "expander-64",
			g:          gen.ExpanderByMatchings(64, 6, 4),
			opt:        Options{Hubs: 6, Seed: 13},
			reqSeed:    21,
			build:      congest.Stats{Rounds: 76, CongestRounds: 118, Messages: 5388, Words: 10943},
			query:      congest.Stats{Rounds: 66, CongestRounds: 132, Messages: 6042, Words: 13752},
			deliveries: 374,
			digest:     0x5aa3a9217d24df66,
		},
		{
			name:       "grid-8x8-multi",
			g:          gen.Grid(8, 8),
			opt:        Options{Hubs: 4, MultiRegister: true, Seed: 5},
			reqSeed:    9,
			build:      congest.Stats{Rounds: 208, CongestRounds: 344, Messages: 10691, Words: 22774},
			query:      congest.Stats{Rounds: 115, CongestRounds: 230, Messages: 8696, Words: 19008},
			deliveries: 224,
			digest:     0x436c45ae03610c49,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := BuildWithOptions(graph.WholeGraph(tc.g), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			out, qs, err := rt.Route(UniformRandomRequests(rt, tc.reqSeed))
			if err != nil {
				t.Fatal(err)
			}
			if rt.BuildStats != tc.build {
				t.Errorf("BuildStats = %#v, want %#v", rt.BuildStats, tc.build)
			}
			if qs != tc.query {
				t.Errorf("query Stats = %#v, want %#v", qs, tc.query)
			}
			if got := deliveryDigest(out); len(out) != tc.deliveries || got != tc.digest {
				t.Errorf("deliveries %d digest %#x, want %d %#x", len(out), got, tc.deliveries, tc.digest)
			}
		})
	}
}
