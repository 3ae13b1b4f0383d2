package route

import (
	"fmt"

	"dexpander/internal/congest"
	"dexpander/internal/rng"
)

// Route delivers all requests and returns the deliveries in arrival
// order — by round, then by destination node index, then inbox order:
// one fixed order for a fixed seed — plus the measured CONGEST cost of
// the query phase. Every request must have member endpoints; delivery is
// verified exactly-once and any shortfall is an error.
func (rt *Router) Route(reqs []Request) ([]Delivery, congest.Stats, error) {
	n := rt.view.Base().N()
	for i, rq := range reqs {
		if rq.Src < 0 || rq.Src >= n || rq.Dst < 0 || rq.Dst >= n ||
			!rt.view.Has(rq.Src) || !rt.view.Has(rq.Dst) {
			return nil, congest.Stats{}, fmt.Errorf("route: request %d endpoints (%d,%d) not members", i, rq.Src, rq.Dst)
		}
	}
	perSrc := make([][]packet, n)
	expected := make([]int, n)
	seq := make([]int, n) // per-destination round-robin over trees
	for _, rq := range reqs {
		hub := rt.HomeHub(rq.Dst)
		if rt.multi {
			// Spread each destination's incoming traffic across every
			// tree: the receive throughput grows with the hub count.
			hub = (hub + seq[rq.Dst]) % len(rt.hubs)
			seq[rq.Dst]++
		}
		perSrc[rq.Src] = append(perSrc[rq.Src], packet{
			hub:     hub,
			dst:     rq.Dst,
			payload: rq.Payload,
		})
		expected[rq.Dst]++
	}
	out := make([]Delivery, 0, len(reqs))
	initial := func(v int) []packet { return perSrc[v] }
	handle := func(v int, pk packet, arrival int) (int, bool) {
		if pk.dst == v {
			return -1, true
		}
		// Turn downward as soon as the registration path is met;
		// otherwise climb toward the hub.
		if port, ok := rt.down[v][key(pk.hub, pk.dst)]; ok {
			return int(port), false
		}
		return rt.parent[pk.hub][v], false
	}
	deliver := func(v int, pk packet) {
		out = append(out, Delivery{Dst: v, Payload: pk.payload})
	}
	stats, err := rt.runPhase(initial, handle, deliver, len(reqs))
	if err != nil {
		return nil, stats, err
	}
	// Exactly-once verification.
	got := make([]int, n)
	for _, d := range out {
		got[d.Dst]++
	}
	for dst, want := range expected {
		if got[dst] != want {
			return nil, stats, fmt.Errorf("route: destination %d received %d of %d messages", dst, got[dst], want)
		}
	}
	if len(out) != len(reqs) {
		return nil, stats, fmt.Errorf("route: delivered %d of %d messages", len(out), len(reqs))
	}
	return out, stats, nil
}

// UniformRandomRequests builds the canonical GKS workload on the view:
// each member v issues Deg(v) messages to degree-weighted random
// destinations, so every vertex is the source of O(deg) and the
// destination of O(deg) messages in expectation.
func UniformRandomRequests(rt *Router, seed uint64) []Request {
	r := rng.New(seed)
	members := rt.view.Members().Members()
	weights := make([]float64, len(members))
	for i, v := range members {
		weights[i] = float64(rt.view.Base().Deg(v))
		if weights[i] <= 0 {
			weights[i] = 1
		}
	}
	var reqs []Request
	for _, v := range members {
		for i := 0; i < rt.view.Base().Deg(v); i++ {
			dst := members[r.WeightedIndex(weights)]
			reqs = append(reqs, Request{Src: v, Dst: dst, Payload: int64(v)<<20 | int64(i)})
		}
	}
	return reqs
}
