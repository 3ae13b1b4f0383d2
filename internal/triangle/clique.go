package triangle

import (
	"sort"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
)

// CliqueDLP runs the Dolev–Lenzen–Peled deterministic CONGESTED-CLIQUE
// triangle enumeration: vertices are split into g = ceil(n^{1/3}) groups;
// each of the ~g^3/6 <= n group triples is assigned to a handler vertex;
// each edge is shipped to the g handlers whose triple contains its group
// pair; handlers enumerate locally. With all-to-all links the per-vertex
// communication is O(m g / n) words, giving the O(n^{1/3}) round bound on
// dense graphs (O(n^{1/3}/log n) in the bit-accounting of the original
// paper; our engine counts one word-message per link per round).
//
// Every triangle is reported by exactly one handler. The second return
// is the engine's cost; the busy-flag termination protocol runs on a
// second logical channel, reflected in CongestRounds.
func CliqueDLP(view *graph.Sub, seed uint64) (*Set, congest.Stats, error) {
	return CliqueWithGroups(view, GroupCount(view.Members().Len()), seed)
}

// CliqueWithGroups is the generalized group-triple scheme with an
// explicit group count g >= 1: correctness holds for every g (a
// triangle's three group pairs are subsets of its sorted group triple,
// so one handler sees all three edges); g controls the
// communication/local-work trade-off. On sparse graphs (m = O(n^{5/3}))
// the default DLP parameterization already finishes in O(1) rounds —
// the all-to-all bandwidth n-1 exceeds the m*g/n per-vertex traffic —
// which is the regime the paper's Section 4 attributes to
// Censor-Hillel–Leitersdorf–Turner; their constant-factor improvements
// beyond that are finer than this simulation resolves.
func CliqueWithGroups(view *graph.Sub, groups int, seed uint64) (*Set, congest.Stats, error) {
	g := view.Base()
	members := view.Members().Members()
	n := len(members)
	out := NewSet()
	if n < 3 {
		return out, congest.Stats{}, nil
	}
	if groups < 1 {
		groups = 1
	}
	if groups > n {
		groups = n
	}
	idx := make(map[int]int, n) // vertex -> dense index
	for i, v := range members {
		idx[v] = i
	}
	groupOf := func(v int) int { return idx[v] * groups / n }
	// Enumerate group triples (a <= b <= c) and assign handler i -> the
	// i-th member.
	type triple struct{ a, b, c int }
	var triples []triple
	for a := 0; a < groups; a++ {
		for b := a; b < groups; b++ {
			for c := b; c < groups; c++ {
				triples = append(triples, triple{a, b, c})
			}
		}
	}
	// Round-robin triples over handlers: at most ceil(|triples|/n) per
	// vertex (one each beyond tiny n, where C(g+2,3) can slightly
	// exceed n).
	handlerOf := make(map[triple]int, len(triples))
	for i, t := range triples {
		handlerOf[t] = i % n
	}
	// Each edge, owned by its smaller endpoint, must reach the handlers
	// of all triples containing its group pair.
	type outMsg struct {
		to   int
		u, v int
	}
	perSender := make(map[int][]outMsg)
	for e := 0; e < g.M(); e++ {
		if !view.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		owner := u
		gu, gv := groupOf(u), groupOf(v)
		if gu > gv {
			gu, gv = gv, gu
		}
		targets := make(map[int]bool)
		for c := 0; c < groups; c++ {
			t := [3]int{gu, gv, c}
			sort.Ints(t[:])
			targets[handlerOf[triple{t[0], t[1], t[2]}]] = true
		}
		for h := range targets {
			perSender[owner] = append(perSender[owner], outMsg{to: h, u: u, v: v})
		}
	}
	received := make([][][2]int, n) // per handler: edges
	eng := congest.NewClique(n, congest.Config{Seed: seed, MaxWords: 2, Channels: 2})
	err := eng.RunSteps(func(nd *congest.Node) congest.Step {
		me := nd.V() // dense index in clique engine
		deg := nd.Degree()
		queues := make([][]outMsg, deg)
		for _, m := range perSender[members[me]] {
			if m.to == me {
				received[me] = append(received[me], [2]int{m.u, m.v})
				continue
			}
			p := nd.PortOf(m.to)
			queues[p] = append(queues[p], m)
		}
		busy := false
		// send stages a round: each port's queue head on channel 0, and
		// the busy flag (whether anything is still queued) to everyone on
		// channel 1.
		send := func() {
			busy = false
			for p := range queues {
				if len(queues[p]) > 0 {
					m := queues[p][0]
					queues[p] = queues[p][1:]
					nd.SendOn(0, p, int64(m.u), int64(m.v))
					busy = busy || len(queues[p]) > 0
				}
			}
			flag := int64(0)
			if busy {
				flag = 1
			}
			for p := 0; p < deg; p++ {
				nd.SendOn(1, p, flag)
			}
		}
		send()
		// The node runs until it and every neighbor report quiet.
		return func(in []congest.Incoming) bool {
			quietNeighbors := 0
			for _, m := range in {
				switch m.Ch {
				case 0:
					received[me] = append(received[me], [2]int{int(m.Words[0]), int(m.Words[1])})
				case 1:
					if m.Words[0] == 0 {
						quietNeighbors++
					}
				}
			}
			if busy || quietNeighbors < deg {
				send()
				return false
			}
			return true
		}
	})
	if err != nil {
		return nil, eng.Stats(), err
	}
	// Handlers enumerate locally.
	for _, edges := range received {
		listLocal(out, edges)
	}
	return out, eng.Stats(), nil
}
