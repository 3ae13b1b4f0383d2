package triangle

import (
	"context"
	"fmt"
	"sort"

	"dexpander/internal/congest"
	"dexpander/internal/core"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/obs"
	"dexpander/internal/par"
	"dexpander/internal/rng"
	"dexpander/internal/route"
)

// Options configures the CONGEST enumeration.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Subs overrides the decomposition subroutines (defaults to the
	// sequential reference; inject distributed ones to charge
	// decomposition rounds too).
	Subs core.Subroutines
	// Workers bounds the host goroutines processing a level's
	// vertex-disjoint components concurrently (and is forwarded to the
	// decomposition). 0 means GOMAXPROCS; 1 forces inline serial
	// execution. The output is bit-identical for every value.
	Workers int
}

// Enumerate's fixed parameters.
const (
	// decompEps is each level's decomposition target (paper: <= 1/6 so
	// that the E* recursion halves).
	decompEps = 1.0 / 6.0
	// decompK is the decomposition's trade-off parameter.
	decompK = 2
	// routerK is the GKS trade-off parameter for the per-component
	// routing structure (hub count ~ m^{1/routerK}).
	routerK = 2
	// preset selects the decomposition's constants.
	preset = nibble.Practical
	// maxRecursion caps E* recursion depth; the paper's O(log n) bound
	// applies when the target is at most 1/2.
	maxRecursion = 64
)

func (o Options) withDefaults() Options {
	if o.Subs == nil {
		// Forward the worker bound so Workers=1 is genuinely serial all
		// the way down to the nibble walk pool.
		o.Subs = core.SeqSubroutines{Preset: preset, Workers: o.Workers}
	}
	return o
}

// Stats aggregates the cost of one enumeration.
type Stats struct {
	// Rounds is the total simulated CONGEST cost: per recursion level,
	// decomposition rounds plus the maximum over components of
	// build+query rounds (components route in parallel), summed over
	// levels.
	Rounds int
	// CongestRounds tracks channel-inflated rounds the same way.
	CongestRounds int
	// Messages is total message traffic.
	Messages int64
	// Recursions is the number of E* recursion levels used.
	Recursions int
	// Components is the total number of processed (>= 2 vertex)
	// components across levels.
	Components int
	// DecompRounds isolates the decomposition's share of Rounds.
	DecompRounds int
}

// componentSeedID packs a recursion level and a component index into the
// stream id of the per-component RNG fork. The high bit separates the
// component streams from the per-level decomposition streams (which fork
// on the bare level); the level occupies bits 32..62 and the component
// index bits 0..31, so the packing is injective for any level < 2^31 and
// any component count up to 2^32 — the old level<<20|ci packing collided
// as soon as a level had 2^20 components.
func componentSeedID(level, ci int) uint64 {
	return 1<<63 | uint64(level)<<32 | uint64(ci)
}

// combineComponents folds per-component routing costs the way the
// synchronous network charges vertex-disjoint components running
// simultaneously: Rounds and CongestRounds are each the maximum over
// components (independently — the congestion-heaviest component need not
// be the round-longest), while Messages and Words sum, since every
// component's traffic really crosses the wire. The old combiner copied
// the whole Stats of the max-Rounds component, undercounting total
// message traffic.
func combineComponents(stats []congest.Stats) congest.Stats {
	var total congest.Stats
	for _, cs := range stats {
		total.CombineParallel(cs)
	}
	return total
}

// Enumerate implements Theorem 2: every triangle of the view is reported.
// Each level computes an (eps, phi)-expander decomposition, processes
// each component Vi with the group-triple routing scheme over the edge
// set F_i = {edges with an endpoint in Vi} — which catches every triangle
// having at least one intra-component edge — and recurses on the
// inter-component edges E* (at most eps*m of them, so the recursion
// shrinks geometrically).
//
// The vertex-disjoint components of a level are processed concurrently on
// Options.Workers goroutines, matching the parallelism the round
// accounting models. Determinism for any worker count follows the
// seed-prefork / ordered-merge discipline: every component's seed is
// forked from the root stream (componentSeedID) before dispatch, each
// component collects its triangles into a private Set, and sets and stats
// merge in component order — sibling F_i edge sets overlap only at
// boundary edges, whose duplicate triangles the Set dedupes identically
// regardless of merge order. It is EnumerateContext under
// context.Background.
func Enumerate(view *graph.Sub, opt Options) (*Set, Stats, error) {
	return EnumerateContext(context.Background(), view, opt)
}

// EnumerateContext is Enumerate under a context. ctx's checkpoint is
// probed at every recursion level and before each component task, and
// reaches the per-level decomposition, so a canceled enumeration
// returns ctx's error within one component (or decomposition
// subroutine) call. When ctx carries a span, each recursion level gets
// an "enumerate.level" child holding the decomposition's spans and one
// "enumerate.component" span per component. An uncanceled run's output
// is untouched.
func EnumerateContext(ctx context.Context, view *graph.Sub, opt Options) (*Set, Stats, error) {
	opt = opt.withDefaults()
	g := view.Base()
	out := NewSet()
	var st Stats
	workers := par.Workers(opt.Workers)
	mask := make([]bool, g.M())
	remaining := 0
	for e := 0; e < g.M(); e++ {
		if view.Usable(e) && !g.IsLoop(e) {
			mask[e] = true
			remaining++
		}
	}
	root := rng.New(opt.Seed)
	sp := obs.SpanFromContext(ctx)
	for level := 0; level < maxRecursion && remaining > 0; level++ {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		st.Recursions++
		lsp := sp.Child("enumerate.level")
		lsp.AttrInt("level", level).AttrInt("edges", remaining)
		cur := graph.NewSub(g, view.Members(), mask)
		dec, err := core.DecomposeContext(obs.ContextWithSpan(ctx, lsp), cur, core.Options{
			Eps:     decompEps,
			K:       decompK,
			Preset:  preset,
			Seed:    root.Fork(uint64(level)).Uint64(),
			Workers: opt.Workers,
		}, opt.Subs)
		if err != nil {
			lsp.End()
			return nil, st, fmt.Errorf("triangle: decomposition at level %d: %w", level, err)
		}
		st.Rounds += dec.Stats.Rounds
		st.CongestRounds += dec.Stats.CongestRounds
		st.Messages += dec.Stats.Messages
		st.DecompRounds += dec.Stats.Rounds
		final := graph.NewSub(g, view.Members(), dec.FinalMask)

		// Component tasks: seeds forked in component order before
		// dispatch, results merged back in component order.
		type compTask struct {
			ci   int
			comp *graph.VSet
			seed uint64
		}
		type compResult struct {
			set   *Set
			stats congest.Stats
			err   error
		}
		var tasks []compTask
		for ci, comp := range final.ComponentSets() {
			if comp.Len() < 2 {
				continue
			}
			tasks = append(tasks, compTask{
				ci: ci, comp: comp,
				seed: root.Fork(componentSeedID(level, ci)).Uint64(),
			})
		}
		results := make([]compResult, len(tasks))
		if err := par.ForEachContext(ctx, workers, len(tasks), func(i int) {
			defer lsp.Child("enumerate.component").AttrInt("task", i).End()
			set, cs, err := processComponent(cur, final, tasks[i].comp, opt, tasks[i].seed)
			results[i] = compResult{set: set, stats: cs, err: err}
		}); err != nil {
			lsp.End()
			return nil, st, err
		}
		lsp.AttrInt("components", len(tasks))
		lsp.End()
		compStats := make([]congest.Stats, 0, len(results))
		for i, res := range results {
			if res.err != nil {
				return nil, st, fmt.Errorf("triangle: component %d at level %d: %w", tasks[i].ci, level, res.err)
			}
			st.Components++
			compStats = append(compStats, res.stats)
			out.Merge(res.set)
		}
		levelTotal := combineComponents(compStats)
		st.Rounds += levelTotal.Rounds
		st.CongestRounds += levelTotal.CongestRounds
		st.Messages += levelTotal.Messages
		// E* = the edges the decomposition removed; recurse on them. The
		// remaining count is maintained while building the next mask, not
		// by rescanning it at the top of the level.
		next := make([]bool, g.M())
		nextRemaining := 0
		progress := false
		for e := 0; e < g.M(); e++ {
			if mask[e] && !dec.FinalMask[e] {
				next[e] = true
				nextRemaining++
			} else if mask[e] {
				progress = true // edge handled inside a component
			}
		}
		if !progress {
			// Decomposition removed everything (e.g. all singletons):
			// the leftover graph has at most eps*m edges but nothing
			// was consumed; fall back to brute local handling to
			// guarantee termination (cannot happen for eps < 1 on
			// non-degenerate graphs, but guard anyway).
			leftovers := BruteForce(graph.NewSub(g, view.Members(), next))
			out.Merge(leftovers)
			break
		}
		mask, remaining = next, nextRemaining
	}
	return out, st, nil
}

// processComponent runs the group-triple scheme on one component: the
// edge set F = {usable edges with >= 1 endpoint in comp} is distributed,
// via the component's router, to handler vertices hashed from group
// triples; handlers enumerate locally. Every triangle with at least one
// edge inside comp is found: all three of its edges have an endpoint in
// comp, hence lie in F and reach the triple's handler. The triangles come
// back in a private Set so sibling components can run concurrently; the
// caller merges. cur and final are shared read-only across siblings.
func processComponent(cur, final *graph.Sub, comp *graph.VSet, opt Options, seed uint64) (*Set, congest.Stats, error) {
	g := cur.Base()
	out := NewSet()
	compView := final.Restrict(comp)
	members := comp.Members()
	nC := len(members)
	var total congest.Stats

	// Multi-registration spreads each handler's heavy receive load over
	// every hub tree, which is what keeps the per-instance query cost at
	// ~(depth + per-vertex load) instead of serializing on one tree edge.
	rt, err := route.BuildWithOptions(compView, route.Options{
		Hubs:          route.HubCountForK(compView, routerK),
		MultiRegister: true,
		Seed:          seed,
	})
	if err != nil {
		return nil, total, fmt.Errorf("router build: %w", err)
	}
	total.Add(rt.BuildStats)

	groups := GroupCount(nC)
	hash := rng.New(seed ^ 0xfeed)
	groupOf := func(v int) int { return int(hash.Fork(uint64(v)).Uint64() % uint64(groups)) }
	handlerOf := func(a, b, c int) int {
		t := [3]int{a, b, c}
		sort.Ints(t[:])
		h := hash.Fork(0xabc ^ uint64(t[0])<<40 ^ uint64(t[1])<<20 ^ uint64(t[2])).Uint64()
		return members[h%uint64(nC)]
	}

	// Build the routing requests in g batches, one per third group c —
	// the paper's "O~(n^{1/3}) sequential queries of the routing
	// structure, each with O(deg(v)) per-vertex load". Each F-edge,
	// owned by its smallest in-component endpoint, goes in batch c to
	// the handler of the triple (group(u), group(v), c). Payload packs
	// the edge id; handlers decode endpoints host-side.
	batches := make([][]route.Request, groups)
	for e := 0; e < g.M(); e++ {
		if !cur.Usable(e) || g.IsLoop(e) {
			continue
		}
		u, v := g.EdgeEndpoints(e)
		owner := -1
		switch {
		case comp.Has(u) && comp.Has(v):
			owner = u
		case comp.Has(u):
			owner = u
		case comp.Has(v):
			owner = v
		default:
			continue
		}
		gu, gv := groupOf(u), groupOf(v)
		sent := make(map[int]bool) // dedup handlers across c within the edge
		for c := 0; c < groups; c++ {
			h := handlerOf(gu, gv, c)
			if sent[h] {
				continue
			}
			sent[h] = true
			batches[c] = append(batches[c], route.Request{Src: owner, Dst: h, Payload: int64(e)})
		}
	}
	perHandler := make(map[int][][2]int)
	for c, reqs := range batches {
		if len(reqs) == 0 {
			continue
		}
		deliveries, qs, err := rt.Route(reqs)
		if err != nil {
			return nil, total, fmt.Errorf("routing F-edges (batch %d): %w", c, err)
		}
		total.Add(qs)
		for _, d := range deliveries {
			u, v := g.EdgeEndpoints(int(d.Payload))
			perHandler[d.Dst] = append(perHandler[d.Dst], [2]int{u, v})
		}
	}
	for _, edges := range perHandler {
		listLocal(out, edges)
	}
	return out, total, nil
}
