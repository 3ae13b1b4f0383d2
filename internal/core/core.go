// Package core implements the paper's primary contribution: the
// (eps, phi)-expander decomposition of Theorem 1.
//
// The algorithm follows Section 2 exactly. Phase 1 alternates a
// low-diameter decomposition (removing inter-cluster edges, Remove-1)
// with a nearly most balanced sparse cut at parameter phi_0 (removing cut
// edges and recursing when the cut is big enough, Remove-2); components
// whose cut is empty are final, and components with a small cut enter
// Phase 2. Phase 2 walks a ladder of conductance parameters
// phi_L = hInv(phi_{L-1}) for L = 1..k, peeling cuts whose volume exceeds
// the level threshold m_L/(2 tau) (removing all incident edges, Remove-3,
// which turns the peeled vertices into singleton components) and
// promoting L when cuts get small. The trade-off parameter k gives
// Theorem 1's round bound O(n^{2/k} poly(1/phi, log n)).
//
// Edge removals never change degrees: removed edges become implicit
// self-loops via the graph.Sub machinery, so every volume computed
// anywhere in the pipeline uses original degrees, as the paper requires.
//
// The two subroutines (LDD and sparse cut) are injected through the
// Subroutines interface so that the same orchestration runs with
// sequential reference implementations (SeqSubroutines) or inside the
// CONGEST simulator (dnibble/dldd wiring; see package dnibble). Round
// statistics are combined the way a synchronous network would: steps over
// vertex-disjoint sibling components run in parallel, so their rounds
// combine as the maximum while their traffic sums
// (congest.Stats.CombineParallel), and successive steps add.
//
// One level up, every way of producing a Decomposition is a Backend — a
// BackendInfo plus the function that runs it — registered in a closed
// static registry the way gen's family registry works (LookupBackend,
// BackendNames, BackendsByCost):
//
//   - "cs19" is this randomized pipeline with the sequential reference
//     subroutines — the paper's algorithm, seeded.
//   - "det" runs the same orchestration with derandomized subroutines
//     (deterministic BFS ball-growing in place of the exponential-shift
//     LDD, a greedy deterministic sweep-cut schedule in place of the
//     Nibble random walks): zero RNG dependence, so the output is
//     bit-identical for every Seed, worker count, and process.
//   - "par-cmps" is the simple near-optimal parallel decomposition of
//     Chen–Meierhans–Probst Gutenberg–Saranurak (arXiv 2410.13451):
//     repeated low-diameter clustering with boundary-linked recursion
//     (the implicit-self-loop machinery below IS the boundary linking)
//     under a hard edge-removal budget — the fast host path.
//
// DecomposeAuto picks the cheapest backend whose independently measured
// inter-cluster fraction (Decomposition.InterFraction, recomputed from
// the final mask) meets a requested bound; the service's backend=auto is
// exactly this call.
//
// Cancellation and tracing ride the context: DecomposeContext,
// DecomposeAutoContext and Backend.DecomposeContext probe ctx between
// subroutine calls and hang their phase spans under the span ctx carries
// (obs.SpanFromContext). The ctx-free names run under
// context.Background. Neither alters an uncanceled output.
//
// The host-side execution exploits the same structure the accounting
// models: the vertex-disjoint tasks of a Phase 1 level (the LDD step, then
// the sparse-cut step) and the independent Phase 2 components run on
// Options.Workers goroutines. Determinism is preserved for any worker
// count by the seed-prefork / private-log / ordered-merge discipline: every
// per-task seed is drawn from the shared counter in task order before
// dispatch (Phase 2 components reserve a seed block sized by their
// deterministic iteration cap), each task mutates a pooled private copy of
// the evolving edge mask and records its removals in a removalLog, and the
// logs, cluster lists, and statistics fold back into the shared state in
// task order after each stage. Outputs are bit-identical to the
// single-worker execution (pinned by the parallel oracle tests).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"dexpander/internal/congest"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/obs"
	"dexpander/internal/par"
	"dexpander/internal/rng"
)

// Options configures a decomposition run.
type Options struct {
	// Eps is the target inter-cluster edge fraction (0, 1).
	Eps float64
	// K is Theorem 1's trade-off parameter, in [1, MaxK] (larger K =
	// fewer rounds, worse phi).
	K int
	// Preset selects Paper or Practical constants for both subroutines.
	Preset nibble.Preset
	// Seed drives all randomness.
	Seed uint64
	// MaxPhase1Depth overrides the derived depth cap d when positive
	// (tests use it to bound runtime).
	MaxPhase1Depth int
	// Workers bounds the host goroutines running vertex-disjoint tasks
	// (Phase 1 subroutine calls, Phase 2 components) concurrently.
	// 0 means GOMAXPROCS; 1 forces inline serial execution. The output is
	// bit-identical for every value.
	Workers int
}

// MaxK is the largest Options.K accepted. Theorem 1's trade-off runs
// through n^{2/K}, which is at most 2 for every K >= 48 at the 2^24
// vertices the service admits, so a larger K buys nothing — while the
// phi ladder allocates K+1 rungs up front.
const MaxK = 64

// Typed Options validation errors, so callers can distinguish a bad
// request from a pipeline fault with errors.Is.
var (
	// ErrBadEps reports an Eps outside (0,1), NaN and ±Inf included.
	ErrBadEps = errors.New("core: eps out of range")
	// ErrBadK reports a K outside [1, MaxK].
	ErrBadK = errors.New("core: k out of range")
	// ErrBadPreset reports an unset Preset.
	ErrBadPreset = errors.New("core: preset not set")
)

func (o Options) validate() error {
	// Written as the negated conjunction deliberately: NaN fails both
	// ordered comparisons, so the former `Eps <= 0 || Eps >= 1` form waved
	// NaN through and the parameter derivation poisoned every ladder value
	// downstream. `!(Eps > 0 && Eps < 1)` rejects NaN and ±Inf alike.
	if !(o.Eps > 0 && o.Eps < 1) {
		return fmt.Errorf("%w: Eps = %v not in (0,1)", ErrBadEps, o.Eps)
	}
	if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("%w: K = %d not in [1,%d]", ErrBadK, o.K, MaxK)
	}
	if o.Preset == 0 {
		return ErrBadPreset
	}
	return nil
}

// Subroutines abstracts the decomposition's two primitives. Both methods
// may be called concurrently on vertex-disjoint views, so implementations
// must not share mutable state across calls.
type Subroutines interface {
	// LDD decomposes the view with parameter beta (Theorem 4).
	LDD(view *graph.Sub, beta float64, seed uint64) (*ldd.Result, congest.Stats, error)
	// SparseCut finds a nearly most balanced sparse cut of the active
	// members at conductance parameter phi (Theorem 3). comm is the
	// communication graph, which may be a supergraph of the active
	// members (Phase 2 components may be disconnected but can talk over
	// all of G*'s edges, as the paper notes).
	SparseCut(comm *graph.Sub, active *graph.VSet, phi float64, seed uint64) (*nibble.PartitionResult, congest.Stats, error)
}

// Decomposition is the result of Theorem 1.
type Decomposition struct {
	// Labels maps each member vertex to its component id; non-members
	// hold graph.Unreachable.
	Labels []int
	// Count is the number of components.
	Count int
	// CutEdges counts removed (inter-component) edges.
	CutEdges int64
	// EpsAchieved is CutEdges / m.
	EpsAchieved float64
	// PhiTarget is phi_k, the conductance the components are certified
	// against.
	PhiTarget float64
	// PhiLadder is the full parameter sequence phi_0 >= ... >= phi_k.
	PhiLadder []float64
	// Phase1Depth is the deepest Phase 1 recursion level reached.
	Phase1Depth int
	// Phase2MaxIterations is the largest Phase 2 loop count over
	// components.
	Phase2MaxIterations int
	// Singletons counts vertices isolated by Remove-3.
	Singletons int
	// Removed1, Removed2, Removed3 split CutEdges by removal site.
	Removed1, Removed2, Removed3 int64
	// Stats aggregates simulated CONGEST cost (zero for sequential
	// subroutines).
	Stats congest.Stats
	// FinalMask is the surviving edge mask; components are its
	// connected components.
	FinalMask []bool
}

// Decompose runs Theorem 1 on the view with the given subroutines. It is
// DecomposeContext under context.Background.
func Decompose(view *graph.Sub, opt Options, subs Subroutines) (*Decomposition, error) {
	return DecomposeContext(context.Background(), view, opt, subs)
}

// DecomposeContext runs Theorem 1 on the view with the given subroutines.
// ctx is probed at every recursion level, before each
// vertex-disjoint phase task is dispatched, and at each Phase 2
// iteration, so a canceled run returns ctx's error within one subroutine
// call. When ctx carries a span, each Phase 1 level (with per-task
// LDD/sparse-cut sub-spans) and the Phase 2 component fan-out get child
// spans. An uncanceled run's output is bit-identical either way.
func DecomposeContext(ctx context.Context, view *graph.Sub, opt Options, subs Subroutines) (*Decomposition, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := view.Base()
	n := g.N()
	m := float64(view.UsableEdgeCount())
	if m == 0 {
		labels, count := view.Components()
		return &Decomposition{Labels: labels, Count: count, FinalMask: make([]bool, g.M())}, nil
	}

	// Parameter derivation (Section 2).
	// d: smallest integer with (1 - eps/12)^d * 2*C(n,2) < 1.
	nf := float64(n)
	d := int(math.Ceil(math.Log(nf*nf) / -math.Log(1-opt.Eps/12)))
	if d < 1 {
		d = 1
	}
	if opt.MaxPhase1Depth > 0 && d > opt.MaxPhase1Depth {
		d = opt.MaxPhase1Depth
	}
	beta := (opt.Eps / 3) / float64(d)
	// phi_0: h(phi_0) = eps / (6 log2 |E|), so Remove-2's charging stays
	// below (eps/3)|E|.
	logM := math.Log2(m)
	if logM < 1 {
		logM = 1
	}
	ladder := make([]float64, opt.K+1)
	ladder[0] = nibble.TransferHInv(view, opt.Eps/(6*logM), opt.Preset)
	for i := 1; i <= opt.K; i++ {
		ladder[i] = nibble.TransferHInv(view, ladder[i-1], opt.Preset)
	}

	st := &state{
		view:    view,
		opt:     opt,
		subs:    subs,
		ladder:  ladder,
		beta:    beta,
		d:       d,
		mask:    aliveMask(view),
		root:    rng.New(opt.Seed),
		workers: par.Workers(opt.Workers),
	}
	dec := &Decomposition{PhiTarget: ladder[opt.K], PhiLadder: ladder}

	// Phase 1, level by level so sibling costs combine as max.
	tasks := splitComponents(st.current(), view.Members())
	depth := 0
	var phase2 []*graph.VSet
	sp := obs.SpanFromContext(ctx)
	for len(tasks) > 0 && depth < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		depth++
		dec.Phase1Depth = depth
		lsp := sp.Child("core.phase1.level")
		lsp.AttrInt("level", depth).AttrInt("tasks", len(tasks))
		next, entered, err := st.phase1Level(ctx, tasks, dec, lsp)
		lsp.End()
		if err != nil {
			return nil, err
		}
		phase2 = append(phase2, entered...)
		tasks = next
	}
	// Any tasks still alive at the cap enter Phase 2 directly (the cap
	// is unreachable under the paper's d; this is the safety valve for
	// overridden depths).
	phase2 = append(phase2, tasks...)

	// Phase 2 per component; parallel across components, each working on
	// its own private mask with a seed block reserved in task order.
	budgets := make([]int, len(phase2))
	bases := make([]uint64, len(phase2))
	for i, u := range phase2 {
		budgets[i] = st.phase2Budget(u)
		bases[i] = st.reserveSeeds(budgets[i])
	}
	outs := make([]phase2Out, len(phase2))
	psp := sp.Child("core.phase2")
	psp.AttrInt("components", len(phase2))
	if err := par.ForEachContext(ctx, st.workers, len(phase2), func(i int) {
		defer psp.Child("core.phase2.component").AttrInt("task", i).End()
		outs[i] = st.phase2(ctx, phase2[i], budgets[i], bases[i])
	}); err != nil {
		psp.End()
		return nil, err
	}
	psp.End()
	var p2Par congest.Stats
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		if o.iters > dec.Phase2MaxIterations {
			dec.Phase2MaxIterations = o.iters
		}
		o.log.applyTo(st.mask)
		dec.Removed3 += o.removed
		p2Par.CombineParallel(o.stats)
	}
	dec.Stats.Add(p2Par)
	dec.Stats.Add(st.stats)

	// Final labeling: connected components of the surviving mask.
	final := graph.NewSub(g, view.Members(), st.mask)
	dec.Labels, dec.Count = final.Components()
	dec.FinalMask = st.mask
	dec.CutEdges = dec.Removed1 + dec.Removed2 + dec.Removed3
	dec.EpsAchieved = float64(dec.CutEdges) / m
	view.Members().ForEach(func(v int) {
		if final.AliveDeg(v) == 0 {
			dec.Singletons++
		}
	})
	return dec, nil
}

// state carries the evolving edge mask and accounting.
type state struct {
	view    *graph.Sub
	opt     Options
	subs    Subroutines
	ladder  []float64
	beta    float64
	d       int
	mask    []bool
	root    *rng.RNG
	stats   congest.Stats
	seqNo   uint64
	workers int
}

func (s *state) current() *graph.Sub {
	return graph.NewSub(s.view.Base(), s.view.Members(), s.mask)
}

func (s *state) nextSeed() uint64 {
	s.seqNo++
	return s.root.Fork(s.seqNo).Uint64()
}

// reserveSeeds claims a block of count consecutive stream ids from the
// shared counter and returns the first; the caller derives seed j of its
// block as root.Fork(first + j). Blocks are reserved in task order before
// dispatch, which keeps the seed schedule independent of worker timing.
func (s *state) reserveSeeds(count int) uint64 {
	first := s.seqNo + 1
	s.seqNo += uint64(count)
	return first
}

// phase1Level runs one recursion level of Phase 1 over all live tasks:
// the LDD step, then the sparse-cut step on each resulting component.
// It returns the tasks for the next level and the components entering
// Phase 2. Both steps fan their vertex-disjoint tasks across the worker
// pool; per-task seeds are drawn in task order before dispatch, each task
// works on a pooled private copy of the stage-start mask, and removal
// logs, cluster lists, and stats merge back in task order. Sibling costs
// combine as max-rounds/summed-traffic; the two steps add.
// lsp is the enclosing level's trace span (nil when tracing is off);
// the LDD and sparse-cut stages each get a child with per-task spans.
func (s *state) phase1Level(ctx context.Context, tasks []*graph.VSet, dec *Decomposition, lsp *obs.Span) (next []*graph.VSet, phase2 []*graph.VSet, err error) {
	g := s.view.Base()

	type lddOut struct {
		log     removalLog
		removed int64
		comps   []*graph.VSet
		stats   congest.Stats
		err     error
	}
	lddSeeds := make([]uint64, len(tasks))
	for i := range tasks {
		lddSeeds[i] = s.nextSeed()
	}
	lddOuts := make([]lddOut, len(tasks))
	lddSpan := lsp.Child("core.ldd")
	lddSpan.AttrInt("tasks", len(tasks))
	if err := par.ForEachContext(ctx, s.workers, len(tasks), func(i int) {
		defer lddSpan.Child("core.ldd.task").AttrInt("task", i).End()
		o := &lddOuts[i]
		u := tasks[i]
		priv := acquireMask(s.mask)
		defer releaseMask(priv)
		sub := graph.NewSub(g, s.view.Members(), *priv).Restrict(u)
		res, stats, err := s.subs.LDD(sub, s.beta, lddSeeds[i])
		if err != nil {
			o.err = fmt.Errorf("core: phase 1 LDD: %w", err)
			return
		}
		o.stats = stats
		// Remove-1: inter-cluster edges.
		o.removed = o.log.removeInterLabel(g, *priv, u, res.Labels)
		o.comps = splitComponents(graph.NewSub(g, s.view.Members(), *priv), u)
	}); err != nil {
		lddSpan.End()
		return nil, nil, err
	}
	lddSpan.End()
	var lddPar congest.Stats
	var afterLDD []*graph.VSet
	for i := range lddOuts {
		o := &lddOuts[i]
		if o.err != nil {
			return nil, nil, o.err
		}
		lddPar.CombineParallel(o.stats)
		o.log.applyTo(s.mask)
		dec.Removed1 += o.removed
		afterLDD = append(afterLDD, o.comps...)
	}

	const (
		cutFinal = iota
		cutSmall
		cutRemoved
	)
	type cutOut struct {
		kind    int
		log     removalLog
		removed int64
		comps   []*graph.VSet
		stats   congest.Stats
		err     error
	}
	cutSeeds := make([]uint64, len(afterLDD))
	for i := range afterLDD {
		cutSeeds[i] = s.nextSeed()
	}
	cutOuts := make([]cutOut, len(afterLDD))
	cutSpan := lsp.Child("core.cut")
	cutSpan.AttrInt("tasks", len(afterLDD))
	if err := par.ForEachContext(ctx, s.workers, len(afterLDD), func(i int) {
		defer cutSpan.Child("core.cut.task").AttrInt("task", i).End()
		o := &cutOuts[i]
		u := afterLDD[i]
		priv := acquireMask(s.mask)
		defer releaseMask(priv)
		sub := graph.NewSub(g, s.view.Members(), *priv).Restrict(u)
		cut, stats, err := s.subs.SparseCut(sub, u, s.ladder[0], cutSeeds[i])
		if err != nil {
			o.err = fmt.Errorf("core: phase 1 sparse cut: %w", err)
			return
		}
		o.stats = stats
		switch {
		case cut.Empty():
			// Final component: conductance certified at phi_0 >= phi_k.
			o.kind = cutFinal
		case float64(g.Vol(cut.C)) <= s.opt.Eps/12*float64(g.Vol(u)):
			// Small cut: enter Phase 2 WITHOUT removing the cut edges.
			o.kind = cutSmall
		default:
			// Remove-2 and recurse on both sides.
			o.kind = cutRemoved
			o.removed = o.log.removeCut(g, *priv, u, cut.C)
			rest := u.Minus(cut.C)
			after := graph.NewSub(g, s.view.Members(), *priv)
			o.comps = append(splitComponents(after, cut.C), splitComponents(after, rest)...)
		}
	}); err != nil {
		cutSpan.End()
		return nil, nil, err
	}
	cutSpan.End()
	var cutPar congest.Stats
	for i := range cutOuts {
		o := &cutOuts[i]
		if o.err != nil {
			return nil, nil, o.err
		}
		cutPar.CombineParallel(o.stats)
		switch o.kind {
		case cutSmall:
			phase2 = append(phase2, afterLDD[i])
		case cutRemoved:
			o.log.applyTo(s.mask)
			dec.Removed2 += o.removed
			next = append(next, o.comps...)
		}
	}
	s.stats.Add(lddPar)
	s.stats.Add(cutPar)
	return next, phase2, nil
}

// phase2Tau is the level-width parameter tau of Phase 2 on component u.
func (s *state) phase2Tau(u *graph.VSet) float64 {
	volU := float64(s.view.Base().Vol(u))
	tau := math.Pow(s.opt.Eps/6*volU, 1/float64(s.opt.K))
	if tau < 2 {
		tau = 2
	}
	return tau
}

// phase2Budget is the deterministic iteration safety cap of Phase 2 on u:
// each level survives at most 2*tau productive iterations (Lemma 2) plus
// level bumps. It doubles as the size of the seed block reserved per
// component, so the seed schedule never depends on how many iterations a
// sibling actually used.
func (s *state) phase2Budget(u *graph.VSet) int {
	return s.opt.K*(int(2*s.phase2Tau(u))+4) + 8
}

// phase2Out is what one Phase 2 component task reports back for the
// task-ordered merge.
type phase2Out struct {
	log     removalLog
	removed int64
	iters   int
	stats   congest.Stats
	err     error
}

// phase2 runs the level ladder on one component U (the paper's G*) over a
// private mask copy; iteration seeds come from the component's reserved
// block. ctx is probed before every iteration.
func (s *state) phase2(ctx context.Context, u *graph.VSet, maxIters int, seedBase uint64) (out phase2Out) {
	g := s.view.Base()
	volU := float64(g.Vol(u))
	k := s.opt.K
	tau := s.phase2Tau(u)
	mL := s.opt.Eps / 6 * volU // m_1
	level := 1
	active := u.Clone()
	priv := acquireMask(s.mask)
	defer releaseMask(priv)
	for out.iters < maxIters {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		seed := s.root.Fork(seedBase + uint64(out.iters)).Uint64()
		out.iters++
		// The paper lets Phase 2 communicate over all of G*'s edges even
		// when U' shrinks; we pass G{U} under the current mask (alive
		// edges of U), which is a subset only by the Remove-3 edges of
		// already-peeled satellites — their endpoints are isolated
		// singletons that take no further part either way.
		comm := graph.NewSub(g, s.view.Members(), *priv).Restrict(u)
		cut, cs, err := s.subs.SparseCut(comm, active, s.ladder[level], seed)
		if err != nil {
			out.err = fmt.Errorf("core: phase 2 sparse cut: %w", err)
			return out
		}
		out.stats.Add(cs)
		switch {
		case cut.Empty():
			return out
		case float64(g.Vol(cut.C)) <= mL/(2*tau):
			if level == k {
				// m_k/(2 tau) < 1 in the paper, so this cannot recur;
				// with practical constants guard explicitly.
				return out
			}
			level++
			mL /= tau
		default:
			// Remove-3: peel C entirely; its vertices become
			// singletons.
			out.removed += out.log.removeIncident(g, *priv, u, cut.C)
			active.RemoveAll(cut.C)
			if active.Empty() {
				return out
			}
		}
	}
	return out
}

// removalLog is one task's private record of edge removals. Tasks operate
// on vertex-disjoint components, so their removal sets are disjoint; each
// remove* helper marks the edges dead in the task's private mask (so later
// steps of the same task observe them) and records the ids so the merge
// loop can replay them onto the shared mask in task order.
type removalLog struct {
	edges []int
}

// applyTo replays the recorded removals onto mask (the shared evolving
// mask, at merge time).
func (l *removalLog) applyTo(mask []bool) {
	for _, e := range l.edges {
		mask[e] = false
	}
}

// removeWhere is the shared skeleton of the three Remove sites: it kills
// every alive edge within u whose endpoints satisfy kill, marking the
// task's private mask and recording the ids. Returns the number removed.
func (l *removalLog) removeWhere(g *graph.Graph, mask []bool, u *graph.VSet, kill func(a, b int) bool) int64 {
	var removed int64
	for e := 0; e < g.M(); e++ {
		if !mask[e] {
			continue
		}
		a, b := g.EdgeEndpoints(e)
		if !u.Has(a) || !u.Has(b) {
			continue
		}
		if kill(a, b) {
			mask[e] = false
			l.edges = append(l.edges, e)
			removed++
		}
	}
	return removed
}

// removeInterLabel kills usable edges within u whose endpoints carry
// different labels (Remove-1).
func (l *removalLog) removeInterLabel(g *graph.Graph, mask []bool, u *graph.VSet, labels []int) int64 {
	return l.removeWhere(g, mask, u, func(a, b int) bool {
		la, lb := labels[a], labels[b]
		return a != b && la != graph.Unreachable && lb != graph.Unreachable && la != lb
	})
}

// removeCut kills usable edges within u crossing c (Remove-2).
func (l *removalLog) removeCut(g *graph.Graph, mask []bool, u, c *graph.VSet) int64 {
	return l.removeWhere(g, mask, u, func(a, b int) bool {
		return a != b && c.Has(a) != c.Has(b)
	})
}

// removeIncident kills all usable edges within u incident to c, loops
// included (Remove-3).
func (l *removalLog) removeIncident(g *graph.Graph, mask []bool, u, c *graph.VSet) int64 {
	return l.removeWhere(g, mask, u, func(a, b int) bool {
		return c.Has(a) || c.Has(b)
	})
}

// maskPool recycles the per-task private mask copies so a level with many
// components allocates at most one buffer per live worker.
var maskPool sync.Pool

// acquireMask returns a pooled copy of src for one task's private use.
func acquireMask(src []bool) *[]bool {
	v, _ := maskPool.Get().(*[]bool)
	if v == nil {
		v = new([]bool)
	}
	buf := *v
	if cap(buf) < len(src) {
		buf = make([]bool, len(src))
	}
	buf = buf[:len(src)]
	copy(buf, src)
	*v = buf
	return v
}

func releaseMask(v *[]bool) { maskPool.Put(v) }

// splitComponents returns the connected components of the given member
// subset under the current mask.
func splitComponents(cur *graph.Sub, members *graph.VSet) []*graph.VSet {
	return cur.Restrict(members).ComponentSets()
}

func aliveMask(view *graph.Sub) []bool {
	g := view.Base()
	mask := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		mask[e] = view.EdgeAlive(e)
	}
	return mask
}
