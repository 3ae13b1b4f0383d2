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
// models: every backend's work is a sequence of stages, each one task per
// vertex-disjoint component — a Phase 1 level's LDD stage, then its
// sparse-cut stage; the Phase 2 components; a par-cmps clustering round —
// and all of them run through one fan-out, state.stage, on
// Options.Workers goroutines. Determinism is preserved for any worker
// count by one discipline: every per-task seed is drawn from the shared
// counter in task order before dispatch (a Phase 2 component draws a
// block sized by its deterministic iteration cap), each task works on a
// pooled private copy of the evolving edge mask and records its removals
// in a removalLog, and the logs, component lists, and statistics fold
// back into the shared state in task order after the stage. Outputs are
// bit-identical to the single-worker execution (pinned by the parallel
// oracle tests).
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
	m, done, err := start(ctx, view, opt)
	if done != nil || err != nil {
		return done, err
	}

	// Parameter derivation (Section 2).
	// d: smallest integer with (1 - eps/12)^d * 2*C(n,2) < 1.
	n := float64(view.Base().N())
	s := newState(view, opt, int(math.Ceil(math.Log(n*n)/-math.Log(1-opt.Eps/12))))
	s.subs = subs
	// phi_0: h(phi_0) = eps / (6 log2 |E|), so Remove-2's charging stays
	// below (eps/3)|E|.
	logM := math.Log2(m)
	if logM < 1 {
		logM = 1
	}
	s.ladder = make([]float64, opt.K+1)
	s.ladder[0] = nibble.TransferHInv(view, opt.Eps/(6*logM), opt.Preset)
	for i := 1; i <= opt.K; i++ {
		s.ladder[i] = nibble.TransferHInv(view, s.ladder[i-1], opt.Preset)
	}
	dec := &Decomposition{PhiTarget: s.ladder[opt.K], PhiLadder: s.ladder}

	// Phase 1, level by level so sibling costs combine as max.
	tasks := splitComponents(s.sub(s.mask), view.Members())
	var phase2 []*graph.VSet
	sp := obs.SpanFromContext(ctx)
	for len(tasks) > 0 && dec.Phase1Depth < s.d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dec.Phase1Depth++
		lsp := sp.Child("core.phase1.level")
		lsp.AttrInt("level", dec.Phase1Depth).AttrInt("tasks", len(tasks))
		next, entered, err := s.phase1Level(ctx, tasks, dec, lsp)
		lsp.End()
		if err != nil {
			return nil, err
		}
		phase2 = append(phase2, entered...)
		tasks = next
	}
	// Tasks still alive at the depth cap enter Phase 2 directly (the
	// paper's d is never reached; practical constants might).
	phase2 = append(phase2, tasks...)

	// Phase 2 per component, each with a seed block drawn in task order
	// whose length is the component's iteration cap.
	seeds := make([][]uint64, len(phase2))
	for i, u := range phase2 {
		seeds[i] = s.drawSeeds(s.phase2Budget(u))
	}
	iters := make([]int, len(phase2))
	outs, err := s.stage(ctx, sp.Child("core.phase2").AttrInt("components", len(phase2)), "core.phase2.component", phase2,
		func(i int, comm *graph.Sub, mask []bool) (r result, err error) {
			r, iters[i], err = s.phase2(ctx, phase2[i], comm, mask, seeds[i])
			return r, err
		})
	if err != nil {
		return nil, err
	}
	removed, _, stats := s.merge(outs)
	dec.Removed3 = removed
	dec.Stats.Add(stats)
	for _, it := range iters {
		dec.Phase2MaxIterations = max(dec.Phase2MaxIterations, it)
	}
	return dec.finish(view, s.mask), nil
}

// start checks opt and ctx before a run over view and returns its usable
// edge count m. A view without usable edges is decomposed already: start
// returns it as done, one component per member.
func start(ctx context.Context, view *graph.Sub, opt Options) (m float64, done *Decomposition, err error) {
	if err := opt.validate(); err != nil {
		return 0, nil, err
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	m = float64(view.UsableEdgeCount())
	if m == 0 {
		labels, count := view.Components()
		done = &Decomposition{Labels: labels, Count: count, FinalMask: make([]bool, view.Base().M())}
	}
	return m, done, nil
}

// finish labels the connected components of the surviving mask and
// derives CutEdges, EpsAchieved and Singletons from the removal split.
func (d *Decomposition) finish(view *graph.Sub, mask []bool) *Decomposition {
	final := graph.NewSub(view.Base(), view.Members(), mask)
	d.Labels, d.Count = final.Components()
	d.FinalMask = mask
	d.CutEdges = d.Removed1 + d.Removed2 + d.Removed3
	d.EpsAchieved = float64(d.CutEdges) / float64(view.UsableEdgeCount())
	view.Members().ForEach(func(v int) {
		if final.AliveDeg(v) == 0 {
			d.Singletons++
		}
	})
	return d
}

// state carries one run's parameters, its evolving edge mask and its
// seed stream.
type state struct {
	view    *graph.Sub
	opt     Options
	subs    Subroutines
	ladder  []float64
	beta    float64
	d       int
	mask    []bool
	root    *rng.RNG
	seqNo   uint64
	workers int
}

// newState starts a run over view with at most d recursion levels
// (clamped to 1), which split the eps/3 LDD budget: beta = eps/(3d).
func newState(view *graph.Sub, opt Options, d int) *state {
	d = max(d, 1)
	return &state{
		view:    view,
		opt:     opt,
		beta:    (opt.Eps / 3) / float64(d),
		d:       d,
		mask:    aliveMask(view),
		root:    rng.New(opt.Seed),
		workers: par.Workers(opt.Workers),
	}
}

// sub is the view of the run's members under mask.
func (s *state) sub(mask []bool) *graph.Sub {
	return graph.NewSub(s.view.Base(), s.view.Members(), mask)
}

// drawSeeds draws the next n seeds from the shared stream counter.
// Stages draw theirs in task order before dispatch, which keeps the seed
// schedule independent of worker timing.
func (s *state) drawSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		s.seqNo++
		seeds[i] = s.root.Fork(s.seqNo).Uint64()
	}
	return seeds
}

// result is what one stage task hands back for the task-ordered merge:
// its removals, the components they leave, and its CONGEST cost.
type result struct {
	log     removalLog
	removed int64
	comps   []*graph.VSet
	stats   congest.Stats
}

// stage runs task i for every vertex-disjoint component comps[i] on the
// worker pool, then ends sp, the stage's span. Each task runs under a
// child span of sp named span (attribute task = i) and is handed a
// pooled private copy of the shared mask and the view of comps[i] under
// it; it marks its removals in that copy, and merge replays them onto
// the shared mask. Results come back in task order. The error is ctx's,
// else the first task error in task order.
func (s *state) stage(ctx context.Context, sp *obs.Span, span string, comps []*graph.VSet,
	task func(i int, view *graph.Sub, mask []bool) (result, error)) ([]result, error) {
	outs := make([]result, len(comps))
	errs := make([]error, len(comps))
	err := par.ForEachContext(ctx, s.workers, len(comps), func(i int) {
		defer sp.Child(span).AttrInt("task", i).End()
		priv := acquireMask(s.mask)
		defer releaseMask(priv)
		outs[i], errs[i] = task(i, s.sub(*priv).Restrict(comps[i]), *priv)
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// merge folds a stage's results into the shared state in task order: it
// replays each removal log onto the mask and returns the removal count,
// the components the tasks left, and the stage's cost (sibling tasks run
// side by side: max rounds, summed traffic).
func (s *state) merge(outs []result) (removed int64, comps []*graph.VSet, stats congest.Stats) {
	for i := range outs {
		o := &outs[i]
		o.log.applyTo(s.mask)
		removed += o.removed
		comps = append(comps, o.comps...)
		stats.CombineParallel(o.stats)
	}
	return removed, comps, stats
}

// phase1Level runs one recursion level of Phase 1 over all live tasks:
// the LDD stage, then the sparse-cut stage on each resulting component.
// It returns the tasks for the next level and the components entering
// Phase 2, and adds the removals and the two stages' costs to dec. lsp
// is the level's trace span (nil when tracing is off); each stage gets a
// child of it.
func (s *state) phase1Level(ctx context.Context, tasks []*graph.VSet, dec *Decomposition, lsp *obs.Span) (next []*graph.VSet, phase2 []*graph.VSet, err error) {
	g := s.view.Base()

	seeds := s.drawSeeds(len(tasks))
	outs, err := s.stage(ctx, lsp.Child("core.ldd").AttrInt("tasks", len(tasks)), "core.ldd.task", tasks,
		func(i int, view *graph.Sub, mask []bool) (r result, err error) {
			res, stats, err := s.subs.LDD(view, s.beta, seeds[i])
			if err != nil {
				return r, fmt.Errorf("core: phase 1 LDD: %w", err)
			}
			r.stats = stats
			// Remove-1: inter-cluster edges.
			r.removed = r.log.removeInterLabel(g, mask, tasks[i], res.Labels)
			r.comps = splitComponents(s.sub(mask), tasks[i])
			return r, nil
		})
	if err != nil {
		return nil, nil, err
	}
	removed, afterLDD, lddStats := s.merge(outs)
	dec.Removed1 += removed

	seeds = s.drawSeeds(len(afterLDD))
	small := make([]bool, len(afterLDD))
	outs, err = s.stage(ctx, lsp.Child("core.cut").AttrInt("tasks", len(afterLDD)), "core.cut.task", afterLDD,
		func(i int, view *graph.Sub, mask []bool) (r result, err error) {
			u := afterLDD[i]
			cut, stats, err := s.subs.SparseCut(view, u, s.ladder[0], seeds[i])
			if err != nil {
				return r, fmt.Errorf("core: phase 1 sparse cut: %w", err)
			}
			r.stats = stats
			switch {
			case cut.Empty():
				// Final component: conductance certified at phi_0 >= phi_k.
			case float64(g.Vol(cut.C)) <= s.opt.Eps/12*float64(g.Vol(u)):
				// Small cut: enter Phase 2 WITHOUT removing the cut edges.
				small[i] = true
			default:
				// Remove-2 and recurse on both sides.
				r.removed = r.log.removeCut(g, mask, u, cut.C)
				after := s.sub(mask)
				r.comps = append(splitComponents(after, cut.C), splitComponents(after, u.Minus(cut.C))...)
			}
			return r, nil
		})
	if err != nil {
		return nil, nil, err
	}
	for i, u := range afterLDD {
		if small[i] {
			phase2 = append(phase2, u)
		}
	}
	removed, next, cutStats := s.merge(outs)
	dec.Removed2 += removed
	dec.Stats.Add(lddStats)
	dec.Stats.Add(cutStats)
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
// level bumps. It doubles as the size of the seed block drawn per
// component, so the seed schedule never depends on how many iterations a
// sibling actually used.
func (s *state) phase2Budget(u *graph.VSet) int {
	return s.opt.K*(int(2*s.phase2Tau(u))+4) + 8
}

// phase2 runs the level ladder on one component U (the paper's G*) on
// the task's private mask; iteration j draws seeds[j], and the block's
// length caps the iterations. ctx is probed before every iteration.
//
// The paper lets Phase 2 communicate over all of G*'s edges even when U'
// shrinks; comm is G{U} under the current mask (alive edges of U), which
// is a subset only by the Remove-3 edges of already-peeled satellites —
// their endpoints are isolated singletons that take no further part
// either way.
func (s *state) phase2(ctx context.Context, u *graph.VSet, comm *graph.Sub, mask []bool, seeds []uint64) (r result, iters int, err error) {
	g := s.view.Base()
	tau := s.phase2Tau(u)
	mL := s.opt.Eps / 6 * float64(g.Vol(u)) // m_1
	level := 1
	active := u.Clone()
	for iters < len(seeds) {
		if err := ctx.Err(); err != nil {
			return r, iters, err
		}
		seed := seeds[iters]
		iters++
		cut, cs, err := s.subs.SparseCut(comm, active, s.ladder[level], seed)
		if err != nil {
			return r, iters, fmt.Errorf("core: phase 2 sparse cut: %w", err)
		}
		r.stats.Add(cs)
		switch {
		case cut.Empty():
			return r, iters, nil
		case float64(g.Vol(cut.C)) <= mL/(2*tau):
			if level == s.opt.K {
				// m_k/(2 tau) < 1 in the paper, so this cannot recur;
				// with practical constants guard explicitly.
				return r, iters, nil
			}
			level++
			mL /= tau
		default:
			// Remove-3: peel C entirely; its vertices become
			// singletons.
			r.removed += r.log.removeIncident(g, mask, u, cut.C)
			active.RemoveAll(cut.C)
			if active.Empty() {
				return r, iters, nil
			}
			// A view caches what it derives from the mask: rebuild it.
			comm = s.sub(mask).Restrict(u)
		}
	}
	return r, iters, nil
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
