package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"dexpander/internal/core"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/par"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// keyGroup is every sample of one output key; ref is the first answered
// one, whose answer the direct library call is compared with.
type keyGroup struct {
	ref     *sample
	samples []*sample
}

// groupKeys groups answered samples by key, in order of first appearance.
// Releases carry no output and are not grouped.
func groupKeys(samples []*sample) []*keyGroup {
	byKey := map[string]*keyGroup{}
	var out []*keyGroup
	for _, s := range samples {
		if s.err != nil || s.op.kind == kindRelease {
			continue
		}
		k := s.op.key()
		g, ok := byKey[k]
		if !ok {
			g = &keyGroup{ref: s}
			byKey[k] = g
			out = append(out, g)
		}
		g.samples = append(g.samples, s)
	}
	return out
}

// answer renders the parts of a served answer that must repeat exactly
// for every request of a key.
func answer(s *sample) string {
	if s.snap != nil {
		return fmt.Sprintf("%s n=%d m=%d", s.snap.ID, s.snap.N, s.snap.M)
	}
	r := s.res
	return fmt.Sprintf("%s %s %d %d %d %d %d %v", r.Checksum, r.Backend, r.Components, r.CutEdges, r.Triangles, r.Rounds, r.Messages, r.EpsAchieved)
}

// replayer recomputes served outputs with direct library calls. Without
// a recorder it only checks; with one, each call also runs under a span
// named after the library function it times, at the given worker count.
type replayer struct {
	rec     *recorder
	workers int
	// layers makes the first traced pass also time parsing,
	// fingerprinting and Evaluate, which the second pass skips.
	layers bool

	mu       sync.Mutex
	minPhi   float64 // minimum Evaluate().MinPhiLower over cs19 and det results
	phiN     int
	bodies   int
	unsorted int
	parseB   int64
	counts   map[*graphIn]int // CountParallel2D per graph, for count-dist jobs
}

func newReplayer(rec *recorder, workers int, layers bool) *replayer {
	return &replayer{rec: rec, workers: workers, layers: layers, minPhi: math.Inf(1), counts: map[*graphIn]int{}}
}

// checkAll checks every key's answer, conc keys at a time. Samples whose
// answer differs from their key's first answer or from the direct call
// are marked as mismatches, and each mismatch is reported on stderr.
func (rp *replayer) checkAll(groups []*keyGroup, conc int) {
	errs := make([]error, len(groups))
	par.ForEach(conc, len(groups), func(i int) {
		g := groups[i]
		want := answer(g.ref)
		for _, s := range g.samples {
			if answer(s) != want {
				errs[i] = fmt.Errorf("%s: answered %q and %q", g.ref.op.key(), want, answer(s))
			}
		}
		if errs[i] == nil {
			errs[i] = rp.check(g.ref)
		}
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		fmt.Fprintln(os.Stderr, "mismatch:", err)
		for _, s := range groups[i].samples {
			s.mismatch = true
		}
	}
}

func (rp *replayer) span(name, req string, parent *span, f func(sp *span)) {
	if rp.rec == nil {
		f(nil)
		return
	}
	rp.rec.timed(name, req, parent, rp.workers, f)
}

// check recomputes one answered sample's output in-process and compares.
func (rp *replayer) check(s *sample) error {
	o := s.op
	req := o.key()
	if o.kind == kindUpload || o.kind == kindSpec {
		return rp.checkRegister(s, req)
	}
	g, err := o.graph.graph()
	if err != nil {
		return err
	}
	view := graph.WholeGraph(g)
	res := s.res
	switch p := o.params.(type) {
	case service.CountParams:
		if p.Kernel == "2d" {
			var n int
			rp.span("triangle.count2d", req, nil, func(*span) { n = triangle.CountParallel2D(view, rp.workers) })
			return same(req, res.Checksum, digest(triangle.HashWords(uint64(n))), res.Triangles, n)
		}
		var set *triangle.Set
		var sum uint64
		rp.span("triangle.rank", req, nil, func(*span) {
			set = triangle.SetKernel(view, rp.workers, triangle.KernelRank)
			sum = set.Checksum()
		})
		return same(req, res.Checksum, digest(sum), res.Triangles, set.Len())
	case service.DecomposeParams:
		return rp.checkDecompose(req, view, p, res)
	case service.EnumerateParams:
		opt := triangle.Options{Seed: p.Seed, Workers: rp.workers}
		var set *triangle.Set
		var st triangle.Stats
		rp.span("triangle.enumerate", req, nil, func(sp *span) {
			if sp != nil {
				opt.Subs = timedSubs{inner: core.SeqSubroutines{Preset: nibble.Practical, Workers: rp.workers}, rec: rp.rec, parent: sp, workers: rp.workers}
			}
			set, st, err = triangle.Enumerate(view, opt)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", req, err)
		}
		if res.Rounds != st.Rounds || res.Messages != st.Messages {
			return fmt.Errorf("%s: served rounds/messages %d/%d, library %d/%d", req, res.Rounds, res.Messages, st.Rounds, st.Messages)
		}
		return same(req, res.Checksum, digest(set.Checksum()), res.Triangles, set.Len())
	case service.DistCountParams:
		return rp.checkDist(req, o.graph, view, p, res)
	}
	return fmt.Errorf("%s: no check for %T", req, o.params)
}

// checkRegister re-parses (or rebuilds) the graph and compares its
// fingerprint and size with the snapshot the daemon registered.
func (rp *replayer) checkRegister(s *sample, req string) error {
	gi := s.op.graph
	g, err := gi.graph()
	if err != nil {
		return err
	}
	if rp.layers && gi.body != nil {
		rp.span("graph.parse", req, nil, func(*span) {
			g, err = graph.ReadEdgeListLimited(bytes.NewReader(gi.body), uploadLimits)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", req, err)
		}
		rp.mu.Lock()
		rp.bodies++
		rp.parseB += int64(len(gi.body))
		if !canonical(g) {
			rp.unsorted++
		}
		rp.mu.Unlock()
	}
	var fp uint64
	if rp.layers {
		rp.span("graph.fingerprint", req, nil, func(*span) { fp = g.Fingerprint() })
	} else {
		fp = g.Fingerprint()
	}
	if want := digest(fp); s.snap.ID != want || s.snap.N != g.N() || s.snap.M != g.M() {
		return fmt.Errorf("%s: served snapshot %s n=%d m=%d, library %s n=%d m=%d", req, s.snap.ID, s.snap.N, s.snap.M, want, g.N(), g.M())
	}
	return nil
}

// canonical reports whether the edge list is already sorted by (U, V),
// which lets Fingerprint skip its copy+sort path.
func canonical(g *graph.Graph) bool {
	es := g.Edges()
	return sort.SliceIsSorted(es, func(i, j int) bool {
		return es[i].U < es[j].U || (es[i].U == es[j].U && es[i].V < es[j].V)
	})
}

func (rp *replayer) checkDecompose(req string, view *graph.Sub, p service.DecomposeParams, res *service.Result) error {
	opt := core.Options{Eps: p.Eps, K: p.K, Preset: nibble.Practical, Seed: p.Seed, Workers: rp.workers}
	var dec *core.Decomposition
	var err error
	backend := p.Backend
	rp.span("core."+p.Backend, req, nil, func(sp *span) {
		switch {
		case p.Backend == "auto":
			bound := p.MaxEpsFraction
			if bound == 0 {
				bound = p.Eps
			}
			dec, _, backend, err = core.DecomposeAuto(view, opt, bound)
		case sp != nil && p.Backend == "cs19":
			// The cs19 backend's own composition, with its subroutines
			// timed.
			inner := core.SeqSubroutines{Preset: opt.Preset, Workers: opt.Workers}
			dec, err = core.Decompose(view, opt, timedSubs{inner: inner, rec: rp.rec, parent: sp, workers: rp.workers})
		case sp != nil && p.Backend == "det":
			// The det backend pins the seed and swaps in the
			// derandomized subroutines.
			opt.Seed = 1
			dec, err = core.Decompose(view, opt, timedSubs{inner: detSubs{}, rec: rp.rec, parent: sp, workers: rp.workers})
		default:
			var b core.Backend
			if b, err = core.LookupBackend(p.Backend); err == nil {
				dec, _, err = b.Decompose(view, opt)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", req, err)
	}
	if err := dec.CheckPartition(view); err != nil {
		return fmt.Errorf("%s: partition invalid: %w", req, err)
	}
	if f := interFraction(view, dec); f > p.Eps {
		return fmt.Errorf("%s: inter-cluster fraction %.4f above eps %v", req, f, p.Eps)
	}
	if rp.layers {
		switch p.Backend {
		case "auto":
			rp.span("core.evaluate", req, nil, func(*span) { dec.Evaluate(view) })
		case "cs19", "det":
			q := dec.Evaluate(view)
			rp.mu.Lock()
			rp.minPhi = min(rp.minPhi, q.MinPhiLower)
			rp.phiN++
			rp.mu.Unlock()
		}
	}
	if res.Backend != backend || res.Components != dec.Count || res.CutEdges != dec.CutEdges || res.EpsAchieved != dec.EpsAchieved {
		return fmt.Errorf("%s: served backend=%s parts=%d cut=%d eps=%v, library %s %d %d %v", req,
			res.Backend, res.Components, res.CutEdges, res.EpsAchieved, backend, dec.Count, dec.CutEdges, dec.EpsAchieved)
	}
	return same(req, res.Checksum, digest(decDigest(dec)), 0, 0)
}

// decDigest is the daemon's decomposition digest: component count, cut
// edges, then every label.
func decDigest(dec *core.Decomposition) uint64 {
	words := make([]uint64, 0, len(dec.Labels)+2)
	words = append(words, uint64(dec.Count), uint64(dec.CutEdges))
	for _, l := range dec.Labels {
		words = append(words, uint64(int64(l)))
	}
	return triangle.HashWords(words...)
}

// interFraction recomputes the inter-cluster edge fraction from the
// final mask: usable edges no longer alive over usable edges (the
// quantity Quality.InterFraction reports, without Evaluate's
// conductance certificate).
func interFraction(view *graph.Sub, dec *core.Decomposition) float64 {
	inter, usable := 0, 0
	for e := 0; e < view.Base().M(); e++ {
		if !view.Usable(e) {
			continue
		}
		usable++
		if !dec.FinalMask[e] {
			inter++
		}
	}
	if usable == 0 {
		return 0
	}
	return float64(inter) / float64(usable)
}

// checkDist compares a count-dist total with CountParallel2D on the same
// graph. Traced, it also replays the job from public parts: plan the
// tiling, encode and decode every block's fragment, and count every
// block triple, whose sum must equal the served total too.
func (rp *replayer) checkDist(req string, gi *graphIn, view *graph.Sub, p service.DistCountParams, res *service.Result) error {
	rp.mu.Lock()
	want, ok := rp.counts[gi]
	rp.mu.Unlock()
	if !ok {
		want = triangle.CountParallel2D(graph.WholeGraph(view.Base()), rp.workers)
		rp.mu.Lock()
		rp.counts[gi] = want
		rp.mu.Unlock()
	}
	if err := same(req, res.Checksum, digest(triangle.HashWords(uint64(want))), res.Triangles, want); err != nil {
		return err
	}
	if rp.rec == nil {
		return nil
	}
	var total int
	var err error
	rp.span("triangle.count-dist", req, nil, func(job *span) {
		var pl *triangle.DistPlan
		rp.span("triangle.plan", req, job, func(*span) { pl = triangle.NewDistPlan(view, p.Grid) })
		tl := pl.Tiling
		data := make([][]byte, tl.P)
		rp.span("triangle.encode", req, job, func(*span) {
			for b := range data {
				data[b] = pl.Fragment(b).Encode()
			}
		})
		frags := make([]*triangle.Fragment, tl.P)
		rp.span("triangle.decode", req, job, func(*span) {
			for b := range frags {
				if frags[b], err = triangle.DecodeFragment(data[b]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return
		}
		triples := tl.Triples()
		counts := make([]int, len(triples))
		errs := make([]error, len(triples))
		par.ForEach(rp.workers, len(triples), func(i int) {
			t := triples[i]
			rp.span("triangle.triple", req, job, func(*span) {
				counts[i], errs[i] = triangle.CountFragments(tl, t, frags[t.I], frags[t.J])
			})
		})
		for i := range counts {
			total += counts[i]
			if errs[i] != nil {
				err = errs[i]
			}
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", req, err)
	}
	if total != res.Triangles {
		return fmt.Errorf("%s: served %d triangles, replayed fragments count %d", req, res.Triangles, total)
	}
	return nil
}

func digest(sum uint64) string { return fmt.Sprintf("fnv64:%016x", sum) }

// same compares a served checksum and count with the library's.
func same(req, served, direct string, servedN, directN int) error {
	if served != direct || servedN != directN {
		return fmt.Errorf("%s: served %s (%d), library %s (%d)", req, served, servedN, direct, directN)
	}
	return nil
}
