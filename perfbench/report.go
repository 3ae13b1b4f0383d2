package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dexpander/internal/service"
)

// setupReps is how many times a run sets its fleet up; setup_s is the
// median, and the last fleet serves the timed part.
const setupReps = 3

type layerVal struct {
	value float64
	n     int
}

type prop struct{ name, value string }

// report is everything one run measured.
type report struct {
	attempted, failed    int
	verified, mismatches int
	e2e                  map[string]float64
	e2eLines             []string
	props                []prop
	layers               map[string]layerVal
	rec                  *recorder
}

// window is what the timed part of a run left behind.
type window struct {
	samples       []*sample
	lags          []time.Duration
	seconds       float64
	before, after *service.Stats // front daemon's /v1/stats around the window
	rssMB         float64
	daemons       int
	setupS        []float64
	setup         []*sample // the last set-up's requests
	setupFailed   int       // failures in earlier set-ups
	setupSent     int
	start         time.Time // when the window began
}

// all returns the last set-up's requests followed by the window's.
func (w *window) all() []*sample { return append(append([]*sample{}, w.setup...), w.samples...) }

// distDelta sums the coordinator's per-peer counters over the window:
// fragment pushes, their bytes, and triples counted on replicas.
func (w *window) distDelta() (pushes, bytes, triples float64) {
	for base, ps := range w.after.DistPeers {
		prev := w.before.DistPeers[base]
		if prev == nil {
			prev = &service.PeerDistStats{}
		}
		pushes += float64(ps.Pushes - prev.Pushes)
		bytes += float64(ps.PushBytes - prev.PushBytes)
		triples += float64(ps.Triples - prev.Triples)
	}
	return pushes, bytes, triples
}

func runWorkload(ctx context.Context, cfg config, w *workload) (*report, error) {
	p, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	rep := &report{e2e: map[string]float64{}, layers: map[string]layerVal{}}
	if cfg.trace {
		rep.rec = newRecorder()
	}
	win, err := drive(ctx, cfg, w, p)
	if err != nil {
		return nil, err
	}
	markKeys(win.samples)
	groups := groupKeys(win.all())
	var rp1 *replayer
	if !cfg.trace {
		// Checks only: nproc keys at a time, one worker each.
		newReplayer(nil, 1, false).checkAll(groups, cfg.nproc)
	} else {
		clientSpans(rep.rec, win)
		// Layer timing: one call at a time at workers=1, then the
		// compute calls again at workers=nproc for par.speedup. Both
		// passes compare every output with the served one.
		rp1 = newReplayer(rep.rec, 1, true)
		rp1.checkAll(groups, 1)
		if cfg.nproc > 1 {
			var compute []*keyGroup
			for _, g := range groups {
				if g.ref.op.kind == kindQuery {
					compute = append(compute, g)
				}
			}
			newReplayer(rep.rec, cfg.nproc, false).checkAll(compute, 1)
		}
	}
	rep.verified = len(groups)
	for _, g := range groups {
		if g.ref.mismatch {
			rep.mismatches++
		}
	}
	rep.attempted = win.setupSent + len(win.setup) + len(win.samples)
	rep.failed = win.setupFailed
	for _, s := range win.all() {
		if !s.ok() {
			rep.failed++
		}
	}
	rep.endToEnd(win)
	rep.properties(win)
	if cfg.trace {
		rep.perLayer(win, rp1, cfg)
	}
	return rep, nil
}

// drive sets the fleet up setupReps times, runs the timed part against
// the last fleet, and stops it.
func drive(ctx context.Context, cfg config, w *workload, p *plan) (*window, error) {
	win := &window{daemons: 1 + w.replicas}
	var f fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.stop()
			for _, s := range win.setup {
				if !s.ok() {
					win.setupFailed++
				}
			}
			win.setupSent += len(win.setup)
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, cfg.daemon, w.replicas); err != nil {
			return nil, err
		}
		win.setup = newLoadGen(f[0].base, 1).closedLoop(ctx, p.setup)
		win.setupS = append(win.setupS, time.Since(t0).Seconds())
	}
	defer f.stop()
	before, err := service.NewClient(f[0].base).ServerStats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats before the window: %w", err)
	}
	d := newLoadGen(f[0].base, p.conns)
	if p.open {
		win.samples, win.lags = d.openLoop(ctx, p.ops, p.conns)
	} else {
		win.samples = d.closedLoop(ctx, p.ops)
	}
	win.start = d.start
	for _, s := range win.samples {
		win.seconds = max(win.seconds, s.done.Seconds())
	}
	if win.after, err = service.NewClient(f[0].base).ServerStats(ctx); err != nil {
		return nil, fmt.Errorf("stats after the window: %w", err)
	}
	win.before = before
	if win.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	return win, nil
}

// clientSpans records one span per window request, from its due time to
// its answer, with the answer's compute_ns as a compute child on the
// request that made the daemon compute.
func clientSpans(rec *recorder, win *window) {
	off := int64(win.start.Sub(rec.t0))
	for i, s := range win.samples {
		sp := &span{ID: rec.nextID.Add(1), Name: "client." + s.op.kind, Req: fmt.Sprintf("r%d", i),
			Start: off + int64(s.due), End: off + int64(s.done)}
		rec.add(sp)
		if s.computed && s.res != nil && s.res.ComputeNS > 0 {
			rec.add(&span{ID: rec.nextID.Add(1), Parent: sp.ID, Name: "compute", Req: sp.Req,
				Start: max(sp.Start, sp.End-s.res.ComputeNS), End: sp.End})
		}
	}
}

// okLatencies returns the sorted latencies, in ms, of answered window
// samples that pass keep.
func okLatencies(win *window, keep func(*sample) bool) []float64 {
	var ds []time.Duration
	for _, s := range win.samples {
		if s.ok() && keep(s) {
			ds = append(ds, s.latency())
		}
	}
	return sortedMS(ds)
}

func (r *report) line(format string, args ...any) {
	r.e2eLines = append(r.e2eLines, fmt.Sprintf(format, args...))
}

// endToEnd computes the end-to-end metrics and their report lines.
func (r *report) endToEnd(win *window) {
	setup := append([]float64{}, win.setupS...)
	sort.Float64s(setup)
	r.e2e["setup_s"] = setup[len(setup)/2]
	r.line("setup_s          %10.4f s      median of %d set-ups %v", r.e2e["setup_s"], len(setup), fmtList(win.setupS))

	lat := okLatencies(win, func(*sample) bool { return true })
	for _, l := range []float64{50, 90, 99} {
		v, beyond := percentile(lat, l)
		name := fmt.Sprintf("p%.0f_ms", l)
		if l == 50 || beyond >= 10 {
			r.line("%-16s %10.4f ms     n=%d, %d beyond", name, v, len(lat), beyond)
		} else {
			r.line("%-16s %10s ms     not reported: n=%d leaves %d beyond", name, "-", len(lat), beyond)
		}
		if l == 50 {
			r.e2e["p50_ms"] = v
		}
	}

	r.e2e["throughput_rps"] = float64(len(lat)) / win.seconds
	r.line("throughput_rps   %10.4f 1/s    %d answered in %.3f s", r.e2e["throughput_rps"], len(lat), win.seconds)
	r.line("error_rate       %10.4f ratio  %d of %d operations failed", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	r.e2e["peak_rss_mb"] = win.rssMB
	r.line("peak_rss_mb      %10.4f MB     VmHWM summed over %d daemon(s)", win.rssMB, win.daemons)

	eps, rounds, msgs := quality(win)
	r.qualityLine("cut_fraction", "ratio", eps, "eps_achieved per decompose answer")
	r.qualityLine("congest_rounds", "count", rounds, "simulated rounds per enumerate answer")
	r.qualityLine("congest_messages", "count", msgs, "simulated messages per enumerate answer")
}

func (r *report) qualityLine(name, unit string, xs []float64, what string) {
	if len(xs) == 0 {
		r.line("%-16s %10s %-6s not reported: no answer in this workload carries it", name, "-", unit)
		return
	}
	r.line("%-16s %10.4f %-6s mean %s, n=%d", name, mean(xs), unit, what, len(xs))
}

// quality collects the paper's quality and cost figures from the
// answers: eps_achieved per decompose answer, and rounds and messages
// per enumerate answer.
func quality(win *window) (eps, rounds, msgs []float64) {
	for _, s := range win.samples {
		if !s.ok() || s.op.kind != kindQuery {
			continue
		}
		switch s.op.params.(type) {
		case service.DecomposeParams:
			eps = append(eps, s.res.EpsAchieved)
		case service.EnumerateParams:
			rounds = append(rounds, float64(s.res.Rounds))
			msgs = append(msgs, float64(s.res.Messages))
		}
	}
	return eps, rounds, msgs
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// mixName names a request by algorithm and backend or kernel.
func mixName(o *op) string {
	switch p := o.params.(type) {
	case service.CountParams:
		return "count/" + p.Kernel
	case service.DecomposeParams:
		return "decompose/" + p.Backend
	case service.EnumerateParams:
		return "enumerate"
	case service.DistCountParams:
		return "count-dist"
	}
	return o.kind
}

// properties reports the input properties the metrics depend on.
func (r *report) properties(win *window) {
	queries, served := 0, 0
	mix := map[string]int{}
	var tri []float64
	jobs := 0
	for _, s := range win.samples {
		mix[mixName(s.op)]++
		if s.op.kind != kindQuery {
			continue
		}
		queries++
		if s.served {
			served++
		}
		if !s.ok() {
			continue
		}
		switch s.op.params.(type) {
		case service.CountParams:
			tri = append(tri, float64(s.res.Triangles))
		case service.DistCountParams:
			tri = append(tri, float64(s.res.Triangles))
			jobs++
		}
	}
	var names []string
	for k := range mix {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", k, mix[k]))
	}
	bodies, unsorted := 0, 0
	for _, s := range win.all() {
		if s.op.kind == kindUpload {
			bodies++
			if g, err := s.op.graph.graph(); err == nil && !canonical(g) {
				unsorted++
			}
		}
	}
	pushes, _, _ := win.distDelta()
	r.props = append(r.props,
		prop{"hit_share", fmt.Sprintf("%.4f (%d of %d queries sent after their key was answered)", ratio(served, queries), served, queries)},
		prop{"unsorted_upload_share", fmt.Sprintf("%.4f (%d of %d upload bodies not in canonical edge order)", ratio(unsorted, bodies), unsorted, bodies)},
		prop{"mix", strings.Join(parts, " ")},
		prop{"triangles_per_count", fmt.Sprintf("%.1f (n=%d)", mean(tri), len(tri))},
		prop{"fragments_per_job", fmt.Sprintf("%.2f (%.0f pushes over %d count-dist jobs)", ratio(int(pushes), jobs), pushes, jobs)},
	)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer computes the per-layer metrics from the client spans, the
// /v1/stats deltas and the in-process replay spans.
func (r *report) perLayer(win *window, rp1 *replayer, cfg config) {
	set := func(name string, v float64, n int) { r.layers[name] = layerVal{v, n} }
	pct := func(name string, xs []float64, p float64) {
		v, _ := percentile(xs, p)
		set(name, v, len(xs))
	}

	// Service, from the answers and the front daemon's counters.
	pct("service.hit_p50_ms", okLatencies(win, func(s *sample) bool { return s.op.kind == kindQuery && s.served }), 50)
	var waits, computes []time.Duration
	for _, s := range win.samples {
		if s.ok() && s.computed && s.res.ComputeNS > 0 {
			waits = append(waits, s.latency()-time.Duration(s.res.ComputeNS))
			computes = append(computes, time.Duration(s.res.ComputeNS))
		}
	}
	pct("service.miss_wait_p99_ms", sortedMS(waits), 99)
	pct("service.compute_p50_ms", sortedMS(computes), 50)
	uploads := okLatencies(win, func(s *sample) bool { return s.op.kind == kindUpload })
	if len(uploads) == 0 {
		var ds []time.Duration
		for _, s := range win.setup {
			if s.ok() && s.op.kind == kindUpload {
				ds = append(ds, s.latency())
			}
		}
		uploads = sortedMS(ds)
	}
	pct("service.upload_p50_ms", uploads, 50)
	b, a := win.before, win.after
	queries := 0
	for tn, ts := range a.Tenants {
		queries += int(ts.Queries - b.Tenants[tn].Queries)
	}
	set("service.hit_ratio", ratio(int(a.Hits+a.Joins-b.Hits-b.Joins), queries), queries)
	set("service.busy", float64(a.Busy+a.QuotaRejections-b.Busy-b.QuotaRejections), queries)

	// Distribution, from the coordinator's per-peer counters.
	pushes, pushB, triples := win.distDelta()
	var retries []float64
	for _, s := range win.samples {
		if _, ok := s.op.params.(service.DistCountParams); ok && s.ok() {
			retries = append(retries, float64(s.res.DistRetries))
		}
	}
	jobs := len(retries)
	set("dist.push_mb", ratio(1, jobs)*pushB/(1<<20), jobs)
	set("dist.rpcs", ratio(1, jobs)*(pushes+triples), jobs)
	set("dist.retries", mean(retries), jobs)

	// In-process layers, from the workers=1 replay pass.
	var spans []*span
	for _, sp := range r.rec.spans {
		if sp.Workers == 1 {
			spans = append(spans, sp)
		}
	}
	kids := children(spans)
	roots := map[string][]*span{}
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots[sp.Name] = append(roots[sp.Name], sp)
		}
	}
	rootMedian := func(metric, name string) {
		var ds []time.Duration
		for _, sp := range roots[name] {
			ds = append(ds, sp.dur())
		}
		set(metric, medianMS(ds), len(ds))
	}
	// childTotals sums, per root span of the given names, the durations
	// of its children called child, and counts them.
	childTotals := func(child string, names ...string) (per []time.Duration, calls []float64) {
		for _, name := range names {
			for _, root := range roots[name] {
				var d time.Duration
				c := 0
				for _, k := range kids[root.ID] {
					if k.Name == child {
						d += k.dur()
						c++
					}
				}
				per = append(per, d)
				calls = append(calls, float64(c))
			}
		}
		return per, calls
	}
	selfMedian := func(metric string, names ...string) time.Duration {
		var ds []time.Duration
		var total time.Duration
		for _, name := range names {
			for _, root := range roots[name] {
				st := selfTime(root, kids[root.ID])
				ds = append(ds, st)
				total += st
			}
		}
		set(metric, medianMS(ds), len(ds))
		return total
	}

	rootMedian("graph.parse_ms", "graph.parse")
	var parseT time.Duration
	for _, sp := range roots["graph.parse"] {
		parseT += sp.dur()
	}
	mbs := 0.0
	if parseT > 0 {
		mbs = float64(rp1.parseB) / (1 << 20) / parseT.Seconds()
	}
	set("graph.parse_mb_s", mbs, rp1.bodies)
	rootMedian("graph.fingerprint_ms", "graph.fingerprint")
	set("graph.unsorted_share", ratio(rp1.unsorted, rp1.bodies), rp1.bodies)

	rootMedian("triangle.rank_ms", "triangle.rank")
	rootMedian("triangle.count2d_ms", "triangle.count2d")
	for _, c := range []string{"plan", "encode", "decode", "triple"} {
		per, calls := childTotals("triangle."+c, "triangle.count-dist")
		set("triangle."+c+"_ms", medianMS(per), len(per))
		if c == "triple" {
			set("triangle.triples", mean(calls), len(calls))
		}
	}

	for _, b := range []string{"cs19", "det", "par-cmps", "auto", "evaluate"} {
		rootMedian("core."+b+"_ms", "core."+b)
	}
	for _, c := range []string{"cut", "ldd"} {
		per, calls := childTotals("core."+c, "core.cs19", "core.det", "triangle.enumerate")
		set("core."+c+"_ms", medianMS(per), len(per))
		set("core."+c+"_calls", mean(calls), len(calls))
	}
	selfMedian("core.self_ms", "core.cs19", "core.det")
	minPhi := rp1.minPhi
	if rp1.phiN == 0 {
		minPhi = 0
	}
	set("core.min_phi", minPhi, rp1.phiN)

	rootMedian("triangle.enumerate_ms", "triangle.enumerate")
	enumSelf := selfMedian("triangle.enumerate_self_ms", "triangle.enumerate")

	// The paper's cost model, from the enumerate answers.
	var logN, logR []float64
	var msgs float64
	seen := map[string]bool{}
	for _, s := range win.samples {
		if _, ok := s.op.params.(service.EnumerateParams); !ok || !s.ok() || seen[s.op.key()] {
			continue
		}
		seen[s.op.key()] = true
		msgs += float64(s.res.Messages)
		if g, err := s.op.graph.graph(); err == nil && s.res.Rounds > 0 {
			logN = append(logN, math.Log(float64(g.N())))
			logR = append(logR, math.Log(float64(s.res.Rounds)))
		}
	}
	msgRate := 0.0
	if enumSelf > 0 {
		msgRate = msgs / enumSelf.Seconds()
	}
	set("congest.msgs_per_s", msgRate, len(seen))
	set("congest.rounds_exponent", slope(logN, logR), len(logN))

	// par.speedup: the compute calls replayed at both worker counts.
	one := map[string]time.Duration{}
	for _, sp := range spans {
		if sp.Parent == 0 {
			one[sp.Req+" "+sp.Name] = sp.dur()
		}
	}
	var t1, tn time.Duration
	calls := 0
	for _, sp := range r.rec.spans {
		if sp.Workers == cfg.nproc && sp.Workers != 1 && sp.Parent == 0 {
			if d, ok := one[sp.Req+" "+sp.Name]; ok {
				t1 += d
				tn += sp.dur()
				calls++
			}
		}
	}
	speedup := 0.0
	if tn > 0 {
		speedup = t1.Seconds() / tn.Seconds()
	}
	set("par.speedup", speedup, calls)

	lags := sortedMS(win.lags)
	pct("loadgen.lag_p99_ms", lags, 99)

	eps, rounds, ms := quality(win)
	set("cut_fraction", mean(eps), len(eps))
	set("congest_rounds", mean(rounds), len(rounds))
	set("congest_messages", mean(ms), len(ms))
}
