package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/par"
	"dexpander/internal/service"
)

// plan is one workload's generated inputs: the registrations that make
// up set-up, and the requests of the timed part.
type plan struct {
	setup []*op
	ops   []*op
	open  bool // open loop: ops carry due times
	conns int  // connections, and so concurrent requests, of the generator
}

// workload generates a plan from the seed; replicas is the number of
// replica daemons started beside the front daemon.
type workload struct {
	replicas int
	prepare  func(cfg config) (*plan, error)
}

var workloads = map[string]*workload{
	"ingest-query":        {prepare: prepareIngest},
	"decompose-enumerate": {prepare: prepareDecompose},
	"count-dist":          {replicas: 3, prepare: prepareCountDist},
}

// Generated families. Chung-Lu and GNP edge lists come out in canonical
// order; Barabási–Albert ones do not, so their fingerprint takes the
// copy+sort path.
func baSpec(n int, seed uint64) gen.Spec {
	return gen.Spec{Family: "barabasi-albert", Params: map[string]float64{"n": float64(n), "m0": 8}, Seed: seed}
}

func clSpec(n int, seed uint64) gen.Spec {
	return gen.Spec{Family: "chung-lu", Params: map[string]float64{"n": float64(n), "gamma": 2.1, "avg": 16}, Seed: seed}
}

func gnpSpec(n int, seed uint64) gen.Spec {
	return gen.Spec{Family: "gnp", Params: map[string]float64{"n": float64(n), "p": 16 / float64(n)}, Seed: seed}
}

// uploads builds each spec and serializes it as an edge-list upload
// body, nproc at a time.
func uploads(specs []gen.Spec, labels []string, nproc int) ([]*graphIn, error) {
	out := make([]*graphIn, len(specs))
	errs := make([]error, len(specs))
	par.ForEach(nproc, len(specs), func(i int) {
		g, err := specs[i].Build()
		if err != nil {
			errs[i] = err
			return
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			errs[i] = err
			return
		}
		out[i] = &graphIn{label: labels[i], body: buf.Bytes()}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ingest-query: an open loop of Zipf-skewed count and decompose queries
// over resident uploads, beside a stream of fresh uploads.
const (
	queryRate  = 125.0       // repeat arrivals per second
	writeRate  = 2.0         // upload arrivals per second
	keysPerSec = 4           // first requests per --seconds, up to every key once
	zipfS      = 1.1         // popularity skew over keys, oldest first
	maxSettle  = time.Second // see settle in prepareIngest
)

func prepareIngest(cfg config) (*plan, error) {
	r := rand.New(rand.NewPCG(cfg.seed, 1))
	window := time.Duration(cfg.seconds) * time.Second

	// Eight resident uploads serve the queries.
	var specs []gen.Spec
	var labels []string
	for i, fam := range []string{"ba", "ba", "ba", "cl", "cl", "cl", "gnp", "gnp"} {
		seed := r.Uint64()
		switch fam {
		case "ba":
			specs = append(specs, baSpec(1<<13, seed))
		case "cl":
			specs = append(specs, clSpec(1<<12, seed))
		default:
			specs = append(specs, gnpSpec(1<<12, seed))
		}
		labels = append(labels, fmt.Sprintf("resident-%s-%d", fam, i))
	}
	// The write stream alternates unsorted (BA) and canonical (Chung-Lu)
	// edge lists, each a fresh graph.
	writeDue := arrivals(r, writeRate, 0, window)
	for i := range writeDue {
		if i%2 == 0 {
			specs = append(specs, baSpec(1<<13, r.Uint64()))
			labels = append(labels, fmt.Sprintf("write-ba-%d", i))
		} else {
			specs = append(specs, clSpec(1<<12, r.Uint64()))
			labels = append(labels, fmt.Sprintf("write-cl-%d", i))
		}
	}
	graphs, err := uploads(specs, labels, cfg.nproc)
	if err != nil {
		return nil, err
	}
	resident, writes := graphs[:8], graphs[8:]

	p := &plan{open: true, conns: cfg.nproc}
	for i, g := range resident {
		g.tenant = tenants[i%len(tenants)]
		p.setup = append(p.setup, &op{kind: kindUpload, graph: g, tenant: g.tenant})
	}
	for i, g := range writes {
		g.tenant = tenants[i%len(tenants)]
		p.ops = append(p.ops, &op{kind: kindUpload, graph: g, tenant: g.tenant, due: writeDue[i]})
	}

	// Keys are first requested one graph at a time, each graph's six keys
	// in a shuffled order, so the expensive auto decompositions are
	// spread evenly over the window instead of landing together.
	type key struct {
		g *graphIn
		p service.Params
	}
	var keys []key
	for _, gi := range r.Perm(len(resident)) {
		g := resident[gi]
		ks := []key{
			{g, service.CountParams{Kernel: "auto"}},
			{g, service.CountParams{Kernel: "2d"}},
			{g, service.DecomposeParams{Eps: 0.4, K: 2, Seed: 1, Backend: "par-cmps"}},
			{g, service.DecomposeParams{Eps: 0.4, K: 2, Seed: 2, Backend: "par-cmps"}},
			{g, service.DecomposeParams{Eps: 0.4, K: 2, Seed: 3, Backend: "par-cmps"}},
			{g, service.DecomposeParams{Eps: 0.4, K: 2, Seed: 1 + r.Uint64N(3), Backend: "auto"}},
		}
		r.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		keys = append(keys, ks...)
	}
	keys = keys[:min(len(keys), keysPerSec*cfg.seconds)]
	keyEvery := window / time.Duration(len(keys))
	// A key is requested again only once it has settled: longer after
	// its first request than any of its computations takes, so repeats
	// are cache hits rather than joins on a running computation that
	// would hold both connections at once.
	settle := min(maxSettle, window/4)
	query := func(k int, due time.Duration) *op {
		return &op{kind: kindQuery, graph: keys[k].g, params: keys[k].p, tenant: tenants[r.IntN(len(tenants))], due: due}
	}
	for k := range keys {
		p.ops = append(p.ops, query(k, time.Duration(k)*keyEvery))
	}
	// Repeats pick a settled key by Zipf over first-request order.
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(keys)-1))
	for _, t := range arrivals(r, queryRate, settle, window) {
		settled := min(len(keys), int((t-settle)/keyEvery)+1)
		k := int(zipf.Uint64())
		for k >= settled {
			k = int(zipf.Uint64())
		}
		p.ops = append(p.ops, query(k, t))
	}
	sort.SliceStable(p.ops, func(i, j int) bool { return p.ops[i].due < p.ops[j].due })
	return p, nil
}

// arrivals draws a Poisson process at rate per second on [from, to),
// conditioned on its expected count: that many uniform times, sorted.
// Fixing the count keeps the offered load equal across seeds.
func arrivals(r *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	n := int(math.Round(rate * (to - from).Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(r.Int64N(int64(to-from)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// decompose-enumerate: a closed loop of one client over small graphs
// registered by spec, mostly cs19 decompositions with a minority of
// enumerations and det decompositions; every request is a fresh key.
// The list is built from blocks of fixed composition, so the latency
// distribution does not hinge on which sizes a seed happens to draw.
const (
	blockSeconds = 5  // one block per this many --seconds
	maxSpecGraph = 60 // graphs registered, below the registry's 64 snapshots
)

type decompReq struct {
	kind, family string
	n            int
}

func (q decompReq) shape() string { return fmt.Sprintf("%s-%d", q.family, q.n) }

var smallFamilies = []string{"dumbbell", "ring", "expander-of-cliques", "sbm", "gnp"}

func prepareDecompose(cfg config) (*plan, error) {
	r := rand.New(rand.NewPCG(cfg.seed, 2))
	blocks := max(1, cfg.seconds/blockSeconds)
	p := &plan{conns: 1}
	seed := 1 + r.Uint64N(1<<40)
	byShape := map[string][]*graphIn{}
	for b := 0; b < blocks; b++ {
		// A block is 20 requests: cs19 on every family at 48, 64 and 96
		// vertices, three enumerations at 48, 48 and 96 and two det runs
		// at 48 (det costs about five cs19 runs), on families rotating
		// from block to block. Seven requests cost less than the five
		// cs19 runs at 64 vertices and eight cost more, so the median
		// falls inside that group rather than on a boundary.
		var reqs []decompReq
		for _, f := range smallFamilies {
			for _, n := range []int{48, 64, 96} {
				reqs = append(reqs, decompReq{"cs19", f, n})
			}
		}
		for i, n := range []int{48, 48, 96} {
			reqs = append(reqs, decompReq{"enumerate", smallFamilies[(3*b+i)%len(smallFamilies)], n})
		}
		for i := 0; i < 2; i++ {
			reqs = append(reqs, decompReq{"det", smallFamilies[(2*b+i)%len(smallFamilies)], 48})
		}
		r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		for _, q := range reqs {
			i := len(p.ops)
			var g *graphIn
			if i < maxSpecGraph {
				spec := smallSpec(q.family, q.n, r.Uint64(), r)
				g = &graphIn{label: fmt.Sprintf("%s-n%d-%d", q.family, q.n, i), spec: &spec}
				p.setup = append(p.setup, &op{kind: kindSpec, graph: g})
				byShape[q.shape()] = append(byShape[q.shape()], g)
			} else {
				// Past the registry's room, reuse a graph of the same
				// family and size with fresh parameters.
				same := byShape[q.shape()]
				g = same[i%len(same)]
			}
			seed++
			var params service.Params = service.EnumerateParams{Seed: seed}
			if q.kind != "enumerate" {
				params = service.DecomposeParams{Eps: 0.4, K: 2, Seed: seed, Backend: q.kind}
			}
			p.ops = append(p.ops, &op{kind: kindQuery, graph: g, params: params})
		}
	}
	return p, nil
}

// smallSpec builds a generator spec of the family at n vertices.
func smallSpec(family string, n int, seed uint64, r *rand.Rand) gen.Spec {
	blocks := 8
	if n < 64 {
		blocks = 6
	}
	ps := map[string]float64{}
	switch family {
	case "dumbbell":
		// Two cliques of n/2 joined by one to three bridges.
		ps["size"], ps["bridges"] = float64(n/2), float64(1+r.IntN(3))
	case "ring", "expander-of-cliques":
		ps["blocks"], ps["size"] = float64(blocks), float64(n/blocks)
		if family == "expander-of-cliques" {
			ps["d"] = 3
		}
	case "sbm":
		ps["blocks"], ps["size"], ps["p"], ps["pout"] = float64(blocks), float64(n/blocks), 0.5, 0.02
	default:
		ps["n"], ps["p"] = float64(n), 10/float64(n)
	}
	return gen.Spec{Family: family, Params: ps, Seed: seed}
}

// count-dist: a closed loop of one client running distributed counts
// through a coordinator and three replicas, each job a fresh (graph,
// grid) key so every job tiles, encodes, pushes and counts anew.
const (
	secondsPerInstance = 6 // one graph of each family per this many --seconds
	minGrid, maxGrid   = 3, 12
)

func prepareCountDist(cfg config) (*plan, error) {
	r := rand.New(rand.NewPCG(cfg.seed, 3))
	inst := max(1, cfg.seconds/secondsPerInstance)
	var specs []gen.Spec
	var labels []string
	for i := 0; i < inst; i++ {
		specs = append(specs, baSpec(1<<16, r.Uint64()), clSpec(1<<14, r.Uint64()), gnpSpec(1<<13, r.Uint64()))
		labels = append(labels, fmt.Sprintf("ba-%d", i), fmt.Sprintf("cl-%d", i), fmt.Sprintf("gnp-%d", i))
	}
	graphs, err := uploads(specs, labels, cfg.nproc)
	if err != nil {
		return nil, err
	}
	p := &plan{conns: 1}
	for _, g := range graphs {
		p.setup = append(p.setup, &op{kind: kindUpload, graph: g})
		for grid := minGrid; grid <= maxGrid; grid++ {
			p.ops = append(p.ops, &op{kind: kindQuery, graph: g, params: service.DistCountParams{Grid: grid}})
		}
	}
	r.Shuffle(len(p.ops), func(i, j int) { p.ops[i], p.ops[j] = p.ops[j], p.ops[i] })
	return p, nil
}
