package harness

import (
	"fmt"
	"math"

	"dexpander/internal/core"
	"dexpander/internal/dnibble"
	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/ldd"
	"dexpander/internal/nibble"
	"dexpander/internal/rng"
	"dexpander/internal/route"
	"dexpander/internal/spectral"
	"dexpander/internal/triangle"
)

// Scale controls experiment sizes: tests use Small, benchmarks Default.
type Scale int

const (
	// Small keeps every experiment under a second or two.
	Small Scale = iota + 1
	// Default is the benchmark scale.
	Default
)

// E1 (Theorem 1): distributed expander decomposition over growing
// ring-of-cliques instances: measured CONGEST rounds, achieved eps,
// certified component conductance.
func E1Decomposition(scale Scale, seed uint64) (*Table, error) {
	const eps = 0.6
	sizes := []int{3, 4, 6}
	cliqueSize := 12
	if scale == Small {
		sizes = []int{3, 4}
		cliqueSize = 8
	}
	t := &Table{
		Title:   "E1 (Theorem 1): (eps,phi)-expander decomposition, distributed subroutines",
		Headers: []string{"n", "m", "parts", "epsAchieved", "phiTarget", "minPhi(cert)", "rounds", "messages", "ok"},
	}
	var ns, rounds []float64
	for _, k := range sizes {
		g := gen.RingOfCliques(k, cliqueSize, seed)
		view := graph.WholeGraph(g)
		dec, err := core.Decompose(view, core.Options{
			Eps: eps, K: 2, Preset: nibble.Practical, Seed: seed + uint64(k),
		}, dnibble.DistSubroutines{Preset: nibble.Practical})
		if err != nil {
			return nil, fmt.Errorf("E1 k=%d: %w", k, err)
		}
		if err := dec.CheckPartition(view); err != nil {
			return nil, fmt.Errorf("E1 k=%d: %w", k, err)
		}
		q := dec.Evaluate(view)
		t.AddRow(g.N(), g.M(), dec.Count, dec.EpsAchieved, dec.PhiTarget,
			q.MinPhiLower, dec.Stats.Rounds, int(dec.Stats.Messages),
			dec.EpsAchieved <= eps && q.MinPhiLower >= dec.PhiTarget)
		ns = append(ns, float64(g.N()))
		rounds = append(rounds, float64(dec.Stats.Rounds))
	}
	if e, r2 := FitPowerLaw(ns, rounds); r2 > 0 {
		t.AddNote("rounds ~ n^%.2f (R^2=%.2f); paper: O(n^{2/k} poly(1/phi, log n)) with k=2", e, r2)
	}
	t.AddNote("contract: epsAchieved <= 0.6 and minPhi >= phiTarget on every row")
	return t, nil
}

// E1b (Theorem 1 trade-off): sweep k on a satellite-clique instance — a
// core expander with low-balance satellite cuts, the configuration that
// sends components into Phase 2. The phi ladder bottom falls with k and
// the Phase 2 ladder gets exercised.
func E1KTradeoff(scale Scale, seed uint64) (*Table, error) {
	// Dimensions sized for Phase 2 peeling: satellite conductance
	// 1/(s(s-1)+1) below phi_1 = phi_0/2 and satellite volume below the
	// (eps/12) Vol gate (eps = 0.9, core K70, satellites K19).
	coreN, satSize, satCount := 70, 19, 2
	g := gen.SatelliteCliques(coreN, satSize, satCount, seed)
	view := graph.WholeGraph(g)
	t := &Table{
		Title:   "E1b (Theorem 1): k trade-off (satellite cliques; Phase 2 active)",
		Headers: []string{"k", "phiTarget", "parts", "epsAchieved", "phase2Iters", "singletons", "rounds"},
	}
	for _, kk := range []int{1, 2, 3, 4} {
		dec, err := core.Decompose(view, core.Options{
			Eps: 0.9, K: kk, Preset: nibble.Practical, Seed: seed,
		}, core.SeqSubroutines{Preset: nibble.Practical})
		if err != nil {
			return nil, fmt.Errorf("E1b k=%d: %w", kk, err)
		}
		if err := dec.CheckPartition(view); err != nil {
			return nil, fmt.Errorf("E1b k=%d: %w", kk, err)
		}
		t.AddRow(kk, dec.PhiTarget, dec.Count, dec.EpsAchieved,
			dec.Phase2MaxIterations, dec.Singletons, dec.Stats.Rounds)
	}
	t.AddNote("phi = (eps/log n)^{2^{O(k)}}: the ladder bottom decreases in k")
	t.AddNote("rounds are zero here: the k sweep isolates quality, using sequential subroutines")
	return t, nil
}

// E2 (Theorem 2): triangle enumeration rounds vs n on the lower-bound
// family G(n, 1/2), against both baselines and brute force.
func E2TriangleScaling(scale Scale, seed uint64) (*Table, error) {
	sizes := []int{24, 48, 96}
	if scale == Small {
		sizes = []int{16, 24}
	}
	return TriangleComparison(sizes, seed)
}

// TriangleComparison runs our CONGEST enumeration, the Dolev–Lenzen–Peled
// CONGESTED-CLIQUE baseline and the naive CONGEST baseline on G(n, 1/2)
// for each n in sizes. A row's ok column holds when all three outputs
// equal BruteForce's.
func TriangleComparison(sizes []int, seed uint64) (*Table, error) {
	t := &Table{
		Title: "E2 (Theorem 2): CONGEST triangle enumeration on G(n, 1/2) vs CONGESTED-CLIQUE (DLP) and naive CONGEST",
		Headers: []string{"n", "m", "triangles", "oursRounds", "cliqueRounds", "naiveRounds",
			"rounds/groups", "recursions", "ok"},
	}
	var ns, rounds []float64
	for _, n := range sizes {
		g := gen.GNP(n, 0.5, seed+uint64(n))
		view := graph.WholeGraph(g)
		want := triangle.BruteForce(view)
		ours, st, err := triangle.Enumerate(view, triangle.Options{Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d: %w", n, err)
		}
		clique, cs, err := triangle.CliqueDLP(view, seed)
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d clique: %w", n, err)
		}
		naive, nvs, err := triangle.Naive(view, seed)
		if err != nil {
			return nil, fmt.Errorf("E2 n=%d naive: %w", n, err)
		}
		t.AddRow(n, g.M(), want.Len(), st.Rounds, cs.Rounds, nvs.Rounds,
			float64(st.Rounds)/float64(triangle.GroupCount(n)), st.Recursions,
			ours.Equal(want) && clique.Equal(want) && naive.Equal(want))
		ns = append(ns, float64(n))
		rounds = append(rounds, float64(st.Rounds))
	}
	if e, r2 := FitPowerLaw(ns, rounds); r2 > 0 {
		t.AddNote("oursRounds ~ n^%.2f (R^2=%.2f); paper: ~O(n^{1/3}), lower bound Omega(n^{1/3}/log n)", e, r2)
	}
	t.AddNote("paper: CONGEST matches CONGESTED-CLIQUE up to polylog; naive CONGEST is Theta(maxdeg)")
	return t, nil
}

// E3 (Theorem 3): nearly most balanced sparse cut. Sweep planted balance
// b on unbalanced dumbbells; the returned balance must clear
// min(b/2, 1/48) and conductance must stay under TransferH(phi).
func E3SparseCutBalance(scale Scale, seed uint64) (*Table, error) {
	big := 32
	smalls := []int{8, 16, 32}
	if scale == Small {
		big = 16
		smalls = []int{6, 16}
	}
	t := &Table{
		Title:   "E3 (Theorem 3): nearly most balanced sparse cut, planted balance sweep",
		Headers: []string{"plantedB", "floor=min(b/2,1/48)", "balance", "phiCut", "boundH", "ok"},
	}
	for _, s2 := range smalls {
		g := gen.UnbalancedDumbbell(big, s2, seed)
		view := graph.WholeGraph(g)
		small := graph.NewVSet(g.N())
		for v := big; v < big+s2; v++ {
			small.Add(v)
		}
		b := view.Balance(small)
		phi := 2 * view.Conductance(small)
		// The paper runs s = Theta(g log(1/p)) ParallelNibble rounds so
		// that even balance-b cuts are hit w.h.p.; the degree-weighted
		// start lands in a balance-b side with probability b per draw,
		// so scale the practical iteration budget like 1/b.
		pr := nibble.PracticalParams(view, nibble.PartitionPhi(view, phi, nibble.Practical))
		pr.EmptyStop = int(8/b) + 8
		pr.SCap = pr.EmptyStop * 2
		res := nibble.Partition(view, pr, rng.New(seed+uint64(s2)))
		floor := math.Min(b/2, 1.0/48.0)
		h := nibble.TransferH(view, phi, nibble.Practical)
		ok := !res.Empty() && res.Balance >= floor && res.Conductance <= h
		t.AddRow(b, floor, res.Balance, res.Conductance, h, ok)
	}
	t.AddNote("Theorem 3: bal(C) >= min(b/2, 1/48), Phi(C) <= h(phi); iteration budget ~ 1/b per the paper's s")
	return t, nil
}

// E3b (Theorem 3, negative case): on expanders the cut is empty or still
// h(phi)-sparse.
func E3ExpanderCase(scale Scale, seed uint64) (*Table, error) {
	n := 64
	if scale == Small {
		n = 32
	}
	t := &Table{
		Title:   "E3b (Theorem 3): expander case (Phi(G) > phi)",
		Headers: []string{"graph", "phi", "empty", "phiCut", "boundH", "ok"},
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"matchings", gen.ExpanderByMatchings(n, 6, seed)},
		{"complete", gen.Complete(n / 2)},
		{"hypercube", gen.Hypercube(5)},
	} {
		view := graph.WholeGraph(tc.g)
		phi := 0.01
		res := nibble.SparseCut(view, phi, nibble.Practical, rng.New(seed))
		h := nibble.TransferH(view, phi, nibble.Practical)
		ok := res.Empty() || res.Conductance <= h
		t.AddRow(tc.name, phi, res.Empty(), res.Conductance, h, ok)
	}
	return t, nil
}

// E4 (Theorem 4): low-diameter decomposition sweep over beta on long
// paths: component diameter vs the O(log^2 n / beta^2) bound and cut
// fraction vs 3*beta. The path length is sized per beta so local
// A-balls stay sparse (m > 4AB), the regime where the decomposition has
// work to do.
func E4LDD(scale Scale, seed uint64) (*Table, error) {
	betas := []float64{0.3, 0.5, 0.7, 0.9}
	budget := 9000
	if scale == Small {
		betas = []float64{0.5, 0.9}
		budget = 2500
	}
	t := &Table{
		Title:   "E4 (Theorem 4): low-diameter decomposition on paths (length sized per beta)",
		Headers: []string{"beta", "n", "parts", "maxDiam", "diamBound", "cutFrac", "3*beta", "ok"},
	}
	for _, beta := range betas {
		n := pathSizeForBeta(beta, budget)
		g := gen.Path(n)
		view := graph.WholeGraph(g)
		pr := ldd.NewParams(g.N(), beta, ldd.Practical)
		res := ldd.Decompose(view, pr, rng.New(seed+uint64(beta*100)))
		d := res.MaxDiameter(view)
		bound := 2*(pr.T+1) + 20*pr.A*pr.B + 2
		frac := res.CutFraction(view)
		t.AddRow(beta, n, res.Count, d, bound, frac, 3*beta, d <= bound && frac <= 3*beta)
	}
	t.AddNote("diamBound instantiates O(log^2 n / beta^2) with the practical constants")
	return t, nil
}

// pathSizeForBeta returns a path length comfortably inside the sparse
// regime (m > 8AB with A ~ 2 ln n / beta, B ~ ln n / beta), capped by
// the runtime budget.
func pathSizeForBeta(beta float64, budget int) int {
	for n := 400; n < budget; n += 200 {
		lnN := math.Log(float64(n))
		a := 2*lnN/beta + 2
		b := lnN/beta + 1
		if float64(n-1) > 8*a*b {
			return n
		}
	}
	return budget
}

// E4b (Theorem 4, distributed): the full distributed pipeline with
// measured rounds on long paths sized into the sparse regime per beta.
func E4Distributed(scale Scale, seed uint64) (*Table, error) {
	betas := []float64{0.7, 0.9}
	budget := 1400
	if scale == Small {
		betas = []float64{0.9}
		budget = 700
	}
	t := &Table{
		Title:   "E4b (Theorem 4): distributed LDD (full pipeline), path graphs",
		Headers: []string{"beta", "n", "parts", "cutFrac", "rounds", "messages"},
	}
	for _, beta := range betas {
		n := pathSizeForBeta(beta, budget)
		g := gen.Path(n)
		view := graph.WholeGraph(g)
		pr := ldd.NewParams(g.N(), beta, ldd.Practical)
		res, stats, err := ldd.DistDecompose(view, pr, seed)
		if err != nil {
			return nil, fmt.Errorf("E4b beta=%v: %w", beta, err)
		}
		t.AddRow(beta, n, res.Count, res.CutFraction(view), stats.Rounds, int(stats.Messages))
	}
	t.AddNote("rounds are poly(log n, 1/beta): no diameter term despite the path topology")
	return t, nil
}

// E5 (Lemma 12): per-edge cut probability of Clustering(beta) <= 2 beta.
func E5ClusteringCutProb(scale Scale, seed uint64) (*Table, error) {
	k, trials := 16, 400
	if scale == Small {
		k, trials = 10, 120
	}
	g := gen.Torus(k)
	view := graph.WholeGraph(g)
	t := &Table{
		Title:   "E5 (Lemma 12): Clustering(beta) edge-cut probability",
		Headers: []string{"beta", "maxEdgeFreq", "meanCutFrac", "2*beta", "ok"},
	}
	for _, beta := range []float64{0.2, 0.4, 0.6} {
		pr := ldd.NewParams(g.N(), beta, ldd.Practical)
		maxFreq, mean := ldd.EdgeCutProbability(view, pr, trials, seed)
		slack := 2*beta + 3*math.Sqrt(2*beta/float64(trials))
		t.AddRow(beta, maxFreq, mean, 2*beta, maxFreq <= slack)
	}
	t.AddNote("ok allows 3-sigma sampling noise over the trial count")
	return t, nil
}

// E6 (GKS trade-off): router preprocessing vs query rounds as the
// parameter k (hub count m^{1/k}) varies.
func E6RoutingTradeoff(scale Scale, seed uint64) (*Table, error) {
	n := 96
	if scale == Small {
		n = 48
	}
	g := gen.ExpanderByMatchings(n, 6, seed)
	view := graph.WholeGraph(g)
	t := &Table{
		Title:   "E6 (GKS, Section 3): routing preprocessing/query trade-off",
		Headers: []string{"k", "hubs", "buildRounds", "queryRounds", "messages"},
	}
	for _, k := range []int{1, 2, 3, 4} {
		hubs := route.HubCountForK(view, k)
		rt, err := route.Build(view, hubs, seed)
		if err != nil {
			return nil, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		reqs := route.UniformRandomRequests(rt, seed+uint64(k))
		_, qs, err := rt.Route(reqs)
		if err != nil {
			return nil, fmt.Errorf("E6 k=%d: %w", k, err)
		}
		t.AddRow(k, hubs, rt.BuildStats.Rounds, qs.Rounds, int(qs.Messages))
	}
	t.AddNote("more hubs (smaller k): preprocessing up, query congestion down — GKS Lemmas 3.2-3.4 shape")
	return t, nil
}

// E8 (Section 1, Jerrum-Sinclair): mixing time vs conductance bounds on
// families with known structure.
func E8Mixing(scale Scale, seed uint64) (*Table, error) {
	t := &Table{
		Title:   "E8: Theta(1/Phi) <= tau_mix <= Theta(log n / Phi^2)",
		Headers: []string{"graph", "n", "phiUpper(sweep)", "lambda2/2", "tauMix", "upperBound", "ok"},
	}
	gs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hypercube", gen.Hypercube(6)},
		{"torus", gen.Torus(10)},
		{"ring", gen.RingOfCliques(4, 8, seed)},
		{"expander", gen.ExpanderByMatchings(64, 6, seed)},
	}
	if scale == Small {
		gs = gs[:2]
	}
	for _, tc := range gs {
		view := graph.WholeGraph(tc.g)
		phiUp := spectral.ConductanceSweepUpper(view, []int{0, 1}, 40)
		lower := spectral.CheegerLower(view, 600, seed)
		tau := spectral.MixingTime(view, 0, 0.5, 200000)
		n := float64(tc.g.N())
		upper := 40 * math.Log(n) / (lower * lower)
		ok := float64(tau) <= upper && float64(tau) >= 0.05/phiUp
		t.AddRow(tc.name, tc.g.N(), phiUp, lower, tau, upper, ok)
	}
	return t, nil
}

// E9 (Section 2): Phase 1 recursion depth stays below d = O(log n / eps)
// and Phase 2 level iterations below the tau budget.
func E9PhaseDepths(scale Scale, seed uint64) (*Table, error) {
	coreN, satCount := 70, 2
	ringK, ringS := 6, 10
	if scale == Small {
		ringK, ringS = 4, 8
	}
	t := &Table{
		Title:   "E9 (Section 2): phase structure instrumentation",
		Headers: []string{"workload", "eps", "dBound", "phase1Depth", "phase2Iters", "ok"},
	}
	workloads := []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", gen.RingOfCliques(ringK, ringS, seed)},
		{"satellites", gen.SatelliteCliques(coreN, 19, satCount, seed)},
	}
	for _, w := range workloads {
		view := graph.WholeGraph(w.g)
		for _, eps := range []float64{0.6, 0.9} {
			dec, err := core.Decompose(view, core.Options{
				Eps: eps, K: 2, Preset: nibble.Practical, Seed: seed,
			}, core.SeqSubroutines{Preset: nibble.Practical})
			if err != nil {
				return nil, fmt.Errorf("E9 %s eps=%v: %w", w.name, eps, err)
			}
			n := float64(w.g.N())
			d := int(math.Ceil(math.Log(n*n) / -math.Log(1-eps/12)))
			t.AddRow(w.name, eps, d, dec.Phase1Depth, dec.Phase2MaxIterations,
				dec.Phase1Depth <= d)
		}
	}
	t.AddNote("ok checks Lemma 1: recursion depth <= d; phase2Iters is reported, not checked against Lemma 2's 2 tau bound")
	t.AddNote("the satellite workload exercises Phase 2 (low-balance cuts below the eps/12 gate)")
	return t, nil
}

// E10 (Lemma 3): Vol(Z_{u,phi,b}) <= (t0+1)/(2 eps_b).
func E10WalkSupport(scale Scale, seed uint64) (*Table, error) {
	k, s := 4, 8
	if scale == Small {
		k, s = 3, 6
	}
	g := gen.RingOfCliques(k, s, seed)
	view := graph.WholeGraph(g)
	pr := nibble.PracticalParams(view, 0.1)
	t0 := 12 // truncated horizon keeps the oracle walk cheap
	t := &Table{
		Title:   "E10 (Lemma 3): walk support volume vs (t0+1)/(2 eps_b)",
		Headers: []string{"b", "epsB", "VolZ", "bound", "ok"},
	}
	for _, b := range []int{1, 3, 5} {
		epsB := pr.EpsB(b)
		z := spectral.WalkSupportSet(view, 0, t0, epsB)
		bound := float64(t0+1) / (2 * epsB)
		vol := float64(g.Vol(z))
		t.AddRow(b, epsB, vol, bound, vol <= bound)
	}
	return t, nil
}

// Experiment is one entry of the experiment list.
type Experiment struct {
	// Name is the experiment's id, e.g. "E3b".
	Name string
	// Run builds the table at the given scale and seed.
	Run func(Scale, uint64) (*Table, error)
}

// Experiments lists every experiment in table order. The trianglebench
// command, the contract test and the root benchmarks all iterate it.
var Experiments = []Experiment{
	{"E1", E1Decomposition},
	{"E1b", E1KTradeoff},
	{"E2", E2TriangleScaling},
	{"E3", E3SparseCutBalance},
	{"E3b", E3ExpanderCase},
	{"E4", E4LDD},
	{"E4b", E4Distributed},
	{"E5", E5ClusteringCutProb},
	{"E6", E6RoutingTradeoff},
	{"E8", E8Mixing},
	{"E9", E9PhaseDepths},
	{"E10", E10WalkSupport},
	{"E11", E11EngineThroughput},
}
