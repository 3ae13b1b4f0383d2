package nibble

import (
	"math"

	"dexpander/internal/graph"
	"dexpander/internal/spectral"
)

// Result is the outcome of one nibble run.
type Result struct {
	// C is the returned cut; empty means the run found nothing.
	C *graph.VSet
	// PStar is the set of participating edge ids (Definition 2): edges
	// with an endpoint carrying positive truncated mass at some step.
	// Used by ParallelNibble's congestion accounting.
	PStar []int
	// Steps is the step whose sweep returned C, or T0 when no step did
	// (including walks cut short by an empty support or a fixed point).
	Steps int
}

// Empty reports whether the run returned no cut.
func (r *Result) Empty() bool { return r.C == nil || r.C.Empty() }

// Both nibble variants drive the sparse local-walk engine
// (spectral.WalkState): each step costs O(vol(support)), the touched set
// and P* come from the engine's incremental bookkeeping instead of O(n)
// and O(m) rescans, and the engine's pooled buffers make repeated trials
// allocation-free at steady state. The engine is bit-identical to the
// dense reference walk, so these functions return exactly what the
// original dense implementations returned (pinned by oracle tests).
//
// A walk stops before T0 when no later step can return a cut: when
// truncation empties the support, or at the first step t >= 2 that
// leaves the state bitwise unchanged. From such a fixed point every later
// state, sweep, and check repeats step t-1's, which already failed, and
// the touched set and P* are final. Step 1 may not stop the walk: its
// predecessor chi_v was never swept.

// Nibble runs the original Spielman–Teng Nibble(G, v, phi, b) on the
// view: a truncated lazy walk from v for up to T0 steps, checking at each
// step every sweep prefix j for conditions (C.1)–(C.3). It is the
// specification reference; ApproximateNibble is what the distributed
// algorithm implements.
func Nibble(view *graph.Sub, pr Params, v, b int) *Result {
	res := &Result{C: graph.NewVSet(view.Base().N()), Steps: pr.T0}
	eps := pr.EpsB(b)
	totalVol := view.TotalVol()
	minVol := 5.0 / 7.0 * math.Pow(2, float64(b-1))
	ws := spectral.AcquireWalkState(view)
	defer ws.Release()
	ws.Init(v)
	for t := 1; t <= pr.T0; t++ {
		changed := ws.StepTruncate(eps)
		if ws.SupportLen() == 0 || (!changed && t >= 2) {
			break
		}
		sweep := ws.Sweep()
		jmax := sweep.JMax()
		for j := 1; j <= jmax; j++ {
			volJ := sweep.PrefixVol[j]
			// (C.1) conductance at most phi.
			if sweep.Conductance(j, totalVol) > pr.Phi {
				continue
			}
			// (C.2) rho of the j-th vertex at least gamma/Vol(prefix).
			if sweep.Rho[j]*float64(volJ) < pr.Gamma {
				continue
			}
			// (C.3) volume window.
			if float64(volJ) < minVol || float64(volJ) > 5.0/6.0*float64(totalVol) {
				continue
			}
			res.C = sweep.PrefixSet(view.Base().N(), j)
			res.PStar = ws.Participating()
			res.Steps = t
			return res
		}
	}
	res.PStar = ws.Participating()
	return res
}

// ApproximateNibble runs the paper's distributed-friendly variant: per
// step it inspects only the O(phi^-1 log Vol) indices of the geometric
// j-sequence (j_x), testing the original conditions at dense indices and
// the starred relaxations (C.1*)–(C.3*) elsewhere. Its guarantees are
// Lemma 5: for v in the good core S^g_b of a sparse cut S, the output is
// non-empty with Vol(C ∩ S) >= 2^{b-2}.
func ApproximateNibble(view *graph.Sub, pr Params, v, b int) *Result {
	res := &Result{C: graph.NewVSet(view.Base().N()), Steps: pr.T0}
	eps := pr.EpsB(b)
	totalVol := view.TotalVol()
	minVol := 5.0 / 7.0 * math.Pow(2, float64(b-1))
	ws := spectral.AcquireWalkState(view)
	defer ws.Release()
	ws.Init(v)
	var jbuf []int // reused across steps
	for t := 1; t <= pr.T0; t++ {
		changed := ws.StepTruncate(eps)
		if ws.SupportLen() == 0 || (!changed && t >= 2) {
			break
		}
		sweep := ws.Sweep()
		jbuf = appendJSequence(jbuf[:0], sweep, pr.Phi)
		for x, j := range jbuf {
			dense := x == 0 || j == jbuf[x-1]+1
			volJ := float64(sweep.PrefixVol[j])
			phiJ := sweep.Conductance(j, totalVol)
			var ok bool
			if dense {
				ok = phiJ <= pr.Phi &&
					sweep.Rho[j]*volJ >= pr.Gamma &&
					volJ >= minVol && volJ <= 5.0/6.0*float64(totalVol)
			} else {
				prev := jbuf[x-1]
				ok = phiJ <= 12*pr.Phi &&
					sweep.Rho[prev]*volJ >= pr.Gamma &&
					volJ >= minVol && volJ <= 11.0/12.0*float64(totalVol)
			}
			if ok {
				res.C = sweep.PrefixSet(view.Base().N(), j)
				res.PStar = ws.Participating()
				res.Steps = t
				return res
			}
		}
	}
	res.PStar = ws.Participating()
	return res
}

// appendJSequence computes the paper's geometric index sequence (j_x) for
// one sweep into dst: j_1 = 1, and j_i = max(j_{i-1}+1, largest j with
// Vol(prefix j) <= (1+phi) Vol(prefix j_{i-1})), ending at jmax. dst is
// reused across steps so the per-step hot path stays allocation-free.
func appendJSequence(dst []int, s *spectral.SweepOrder, phi float64) []int {
	jmax := s.JMax()
	if jmax == 0 {
		return dst
	}
	dst = append(dst, 1)
	for dst[len(dst)-1] < jmax {
		prev := dst[len(dst)-1]
		limit := (1 + phi) * float64(s.PrefixVol[prev])
		// PrefixVol is nondecreasing: binary search the largest j with
		// PrefixVol[j] <= limit.
		lo, hi := prev, jmax
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if float64(s.PrefixVol[mid]) <= limit {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		next := lo
		if next < prev+1 {
			next = prev + 1
		}
		dst = append(dst, next)
	}
	return dst
}
