package triangle

// This file holds the adaptive sorted-list intersection strategies the
// rank and 2D kernels are built on. Three concrete strategies cover the
// length-ratio spectrum of forward-adjacency pairs:
//
//   - two-pointer merge: O(la + lb), the right call when the lists are of
//     similar length (branchy but streaming, no setup cost);
//   - epoch-stamped mark-array probing (SNIPPETS snippet 1 style): mark
//     one list in a per-worker uint32 stamp array, probe with the other —
//     O(probed) per pair once the marks are paid for. The array is never
//     cleared between calls: bumping the epoch invalidates every stale
//     mark, so the scratch amortizes to zero across a whole shard. The
//     rank kernel marks a vertex's forward list ONCE and probes it with
//     every forward neighbor's list, so a pair costs O(len(fwd(u)))
//     regardless of len(fwd(v));
//   - galloping binary search: O(short * log(long)), the only strategy
//     that wins when one list is orders of magnitude shorter than the
//     other.
//
// Every strategy emits the common elements in ascending order, so the
// kernels' outputs are bit-identical regardless of which strategy the
// chooser picks for a given pair.

// gallopRatio is the length skew past which galloping pays, tuned with
// BenchmarkIntersectionStrategies (hub-shaped list pairs): below it a
// probe of amortized marks (or a merge) wins, and only past ~32x skew do
// log(long) search steps undercut one linear pass over the longer list.
const gallopRatio = 32

// intersectScratch is the per-worker epoch-stamped mark array over the
// rank (or vertex) universe. mark[x] == epoch means x is marked; bumping
// epoch unmarks everything in O(1), so the array is cleared only when
// the epoch wraps.
type intersectScratch struct {
	mark  []uint32
	epoch uint32
}

func newIntersectScratch(universe int) *intersectScratch {
	return &intersectScratch{mark: make([]uint32, universe)}
}

// markAll stamps every element of s with a fresh epoch, replacing
// whatever was marked before. Elements must be < len(mark).
func (sc *intersectScratch) markAll(s []int32) {
	sc.epoch++
	if sc.epoch == 0 {
		// The epoch wrapped: stamps left 2^32 epochs ago would read as
		// current, so this one time the array is cleared.
		clear(sc.mark)
		sc.epoch = 1
	}
	for _, x := range s {
		sc.mark[x] = sc.epoch
	}
}

// marked reports whether x carries the current epoch's mark.
func (sc *intersectScratch) marked(x int32) bool { return sc.mark[x] == sc.epoch }

// intersectMerge appends a ∩ b to dst by two-pointer merge, ascending.
func intersectMerge(a, b []int32, dst []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// intersectGallop appends short ∩ long to dst, galloping through long
// with an exponentially-widening probe before each binary search, so k
// matches scattered over a huge list cost O(len(short) * log(len(long)))
// instead of a full scan. Ascending emission (short is ascending).
func intersectGallop(short, long []int32, dst []int32) []int32 {
	lo := 0
	for _, x := range short {
		// Gallop: double the step until long[lo+step] >= x.
		step := 1
		for lo+step < len(long) && long[lo+step] < x {
			step <<= 1
		}
		hi := lo + step
		if hi > len(long) {
			hi = len(long)
		}
		// Binary search for x in long[lo:hi].
		for lo < hi {
			mid := (lo + hi) / 2
			if long[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(long) {
			return dst
		}
		if long[lo] == x {
			dst = append(dst, x)
			lo++
		}
	}
	return dst
}

// intersectStampProbe appends to dst every element of probe that carries
// the scratch's current mark (probe ∩ marked-set), in probe's ascending
// order.
func intersectStampProbe(probe []int32, sc *intersectScratch, dst []int32) []int32 {
	for _, x := range probe {
		if sc.marked(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// intersectAdaptive appends a ∩ b to dst, choosing the strategy by
// length ratio. aMarked promises that sc's current epoch marks a
// superset S of a with S ∩ b == a ∩ b (the rank kernel marks a vertex's
// full forward list once and passes above-u suffixes: every common
// element is above u in both lists, so the superset is safe). The
// function never re-marks — the caller owns the scratch's epoch.
func intersectAdaptive(a, b []int32, sc *intersectScratch, aMarked bool, dst []int32) []int32 {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return dst
	}
	switch {
	case lb >= la*gallopRatio:
		// b vastly longer: la*log(lb) steps beat even an O(lb) probe.
		return intersectGallop(a, b, dst)
	case aMarked:
		// Marks are already paid for: probing b costs O(lb), which beats
		// merge's O(la+lb) for every remaining ratio.
		return intersectStampProbe(b, sc, dst)
	case la >= lb*gallopRatio:
		return intersectGallop(b, a, dst)
	default:
		return intersectMerge(a, b, dst)
	}
}
