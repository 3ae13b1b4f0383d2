package triangle

// This file holds the two sorted-list intersection strategies every
// row-range task (countRows, listRows, countTriple) chooses between per
// (row, middle) pair:
//
//   - epoch-stamped mark-array probing (SNIPPETS snippet 1 style): a
//     task marks a row's forward list once in a per-worker uint32 stamp
//     array and probes every middle's list against it, so a pair costs
//     O(len(middle's list)). The array is never cleared between rows:
//     bumping the epoch invalidates every stale mark, so the scratch
//     amortizes to zero across a whole range;
//   - galloping binary search: O(short * log(long)), the one strategy
//     that wins when a middle's list is orders of magnitude longer than
//     the apex candidates left in the row.
//
// Both emit the common elements in ascending order, so a task's output
// does not depend on which strategy a pair took.

// gallopRatio is the length skew past which galloping pays, tuned with
// BenchmarkIntersectionStrategies (hub-shaped list pairs): below it a
// probe of amortized marks wins, and only past ~32x skew do log(long)
// search steps undercut one linear pass over the longer list.
const gallopRatio = 32

// intersectScratch is the per-worker epoch-stamped mark array over the
// rank universe. mark[x] == epoch means x is marked; bumping
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
