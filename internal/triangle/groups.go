package triangle

import (
	"math"
	"slices"
)

// GroupCount returns the paper's group parameter g = ceil(n^{1/3}) as an
// exact integer: the smallest g >= 1 with g^3 >= n. Both the
// CONGESTED-CLIQUE baseline (CliqueDLP) and the CONGEST enumeration's
// per-component scheme size their group-triple partition with it, and the
// harness normalizes round counts by it, so it lives in one place.
//
// A naive ceil(math.Cbrt(n)) is wrong at perfect cubes whenever the
// floating-point cube root lands epsilon above the true value (e.g.
// Cbrt(x^3) = x + ulp turns into x+1), which silently inflates the group
// count — and with it the number of triples and handler traffic — on
// exactly the sizes benchmarks like to use (8, 64, 512, 1000, ...). The
// float result is therefore only a starting guess, corrected by exact
// integer comparison.
func GroupCount(n int) int {
	if n <= 1 {
		return 1
	}
	g := int(math.Round(math.Cbrt(float64(n))))
	if g < 1 {
		g = 1
	}
	for g > 1 && (g-1)*(g-1)*(g-1) >= n {
		g--
	}
	for g*g*g < n {
		g++
	}
	return g
}

// listLocal is the local step of both group-triple schemes: it adds to
// out every triangle whose three edges are among edges, the edge pairs
// one handler received (loop-free, in any order, repeats allowed). Each
// edge is kept once in its smaller endpoint's sorted list, so a
// triangle x < y < z is found once, at x, as a z in both x's list past
// y and y's list.
func listLocal(out *Set, edges [][2]int) {
	fwd := make(map[int][]int)
	for _, e := range edges {
		a, b := min(e[0], e[1]), max(e[0], e[1])
		fwd[a] = append(fwd[a], b)
	}
	for x, l := range fwd {
		slices.Sort(l)
		fwd[x] = slices.Compact(l)
	}
	for x, l := range fwd {
		for i, y := range l {
			rest, ly := l[i+1:], fwd[y]
			for len(rest) > 0 && len(ly) > 0 {
				switch {
				case rest[0] < ly[0]:
					rest = rest[1:]
				case rest[0] > ly[0]:
					ly = ly[1:]
				default:
					out.Add(Triangle{A: x, B: y, C: rest[0]})
					rest, ly = rest[1:], ly[1:]
				}
			}
		}
	}
}
