package triangle

import (
	"slices"
	"testing"

	"dexpander/internal/rng"
)

// refIntersect is the map-based oracle: a ∩ b ascending.
func refIntersect(a, b []int32) []int32 {
	in := make(map[int32]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []int32
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return out
}

// intersectPairs covers the boundary shapes both strategies must
// handle: empty operands, singletons hitting and missing, equal-length
// lists across overlap regimes, and the 1-vs-10^4 extreme where only
// galloping is viable.
func intersectPairs() []struct {
	name string
	a, b []int32
} {
	ramp := func(n, start, stride int32) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = start + int32(i)*stride
		}
		return s
	}
	cases := []struct {
		name string
		a, b []int32
	}{
		{"both-empty", nil, nil},
		{"a-empty", nil, ramp(5, 0, 1)},
		{"b-empty", ramp(5, 0, 1), nil},
		{"singleton-hit", []int32{7}, ramp(20, 0, 1)},
		{"singleton-miss", []int32{99}, ramp(20, 0, 1)},
		{"singleton-vs-singleton-hit", []int32{3}, []int32{3}},
		{"singleton-vs-singleton-miss", []int32{3}, []int32{4}},
		{"equal-length-disjoint", ramp(64, 0, 2), ramp(64, 1, 2)},
		{"equal-length-identical", ramp(64, 5, 3), ramp(64, 5, 3)},
		{"equal-length-interleaved", ramp(64, 0, 3), ramp(64, 0, 4)},
		{"first-last-only", []int32{0, 9999}, ramp(10000, 0, 1)},
		{"one-vs-1e4", []int32{1234}, ramp(10000, 0, 1)},
		{"three-vs-1e4", []int32{0, 5000, 12345}, ramp(10000, 0, 1)},
		{"4x-skew", ramp(16, 0, 7), ramp(16*4, 0, 1)},
		{"gallop-ratio-edge", ramp(16, 0, 40), ramp(16*gallopRatio, 0, 1)},
	}
	// A couple of random pairs per skew regime, deterministic in rng.
	r := rng.New(42)
	randSet := func(n, span int32) []int32 {
		seen := make(map[int32]bool, n)
		for int32(len(seen)) < n {
			seen[int32(r.Intn(int(span)))] = true
		}
		s := make([]int32, 0, n)
		for x := range seen {
			s = append(s, x)
		}
		slices.Sort(s)
		return s
	}
	for _, sizes := range [][2]int32{{50, 50}, {20, 20 * 4}, {10, 10 * gallopRatio}, {300, 40}} {
		cases = append(cases, struct {
			name string
			a, b []int32
		}{"rand", randSet(sizes[0], 4096), randSet(sizes[1], 4096)})
	}
	return cases
}

// probeMarked appends to dst every element of probe carrying sc's
// current mark: the probe arm of countRows and listRows.
func probeMarked(probe []int32, sc *intersectScratch, dst []int32) []int32 {
	for _, x := range probe {
		if sc.marked(x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// TestIntersectStrategiesAgree runs both strategies, galloping either
// way round and probing marks, over the boundary pairs and demands the
// oracle's result from each: the bit-identity contract reduces to
// exactly this property.
func TestIntersectStrategiesAgree(t *testing.T) {
	for _, c := range intersectPairs() {
		want := refIntersect(c.a, c.b)
		check := func(got []int32, how string) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s: got %v, want %v", c.name, how, got, want)
			}
		}
		check(intersectGallop(c.a, c.b, nil), "gallop(a,b)")
		check(intersectGallop(c.b, c.a, nil), "gallop(b,a)")

		sc := newIntersectScratch(16384)
		sc.markAll(c.a)
		check(probeMarked(c.b, sc, nil), "stamp-probe")
	}
}

// TestIntersectScratchEpochs pins the no-clearing contract: a new markAll
// must invalidate every previous mark without touching the array, and
// repeated re-marking must keep working long past any single epoch.
func TestIntersectScratchEpochs(t *testing.T) {
	sc := newIntersectScratch(100)
	sc.markAll([]int32{1, 2, 3})
	if !sc.marked(2) || sc.marked(4) {
		t.Fatal("initial marks wrong")
	}
	sc.markAll([]int32{4, 5})
	if sc.marked(2) {
		t.Fatal("stale mark survived an epoch bump")
	}
	if !sc.marked(4) {
		t.Fatal("fresh mark missing")
	}
	// An empty markAll unmarks everything.
	sc.markAll(nil)
	for x := int32(0); x < 100; x++ {
		if sc.marked(x) {
			t.Fatalf("element %d marked after empty markAll", x)
		}
	}
	// Interleave probes across many epochs: each round sees exactly its
	// own marks.
	for round := 0; round < 10000; round++ {
		x := int32(round%98 + 1)
		sc.markAll([]int32{x})
		if got := probeMarked([]int32{0, x, 99}, sc, nil); len(got) != 1 || got[0] != x {
			t.Fatalf("round %d: probe returned %v, want [%d]", round, got, x)
		}
	}
	// Across the epoch's wrap, neither a never-stamped element (99) nor
	// a stamp left 2^32 epochs earlier (forged on 7) may read as marked.
	sc.mark[7] = 1
	sc.epoch = ^uint32(0)
	for _, x := range []int32{3, 4} {
		sc.markAll([]int32{x})
		if sc.marked(99) || sc.marked(7) || !sc.marked(x) {
			t.Fatalf("after the epoch's wrap, marking %d: 99 marked %v, 7 marked %v",
				x, sc.marked(99), sc.marked(7))
		}
	}
}

// TestIntersectAdaptiveSuffixSuperset exercises the exact pattern the
// row-range tasks rely on: mark a FULL list once, then intersect suffixes
// of it against other lists, probing the marks or galloping through the
// suffix, whichever gallopRatio picks. The superset marks must not leak
// elements outside the suffix as long as b stays above the suffix start,
// and the dst buffer must be appendable across calls.
func TestIntersectAdaptiveSuffixSuperset(t *testing.T) {
	full := []int32{2, 5, 8, 11, 14, 17, 20}
	sc := newIntersectScratch(512)
	sc.markAll(full)
	buf := make([]int32, 0, 8)
	for _, pad := range []int{0, 8 * gallopRatio} {
		for i := 0; i+1 < len(full); i++ {
			suffix := full[i+1:]
			// b simulates the list of middle full[i]: strictly above
			// full[i], overlapping the suffix on every other element,
			// then padded above everything with unmarked ranks so that
			// pad > 0 takes the gallop arm.
			var b []int32
			for j := i + 1; j < len(full); j += 2 {
				b = append(b, full[j])
			}
			for x := 0; x <= pad; x++ {
				b = append(b, int32(63+x))
			}
			want := refIntersect(suffix, b)
			if len(b) >= len(suffix)*gallopRatio {
				buf = intersectGallop(suffix, b, buf[:0])
			} else {
				buf = probeMarked(b, sc, buf[:0])
			}
			if !slices.Equal(buf, want) {
				t.Fatalf("pad %d, suffix %d: got %v, want %v", pad, i, buf, want)
			}
		}
	}
}
