package triangle

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
)

// reseal returns a copy of an encoded fragment whose trailing checksum is
// recomputed over its body, so mutated inputs reach the structural
// validation instead of all dying at the checksum. The checksum digests
// every header and array word except the reserved one, in wire order,
// which is exactly FNV-1a over those bytes.
func reseal(data []byte) []byte {
	body := len(fragmentMagic)
	if len(data) < body+5*4+8 {
		return nil
	}
	out := append([]byte(nil), data...)
	h := fnv.New64a()
	h.Write(out[body : body+12])
	h.Write(out[body+16 : len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// FuzzDecodeFragment feeds arbitrary bytes (and a resealed copy of them)
// to the DXFR1 decoder: it must never panic, an accepted fragment must
// re-encode to the bytes it came from, and a small accepted fragment
// must count without panicking as block 1 of a tiling built around it.
func FuzzDecodeFragment(f *testing.F) {
	pl := NewDistPlan(graph.WholeGraph(gen.GNP(40, 0.2, 3)), 3)
	for b := 0; b < pl.Tiling.P; b++ {
		f.Add(pl.Fragment(b).Encode())
	}
	mb := graph.NewBuilder(5)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {0, 2}, {2, 2}, {3, 4}} {
		mb.AddEdge(e[0], e[1])
	}
	f.Add(NewDistPlan(graph.WholeGraph(mb.Graph()), 1).Fragment(0).Encode())
	// A correctly checksummed fragment whose offsets pass the arc array
	// before descending back to its end: validation once sliced the arcs
	// with the overshooting offset and panicked.
	f.Add((&Fragment{Ranks: 10, Lo: 0, Hi: 2, Off: []int32{0, 100, 5}, Nbr: []int32{1, 2, 3, 4, 5}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFragmentBytes(t, data)
		if sealed := reseal(data); sealed != nil {
			checkFragmentBytes(t, sealed)
		}
	})
}

func checkFragmentBytes(t *testing.T, data []byte) {
	frag, err := DecodeFragment(data)
	if err != nil {
		return
	}
	if !bytes.Equal(frag.Encode(), data) {
		t.Fatalf("accepted fragment re-encodes differently")
	}
	if frag.Ranks > 1<<16 {
		return
	}
	tl := Tiling{P: 3, Ranks: frag.Ranks, Cuts: []int32{0, frag.Lo, frag.Hi, int32(frag.Ranks)}}
	for _, tr := range []BlockTriple{{1, 1, 1}, {1, 1, 2}} {
		if _, err := CountFragments(tl, tr, frag, frag); err != nil {
			t.Fatalf("triple %+v around an accepted fragment: %v", tr, err)
		}
	}
}
