package triangle

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dexpander/internal/graph"
)

// This file is the distribution seam of the counting path (twod.go). It
// exports the forward CSR as a reusable preprocessing artifact
// (Forward) and a compact versioned serialization of a rank-range slice
// of it (Fragment, the DXFR1 wire format), so a dexpanderd replica can
// count row ranges without ever holding the graph: it keeps one
// fragment covering the whole rank space, and CountRows runs the same
// task on it that Forward.CountRows and CountParallel2D run on the
// coordinator's CSR. The row-range counts of any cut therefore sum to
// CountParallel2D's total exactly.
//
// The block-triple API — Tiling, BlockTriple, DistPlan, CountFragments —
// is the per-triple form of the same count, kept as an oracle and for
// callers that still replay jobs triple by triple: the per-triple counts
// of any tiling also sum to CountParallel2D's total.

// BlockTriple is one ordered (I <= J <= K) unit of distributed counting
// work: triangles whose lowest-rank vertex falls in block I, middle
// vertex in block J, and apex in block K. Its task reads the forward
// lists of blocks I (the outer rows) and J (the middle rows) only;
// block K just bounds apex values, so no fragment is needed for it.
type BlockTriple struct {
	I int `json:"i"`
	J int `json:"j"`
	K int `json:"k"`
}

// Tiling is the deterministic 2D block decomposition of a rank space:
// Cuts[b]..Cuts[b+1] is block b's contiguous rank range, balanced by
// wedge work. Ranks is the total rank-space size (= the view's
// vertex count), which doubles as the stamp-scratch universe
// CountFragments sizes its mark array by.
type Tiling struct {
	P     int     `json:"p"`
	Ranks int     `json:"ranks"`
	Cuts  []int32 `json:"cuts"` // length P+1, ascending, Cuts[0]=0, Cuts[P]=Ranks
}

// Block returns block b's rank range [lo, hi).
func (tl Tiling) Block(b int) (lo, hi int32) { return tl.Cuts[b], tl.Cuts[b+1] }

// Triples enumerates every ordered block triple (i <= j <= k) in
// canonical task order.
func (tl Tiling) Triples() []BlockTriple {
	out := make([]BlockTriple, 0, tl.P*(tl.P+1)*(tl.P+2)/6)
	for i := 0; i < tl.P; i++ {
		for j := i; j < tl.P; j++ {
			for k := j; k < tl.P; k++ {
				out = append(out, BlockTriple{i, j, k})
			}
		}
	}
	return out
}

// Validate checks the tiling's structural invariants (a replica must not
// trust a coordinator-supplied tiling blindly).
func (tl Tiling) Validate() error {
	if tl.P < 1 || len(tl.Cuts) != tl.P+1 {
		return fmt.Errorf("triangle: tiling has p=%d with %d cuts", tl.P, len(tl.Cuts))
	}
	if tl.Ranks < 0 || tl.Cuts[0] != 0 || int(tl.Cuts[tl.P]) != tl.Ranks {
		return fmt.Errorf("triangle: tiling cuts do not cover [0, %d)", tl.Ranks)
	}
	for b := 0; b < tl.P; b++ {
		if tl.Cuts[b] > tl.Cuts[b+1] {
			return fmt.Errorf("triangle: tiling cut %d descends", b)
		}
	}
	return nil
}

// Forward is a view's rank-permuted forward CSR: the O(n + m)
// preprocessing every count starts from (Tom & Karypis's preprocessing
// phase). It is immutable once built, so one Forward serves every job of
// its graph at any number of row ranges (RowCuts, CountRows) and ships
// whole as one fragment (Fragment).
type Forward struct {
	rc rankCSR

	wedgeOnce sync.Once
	wedge     []int64 // wedgePrefix(rc), built by the first RowCuts
}

// NewForward builds the view's forward CSR.
func NewForward(view *graph.Sub) *Forward { return &Forward{rc: buildRankCSR(view)} }

// Ranks returns the size of the CSR's rank space (the view's vertex
// count).
func (fw *Forward) Ranks() int { return fw.rc.ranks() }

// Plan cuts the p x p tiling of the CSR into a DistPlan that shares
// fw's arrays. Its blocks are RowCuts(p)'s ranges, so p is clamped the
// same way and the boundaries are deterministic in (graph, p).
func (fw *Forward) Plan(p int) *DistPlan {
	cuts := fw.RowCuts(p)
	return &DistPlan{rc: fw.rc, Tiling: Tiling{P: len(cuts) - 1, Ranks: fw.rc.ranks(), Cuts: cuts}}
}

// Fragment returns the whole CSR as one fragment covering [0, Ranks), a
// zero-copy view of fw's arrays. Its encoding is the one DXFR1 body a
// replica keeps resident for the graph: CountRows counts any row range
// of it, and Fragment.Slice cuts a tiling's row blocks out of it.
func (fw *Forward) Fragment() *Fragment {
	f := fw.rc.whole()
	return &f
}

// DistPlan is the block-triple form of a count: the rank-permuted
// forward CSR plus a p x p tiling of it. Fragments are cheap slices of
// the CSR.
type DistPlan struct {
	rc     rankCSR
	Tiling Tiling
}

// NewDistPlan builds the rank CSR and the p x p tiling for the view:
// NewForward(view).Plan(p).
func NewDistPlan(view *graph.Sub, p int) *DistPlan { return NewForward(view).Plan(p) }

// Fragment extracts block b's rank-range slice of the forward CSR as a
// self-contained Fragment: its arcs are copied out and its offsets
// rebased, so Encode renders exactly the block's lists.
func (pl *DistPlan) Fragment(b int) *Fragment {
	lo, hi := pl.Tiling.Block(b)
	base := pl.rc.off[lo]
	f := &Fragment{
		Ranks: pl.rc.ranks(),
		Lo:    lo,
		Hi:    hi,
		Off:   make([]int32, hi-lo+1),
		Nbr:   append([]int32(nil), pl.rc.nbr[base:pl.rc.off[hi]]...),
	}
	for i := range f.Off {
		f.Off[i] = pl.rc.off[lo+int32(i)] - base
	}
	return f
}

// CountTriple executes one block triple's task locally on the plan's
// own CSR: the per-triple oracle CountFragments is tested against.
func (pl *DistPlan) CountTriple(t BlockTriple) int {
	whole := pl.rc.whole()
	fi := whole.Slice(pl.Tiling.Block(t.I))
	fj := whole.Slice(pl.Tiling.Block(t.J))
	sc := getTwoDScratch(pl.rc.ranks())
	defer twoDScratchPool.Put(sc)
	return countTriple(pl.Tiling, t, &fi, &fj, sc)
}

// Fragment is a contiguous rank-range slice [Lo, Hi) of a rank-permuted
// forward CSR: Nbr[Off[r-Lo]:Off[r-Lo+1]] is the strictly-ascending
// forward neighbor list (absolute ranks) of the vertex with rank r.
// Ranks carries the full rank-space size so a replica can size its stamp
// scratch without the graph. Encoded and decoded fragments are rebased
// (Off[0] == 0, Nbr holds only the slice's arcs); the local counting
// path and replicas also run on unrebased views (Slice) into a whole
// CSR.
type Fragment struct {
	Ranks  int
	Lo, Hi int32
	Off    []int32
	Nbr    []int32
}

// Fwd returns the forward list of the vertex with absolute rank r, which
// must lie in [Lo, Hi).
func (f *Fragment) Fwd(r int32) []int32 {
	return f.Nbr[f.Off[r-f.Lo]:f.Off[r-f.Lo+1]]
}

// Slice returns f's rows [lo, hi) as a zero-copy view: its offsets index
// f's own arc array, which Fwd handles as it does a rebased fragment.
// f.Lo <= lo <= hi <= f.Hi must hold.
func (f *Fragment) Slice(lo, hi int32) Fragment {
	return Fragment{Ranks: f.Ranks, Lo: lo, Hi: hi, Off: f.Off[lo-f.Lo : hi-f.Lo+1], Nbr: f.Nbr}
}

// fragmentMagic is the versioned wire header of an encoded fragment;
// bump the trailing digit on layout changes.
const fragmentMagic = "DXFR1\x00"

// EncodedSize returns the exact byte length Encode will produce.
func (f *Fragment) EncodedSize() int {
	return len(fragmentMagic) + 4*4 + 4 + 4*len(f.Off) + 4 + 4*len(f.Nbr) + 8
}

// Checksum digests the fragment's logical content (universe, range,
// offsets, arcs) with 64-bit FNV-1a — the integrity check Decode
// verifies and the content address the replica cache stores under.
func (f *Fragment) Checksum() uint64 {
	h := uint64(fnvOffset64)
	mix32 := func(w uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(w & 0xff)
			h *= fnvPrime64
			w >>= 8
		}
	}
	mix32(uint32(f.Ranks))
	mix32(uint32(f.Lo))
	mix32(uint32(f.Hi))
	mix32(uint32(len(f.Off)))
	for _, v := range f.Off {
		mix32(uint32(v))
	}
	mix32(uint32(len(f.Nbr)))
	for _, v := range f.Nbr {
		mix32(uint32(v))
	}
	return h
}

// FNV-1a constants, local copies of the shared checksum idiom (the
// triangle package keeps its own to avoid an import cycle with graph).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Encode renders the fragment in the compact versioned wire format:
// magic, then little-endian uint32 header fields (ranks, lo, hi), then
// the two length-prefixed int32 arrays, then the uint64 checksum.
func (f *Fragment) Encode() []byte {
	buf := make([]byte, 0, f.EncodedSize())
	buf = append(buf, fragmentMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Ranks))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Lo))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Hi))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Off)))
	for _, v := range f.Off {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Nbr)))
	for _, v := range f.Nbr {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, f.Checksum())
	return buf
}

// maxFragmentElems bounds the array lengths a decoded header may demand,
// so a hostile fragment cannot balloon a short body into a giant
// allocation (the byte length itself is bounded by the HTTP layer).
const maxFragmentElems = 1 << 28

// DecodeFragment parses and validates an encoded fragment: magic and
// version, structural invariants (range inside the universe, offsets
// rebased and monotone, arcs strictly ascending forward neighbors), and
// the trailing checksum.
func DecodeFragment(data []byte) (*Fragment, error) {
	if len(data) < len(fragmentMagic) || string(data[:len(fragmentMagic)]) != fragmentMagic {
		return nil, fmt.Errorf("triangle: fragment missing %q magic", fragmentMagic[:5])
	}
	rest := data[len(fragmentMagic):]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("triangle: truncated fragment")
		}
		return nil
	}
	if err := need(5 * 4); err != nil {
		return nil, err
	}
	f := &Fragment{
		Ranks: int(int32(binary.LittleEndian.Uint32(rest[0:]))),
		Lo:    int32(binary.LittleEndian.Uint32(rest[4:])),
		Hi:    int32(binary.LittleEndian.Uint32(rest[8:])),
	}
	if binary.LittleEndian.Uint32(rest[12:]) != 0 {
		return nil, fmt.Errorf("triangle: fragment reserved field must be zero in version 1")
	}
	nOff := int(int32(binary.LittleEndian.Uint32(rest[16:])))
	rest = rest[20:]
	if nOff < 0 || nOff > maxFragmentElems {
		return nil, fmt.Errorf("triangle: fragment offset count %d out of bounds", nOff)
	}
	if err := need(4*nOff + 4); err != nil {
		return nil, err
	}
	f.Off = make([]int32, nOff)
	for i := range f.Off {
		f.Off[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*nOff:]
	nNbr := int(int32(binary.LittleEndian.Uint32(rest)))
	rest = rest[4:]
	if nNbr < 0 || nNbr > maxFragmentElems {
		return nil, fmt.Errorf("triangle: fragment arc count %d out of bounds", nNbr)
	}
	if err := need(4*nNbr + 8); err != nil {
		return nil, err
	}
	f.Nbr = make([]int32, nNbr)
	for i := range f.Nbr {
		f.Nbr[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*nNbr:]
	sum := binary.LittleEndian.Uint64(rest)
	if len(rest) != 8 {
		return nil, fmt.Errorf("triangle: %d trailing bytes after fragment checksum", len(rest)-8)
	}
	if sum != f.Checksum() {
		return nil, fmt.Errorf("triangle: fragment checksum mismatch")
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// validate checks the decoded fragment's structural invariants.
func (f *Fragment) validate() error {
	if f.Ranks < 0 || f.Lo < 0 || f.Lo > f.Hi || int(f.Hi) > f.Ranks {
		return fmt.Errorf("triangle: fragment range [%d, %d) outside universe %d", f.Lo, f.Hi, f.Ranks)
	}
	if len(f.Off) != int(f.Hi-f.Lo)+1 {
		return fmt.Errorf("triangle: fragment has %d offsets for range [%d, %d)", len(f.Off), f.Lo, f.Hi)
	}
	if f.Off[0] != 0 || int(f.Off[len(f.Off)-1]) != len(f.Nbr) {
		return fmt.Errorf("triangle: fragment offsets not rebased to its arcs")
	}
	for i := 1; i < len(f.Off); i++ {
		if f.Off[i] < f.Off[i-1] || int(f.Off[i]) > len(f.Nbr) {
			return fmt.Errorf("triangle: fragment offset %d descends or passes its arcs", i)
		}
		r := f.Lo + int32(i-1)
		list := f.Nbr[f.Off[i-1]:f.Off[i]]
		for j, v := range list {
			if v <= r || int(v) >= f.Ranks {
				return fmt.Errorf("triangle: fragment arc %d of rank %d out of forward range", j, r)
			}
			if j > 0 && v <= list[j-1] {
				return fmt.Errorf("triangle: fragment list of rank %d not strictly ascending", r)
			}
		}
	}
	return nil
}

// CountFragments executes one block triple's task from the two fragments
// covering its row blocks: fi must cover block t.I's rank range and fj
// block t.J's (pass the same fragment twice when t.I == t.J). The count
// equals DistPlan.CountTriple's for t, so summing over a tiling's
// Triples reproduces CountParallel2D's total.
func CountFragments(tl Tiling, t BlockTriple, fi, fj *Fragment) (int, error) {
	if err := tl.Validate(); err != nil {
		return 0, err
	}
	if t.I < 0 || t.I > t.J || t.J > t.K || t.K >= tl.P {
		return 0, fmt.Errorf("triangle: block triple (%d,%d,%d) outside %d-grid", t.I, t.J, t.K, tl.P)
	}
	iLo, iHi := tl.Block(t.I)
	jLo, jHi := tl.Block(t.J)
	if fi.Lo != iLo || fi.Hi != iHi || fi.Ranks != tl.Ranks {
		return 0, fmt.Errorf("triangle: fragment [%d, %d) does not cover block %d = [%d, %d)", fi.Lo, fi.Hi, t.I, iLo, iHi)
	}
	if fj.Lo != jLo || fj.Hi != jHi || fj.Ranks != tl.Ranks {
		return 0, fmt.Errorf("triangle: fragment [%d, %d) does not cover block %d = [%d, %d)", fj.Lo, fj.Hi, t.J, jLo, jHi)
	}
	sc := getTwoDScratch(tl.Ranks)
	defer twoDScratchPool.Put(sc)
	return countTriple(tl, t, fi, fj, sc), nil
}

// CountRows counts the triangles whose lowest-rank vertex lies in the
// row range [lo, hi) from f, which must be a whole forward CSR: a
// fragment covering [0, Ranks), as Forward.Fragment renders it and a
// replica keeps it. The count equals Forward.CountRows' for the same
// range, so the counts of any cut sum to CountParallel2D's total.
func CountRows(f *Fragment, lo, hi int32) (int, error) {
	if f.Lo != 0 || int(f.Hi) != f.Ranks {
		return 0, fmt.Errorf("triangle: fragment [%d, %d) is not a whole CSR of %d ranks", f.Lo, f.Hi, f.Ranks)
	}
	if lo < 0 || lo > hi || int(hi) > f.Ranks {
		return 0, fmt.Errorf("triangle: row range [%d, %d) outside [0, %d)", lo, hi, f.Ranks)
	}
	sc := getTwoDScratch(f.Ranks)
	defer twoDScratchPool.Put(sc)
	return countRows(f.Off, f.Nbr, lo, hi, sc), nil
}
