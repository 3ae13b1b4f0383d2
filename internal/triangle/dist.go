package triangle

import (
	"encoding/binary"
	"fmt"

	"dexpander/internal/graph"
)

// This file is the distribution seam of the 2D edge-partitioned counting
// path (twod.go): it exports the deterministic tiling — block boundaries,
// block-triple enumeration, the per-triple pair of rank ranges a task
// touches — and a compact versioned serialization of a rank-range slice
// of the forward CSR, so a block triple becomes a shippable unit of work
// a dexpanderd replica can execute from two fragments without ever
// holding the graph. CountFragments, DistPlan.CountTriple, and
// CountParallel2D all run the same task body (countTriple), so the sum
// of per-triple counts over any tiling equals CountParallel2D's total
// exactly.

// BlockTriple is one ordered (I <= J <= K) unit of distributed counting
// work: triangles whose lowest-rank vertex falls in block I, middle
// vertex in block J, and apex in block K.
type BlockTriple struct {
	I int `json:"i"`
	J int `json:"j"`
	K int `json:"k"`
}

// Tiling is the deterministic 2D block decomposition of a rank space:
// Cuts[b]..Cuts[b+1] is block b's contiguous rank range, balanced by
// forward volume. Ranks is the total rank-space size (= the view's
// vertex count), which doubles as the stamp-scratch universe replicas
// size their mark arrays by.
type Tiling struct {
	P     int     `json:"p"`
	Ranks int     `json:"ranks"`
	Cuts  []int32 `json:"cuts"` // length P+1, ascending, Cuts[0]=0, Cuts[P]=Ranks
}

// AutoGrid returns the grid dimension the 2D kernel would pick for the
// given number of parallel units: the smallest p whose C(p+2, 3) block
// triples give every unit a few tasks, capped at the rank-space size.
func AutoGrid(units, ranks int) int { return twoDGrid(units, ranks) }

// Block returns block b's rank range [lo, hi).
func (tl Tiling) Block(b int) (lo, hi int32) { return tl.Cuts[b], tl.Cuts[b+1] }

// Triples enumerates every ordered block triple (i <= j <= k) in the
// canonical task order CountParallel2D reduces in.
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

// Blocks returns the pair of blocks whose forward lists the triple's
// task reads: block I (the outer rows) and block J (the middle rows).
// Block K only bounds apex values — no fragment is needed for it.
func (t BlockTriple) Blocks() (int, int) { return t.I, t.J }

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

// DistPlan is the coordinator-side state for distributing one 2D count:
// the rank-permuted forward CSR plus its tiling. Building it is the same
// O(n + m) preprocessing CountParallel2D pays; fragments are then cheap
// slices of it.
type DistPlan struct {
	rc     rankCSR
	Tiling Tiling
}

// NewDistPlan builds the rank CSR and the p x p tiling for the view.
// p < 1 is clamped to 1; p beyond the rank-space size is clamped down.
// The resulting block boundaries are deterministic in (view, p) alone.
func NewDistPlan(view *graph.Sub, p int) *DistPlan {
	rc := buildRankCSR(view)
	if p < 1 {
		p = 1
	}
	if p > rc.ranks() && rc.ranks() > 0 {
		p = rc.ranks()
	}
	return &DistPlan{
		rc: rc,
		Tiling: Tiling{
			P:     p,
			Ranks: rc.ranks(),
			Cuts:  rankCuts(rc, p),
		},
	}
}

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

// TripleCost estimates a triple's work for the volume-balanced schedule:
// the forward volume of its two row blocks (the lists the task scans and
// probes). Deterministic in (plan, triple).
func (pl *DistPlan) TripleCost(t BlockTriple) int64 {
	cost := pl.blockVolume(t.I) + pl.blockVolume(t.J)
	if t.I == t.J {
		cost = pl.blockVolume(t.I)
	}
	return cost + 1
}

func (pl *DistPlan) blockVolume(b int) int64 {
	lo, hi := pl.Tiling.Block(b)
	if lo >= hi {
		return 0
	}
	return int64(pl.rc.off[hi]-pl.rc.off[lo]) + int64(hi-lo)
}

// CountTriple executes one block triple's task locally on the plan's
// own CSR — CountParallel2D's task, the coordinator's fallback when
// every replica has failed a triple, and the oracle the distributed path
// is tested against.
func (pl *DistPlan) CountTriple(t BlockTriple) int {
	fi := pl.rc.block(pl.Tiling.Block(t.I))
	fj := pl.rc.block(pl.Tiling.Block(t.J))
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
// path also runs on unrebased views into the whole CSR.
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
// is exactly what CountParallel2D's task for t computes, so summing over
// a tiling's Triples reproduces CountParallel2D bit for bit.
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
