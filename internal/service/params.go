package service

import (
	"context"
	"fmt"
	"time"

	"dexpander/internal/core"
	"dexpander/internal/graph"
	"dexpander/internal/nibble"
	"dexpander/internal/obs"
	"dexpander/internal/triangle"
)

// Params is one algorithm's typed request parameters. Each algorithm
// has its own concrete type (DecomposeParams, CountParams,
// EnumerateParams) instead of the old flat grab-bag, so a caller cannot
// pass a kernel to decompose or an eps to enumerate — the field simply
// does not exist. The methods are unexported: the set of algorithms is
// closed (the server's route table and the cache-key canon depend on
// it), but tests in this package can register extra ones.
//
// Cache-key contract: normalize applies the algorithm's defaults BEFORE
// canon renders the key, so "defaults spelled out" and "defaults
// omitted" hit the same cache line — and canon's format strings are
// pinned by tests because changing them silently invalidates every
// cached result (and every checksum cross-reference in the bench
// matrix).
type Params interface {
	// Algorithm names the endpoint ("decompose", "triangle-count",
	// "enumerate").
	Algorithm() string
	// normalize returns a copy with the algorithm's defaults applied.
	normalize() Params
	// validate rejects bad defaults-applied params up front, so run
	// failures can be treated as server faults rather than caller errors.
	validate() error
	// canon renders the defaults-applied params canonically; it is the
	// params component of the cache key and must mention every field the
	// computation reads.
	canon() string
	// run executes the computation. ctx is the flight's cancelable
	// context, carrying the flight's compute span when the query is
	// traced: implementations open their span under it and hand the
	// kernels a ctx carrying that span, so a canceled flight frees its
	// worker within one checkpoint interval and the kernel's phase
	// spans land in the query's trace. env carries the service-level
	// context distributed algorithms need (snapshot fingerprint, peer
	// fleet); outputs are bit-identical for every peer set.
	run(ctx context.Context, view *graph.Sub, env runEnv) (*Result, error)
}

// runEnv is the execution context the service hands a computation beyond
// its graph view. Local algorithms read only svc (decompose records its
// backend through it); the distributed coordinator also needs the
// snapshot identity (fragments are content-addressed under it) and the
// replica fleet. Every computation runs on GOMAXPROCS host workers.
type runEnv struct {
	// snap is the registry's snapshot the computation runs on; count-dist
	// with peers reads its id and its cached CSR. Only its immutable
	// fields may be read.
	snap *Snapshot
	// svc is the owning service: the coordinator reads the peer fleet
	// and dist tuning from svc.cfg and reports fleet counters through
	// it. Implementations must not touch svc.mu-guarded state directly.
	svc *Service
}

// Result is one computed (and cached) analytics answer. All fields are
// deterministic in (snapshot, algorithm, params): the checksums are the
// same FNV digests the bench matrix pins, so a served answer can be
// diffed against a direct library call or a checked-in baseline.
type Result struct {
	Algorithm string `json:"algorithm"`
	Params    string `json:"params"`
	// Checksum digests the full structural output, "fnv64:" + 16 hex.
	Checksum string `json:"checksum"`
	// ComputeNS is the wall time of the single computation that
	// populated this cache entry (identical for every caller); it also
	// backs the cache's cost-aware eviction score.
	ComputeNS int64 `json:"compute_ns"`

	// Decomposition fields. Backend is the backend that produced the
	// result — the resolved selection when the request said "auto".
	Backend     string  `json:"backend,omitempty"`
	Components  int     `json:"components,omitempty"`
	CutEdges    int64   `json:"cut_edges,omitempty"`
	EpsAchieved float64 `json:"eps_achieved,omitempty"`
	PhiTarget   float64 `json:"phi_target,omitempty"`

	// Triangle fields.
	Triangles int `json:"triangles,omitempty"`
	// List holds the lexicographically first Limit triangles (enumerate
	// only); Truncated reports whether the full set was larger.
	List      [][3]int `json:"list,omitempty"`
	Truncated bool     `json:"truncated,omitempty"`

	// Simulated CONGEST costs (enumerate only).
	Rounds   int   `json:"rounds,omitempty"`
	Messages int64 `json:"messages,omitempty"`

	// Distributed-count fields (triangle-count-dist only). DistPeers is
	// the number of replicas that served at least one row range;
	// DistTriples is the schedule size, the job's number of row-range
	// tasks (the name predates row ranges); DistRetries counts ranges
	// that needed a second home. All zero on the 0-peer local fallback.
	DistPeers   int `json:"dist_peers,omitempty"`
	DistTriples int `json:"dist_triples,omitempty"`
	DistRetries int `json:"dist_retries,omitempty"`
}

// DecomposeParams configures the expander decomposition. Backend selects
// the algorithm from core's backend registry; the rest parameterize the
// selected backend.
type DecomposeParams struct {
	// Eps is the decomposition's target inter-cluster edge fraction
	// (default 0.4, matching the bench matrix cells).
	Eps float64 `json:"eps,omitempty"`
	// K is Theorem 1's trade-off parameter, in [1, core.MaxK]
	// (default 2).
	K int `json:"k,omitempty"`
	// Seed drives the computation's randomness (default 1, the bench
	// matrix seed). The det backend ignores it by construction.
	Seed uint64 `json:"seed,omitempty"`
	// Backend names the decomposition backend: one of
	// core.BackendNames() ("cs19", "det", "par-cmps") or "auto", which
	// probes par-cmps, cs19 and det in that order (cheapest first, as
	// measured) and serves the first one whose measured inter-cluster
	// fraction meets the quality bound. Default "cs19", the
	// pre-registry behavior.
	Backend string `json:"backend,omitempty"`
	// MaxEpsFraction is the quality bound core.RunBackend verifies every
	// backend against, auto and fixed alike: a result whose measured
	// inter-cluster fraction exceeds it is an error, never served (or
	// cached). 0 (the default) disables the check for fixed backends and
	// makes auto verify against Eps.
	MaxEpsFraction float64 `json:"max_eps_fraction,omitempty"`
}

// Algorithm returns "decompose".
func (p DecomposeParams) Algorithm() string { return "decompose" }

func (p DecomposeParams) normalize() Params {
	if p.Eps == 0 {
		p.Eps = 0.4
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Backend == "" {
		p.Backend = "cs19"
	}
	return p
}

func (p DecomposeParams) validate() error {
	if !(p.Eps > 0 && p.Eps < 1) {
		return fmt.Errorf("service: eps = %v out of (0,1)", p.Eps)
	}
	if p.K < 1 || p.K > core.MaxK {
		return fmt.Errorf("service: %w: k = %d not in [1,%d]", core.ErrBadK, p.K, core.MaxK)
	}
	if p.Backend != "auto" {
		if _, err := core.LookupBackend(p.Backend); err != nil {
			return fmt.Errorf("service: backend %q not one of %v or \"auto\"",
				p.Backend, core.BackendNames())
		}
	}
	// Written so NaN fails both arms and is rejected.
	if !(p.MaxEpsFraction == 0 || (p.MaxEpsFraction > 0 && p.MaxEpsFraction < 1)) {
		return fmt.Errorf("service: max_eps_fraction = %v not 0 or in (0,1)", p.MaxEpsFraction)
	}
	return nil
}

func (p DecomposeParams) canon() string {
	return fmt.Sprintf("backend=%s eps=%v k=%d max_eps=%v seed=%d",
		p.Backend, p.Eps, p.K, p.MaxEpsFraction, p.Seed)
}

// run executes the selected decomposition backend through
// core.RunBackend, so the served result provably satisfies the quality
// bound (MaxEpsFraction, or Eps for auto when unset). The checksum
// digests the full structural output exactly like the bench matrix's
// decompose cells: HashWords(count, cutEdges, labels...).
func (p DecomposeParams) run(ctx context.Context, view *graph.Sub, env runEnv) (*Result, error) {
	sp := obs.SpanFromContext(ctx).Child("decompose")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	opt := core.Options{Eps: p.Eps, K: p.K, Preset: nibble.Practical, Seed: p.Seed}
	start := time.Now()
	dec, served, err := core.RunBackend(ctx, view, opt, p.Backend, p.MaxEpsFraction)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	sp.Attr("backend", served)
	if env.svc != nil {
		env.svc.recordDecomposeBackend(served, elapsed)
	}
	words := make([]uint64, 0, len(dec.Labels)+2)
	words = append(words, uint64(dec.Count), uint64(dec.CutEdges))
	for _, l := range dec.Labels {
		words = append(words, uint64(int64(l)))
	}
	return &Result{
		Checksum:    checksumString(triangle.HashWords(words...)),
		ComputeNS:   elapsed.Nanoseconds(),
		Backend:     served,
		Components:  dec.Count,
		CutEdges:    dec.CutEdges,
		EpsAchieved: dec.EpsAchieved,
		PhiTarget:   dec.PhiTarget,
	}, nil
}

// CountParams configures the shared-memory triangle count.
type CountParams struct {
	// Kernel selects the kernel: "rank", "2d", or "auto" (the default;
	// currently the rank kernel). rank and auto list the triangle set
	// and produce bit-identical checksums; 2d counts on the same row
	// ranges without listing, and its checksum digests the count alone.
	Kernel string `json:"kernel,omitempty"`
}

// Algorithm returns "triangle-count".
func (p CountParams) Algorithm() string { return "triangle-count" }

func (p CountParams) normalize() Params {
	if p.Kernel == "" {
		p.Kernel = "auto"
	}
	return p
}

func (p CountParams) validate() error {
	_, err := triangle.ParseKernel(p.Kernel)
	return err
}

func (p CountParams) canon() string { return fmt.Sprintf("kernel=%s", p.Kernel) }

// run counts on the shared-memory path (countLocal). For rank and auto
// the checksum digests the full triangle set — identical across the two
// and matching the bench matrix's brute/brute-par and enumerate-rank
// cells. The 2d kernel counts without materializing a set, so its
// checksum digests the count alone, exactly like the matrix's count-2d
// cells.
func (p CountParams) run(ctx context.Context, view *graph.Sub, env runEnv) (*Result, error) {
	k, err := triangle.ParseKernel(p.Kernel)
	if err != nil {
		return nil, err
	}
	return countLocal(ctx, view, p.Kernel, k != triangle.Kernel2D)
}

// EnumerateParams configures the CONGEST triangle enumeration.
type EnumerateParams struct {
	// Seed drives the enumeration's randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Limit caps the triangle list the response carries (default 1000;
	// the count and checksum always cover the full set).
	Limit int `json:"limit,omitempty"`
}

// Algorithm returns "enumerate".
func (p EnumerateParams) Algorithm() string { return "enumerate" }

func (p EnumerateParams) normalize() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Limit <= 0 {
		// Also clamps negative limits: Limit reaches a slice bound in
		// run, and a panic there would kill a pool worker, not just one
		// request.
		p.Limit = 1000
	}
	return p
}

func (p EnumerateParams) validate() error { return nil }

func (p EnumerateParams) canon() string {
	return fmt.Sprintf("seed=%d limit=%d", p.Seed, p.Limit)
}

// run executes the paper's CONGEST enumeration pipeline (Theorem 2) and
// reports the simulated round/message costs alongside the result;
// checksum, count, rounds, and messages match the bench matrix's
// enumerate cells.
func (p EnumerateParams) run(ctx context.Context, view *graph.Sub, env runEnv) (*Result, error) {
	sp := obs.SpanFromContext(ctx).Child("enumerate")
	defer sp.End()
	start := time.Now()
	set, stats, err := triangle.EnumerateContext(obs.ContextWithSpan(ctx, sp), view,
		triangle.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Checksum:  checksumString(set.Checksum()),
		ComputeNS: time.Since(start).Nanoseconds(),
		Triangles: set.Len(),
		Rounds:    stats.Rounds,
		Messages:  stats.Messages,
	}
	sorted := set.Sorted()
	if len(sorted) > p.Limit {
		sorted = sorted[:p.Limit]
		res.Truncated = true
	}
	res.List = make([][3]int, len(sorted))
	for i, t := range sorted {
		res.List[i] = [3]int{t.A, t.B, t.C}
	}
	return res, nil
}

// DistCountParams configures the distributed triangle count. The
// coordinator cuts the snapshot's forward CSR into row ranges, deals
// them across the configured peer fleet and reduces the per-range counts
// in range order; with no peers configured it runs the local 2D kernel.
// Both paths produce the same count and therefore the same checksum —
// the bit-identity the bench matrix pins serve-dist cells against
// count-2d cells with.
type DistCountParams struct {
	// Grid forces the number of row ranges the job is cut into, each
	// balanced by wedge work; a grid above the graph's vertex count is
	// clamped to it. 0 (the default) sizes it from the fleet: four
	// ranges per in-flight request slot (peers x DistWindow), at most
	// maxDistGrid.
	Grid int `json:"grid,omitempty"`
}

// Algorithm returns "triangle-count-dist".
func (p DistCountParams) Algorithm() string { return "triangle-count-dist" }

func (p DistCountParams) normalize() Params { return p }

// maxDistGrid caps DistCountParams.Grid, and with it the row ranges of
// the largest job and of any one count request a replica accepts.
const maxDistGrid = 64

func (p DistCountParams) validate() error {
	if p.Grid < 0 || p.Grid > maxDistGrid {
		return fmt.Errorf("service: grid = %d out of [0,%d]", p.Grid, maxDistGrid)
	}
	return nil
}

func (p DistCountParams) canon() string { return fmt.Sprintf("grid=%d", p.Grid) }

// run counts triangles through the distribution layer. The total is the
// per-range counts reduced in range order, so it is bit-identical to
// triangle.CountParallel2D for every peer count — including zero, where
// it IS the local kernel. The checksum digests the count alone, exactly
// like the count-2d bench cells.
func (p DistCountParams) run(ctx context.Context, view *graph.Sub, env runEnv) (*Result, error) {
	if len(env.svc.cfg.Peers) == 0 {
		return countLocal(ctx, view, "2d-local", false)
	}
	return env.svc.distCount(ctx, view, env.snap, p.Grid)
}

// countLocal runs one shared-memory count on a forward CSR built for
// this computation, under a "count" span tagged with kernel; the kernel
// hangs one "triangle.rows" span per row range under it. With list set
// it collects the triangle set (Forward.Set) and the checksum digests
// the set; otherwise it counts (Forward.Count) and the checksum digests
// the count alone. The CSR is not kept: the result cache answers every
// repeat of the query.
func countLocal(ctx context.Context, view *graph.Sub, kernel string, list bool) (*Result, error) {
	sp := obs.SpanFromContext(ctx).Child("count")
	sp.Attr("kernel", kernel)
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	start := time.Now()
	fw := triangle.NewForward(view)
	res := &Result{}
	if list {
		set, err := fw.Set(ctx, 0)
		if err != nil {
			return nil, err
		}
		res.Triangles, res.Checksum = set.Len(), checksumString(set.Checksum())
	} else {
		n, err := fw.Count(ctx, 0)
		if err != nil {
			return nil, err
		}
		res.Triangles, res.Checksum = n, checksumString(triangle.HashWords(uint64(n)))
	}
	res.ComputeNS = time.Since(start).Nanoseconds()
	return res, nil
}

// checksumString renders a digest the way every bench cell does, so
// service responses diff directly against BENCH_*.json checksums.
func checksumString(sum uint64) string { return fmt.Sprintf("fnv64:%016x", sum) }
