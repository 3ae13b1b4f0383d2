// Package service is the long-running graph analytics layer on top of
// the library's kernels: a snapshot registry of immutable, fingerprinted
// graphs, and a single-flight result cache that runs the expensive
// computations (expander decomposition, triangle counting/enumeration)
// exactly once per (snapshot, algorithm, params) key on a bounded worker
// pool. cmd/dexpanderd exposes it over HTTP/JSON; see README.md for the
// architecture and endpoint schema.
//
// The design follows the paper's own cost structure: the decomposition
// is an expensive, reusable preprocessing artifact that many cheap
// queries amortize against, which is exactly a cache-plus-server shape.
//
// Concurrency contract: N concurrent identical requests trigger exactly
// one computation; everyone (the computing request and all joiners)
// receives the same cached Result, so responses are byte-identical
// across repetitions. Work is admitted onto a fixed pool of Workers
// goroutines behind a bounded queue — when the queue is full, Query
// fails fast with ErrBusy (retryable) instead of spawning unbounded
// goroutines.
//
// Multi-tenancy contract: every request carries a tenant (empty means
// DefaultTenant). Tenants are isolated by per-tenant quotas — snapshot
// references, concurrently admitted computations, and a request-rate
// token bucket — so one hostile or buggy client saturates its own share
// and gets ErrQuota, not the whole pool. Cancellation is cooperative
// and flows from the caller's context through the flight into the
// kernels, which probe it at task boundaries (par.ForEachContext, so a
// triangle count stops at its next row range): when the LAST waiter on
// a flight abandons it, the flight's context is canceled, the worker is
// freed within one task, and the canceled flight's error is never
// cached.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/obs"
	"dexpander/internal/par"
)

// DefaultTenant is the tenant every request without an explicit tenant
// (no X-Tenant header, empty string in the Go API) is accounted to.
const DefaultTenant = "default"

// Errors the API maps to distinct HTTP statuses; see errorCodes in
// server.go for the envelope codes.
var (
	// ErrBusy means the compute queue is full; the request was not
	// admitted and can be retried later.
	ErrBusy = errors.New("service: compute queue full, retry later")
	// ErrQuota means the calling tenant exhausted one of its quotas
	// (snapshot references, in-flight computations, or request rate);
	// the request can be retried after a backoff, or after the tenant
	// releases resources.
	ErrQuota = errors.New("service: tenant quota exceeded")
	// ErrNotFound means the snapshot id is not registered.
	ErrNotFound = errors.New("service: snapshot not found")
	// ErrRegistryFull means the snapshot registry is at capacity and
	// every resident snapshot is still referenced.
	ErrRegistryFull = errors.New("service: snapshot registry full")
	// ErrClosed means the service has been shut down.
	ErrClosed = errors.New("service: closed")
	// ErrCanceled means the caller's context was canceled while waiting;
	// if that caller was the flight's last waiter, the computation itself
	// was also canceled and nothing was cached.
	ErrCanceled = errors.New("service: request canceled")
	// ErrDeadline is ErrCanceled's deadline flavor: the caller's context
	// deadline expired while waiting.
	ErrDeadline = errors.New("service: deadline exceeded")
	// ErrCompute wraps a failed computation — a server-side fault, not a
	// request problem (the HTTP layer maps it to 500).
	ErrCompute = errors.New("service: computation failed")
	// ErrFragmentMissing means a distributed-count request named a
	// snapshot whose CSR this replica does not hold (never sent, evicted,
	// or lost in a restart); the coordinator re-pushes it and retries.
	ErrFragmentMissing = errors.New("service: fragment not resident")
	// ErrFragmentTooLarge means a pushed snapshot CSR exceeds this
	// replica's MaxFragmentBytes; the coordinator stops offering that
	// snapshot to the replica and counts its share locally.
	ErrFragmentTooLarge = errors.New("service: fragment exceeds the replica cache bound")
)

// Config sizes the service.
type Config struct {
	// Workers is the compute pool size; 0 means GOMAXPROCS.
	Workers int
	// Queue is the pending-computation queue capacity; 0 means
	// 4*Workers. A full queue makes Query return ErrBusy.
	Queue int
	// MaxSnapshots caps the registry; 0 means 64. Eviction is purely
	// ref-counted (Release to zero evicts), so registering into a full
	// registry fails with ErrRegistryFull until something is released.
	MaxSnapshots int
	// MaxGenParam caps every generator-spec parameter, bounding the size
	// of instances untrusted specs can demand; 0 means 1<<20.
	MaxGenParam float64
	// MaxResults bounds the result cache; 0 means 256. When a fresh
	// computation would exceed it, the completed entry with the lowest
	// cost/age score is evicted (cheap-to-recompute and cold results go
	// first; an expensive decomposition outlives many cheap counts).
	MaxResults int
	// MaxTenants caps the number of distinct tenants the service will
	// track; 0 means 64. Requests from further tenants fail with
	// ErrQuota (tenant state is never evicted, so the cap bounds the
	// accounting memory an open endpoint can be made to allocate).
	MaxTenants int
	// TenantMaxSnapshots caps one tenant's concurrently held snapshot
	// references; 0 disables the per-tenant cap (the shared MaxSnapshots
	// registry bound alone governs).
	TenantMaxSnapshots int
	// TenantMaxInFlight caps one tenant's concurrently admitted
	// computations (queued + running; joins of existing flights are
	// free); 0 disables the per-tenant cap, so pool backpressure alone
	// governs. A tenant over its cap gets ErrQuota even while the pool
	// has room — that headroom is what the other tenants are owed.
	TenantMaxInFlight int
	// RatePerSec is the per-tenant request-rate token bucket's refill
	// rate, in requests per second, applied to registrations and
	// queries; 0 disables rate limiting.
	RatePerSec float64
	// RateBurst is the bucket depth; 0 means max(2*RatePerSec, 1).
	RateBurst float64

	// Peers is the replica fleet the triangle-count-dist coordinator deals
	// row ranges across (base URLs, e.g. "http://10.0.0.2:8080").
	// Empty means no fleet: count-dist falls back to the local 2D kernel.
	Peers []string
	// DistWindow bounds the coordinator's in-flight count requests per
	// peer, each one a batch of row ranges, and its connections to
	// each peer, which concurrent jobs share; 0 means 4.
	DistWindow int
	// MaxFragmentBytes bounds this replica's fragment cache, which holds
	// one whole forward CSR per snapshot (encoded bytes); 0 means 256
	// MiB. Admitting a CSR evicts least-recently-used snapshots first; a
	// CSR larger than the bound is refused with ErrFragmentTooLarge.
	MaxFragmentBytes int64

	// Tracer records request/compute spans (nil disables tracing: every
	// probe collapses to a pointer test and outputs are bit-identical
	// either way). Traces are retrievable at GET /v1/debug/traces/{id}
	// and feed the per-phase series on GET /metrics.
	Tracer *obs.Tracer
	// Logger receives structured request/query logs (nil disables
	// logging); dexpanderd passes obs.NewJSONLogger.
	Logger *slog.Logger
	// SlowQuery marks queries and requests slower than this with
	// slow=true at warn level; 0 disables the threshold.
	SlowQuery time.Duration
}

// withDefaults also clamps negative values to the defaults (an operator
// typo like -queue -1 must not panic make(chan, -1) or dead-end every
// registration).
func (c Config) withDefaults() Config {
	c.Workers = par.Workers(c.Workers)
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 64
	}
	if c.MaxGenParam <= 0 {
		c.MaxGenParam = 1 << 20
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 256
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.TenantMaxSnapshots < 0 {
		c.TenantMaxSnapshots = 0
	}
	if c.TenantMaxInFlight < 0 {
		c.TenantMaxInFlight = 0
	}
	if c.RatePerSec < 0 {
		c.RatePerSec = 0
	}
	if c.RateBurst <= 0 {
		c.RateBurst = max(2*c.RatePerSec, 1)
	}
	if c.DistWindow <= 0 {
		c.DistWindow = 4
	}
	if c.MaxFragmentBytes <= 0 {
		c.MaxFragmentBytes = 256 << 20
	}
	return c
}

// Snapshot is one immutable registered graph. The fingerprint (an FNV-1a
// digest of the canonical edge list, see graph.Fingerprint) is the
// identity: registering the same graph again — whether uploaded or
// generated — dedups onto the existing snapshot and bumps its refcount.
type Snapshot struct {
	// ID is the stable handle, "fnv64:" + 16 hex digits of the
	// fingerprint.
	ID string `json:"id"`
	// N and M describe the graph.
	N int `json:"n"`
	M int `json:"m"`
	// Refs is the current total reference count across tenants; Release
	// decrements the releasing tenant's share and the snapshot (plus its
	// cached results) is evicted when the total reaches zero.
	Refs int `json:"refs"`
	// Spec is the generator spec when registered that way (nil for
	// uploads).
	Spec *gen.Spec `json:"spec,omitempty"`

	fingerprint uint64
	seq         uint64         // registration order; Snapshots() lists in it
	refsBy      map[string]int // per-tenant share of Refs
	view        *graph.Sub
	dist        *snapDist // count-dist's cached forward CSR and peer residency
}

// cacheKey identifies one cached computation.
type cacheKey struct {
	fingerprint uint64
	algorithm   string
	params      string // canonical, defaults applied
}

// entry is one single-flight cache slot. done is closed when result/err
// are final; every waiter (including the computing request itself) reads
// them only after done. ctx is the flight's own cancelable context —
// derived from Background, not from any single waiter, because joiners
// outlive the first caller; cancel fires only when the LAST waiter
// abandons the flight.
type entry struct {
	key    cacheKey
	snap   *Snapshot
	tenant string // admitting tenant, charged for the computation
	run    func(ctx context.Context, view *graph.Sub) (*Result, error)

	ctx    context.Context
	cancel context.CancelFunc

	done      chan struct{}
	completed bool
	waiters   int // callers blocked on done while in flight
	result    *Result
	err       error

	cost     int64  // compute cost (ns) backing the eviction score
	lastUsed uint64 // logical tick of admission or last cache hit

	span *obs.Span // compute span of the admitting trace (nil = untraced)
}

// Hist is a self-describing power-of-two histogram: Counts[i] counts
// observations v with v <= Le[i] (and > Le[i-1]); Counts[len(Le)] is the
// overflow bucket. Le[i] = 2^(i+1)-1. Sum totals the observed values
// (additive schema v3 field; it feeds the Prometheus _sum sample).
type Hist struct {
	Le     []uint64 `json:"le"`
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
}

func newHist(buckets int) *Hist {
	le := make([]uint64, buckets)
	for i := range le {
		le[i] = 1<<uint(i+1) - 1
	}
	return &Hist{Le: le, Counts: make([]uint64, buckets+1)}
}

func (h *Hist) observe(v uint64) {
	h.Sum += v
	for i, le := range h.Le {
		if v <= le {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Le)]++
}

func (h *Hist) clone() *Hist {
	if h == nil {
		return nil
	}
	cp := &Hist{Le: make([]uint64, len(h.Le)), Counts: make([]uint64, len(h.Counts)), Sum: h.Sum}
	copy(cp.Le, h.Le)
	copy(cp.Counts, h.Counts)
	return cp
}

// TenantStats is one tenant's section of the stats schema.
type TenantStats struct {
	// Queries counts every Query call attributed to the tenant,
	// regardless of outcome.
	Queries uint64 `json:"queries"`
	// Computations counts flights this tenant admitted that actually ran.
	Computations uint64 `json:"computations"`
	Hits         uint64 `json:"hits"`
	Joins        uint64 `json:"joins"`
	Busy         uint64 `json:"busy"`
	// QuotaRejections counts ErrQuota results (rate, in-flight, or
	// snapshot quota).
	QuotaRejections uint64 `json:"quota_rejections"`
	// Cancellations counts flights canceled with this tenant as the last
	// abandoning waiter.
	Cancellations uint64 `json:"cancellations"`
	// SnapshotRefs and InFlight are the live quota gauges.
	SnapshotRefs int `json:"snapshot_refs"`
	InFlight     int `json:"in_flight"`
}

// Stats is the service's observable state, served by /v1/stats.
//
// SchemaVersion 3 drops the deprecated v1 alias kept exactly one release
// by schema v2: "evictions" (the snapshot eviction count) is now
// "snapshot_evictions", symmetric with "cache_evictions" and the new
// "fragment_evictions". v3 also adds the distributed-count section:
// fragment-cache counters and the coordinator's triple counter. See
// README.md for the v1 -> v2 -> v3 mapping.
type Stats struct {
	SchemaVersion int `json:"schema_version"`

	Snapshots    int    `json:"snapshots"`
	CacheEntries int    `json:"cache_entries"`
	InFlight     int    `json:"in_flight"`
	Workers      int    `json:"workers"`
	QueueCap     int    `json:"queue_cap"`
	Computations uint64 `json:"computations"`
	Hits         uint64 `json:"hits"`
	Joins        uint64 `json:"joins"`
	Busy         uint64 `json:"busy"`
	// SnapshotEvictions counts snapshot registry evictions (named
	// "evictions" through schema v2).
	SnapshotEvictions uint64 `json:"snapshot_evictions"`

	// v2 fields.
	QueueDepth      int                    `json:"queue_depth"` // queued, not yet running
	MaxResults      int                    `json:"max_results"`
	CacheEvictions  uint64                 `json:"cache_evictions"`
	Cancellations   uint64                 `json:"cancellations"`
	QuotaRejections uint64                 `json:"quota_rejections"`
	Tenants         map[string]TenantStats `json:"tenants"`
	// ComputeLatencyUS observes each completed computation's wall time in
	// microseconds; QueueDepthHist observes the queue depth at each
	// admission.
	ComputeLatencyUS *Hist `json:"compute_latency_us"`
	QueueDepthHist   *Hist `json:"queue_depth_hist"`

	// v3 fields: the replica-side fragment cache and the coordinator.
	// The cache holds one whole forward CSR per snapshot. FragmentStores
	// counts CSRs admitted (each store is one decode + insert; a re-push
	// of a resident snapshot stores nothing); FragmentHits counts
	// dist-count requests served from a resident CSR, one per request;
	// together they show each snapshot's CSR is fetched at most once per
	// replica per residency.
	FragmentStores    uint64 `json:"fragment_stores"`
	FragmentHits      uint64 `json:"fragment_hits"`
	FragmentBytes     int64  `json:"fragment_bytes"`
	FragmentEvictions uint64 `json:"fragment_evictions"`
	// DistTriples counts row-range tasks this replica counted for remote
	// coordinators (the name predates row ranges).
	DistTriples uint64 `json:"dist_triples"`

	// Decompose maps each decomposition backend name to its computation
	// counters (additive within schema v3). Keys appear on first use and
	// are the RESOLVED backend — an auto request is accounted to the
	// backend it selected. Counters cover computations only: cache hits
	// and joins never re-run a backend and are not recorded here.
	Decompose map[string]*BackendStats `json:"decompose,omitempty"`

	// DistPeers maps each configured replica base URL to this
	// coordinator's per-peer counters (additive within schema v3; keys
	// appear on first use, so a coordinator that never ran a dist job
	// has an empty section). These are the per-peer series on /metrics.
	DistPeers map[string]*PeerDistStats `json:"dist_peers,omitempty"`
}

// PeerDistStats is one replica's section of Stats.DistPeers, accounted
// on the coordinator.
type PeerDistStats struct {
	// Triples counts row-range tasks this peer answered (the name
	// predates row ranges).
	Triples uint64 `json:"triples"`
	// Pushes counts snapshot CSR uploads to this peer — one per snapshot
	// while it stays resident, plus a re-push after each fragment_missing;
	// PushBytes totals their encoded sizes.
	Pushes    uint64 `json:"pushes"`
	PushBytes int64  `json:"push_bytes"`
	// Failures counts the jobs in which a rejected push or a transport
	// error marked the peer dead (its remaining ranges failed over to
	// the surviving peers). A request cut short by the job's own
	// cancellation or deadline is not a failure, and neither is a CSR
	// the peer refuses as too large for its cache.
	Failures uint64 `json:"failures"`
}

// BackendStats is one decomposition backend's section of Stats.Decompose.
type BackendStats struct {
	// Requests counts computations this backend ran to completion
	// (successful or post-verification-rejected; canceled flights that
	// never reached the backend are not counted).
	Requests uint64 `json:"requests"`
	// LatencyUS observes each computation's wall time in microseconds.
	LatencyUS *Hist `json:"latency_us"`
}

// recordDecomposeBackend accounts one decomposition computation to the
// backend that ran it. It takes s.mu itself: computations call it from
// pool workers, which must not touch mu-guarded state directly.
func (s *Service) recordDecomposeBackend(name string, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.stats.Decompose[name]
	if !ok {
		bs = &BackendStats{LatencyUS: newHist(24)}
		s.stats.Decompose[name] = bs
	}
	bs.Requests++
	bs.LatencyUS.observe(uint64(elapsed.Microseconds()))
}

// recordDistPeer accounts coordinator-side dist activity to one peer.
// Takes s.mu itself: the coordinator calls it from per-peer goroutines.
func (s *Service) recordDistPeer(base string, f func(*PeerDistStats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, ok := s.stats.DistPeers[base]
	if !ok {
		ps = &PeerDistStats{}
		s.stats.DistPeers[base] = ps
	}
	f(ps)
}

// tenant is one tenant's quota and accounting state.
type tenant struct {
	inFlight int // admitted (queued+running) computations
	snapRefs int // held snapshot references
	tokens   float64
	lastFill time.Time
	stats    TenantStats
}

// allow is the token-bucket gate: refill from elapsed wall time, then
// spend one token or reject. rate <= 0 disables the bucket.
func (t *tenant) allow(now time.Time, rate, burst float64) bool {
	if rate <= 0 {
		return true
	}
	if t.lastFill.IsZero() {
		t.tokens = burst
	} else {
		t.tokens = min(burst, t.tokens+now.Sub(t.lastFill).Seconds()*rate)
	}
	t.lastFill = now
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// Service is the concurrency-safe registry + cache + pool.
type Service struct {
	cfg Config
	now func() time.Time // injectable clock for the token buckets

	mu      sync.Mutex
	closed  bool
	nextSeq uint64
	tick    uint64 // logical clock driving the eviction ages
	snaps   map[string]*Snapshot
	cache   map[cacheKey]*entry
	tenants map[string]*tenant
	stats   Stats

	// Replica-side fragment cache, one snapshot CSR per id; see dist.go.
	frags     map[string]*fragEntry
	fragBytes int64
	fragTick  uint64 // LRU clock for fragment eviction

	// peerHTTP carries every request the count-dist coordinator sends
	// its peers. Its transport holds at most DistWindow connections per
	// host — the most a peer's batches use at once — and keeps them idle
	// between jobs, so repeated jobs reuse them instead of dialing anew.
	// The cap also stops a request that finds no idle connection from
	// dialing one more while another is about to come free.
	peerHTTP *http.Client

	work chan *entry
	wg   sync.WaitGroup
}

// New starts a service with cfg's pool and queue.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		now:     time.Now,
		snaps:   make(map[string]*Snapshot),
		cache:   make(map[cacheKey]*entry),
		tenants: make(map[string]*tenant),
		frags:   make(map[string]*fragEntry),
		work:    make(chan *entry, cfg.Queue),
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no fleet-wide cap: the per-host one governs
	tr.MaxIdleConnsPerHost = cfg.DistWindow
	tr.MaxConnsPerHost = cfg.DistWindow
	s.peerHTTP = &http.Client{Transport: tr}
	s.stats.Decompose = make(map[string]*BackendStats)
	s.stats.DistPeers = make(map[string]*PeerDistStats)
	s.stats.SchemaVersion = 3
	s.stats.Workers = cfg.Workers
	s.stats.QueueCap = cfg.Queue
	s.stats.MaxResults = cfg.MaxResults
	s.stats.ComputeLatencyUS = newHist(24) // up to ~16.8s, overflow beyond
	s.stats.QueueDepthHist = newHist(12)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Close drains the pool and rejects further work. In-flight computations
// finish (or notice their canceled flight context); their waiters are
// served normally.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.work)
	s.wg.Wait()
	s.peerHTTP.CloseIdleConnections()
}

// tenantOf resolves and (on first contact) creates the tenant's state.
// Returns ErrQuota when a NEW tenant would exceed MaxTenants.
func (s *Service) tenantOf(name string) (*tenant, error) {
	if name == "" {
		name = DefaultTenant
	}
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("%w: tenant table full (%d tenants)", ErrQuota, s.cfg.MaxTenants)
	}
	t := &tenant{}
	s.tenants[name] = t
	return t, nil
}

// admitTenant runs the shared per-request gates (tenant resolution +
// rate limit) under s.mu. The returned name is the normalized tenant.
func (s *Service) admitTenant(name string) (string, *tenant, error) {
	if name == "" {
		name = DefaultTenant
	}
	t, err := s.tenantOf(name)
	if err != nil {
		s.stats.QuotaRejections++
		return name, nil, err
	}
	if !t.allow(s.now(), s.cfg.RatePerSec, s.cfg.RateBurst) {
		s.stats.QuotaRejections++
		t.stats.QuotaRejections++
		return name, t, fmt.Errorf("%w: request rate", ErrQuota)
	}
	return name, t, nil
}

func (s *Service) worker() {
	defer s.wg.Done()
	for e := range s.work {
		var res *Result
		var err error
		var elapsed time.Duration
		ran := false
		if err = e.ctx.Err(); err != nil {
			// Canceled while still queued: every waiter is gone and the
			// entry is already unlinked; don't burn the worker on it.
			err = fmt.Errorf("%w: %v", ErrCanceled, err)
			e.span.Attr("outcome", "canceled_queued")
		} else {
			ran = true
			start := time.Now()
			res, err = e.run(e.ctx, e.snap.view)
			elapsed = time.Since(start)
			switch {
			case err != nil:
				e.span.Attr("outcome", "error")
			default:
				e.span.Attr("outcome", "ok")
			}
		}
		e.span.End()
		s.mu.Lock()
		e.completed = true
		e.result, e.err = res, err
		// The eviction score uses the result's own compute cost when it
		// reports one (so cost is stable across re-serves), else the
		// measured wall time.
		e.cost = elapsed.Nanoseconds()
		if res != nil && res.ComputeNS > 0 {
			e.cost = res.ComputeNS
		}
		s.stats.InFlight--
		if t := s.tenants[e.tenant]; t != nil {
			t.inFlight--
			if ran {
				t.stats.Computations++
			}
		}
		if ran {
			s.stats.Computations++
			s.stats.ComputeLatencyUS.observe(uint64(elapsed.Microseconds()))
		}
		if err != nil {
			// Failed and canceled computations are not cached: the next
			// identical request retries instead of replaying the error
			// forever. Only unlink OUR entry — after an eviction plus
			// re-registration, the key may already hold a newer flight.
			if cur, ok := s.cache[e.key]; ok && cur == e {
				delete(s.cache, e.key)
			}
		}
		s.mu.Unlock()
		e.cancel() // release the flight context's resources
		close(e.done)
	}
}

// snapshotID renders a fingerprint as the stable snapshot handle.
func snapshotID(fp uint64) string { return fmt.Sprintf("fnv64:%016x", fp) }

// register adds g to the registry (or dedups onto the resident snapshot
// with the same fingerprint) and bumps the tenant's refcount share.
func (s *Service) register(tn string, g *graph.Graph, spec *gen.Spec) (*Snapshot, error) {
	fp := g.Fingerprint()
	id := snapshotID(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	tn, t, err := s.admitTenant(tn)
	if err != nil {
		return nil, err
	}
	if s.cfg.TenantMaxSnapshots > 0 && t.snapRefs >= s.cfg.TenantMaxSnapshots {
		s.stats.QuotaRejections++
		t.stats.QuotaRejections++
		return nil, fmt.Errorf("%w: snapshot references (%d held, max %d)",
			ErrQuota, t.snapRefs, s.cfg.TenantMaxSnapshots)
	}
	if snap, ok := s.snaps[id]; ok {
		snap.Refs++
		snap.refsBy[tn]++
		t.snapRefs++
		cp := *snap
		return &cp, nil
	}
	if len(s.snaps) >= s.cfg.MaxSnapshots {
		return nil, ErrRegistryFull
	}
	snap := &Snapshot{
		ID:          id,
		N:           g.N(),
		M:           g.M(),
		Refs:        1,
		Spec:        spec,
		fingerprint: fp,
		seq:         s.nextSeq,
		refsBy:      map[string]int{tn: 1},
		view:        graph.WholeGraph(g),
		dist:        newSnapDist(len(s.cfg.Peers)),
	}
	t.snapRefs++
	s.nextSeq++
	s.snaps[id] = snap
	cp := *snap
	return &cp, nil
}

// evictLocked removes the snapshot and every cached result keyed to its
// fingerprint, and frees its count-dist CSR. In-flight entries stay
// reachable by their waiters but are unlinked from the cache.
func (s *Service) evictLocked(snap *Snapshot) {
	delete(s.snaps, snap.ID)
	snap.dist.free()
	for k := range s.cache {
		if k.fingerprint == snap.fingerprint {
			delete(s.cache, k)
		}
	}
	s.stats.SnapshotEvictions++
}

// RegisterGraph registers an uploaded graph under the tenant ("" means
// DefaultTenant).
func (s *Service) RegisterGraph(tenant string, g *graph.Graph) (*Snapshot, error) {
	return s.register(tenant, g, nil)
}

// RegisterSpec validates the spec against the registry and the MaxGenParam
// bound, builds the instance, and registers it under the tenant.
func (s *Service) RegisterSpec(tenant string, spec gen.Spec) (*Snapshot, error) {
	if err := spec.Validate(s.cfg.MaxGenParam); err != nil {
		return nil, err
	}
	g, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return s.register(tenant, g, &spec)
}

// Release drops one of the tenant's references to the snapshot; when the
// TOTAL refcount reaches zero the snapshot and all of its cached results
// are evicted. Releasing a snapshot the tenant holds no reference to is
// an error (a tenant cannot spend another tenant's quota). Returns the
// remaining total count.
func (s *Service) Release(tenant, id string) (int, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snaps[id]
	if !ok {
		return 0, ErrNotFound
	}
	if snap.refsBy[tenant] == 0 {
		return 0, fmt.Errorf("service: tenant %q holds no reference to %s", tenant, id)
	}
	snap.refsBy[tenant]--
	if snap.refsBy[tenant] == 0 {
		delete(snap.refsBy, tenant)
	}
	snap.Refs--
	if t := s.tenants[tenant]; t != nil && t.snapRefs > 0 {
		t.snapRefs--
	}
	if snap.Refs == 0 {
		s.evictLocked(snap)
		return 0, nil
	}
	return snap.Refs, nil
}

// Snapshot returns a copy of the snapshot's metadata.
func (s *Service) Snapshot(id string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snaps[id]
	if !ok {
		return nil, ErrNotFound
	}
	cp := *snap
	return &cp, nil
}

// Snapshots lists the registry, sorted by registration order.
func (s *Service) Snapshots() []*Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Snapshot, 0, len(s.snaps))
	for _, snap := range s.snaps {
		cp := *snap
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Stats returns a deep copy of the counters (histograms and tenant
// sections included).
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Snapshots = len(s.snaps)
	st.CacheEntries = len(s.cache)
	st.QueueDepth = len(s.work)
	st.ComputeLatencyUS = s.stats.ComputeLatencyUS.clone()
	st.QueueDepthHist = s.stats.QueueDepthHist.clone()
	st.Decompose = make(map[string]*BackendStats, len(s.stats.Decompose))
	for name, bs := range s.stats.Decompose {
		st.Decompose[name] = &BackendStats{Requests: bs.Requests, LatencyUS: bs.LatencyUS.clone()}
	}
	st.DistPeers = make(map[string]*PeerDistStats, len(s.stats.DistPeers))
	for base, ps := range s.stats.DistPeers {
		cp := *ps
		st.DistPeers[base] = &cp
	}
	st.Tenants = make(map[string]TenantStats, len(s.tenants))
	for name, t := range s.tenants {
		ts := t.stats
		ts.SnapshotRefs = t.snapRefs
		ts.InFlight = t.inFlight
		st.Tenants[name] = ts
	}
	return st
}

// evictResultLocked makes room for one fresh cache entry: when the cache
// is at MaxResults, the completed entry with the lowest cost/age score
// is dropped (age in logical Query ticks since last use — cheap, cold
// results go first; expensive artifacts like decompositions survive).
// In-flight entries are never evicted (their waiters hold them); if
// every entry is in flight the insert transiently overshoots — in-flight
// count is already bounded by Workers+Queue.
func (s *Service) evictResultLocked() {
	if len(s.cache) < s.cfg.MaxResults {
		return
	}
	var victim *entry
	var best float64
	for _, e := range s.cache {
		if !e.completed {
			continue
		}
		age := s.tick - e.lastUsed + 1
		score := float64(e.cost) / float64(age)
		// Deterministic tie-breaks: older entry first, then key order —
		// map iteration order must not pick the victim.
		if victim == nil || score < best ||
			(score == best && (e.lastUsed < victim.lastUsed ||
				(e.lastUsed == victim.lastUsed && lessKey(e.key, victim.key)))) {
			victim, best = e, score
		}
	}
	if victim != nil {
		delete(s.cache, victim.key)
		s.stats.CacheEvictions++
	}
}

func lessKey(a, b cacheKey) bool {
	if a.fingerprint != b.fingerprint {
		return a.fingerprint < b.fingerprint
	}
	if a.algorithm != b.algorithm {
		return a.algorithm < b.algorithm
	}
	return a.params < b.params
}

// ctxError maps a done context onto the service's sentinel errors.
func ctxError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrDeadline, ctx.Err())
	}
	return fmt.Errorf("%w: %v", ErrCanceled, ctx.Err())
}

// Query resolves (tenant, id, params) through the single-flight cache: a
// cached result returns immediately, an in-flight identical request is
// joined, and a fresh key is admitted onto the worker pool — or rejected
// with ErrBusy when the queue is full, or ErrQuota when the tenant is
// over a quota. ctx cancels the WAIT always, and cancels the COMPUTATION
// when this caller was the flight's last waiter: the flight context is
// canceled, the kernel notices at its next checkpoint, the worker frees
// within one checkpoint interval, and nothing is cached. Uncanceled
// results are bit-identical to direct library calls for every worker
// count and tenant.
func (s *Service) Query(ctx context.Context, tn, id string, p Params) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		return nil, errors.New("service: nil params")
	}
	p = p.normalize()
	if err := p.validate(); err != nil {
		return nil, err
	}
	algorithm := p.Algorithm()
	canon := p.canon()
	env := runEnv{svc: s}

	q := s.beginQuery(ctx, id, algorithm, canon)
	q.setTenant(tn)
	defer func() { q.finish(res, err) }()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	tn, t, err := s.admitTenant(tn)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	q.setTenant(tn)
	t.stats.Queries++
	snap, ok := s.snaps[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	s.tick++
	key := cacheKey{fingerprint: snap.fingerprint, algorithm: algorithm, params: canon}
	if e, ok := s.cache[key]; ok {
		if e.completed {
			s.stats.Hits++
			t.stats.Hits++
			e.lastUsed = s.tick
			res, err := e.result, e.err
			s.mu.Unlock()
			q.served("hit")
			return res, err
		}
		s.stats.Joins++
		t.stats.Joins++
		e.waiters++
		s.mu.Unlock()
		q.served("join")
		return s.wait(ctx, tn, e)
	}
	if s.cfg.TenantMaxInFlight > 0 && t.inFlight >= s.cfg.TenantMaxInFlight {
		s.stats.QuotaRejections++
		t.stats.QuotaRejections++
		held := t.inFlight
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: in-flight computations (%d admitted, max %d)",
			ErrQuota, held, s.cfg.TenantMaxInFlight)
	}
	env.snap = snap
	csp := q.computeSpan()
	fctx, fcancel := context.WithCancel(obs.ContextWithSpan(context.Background(), csp))
	e := &entry{
		span:   csp,
		key:    key,
		snap:   snap,
		tenant: tn,
		run: func(ctx context.Context, view *graph.Sub) (*Result, error) {
			res, err := p.run(ctx, view, env)
			if err != nil {
				if ctx.Err() != nil {
					return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
				}
				// Params were validated up front, so a run failure is a
				// server-side fault; tag it so the HTTP layer reports
				// 500, not 400.
				return nil, fmt.Errorf("%w: %v", ErrCompute, err)
			}
			res.Algorithm = algorithm
			res.Params = canon
			return res, nil
		},
		ctx:      fctx,
		cancel:   fcancel,
		done:     make(chan struct{}),
		waiters:  1,
		lastUsed: s.tick,
	}
	// Admission control under the lock: either the queue has room now and
	// the entry becomes the key's single flight, or the caller gets
	// ErrBusy and nothing is recorded.
	select {
	case s.work <- e:
		s.evictResultLocked()
		s.cache[key] = e
		s.stats.InFlight++
		t.inFlight++
		s.stats.QueueDepthHist.observe(uint64(len(s.work)))
	default:
		s.stats.Busy++
		t.stats.Busy++
		s.mu.Unlock()
		fcancel()
		// The compute span never reaches a worker; close it here so
		// the trace shows the rejected admission.
		e.span.Attr("outcome", "busy").End()
		return nil, ErrBusy
	}
	s.mu.Unlock()
	q.served("computed")
	return s.wait(ctx, tn, e)
}

// wait blocks on the flight until it completes or ctx is done. A caller
// abandoning an in-flight entry decrements its waiter count; the LAST
// abandoning waiter cancels the flight context and unlinks the entry
// from the cache immediately, so a fresh identical request starts a new
// flight instead of joining a dying one.
func (s *Service) wait(ctx context.Context, tn string, e *entry) (*Result, error) {
	select {
	case <-e.done:
		return e.result, e.err
	case <-ctx.Done():
		s.mu.Lock()
		if !e.completed {
			e.waiters--
			if e.waiters == 0 {
				e.cancel()
				if cur, ok := s.cache[e.key]; ok && cur == e {
					delete(s.cache, e.key)
				}
				s.stats.Cancellations++
				if t := s.tenants[tn]; t != nil {
					t.stats.Cancellations++
				}
			}
		}
		s.mu.Unlock()
		return nil, ctxError(ctx)
	}
}
